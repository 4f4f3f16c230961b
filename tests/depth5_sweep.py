"""Depth-5 coherence sweep, `leq` pairs, membership pairs and the order
grid, run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/depth5_sweep.py

Moderate, negligible and strictly nonzero are decided for `random_net`
seeds 400-999 in all three tiers at depth 5, and `leq` for the smooth
pairs (seed s, seed s + 5000) with s in 0-299 at depths 3 and 4.  Every
decided verdict is replayed by `verify_decision`, which reads the
witness thresholds the deciders leave unscanned.  Membership y in x*R
is decided for the pairs of `test_ideals.membership_pairs`, seeds 0-59
at depths 2 and 3, each True answer replayed by `membership` itself.
The order grid asks `leq` the 12 domination bounds of each depth-2
pair and checks its verdicts against the implications between the
bounds (`test_ideals.order_violations`).  Last, over the distinct
subterms of `random_net` seeds 0-999 (3 tiers, depths 3-5), no lower
envelope from `info` or `rat` may exceed an upper one
(`test_profiles.envelope_clashes`).  As under pytest, a
`RuntimeWarning` is an error.  The exit status is 1 when an exception
escapes a decider or a replay, when a replay rejects a verdict other
than the known ones below, when the order grid has a soundness or
completeness violation, or when envelopes clash; the counts are printed
either way.  After the depth-5 sweep it prints the atom memo's hits,
misses and evictions (`nets._ATOMS`), so that a memo that starts to
thrash shows in the log, and the replay work of that sweep: the
local-minimum searches of `replay_small_along` and the deep probes of
`replay_negligible` (calls of `harness._local_min_abs` and
`GridSpec.deep`, counted by wrapping them here; no count is a gate).
Then it counts the valuations of the depth-5 nets by kind (+inf, -inf,
finite, None) and exits 1 where one breaches the deciders
(`test_asymptotics.valuation_breach`).
"""

import sys
import time
import warnings
from collections import Counter

from gnum import harness, nets
from gnum.asymptotics import (is_moderate, is_negligible, is_strictly_nonzero,
                              leq, valuation)
from gnum.harness import GridSpec, random_net, verify_decision
from gnum.ideals import membership
from gnum.nets import Tier
from test_asymptotics import valuation_breach
from test_ideals import membership_pairs, order_grid, order_violations
from test_profiles import envelope_clashes

SEEDS = range(400, 1000)
DEPTH = 5
PAIR_SEEDS = range(300)
PAIR_DEPTHS = (3, 4)
PAIR_OFFSET = 5000
MEMBER_SEEDS = range(60)
MEMBER_DEPTHS = (2, 3)
ORDER_DEPTH = 2
ENVELOPE_SEEDS = range(1000)
CLAIMS = (("moderate", is_moderate), ("negligible", is_negligible),
          ("strictly-nonzero", is_strictly_nonzero))
# correct verdicts that the replay rejects: `replay_moderate` fits C = 0
# on an all-zero grid head (the three arbitrary seeds), and a vanishing
# exp(-1/(2 eps)) term misleads `replay_growth_along` (continuous 723)
KNOWN_REJECTIONS = {(Tier.Arbitrary, 575, "moderate"),
                    (Tier.Arbitrary, 648, "moderate"),
                    (Tier.Arbitrary, 750, "moderate"),
                    (Tier.Continuous, 723, "negligible")}
# `leq` pairs (depth, seed) decided True whose sampled thresholds the
# replay refutes on its finer grid: each holds a bump train or a
# sin/cos(1/eps^2) oscillator
KNOWN_PAIR_REJECTIONS = {(3, s) for s in (17, 73, 123, 175, 184, 204, 206,
                                          220, 257)} | \
    {(4, s) for s in (18, 117, 210, 248)}


def _net_cases():
    """(case, claim, decider, arguments) of the depth-5 nets."""
    for seed in SEEDS:
        for tier in Tier:
            x = random_net(seed, tier, DEPTH)
            for claim, decide in CLAIMS:
                yield (tier, seed, claim), claim, decide, (x,)


def _pair_cases():
    """(case, claim, decider, arguments) of the `leq` pairs."""
    for depth in PAIR_DEPTHS:
        for seed in PAIR_SEEDS:
            pair = (random_net(seed, Tier.Smooth, depth),
                    random_net(seed + PAIR_OFFSET, Tier.Smooth, depth))
            yield (depth, seed), "leq", leq, pair


def _sweep(cases, known, label):
    t0 = time.time()
    decisions = unknown = 0
    rejected, raised = set(), []
    for case, claim, decide, args in cases:
        decisions += 1
        try:
            t = decide(*args)
            rep = verify_decision(claim, t, *args)
        except Exception as exc:  # every escape is reported
            raised.append((*case, repr(exc)))
            continue
        if rep is None:
            unknown += 1
        elif not rep.passed:
            rejected.add(case)
    new = sorted(rejected - known)
    print(f"{label}: {decisions} decisions, {unknown} Unknown, "
          f"{len(raised)} raised, {len(rejected)} rejected by replay "
          f"({len(new)} not known), {time.time() - t0:.1f} s")
    for case in raised:
        print("raised:", *case)
    for case in new:
        print("rejected:", *case)
    for case in sorted(known - rejected):
        print("known rejection no longer seen:", *case)
    return bool(raised or new)


def _valuations() -> bool:
    """The valuation of every depth-5 net, counted by kind; True when an
    exception escapes or a valuation breaches the deciders' verdicts."""
    t0 = time.time()
    kinds, breaches, raised = Counter(), [], []
    for seed in SEEDS:
        for tier in Tier:
            x = random_net(seed, tier, DEPTH)
            try:
                v = valuation(x)
                verdicts = is_negligible(x).value, is_moderate(x).value
            except Exception as exc:  # every escape is reported
                raised.append((tier, seed, repr(exc)))
                continue
            kinds["None" if v is None else v.kind] += 1
            if valuation_breach(v, *verdicts):
                breaches.append((tier, seed, v, *verdicts))
    print(f"valuations: {kinds['plus-infinity']} +inf, "
          f"{kinds['minus-infinity']} -inf, {kinds['finite']} finite, "
          f"{kinds['None']} None, {len(breaches)} violations, "
          f"{len(raised)} raised, {time.time() - t0:.1f} s")
    for case in breaches + raised:
        print("valuation:", *case)
    return bool(breaches or raised)


def _membership_pairs() -> bool:
    """Decide every membership pair; True when an exception escapes."""
    t0 = time.time()
    verdicts, raised = Counter(), []
    for depth in MEMBER_DEPTHS:
        for seed in MEMBER_SEEDS:
            for i, (y, x) in enumerate(membership_pairs((seed,), depth)):
                try:
                    verdicts[membership(y, x).value] += 1
                except Exception as exc:  # every escape is reported
                    raised.append((depth, seed, i, repr(exc)))
    print(f"membership pairs: {sum(verdicts.values()) + len(raised)} "
          f"queries, {verdicts[True]} True, {verdicts[False]} False, "
          f"{verdicts[None]} Unknown, {len(raised)} raised, "
          f"{time.time() - t0:.1f} s")
    for case in raised:
        print("raised:", *case)
    return bool(raised)


def _order_grid() -> bool:
    """Ask the grid bounds of every depth-2 membership pair; True on a
    soundness or completeness violation."""
    t0 = time.time()
    grid = order_grid(membership_pairs(MEMBER_SEEDS, ORDER_DEPTH))
    unsound, incomplete = order_violations(grid)
    print(f"order grid: {len(grid)} pairs x {len(grid[0])} bounds, "
          f"{len(unsound)} unsound, {len(incomplete)} incomplete, "
          f"{time.time() - t0:.1f} s")
    for case in unsound:
        print("unsound:", *case)
    for case in incomplete:
        print("incomplete:", *case)
    return bool(unsound or incomplete)


def _envelopes() -> bool:
    """True when a lower envelope exceeds an upper one on a subterm."""
    t0 = time.time()
    clashes = envelope_clashes(ENVELOPE_SEEDS)
    print(f"envelopes: {len(clashes)} clashes, {time.time() - t0:.1f} s")
    for lower, upper, net in clashes:
        print(f"clash: {lower} lower above {upper} upper:", net)
    return bool(clashes)


def _counted(owner, name, counts):
    """Wrap ``owner.name`` to count its calls in ``counts[name]``; return
    the original."""
    original = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    setattr(owner, name, counted)
    return original


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    work = Counter()
    search = _counted(harness, "_local_min_abs", work)
    deep = _counted(GridSpec, "deep", work)
    failed = _sweep(_net_cases(), KNOWN_REJECTIONS, "depth 5")
    harness._local_min_abs, GridSpec.deep = search, deep
    memo = nets._ATOMS
    print(f"atom memo: {memo.hits} hits, {memo.misses} misses, "
          f"{memo.evictions} evictions")
    print(f"replay work: {work['_local_min_abs']} local-minimum searches, "
          f"{work['deep']} deep probes")
    failed |= _valuations()
    failed |= _sweep(_pair_cases(), KNOWN_PAIR_REJECTIONS, "leq pairs")
    failed |= _membership_pairs()
    failed |= _order_grid()
    failed |= _envelopes()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
