"""Depth-5 coherence sweep, run as a script (pytest does not collect it):

    PYTHONPATH=src python tests/depth5_sweep.py

Moderate, negligible and strictly nonzero are decided for `random_net`
seeds 400-999 in all three tiers at depth 5, and every decided verdict is
replayed by `verify_decision`.  As under pytest, a `RuntimeWarning` is an
error.  The exit status is 1 when an exception escapes a decider or a
replay, or when a replay rejects a verdict other than the four known
oracle false alarms below; the counts are printed either way.
"""

import sys
import time
import warnings

from gnum.asymptotics import is_moderate, is_negligible, is_strictly_nonzero
from gnum.harness import random_net, verify_decision
from gnum.nets import Tier

SEEDS = range(400, 1000)
DEPTH = 5
CLAIMS = (("moderate", is_moderate), ("negligible", is_negligible),
          ("strictly-nonzero", is_strictly_nonzero))
# correct verdicts that the replay rejects: `replay_moderate` fits C = 0
# on an all-zero grid head (the three arbitrary seeds), and a vanishing
# exp(-1/(2 eps)) term misleads `replay_growth_along` (continuous 723)
KNOWN_REJECTIONS = {(Tier.Arbitrary, 575, "moderate"),
                    (Tier.Arbitrary, 648, "moderate"),
                    (Tier.Arbitrary, 750, "moderate"),
                    (Tier.Continuous, 723, "negligible")}


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    t0 = time.time()
    decisions = unknown = 0
    rejected, raised = set(), []
    for seed in SEEDS:
        for tier in Tier:
            x = random_net(seed, tier, DEPTH)
            for claim, decide in CLAIMS:
                decisions += 1
                try:
                    t = decide(x)
                    rep = verify_decision(claim, t, x)
                except Exception as exc:  # every escape is reported
                    raised.append((tier, seed, claim, repr(exc)))
                    continue
                if rep is None:
                    unknown += 1
                elif not rep.passed:
                    rejected.add((tier, seed, claim))
    new = sorted(rejected - KNOWN_REJECTIONS)
    print(f"{decisions} decisions, {unknown} Unknown, {len(raised)} raised, "
          f"{len(rejected)} rejected by replay ({len(new)} not known), "
          f"{time.time() - t0:.1f} s")
    for case in raised:
        print("raised:", *case)
    for case in new:
        print("rejected:", *case)
    for case in sorted(KNOWN_REJECTIONS - rejected):
        print("known rejection no longer seen:", *case)
    return 1 if raised or new else 0


if __name__ == "__main__":
    sys.exit(main())
