"""Behaviour lock: decisions, witness data, replay reports, CLI
documents and construction outputs, printed with `repr` so every float
is compared bit for bit.

The fixture `golden.txt` is regenerated only by running this module as
a script with an explicit flag:

    PYTHONPATH=src python tests/test_golden.py --regenerate

and the diff of the fixture is reviewed before it is committed.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

from gnum import asymptotics as A
from gnum import cli
from gnum.constructions import (characteristic_set, construct_zero_divisor,
                                interleaved_trains, invertible_wrt,
                                restriction_zero)
from gnum.dsl import parse, print_net
from gnum.harness import (GridSpec, random_net, replay_moderate,
                          replay_negligible, replay_negligible_diff,
                          verify_decision)
from gnum.ideals import dip_forcing_data, membership
from gnum.lattice import abs_factor, gabs
from gnum.nets import (EPS, ConstHeights, DecayHeights, Tier, absn,
                       bump_train, eval_net, gnumber, inv, maxn, minn, mul,
                       powq, sub)
from gnum.profiles import (along_lower, along_small, candidate_sequences,
                           enclose, info, rat)
from gnum.sequences import Geometric, Midpoints
from gnum.smoothing import (_band_plan, refute_continuous_representative,
                            smooth_approximate)

FIXTURE = Path(__file__).with_name("golden.txt")

SEEDS = range(40)
DEPTHS = (3, 4, 5)
PAIR_SEEDS = tuple(range(40)) + (73, 123)
PAIR_OFFSET = 5000
CLAIMS = (("moderate", A.is_moderate), ("negligible", A.is_negligible),
          ("strictly_nonzero", A.is_strictly_nonzero))
REPLAY_SEEDS = range(20)
# the README commands, then lattice and two more ideal operations;
# every one but eval-grid prints its document as JSON
CLI_COMMANDS = (
    ["classify", "eps^-2 + sin(1/eps)", "--json"],
    ["compare", "eps", "eps + exp(-1/eps)", "--json"],
    ["smooth", "abs(sin(1/eps))", "--json"],
    ["zerodiv", "sin(1/eps)", "--json"],
    ["split", "bumptrain(harmonic)", "bumptrain(harmonic_mid)", "--json"],
    ["charset", "bumptrain(harmonic)", "bumptrain(harmonic_mid)", "--json"],
    ["idem", "1 + exp(-1/eps)", "--json"],
    ["ideal", "membership", "eps*sin(1/eps)", "sin(1/eps)", "--json"],
    ["eval-grid", "eps^-1 * sin(1/eps)", "--grid", "100"],
    ["lattice", "sin(1/eps)", "eps", "--json"],
    ["ideal", "reduce", "eps", "sin(1/eps)", "--json"],
    ["ideal", "radical", "eps^2", "eps", "--json"],
)
SMOOTH_GRID = GridSpec(n_points=200, eps_min=1e-6)
SMOOTH_INPUTS = ("abs(sin(1/eps))", "max(sin(1/eps), cos(1/eps))",
                 "root(abs(sin(1/eps)), 2)", "max(sin(1/eps), 0) + eps^-1",
                 "abs(bumptrain(geo(1/2)) - 0.5*eps)")
# complex sources keep their band plans through |.|-bounds
COMPLEX_SMOOTH_INPUTS = ("i*abs(sin(1/eps))", "abs(sin(1/eps)) + i*eps",
                         "(1+i)*max(sin(1/eps), 0)")
PLAN_BANDS = range(22)
REFUTER_CANDIDATES = ("0", "eps", "bumptrain(harmonic)", "cos(1/eps)")
# candidates whose witness is a bisected |.| = 1/2 crossing
CROSSING_CANDIDATES = ("bumptrain(harmonic)^2",
                       "0.9*bumptrain(harmonic) + 0.1*eps",
                       "1 - bumptrain(harmonic_mid)",
                       "root(bumptrain(harmonic), 3)",
                       "bumptrain(harmonic, decay(0, 1))")
MEMBERSHIPS = (("eps*sin(1/eps)", "sin(1/eps)"), ("eps^2", "eps + exp(-1/eps)"),
               ("1", "sin(1/eps)"))
ZERO_DIVISOR_INPUTS = ("sin(1/eps)", "eps*cos(1/eps^2)", "bumptrain(geo(1/2))")
# depth-5 nets whose strict-nonzeroness refutations are replayed
SMALL_ALONG_SEEDS = range(400, 480)
ALONG_SEEDS = range(10)
# smooth depth-2 pairs; 12, 24, 35, 37 and 50 have their own tests in
# test_ideals.py (their replays overflow)
MEMBERSHIP_SEEDS = tuple(s for s in range(60) if s not in (12, 24, 35, 37, 50))


def _tri(tri) -> str:
    w = tri.witness
    if w is None:
        return f"{tri!r} -"
    return f"{tri!r} {w.kind} {w.data!r}"


def _gn(text: str):
    return gnumber(*parse(text))


def _cli(argv) -> str:
    """Exit code and output of one CLI call, the document without its
    `config` block."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    if "--json" not in argv:
        return f"exit {code} {text!r}"
    doc = json.loads(text)
    doc.pop("config", None)
    return f"exit {code} {json.dumps(doc)}"


def _terms(p):
    """A polynomial's sorted terms with every exponent a Fraction: the
    corpus prints the terms, not the exponents' type in the normal form."""
    return [((F(k), F(q), tuple((a, F(pw)) for a, pw in atoms)), c)
            for (k, q, atoms), c in p.sorted_terms()]


def _smooth_lines(text, g, pts, blends=None):
    rep = smooth_approximate(g, grid=SMOOTH_GRID)
    if blends is not None:
        blends.append((text, rep.output.net))
    return [f"smooth {text}: {rep.grid_max_ratio!r} "
            f"{rep.flagged_bands!r} {rep.shortcut!r}",
            f"smooth {text} blend: "
            f"{[eval_net(rep.output.net, e) for e in pts]!r}"]


def golden_lines():
    out = []
    replays = []
    for seed in SEEDS:
        for tier in Tier:
            for depth in DEPTHS:
                x = random_net(seed, tier, depth)
                uid = f"net {seed} {tier} {depth}"
                out.append(f"{uid} {print_net(x)}")
                for claim, fn in CLAIMS:
                    tri = fn(x)
                    out.append(f"{uid} {claim}: {_tri(tri)}")
                    if seed in REPLAY_SEEDS and tri.value is not None:
                        rep = verify_decision(claim.replace("_", "-"), tri, x)
                        replays.append(f"{uid} {claim} replay: {rep!r}")
                out.append(f"{uid} valuation: {A.valuation(x)!r}")
    for seed in PAIR_SEEDS:
        x = random_net(seed, Tier.Smooth, 3)
        y = random_net(seed + PAIR_OFFSET, Tier.Smooth, 3)
        tri = A.leq(x, y)
        out.append(f"pair {seed} leq: {_tri(tri)}")
        if tri.value is not None:
            rep = verify_decision("leq", tri, x, y)
            replays.append(f"pair {seed} leq replay: {rep!r}")
    cs = characteristic_set(*interleaved_trains(F(1, 4)))
    out.append(f"charset points: {[cs.points.value(j) for j in range(1, 17)]!r}")
    out.append(f"charset orders: {cs.order_schedule!r}")
    dip = dip_forcing_data(gnumber(bump_train(Geometric(F(1, 2)))))
    out.append(f"dip levels: {dip.levels!r}")
    net, tier = parse("sin(1/eps)")
    zd = construct_zero_divisor(gnumber(net, tier))
    out.append(f"zerodiv widths: {zd.widths!r}")
    out += replays
    for argv in CLI_COMMANDS:
        out.append(f"cli {' '.join(argv)}: {_cli(argv)}")
    pts = SMOOTH_GRID.points().tolist()
    smooth_inputs = [(t, _gn(t)) for t in SMOOTH_INPUTS]
    smooth_inputs.append(("abs_factor(sin(1/eps))",
                          abs_factor(_gn("sin(1/eps)"))))
    blends = []
    for text, g in smooth_inputs:
        out += _smooth_lines(text, g, pts, blends)
    ab = smooth_approximate(gabs(_gn("sin(1/eps)")),
                            grid=GridSpec(n_points=160, eps_min=1e-5)).output
    out.append(f"gabs sin(1/eps): {[eval_net(ab.net, e) for e in pts]!r}")
    target = _gn("spikes(harmonic)")
    for text in REFUTER_CANDIDATES:
        w = refute_continuous_representative(target, _gn(text))
        out.append(f"refute {text}: {w!r}")
    for y, x in MEMBERSHIPS:
        out.append(f"membership {y} in <{x}>: "
                   f"{_tri(membership(_gn(y).net, _gn(x).net))}")
    for text in ZERO_DIVISOR_INPUTS:
        zd = construct_zero_divisor(_gn(text))
        out.append(f"zerodiv {text} units: {zd.unit_points!r}")
    for seed in SMALL_ALONG_SEEDS:
        for tier in Tier:
            x = random_net(seed, tier, 5)
            tri = A.is_strictly_nonzero(x)
            if tri.value is False:
                rep = verify_decision("strictly-nonzero", tri, x)
                out.append(f"net {seed} {tier} 5 small-along: {_tri(tri)} "
                           f"{rep!r}")
    # a PiSequence schedule with power 2 and ShrunkWidths past the
    # explicit widths
    zd = construct_zero_divisor(_gn("sin(1/eps^2)"))
    out.append(f"zerodiv sin(1/eps^2): {zd.widths!r} {zd.unit_points!r}")
    s = zd.s.net
    ws = [(s.schedule.value(j), s.widths.value(s.schedule, j))
          for j in range(1, 41)]
    out.append(f"zerodiv sin(1/eps^2) bumps: "
               f"{[(w, eval_net(s, c + 0.5 * w)) for c, w in ws]!r}")
    out += _smooth_lines("abs(bumptrain(harmonic) - 0.5)",
                         _gn("abs(bumptrain(harmonic) - 0.5)"), pts, blends)
    # the pointwise interval of every random net above
    for seed in SEEDS:
        for tier in Tier:
            for depth in DEPTHS:
                x = random_net(seed, tier, depth)
                out.append(f"net {seed} {tier} {depth} ivl: {enclose(x)!r}")
    for text in COMPLEX_SMOOTH_INPUTS:
        out += _smooth_lines(text, _gn(text), pts, blends)
    for text, blend in blends:
        out.append(f"plans {text}: "
                   f"{[_band_plan(blend, b) for b in PLAN_BANDS]!r}")
    for text in CROSSING_CANDIDATES:
        w = refute_continuous_representative(target, _gn(text))
        out.append(f"refute {text}: {w!r}")
    # two CLI calls with an Unknown verdict (exit 3)
    a575 = print_net(random_net(575, Tier.Arbitrary, 5))
    px, py = (print_net(random_net(s, Tier.Smooth, 3))
              for s in (17, 17 + PAIR_OFFSET))
    for argv in (["classify", a575, "--json"], ["compare", px, py, "--json"]):
        out.append(f"cli {' '.join(argv)}: {_cli(argv)}")
    # Info's min rule reads the operands' signs from their node facts,
    # which prove 1/|-2| and (1/eps)^3 positive, so both nets keep the
    # weaker lower envelope, eps
    for x in (parse("min(abs(-2)^-1, eps)")[0], minn(powq(inv(EPS), 3), EPS)):
        out.append(f"lower {print_net(x)}: {info(x).lower!r} "
                   + " ".join(_tri(fn(x)) for _, fn in CLAIMS))
    # normal forms over two disjointly supported trains
    for ratio in (F(1, 4), F(1, 5)):
        for h in (None, ConstHeights(2.5), DecayHeights(F(1), F(0))):
            u = bump_train(Geometric(ratio), heights=h)
            v = bump_train(Midpoints(Geometric(ratio)), heights=h)
            for text, x in (("|u-v|", absn(sub(u, v))),
                            ("|2u-v|", absn(sub(mul(2.0, u), v))),
                            ("min", minn(u, v)), ("max", maxn(u, v))):
                r = rat(x)
                out.append(f"trains {ratio} {h!r} {text}: "
                           f"{_terms(r.num)!r} / {r.den!r}")
    # failing replays
    out.append(f"replay eps^-3 moderate 1: "
               f"{replay_moderate(parse('eps^-3')[0], 1)!r}")
    out.append(f"replay eps negligible: {replay_negligible(EPS)!r}")
    out.append(f"replay eps - 0 negligible: "
               f"{replay_negligible_diff(EPS, 0)!r}")
    # the whole Info of every random net above
    for seed in SEEDS:
        for tier in Tier:
            for depth in DEPTHS:
                x = random_net(seed, tier, depth)
                out.append(f"net {seed} {tier} {depth} info: {info(x)!r}")
    # along-sequence analyses on the first candidate sequences
    for seed in ALONG_SEEDS:
        for tier in Tier:
            for depth in DEPTHS:
                x = random_net(seed, tier, depth)
                g = gnumber(x, tier)
                for seq in candidate_sequences(x)[:4]:
                    out.append(f"net {seed} {tier} {depth} along {seq!r}: "
                               f"{along_lower(x, seq)!r} "
                               f"{along_small(x, seq)!r} "
                               f"{_tri(restriction_zero(g, seq))} "
                               f"{_tri(invertible_wrt(g, seq))}")
    for seed in MEMBERSHIP_SEEDS:
        x = random_net(seed, Tier.Smooth, 2)
        y = random_net(seed + PAIR_OFFSET, Tier.Smooth, 2)
        out.append(f"pair {seed} membership: {_tri(membership(y, x))}")
    return out


def test_golden_corpus_unchanged():
    want = FIXTURE.read_text().splitlines()
    got = golden_lines()
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, f"{len(diff)} lines differ, first: {diff[0]}"
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden.py --regenerate")
    FIXTURE.write_text("\n".join(golden_lines()) + "\n")
    print(f"wrote {FIXTURE}")
