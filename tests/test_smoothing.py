"""Smoothing operator: envelope bound, structural smoothness, and the
spike-net refuter.  The grid is the oracle throughout."""

import math
from fractions import Fraction as F

import pytest

from gnum.asymptotics import gn_equal, is_strictly_nonzero, leq
from gnum.dsl import print_net
from gnum.errors import PreconditionError, TierError
from gnum.harness import GridSpec, random_net
from gnum.lattice import abs_factor
from gnum.nets import (EPS, AbsNode, ConstHeights, GelfandFactor, MaxNode,
                       MinNode, RootN, SmoothBlend, Tier, absn, add,
                       bump_train, const, cos_recip, eval_net, gnumber,
                       iter_nodes, maxn, minimal_tier, minn, mul, neg, powq,
                       rootn, sin_recip, spikes, sub)
from gnum.profiles import abs_range, enclose
from gnum.sequences import Harmonic
from gnum.smoothing import (_band_of, _band_plan, _presimplify,
                            band_modulus, refute_continuous_representative,
                            smooth_approximate)

GRID = GridSpec(n_points=1000, eps_min=1e-6)

CONT_ONLY = (AbsNode, MinNode, MaxNode, RootN)


def _check_envelope(x, rep):
    worst = -1.0
    for e in GRID.points():
        e = float(e)
        diff = abs(eval_net(rep.output.net, e) - eval_net(x, e))
        env = math.exp(-1.0 / e)
        assert diff <= env, (e, diff, env)
        worst = max(worst, diff if env == 0 else diff / env)
    return worst


def test_smooth_input_shortcut():
    rep = smooth_approximate(gnumber(EPS))
    assert rep.shortcut and rep.grid_max_ratio == 0.0
    assert rep.output.net == EPS


def test_abs_of_nonneg_simplifies_to_smooth():
    rep = smooth_approximate(gnumber(absn(neg(EPS))))
    assert rep.shortcut
    assert rep.output.net == EPS


def test_presimplify_strips_every_sign_under_abs():
    x = absn(neg(neg(sin_recip(1))))
    assert print_net(_presimplify(x)) == "abs(sin(1/eps))"


def test_presimplify_is_idempotent_on_continuous_nets():
    # lattice.gabs returns one pass, smooth_approximate blends a second
    for seed in range(60):
        for depth in (3, 4, 5):
            net = random_net(seed, Tier.Continuous, depth)
            for x in (net, absn(neg(neg(net)))):
                once = _presimplify(x)
                assert _presimplify(once) == once, (seed, depth, x)


def test_smooth_abs_sin_envelope():
    x = absn(sin_recip(1))
    rep = smooth_approximate(gnumber(x), grid=GRID)
    _check_envelope(x, rep)
    assert rep.grid_max_ratio <= 1.0
    assert not any(isinstance(n, CONT_ONLY)
                   for n in iter_nodes(rep.output.net))
    assert minimal_tier(rep.output.net) == Tier.Smooth
    assert gn_equal(rep.output.net, x).is_true


def test_smooth_min_envelope():
    x = minn(EPS, const(0.5))
    rep = smooth_approximate(gnumber(x), grid=GRID)
    _check_envelope(x, rep)
    assert gn_equal(rep.output.net, x).is_true


def test_smooth_composite_corpus():
    corpus = [
        maxn(sin_recip(1), cos_recip(1)),
        add(absn(sin_recip(1)), EPS),
        rootn(absn(sin_recip(1)), 2),
        minn(absn(sin_recip(1)), absn(cos_recip(1))),
        absn(sub(sin_recip(1), const(0.5))),
    ]
    for x in corpus:
        rep = smooth_approximate(gnumber(x), grid=GRID)
        _check_envelope(x, rep)


def test_smoothing_is_ring_morphism_mod_negligibility():
    x, y = absn(sin_recip(1)), minn(EPS, const(0.5))
    sx = smooth_approximate(gnumber(x)).output.net
    sy = smooth_approximate(gnumber(y)).output.net
    sxy = smooth_approximate(gnumber(mul(x, y))).output.net
    assert gn_equal(sxy, mul(sx, sy)).is_true


def test_smoothing_is_a_ring_morphism_that_keeps_the_verdicts():
    # the main theorem on random continuous nets: S preserves sums and
    # products up to negligibility, and the invertibility and order
    # verdicts (Unknown included) are those of the smoothed nets
    def S(x):
        return smooth_approximate(x).output.net

    decided = 0
    for seed in range(40):
        a = random_net(seed, Tier.Continuous, 3)
        b = random_net(seed + 7000, Tier.Continuous, 3)
        sa, sb = S(a), S(b)
        assert gn_equal(S(add(a, b)), add(sa, sb)).is_true, seed
        assert gn_equal(S(mul(a, b)), mul(sa, sb)).is_true, seed
        for x, sx in ((a, sa), (b, sb)):
            assert (is_strictly_nonzero(x).value
                    == is_strictly_nonzero(sx).value), seed
        verdict = leq(a, b).value
        assert verdict == leq(sa, sb).value, seed
        decided += verdict is not None
    assert decided == 28


def test_smoothing_rejects_arbitrary_tier():
    with pytest.raises(TierError):
        smooth_approximate(gnumber(spikes(Harmonic())))


def test_refuter_const_zero():
    t = gnumber(spikes(Harmonic()))
    w = refute_continuous_representative(t, gnumber(const(0)))
    assert w.kind == "spike-miss"
    assert abs(w.value - 1.0) >= 0.25


def test_refuter_const_one_at_midpoint():
    t = gnumber(spikes(Harmonic()))
    w = refute_continuous_representative(t, gnumber(const(1)))
    assert w.kind == "midpoint-miss"
    n = w.n
    assert w.eps == (2 * n + 1) / (2 * n * (n + 1))
    assert abs(w.value) >= 0.25


def test_refuter_tracker_crossing():
    t = gnumber(spikes(Harmonic()))
    tracker = bump_train(Harmonic())
    w = refute_continuous_representative(t, gnumber(tracker))
    assert w.kind == "crossing"
    assert abs(abs(w.value) - 0.5) <= 1e-9


def test_refuter_requires_harmonic_spikes():
    with pytest.raises(PreconditionError):
        refute_continuous_representative(gnumber(EPS), gnumber(const(0)))


def test_refuter_random_continuous_corpus():
    t = gnumber(spikes(Harmonic()))
    found = 0
    for seed in range(25):
        cand = random_net(seed, Tier.Continuous, 3)
        w = refute_continuous_representative(t, gnumber(cand))
        assert w.kind in ("spike-miss", "midpoint-miss", "crossing")
        found += 1
    assert found == 25


def test_random_continuous_nets_stay_within_the_envelope():
    # where the blend and the net are the same infinity, exp(-1/eps) has
    # underflowed: a matched point, not an unbounded ratio
    for seed in range(60):
        for depth in (3, 4):
            x = gnumber(random_net(seed, Tier.Continuous, depth))
            assert smooth_approximate(x).grid_max_ratio <= 1.0, (seed, depth)


def test_band_sup_of_constant_heights_skips_the_index_walk(monkeypatch):
    sched = Harmonic()
    bands = ((1e-6, 2e-6), (1e-3, 0.5), (0.25, 0.25), (0.5, 1e-3))
    trains = [bump_train(sched, heights=ConstHeights(c))
              for c in (1.0, -0.75, 0.0, math.nan)]
    cases = [(bt, a, b) for bt in trains for a, b in bands]
    # the loop over every schedule index in the band
    loop = []
    for bt, a, b in cases:
        out = 0.0
        for j in range(max(1, sched.index_near(b) - 2),
                       sched.index_near(a) + 3):
            out = max(out, abs(bt.heights.value(sched, j)))
        loop.append(out)

    def no_walk(self, schedule, j):
        raise AssertionError("heights.value called")

    monkeypatch.setattr(ConstHeights, "value", no_walk)
    # the band sup that smoothing reads: the sup of |enclose| on the band
    sups = [abs_range(enclose(*c))[1] for c in cases]
    assert [repr(s) for s in sups] == [repr(v) for v in loop]


def test_band_of_at_powers_of_two_and_their_neighbours():
    # band b is [2**-(b+1), 2**-b); band 0 also holds [1/2, 1]
    for k in range(1, 1075):
        p = 2.0 ** -k
        for e in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)):
            if e == 0.0:
                continue
            b = _band_of(e)
            assert 2.0 ** (-b - 1) <= e < 2.0 ** -b
    assert _band_of(0.75) == _band_of(1.0) == 0


@pytest.mark.parametrize("x", [abs_factor(sin_recip(1)),
                               gnumber(absn(GelfandFactor(sin_recip(1))))],
                         ids=["abs_factor", "abs-gelfand"])
def test_a_band_without_a_certified_modulus_is_exact_and_flagged(x):
    # no rule bounds the modulus of these nodes; bands 0-3 (eps >= 1/32)
    # are the only ones wide enough for a blend, and each is flagged
    rep = smooth_approximate(x, grid=GRID)
    blend = rep.output.net
    assert band_modulus(blend.source, 1 / 64, 1 / 8) is None
    assert sorted(rep.flagged_bands) == [
        (b, "uncertified-modulus") for b in range(4)]
    # an exact band takes the source's value, so no point of the grid
    # differs from the input
    assert rep.grid_max_ratio == 0.0
    for e in GridSpec(n_points=300, eps_min=1 / 32).points().tolist():
        assert repr(eval_net(blend, e)) == repr(eval_net(blend.source, e))


def test_a_blend_keeps_its_own_band_plans():
    x = absn(sin_recip(1))
    blend = smooth_approximate(gnumber(x), grid=GRID).output.net
    plans = blend.__dict__["_plans"]
    assert plans[0] == _band_plan(blend, 0) == \
        ("real", 0.000244140625, "")
    assert plans[30] == ("exact", 0.0, "")
    # an equal blend built apart starts empty and fills its own plans
    again = SmoothBlend(blend.source)
    assert again == blend and "_plans" not in again.__dict__
    eval_net(again, 0.75)     # band 0 and its neighbour, band 1
    assert again.__dict__["_plans"] == {0: plans[0], 1: plans[1]}
    assert again.__dict__["_plans"] is not plans
