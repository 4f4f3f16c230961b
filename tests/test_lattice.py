"""Lattice structure: abs/min/max, the f-ring law, and the convexity
factor constructions."""

import math
from fractions import Fraction as F

import pytest

from gnum.asymptotics import gn_equal, is_negligible, leq
from gnum.errors import PreconditionError
from gnum.harness import (GridSpec, random_net, replay_negligible,
                          replay_negligible_diff)
from gnum.lattice import abs_factor, convex_factor, gabs, gmax, gmin
from gnum.nets import (EPS, Const, ExpNegRecip, Tier, absn, add, bump_train,
                       const, cos_recip, eval_net, gnumber, minimal_tier,
                       mul, neg, powq, sin_recip, sub)
from gnum.sequences import Geometric
from gnum.smoothing import smooth_approximate

GRID = GridSpec(n_points=500, eps_min=1e-6)
PTS = [float(e) for e in GRID.points()]


def _smooth(g):
    """The smooth-tier image of a lattice result (the isomorphism)."""
    return smooth_approximate(
        g, grid=GridSpec(n_points=160, eps_min=1e-5)).output


def test_gabs_constant():
    g = _smooth(gabs(gnumber(const(-3))))
    assert gn_equal(g.net, const(3)).is_true
    assert g.net == Const(3.0)


def test_gabs_neg_eps():
    g = _smooth(gabs(gnumber(neg(EPS))))
    assert g.net == EPS


def test_gabs_oscillator_resmooths():
    g = _smooth(gabs(gnumber(sin_recip(1))))
    assert g.tier == Tier.Smooth
    target = absn(sin_recip(1))
    for e in PTS:
        assert abs(eval_net(g.net, e) - eval_net(target, e)) \
            <= math.exp(-1.0 / e)
    assert gn_equal(mul(g.net, g.net),
                    mul(sin_recip(1), sin_recip(1))).is_true


def test_gmin_gmax_with_zero():
    lo = gmin(gnumber(EPS), gnumber(const(0)))
    hi = gmax(gnumber(EPS), gnumber(const(0)))
    assert gn_equal(lo.net, const(0)).is_true
    assert gn_equal(hi.net, EPS).is_true


def test_gmax_idempotent():
    x = gnumber(sin_recip(1))
    assert gn_equal(gmax(x, x).net, x.net).is_true


def test_gabs_is_gmax_of_pm():
    x = sin_recip(1)
    lhs = gabs(gnumber(x))
    rhs = gmax(gnumber(x), gnumber(neg(x)))
    assert gn_equal(lhs.net, rhs.net).is_true
    for e in PTS[::20]:
        assert eval_net(lhs.net, e) == eval_net(rhs.net, e)


def test_lattice_contracts():
    x, y = gnumber(sin_recip(1)), gnumber(cos_recip(1))
    lo = gmin(x, y)
    hi = gmax(x, y)
    assert leq(lo.net, x.net).is_true
    assert leq(x.net, hi.net).is_true


def test_f_ring_law_pointwise_then_resmoothed():
    r, s = sin_recip(1), cos_recip(1)
    t = mul(sin_recip(2), sin_recip(2))  # nonnegative
    lhs = mul(gmin(gnumber(r), gnumber(s)).net, t)
    rhs = gmin(gnumber(mul(r, t)), gnumber(mul(s, t))).net
    for e in PTS[::10]:
        a, b = eval_net(lhs, e), eval_net(rhs, e)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))
    assert gn_equal(lhs, rhs).is_true
    # after re-smoothing the identity holds modulo negligibility
    lhs_s = mul(_smooth(gmin(gnumber(r), gnumber(s))).net, t)
    rhs_s = _smooth(gmin(gnumber(mul(r, t)), gnumber(mul(s, t)))).net
    assert gn_equal(lhs_s, rhs_s).is_true


def test_lattice_absorption_and_commutativity():
    checked = 0
    seed = -1
    while checked < 100 and seed < 400:
        seed += 1
        x = random_net(seed, Tier.Smooth, 2)
        y = random_net(seed + 300, Tier.Smooth, 2)
        from gnum.nets import is_real_net
        if not (is_real_net(x) and is_real_net(y)):
            continue
        checked += 1
        gx, gy = gnumber(x), gnumber(y)
        m1 = gmin(gx, gy)
        m2 = gmin(gy, gx)
        assert gn_equal(m1.net, m2.net).is_true
        absorbed = gmax(gx, m1)
        assert gn_equal(absorbed.net, x).is_true
    assert checked == 100


def test_gabs_multiplicative():
    for seed in range(15):
        x = random_net(seed, Tier.Smooth, 2)
        y = random_net(seed + 77, Tier.Smooth, 2)
        lhs = gabs(gnumber(mul(x, y)))
        rhs = mul(gabs(gnumber(x)).net,
                  gabs(gnumber(y)).net)
        assert gn_equal(lhs.net, rhs).is_true, (x, y)


def test_abs_factor_bounds_and_tracking():
    corpus = [neg(EPS), sin_recip(1), mul(const(1j), EPS),
              add(const(2), sin_recip(1)), powq(EPS, 2)]
    for x in corpus:
        a = abs_factor(gnumber(x)).net
        for e in PTS:
            assert abs(eval_net(a, e)) <= 2.0
        for m in range(1, 11):
            for e in (p for p in PTS if p <= 1.0 / m):
                lhs = abs(eval_net(a, e) * eval_net(x, e)
                          - abs(eval_net(x, e)))
                assert lhs < 2 * e ** m, (x, m, e)


def test_abs_factor_zero_net():
    a = abs_factor(gnumber(const(0))).net
    assert all(eval_net(a, e) == 0.0 for e in (1.0, 0.1, 1e-4))


def test_convex_factor_powers():
    x, y = gnumber(EPS), gnumber(powq(EPS, 2))
    a = convex_factor(x, y).net
    for e in PTS:
        v = eval_net(a, e)
        assert 0.0 < v <= 1.0
    assert replay_negligible_diff(mul(a, EPS), powq(EPS, 2), 10, GRID).passed


def test_convex_factor_equal_args():
    x = gnumber(EPS)
    a = convex_factor(x, x).net
    assert replay_negligible_diff(mul(a, EPS), EPS, 10, GRID).passed


def test_convex_factor_zero_numerator():
    x = gnumber(EPS)
    a = convex_factor(x, gnumber(const(0))).net
    assert is_negligible(mul(a, EPS)).value is not False
    assert replay_negligible_diff(mul(a, EPS), const(0), 10, GRID).passed


def test_convex_factor_precondition():
    with pytest.raises(PreconditionError):
        convex_factor(gnumber(powq(EPS, 2)), gnumber(EPS))  # y > x
