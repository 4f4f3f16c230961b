"""Ideal algebra: principal reduction, membership routes, powers,
radicals, and radicality of principal ideals."""

import math
from fractions import Fraction as F

import pytest

from gnum.asymptotics import gn_equal, is_negligible, is_strictly_nonzero
from gnum.constructions import interleaved_trains
from gnum.errors import PreconditionError
from gnum.harness import GridSpec, random_net, replay_negligible_diff
from gnum.ideals import (FinIdeal, RootFamilyIdeal, dip_forcing_data,
                         intersect_principal, is_radical_principal,
                         membership, power_membership, principal_forms,
                         principal_reduce, radical_membership,
                         replay_dip_forcing)
from gnum.lattice import gabs
from gnum.nets import (EPS, DecayHeights, ExpNegRecip, Tier, absn, add,
                       bump_train, const, cos_recip, eval_net, gnumber,
                       indicator, maxn, mul, neg, powq, rootn, sin_recip,
                       spikes, sub)
from gnum.sequences import Geometric, Harmonic

GRID = GridSpec(n_points=300, eps_min=1e-6)


def dip_train(schedule=None):
    """1 everywhere except dips to eps_j**j at the schedule points."""
    sched = schedule or Harmonic()
    unit = bump_train(sched)
    decay = bump_train(sched, heights=DecayHeights(F(1), F(0)))
    return add(sub(const(1), unit), decay)


# -- principal reduction -----------------------------------------------------

def test_principal_reduce_sign_pair():
    J = FinIdeal((gnumber(EPS), gnumber(neg(EPS))))
    g = principal_reduce(J)
    assert gn_equal(g.net, mul(const(2), EPS)).is_true


def test_principal_reduce_sin_cos_unit():
    J = FinIdeal((gnumber(sin_recip(1)), gnumber(cos_recip(1))))
    g = principal_reduce(J)
    t = is_strictly_nonzero(g.net)
    assert t.is_true
    # oracle: |sin| + |cos| >= 1 on a sample grid
    assert min(abs(math.sin(1 / e)) + abs(math.cos(1 / e))
               for e in (0.77, 0.1, 0.003)) >= 0.99


def test_principal_reduce_zero():
    J = FinIdeal((gnumber(const(0)), gnumber(const(0))))
    assert is_negligible(principal_reduce(J).net).is_true


def test_principal_forms_mutual_membership():
    J = FinIdeal((gnumber(sin_recip(1)), gnumber(cos_recip(1))))
    sum_form, max_form = principal_forms(J)
    assert membership(sum_form.net, max_form.net).is_true
    assert membership(max_form.net, sum_form.net).is_true


# -- intersection ------------------------------------------------------------

def test_intersect_powers():
    g = intersect_principal(gnumber(EPS), gnumber(powq(EPS, 2)))
    assert gn_equal(g.net, powq(EPS, 2)).is_true


def test_intersect_self():
    x = gnumber(sin_recip(1))
    g = intersect_principal(x, x)
    assert gn_equal(g.net, absn(sin_recip(1))).is_true


def test_intersect_disjoint_trains_is_zero():
    r, s = interleaved_trains()
    g = intersect_principal(r, s)
    assert is_negligible(g.net).is_true


# -- membership --------------------------------------------------------------

def test_membership_structural_factor():
    t = membership(mul(EPS, sin_recip(1)), sin_recip(1))
    assert t.is_true
    a = t.witness.data[0]
    assert replay_negligible_diff(mul(a, sin_recip(1)),
                                  mul(EPS, sin_recip(1)), 10, GRID).passed


def test_membership_forcing_false():
    t = membership(const(1), sin_recip(1))
    assert t.is_false
    assert t.witness.kind == "membership-forcing"
    # replay: along sine zeros any moderate multiple of sin stays small
    # while y = 1 does not
    seq = t.witness.data[0]
    for j in (3, 9, 27):
        e = seq.value(j)
        assert abs(math.sin(1 / e)) < 1e-9  # x collapses on the sequence


def test_membership_zero_element():
    assert membership(const(0), sin_recip(1)).is_true


def test_membership_exact_quotient():
    t = membership(powq(EPS, F(1, 2)), EPS)
    assert t.is_true


def test_membership_dominated():
    y = add(absn(sin_recip(1)), absn(cos_recip(1)))
    x = maxn(absn(sin_recip(1)), absn(cos_recip(1)))
    assert membership(y, x).is_true


def _smooth_pair(seed):
    """(y, x) = nets 5000 + seed and seed, smooth, depth 2."""
    return (random_net(seed + 5000, Tier.Smooth, 2),
            random_net(seed, Tier.Smooth, 2))


def test_membership_regularized_quotient_past_float_squares():
    # x = (eps^3 + eps)*(0.5*exp(-1/eps)^-1) passes 1.3e154 on the
    # replay grid, where |x|**2 overflows
    y, x = _smooth_pair(37)
    assert repr(membership(y, x)) == "DecisionTri(True [dominated C=2.0 M=1])"
    t = radical_membership(y, RootFamilyIdeal(gnumber(x)))
    assert repr(t) == "DecisionTri(True [root n=1])"


@pytest.mark.parametrize("seed", [12, 24, 35, 50])
def test_membership_replay_where_both_sides_overflow(seed):
    # the witness identity a*x = y has inf on both sides at some grid
    # points; the replay reads inf - inf there as no excess
    y, x = _smooth_pair(seed)
    assert membership(y, x).is_true


# -- powers and radicals -----------------------------------------------------

def test_power_membership_square():
    s, _ = interleaved_trains()
    r = mul(EPS, s.net)
    assert power_membership(gnumber(mul(r, r)), s, 2).is_true
    assert membership(r, s.net).is_true  # the Lemma (ii) consequence


def test_power_membership_one_false():
    s, _ = interleaved_trains()
    for m in (1, 2, 3):
        assert power_membership(gnumber(const(1)), s, m).is_false


def test_power_membership_zero():
    s, _ = interleaved_trains()
    for m in (1, 2, 5):
        assert power_membership(gnumber(const(0)), s, m).is_true


def test_radical_membership_generator_root():
    s, _ = interleaved_trains()
    R = RootFamilyIdeal(s, 8)
    y = rootn(absn(s.net), 2)
    t = radical_membership(gnumber(y), R)
    assert t.is_true


def test_radical_membership_unit_false():
    s, _ = interleaved_trains()
    R = RootFamilyIdeal(s, 8)
    assert radical_membership(gnumber(const(1)), R).is_false


def test_radical_membership_cap():
    s, _ = interleaved_trains()
    R = RootFamilyIdeal(s, root_cap=4)
    y = rootn(absn(s.net), 9)  # deeper root than the cap covers
    t = radical_membership(gnumber(y), R)
    assert t.is_unknown and "CapReached" in t.reason


# -- radical principal ideals -------------------------------------------------

def test_radical_zero_and_invertible():
    assert is_radical_principal(gnumber(const(0))).is_true
    assert is_radical_principal(gnumber(EPS)).is_true
    assert is_radical_principal(gnumber(ExpNegRecip())).is_true


def test_radical_dip_train_false_with_replay():
    s = dip_train()
    assert is_negligible(s).is_false
    assert is_strictly_nonzero(s).is_false
    t = is_radical_principal(gnumber(s))
    assert t.is_false
    data = t.witness.data[0]
    assert data is not None and len(data.levels) >= 2
    assert replay_dip_forcing(s, data)


def test_radical_unit_bump_train_engine_answer():
    # sqrt(s) is not reachable by a moderate multiple of s when s takes
    # every small positive value cofinally: the engine answers False and
    # materializes the dip-forcing levels
    s = bump_train(Geometric(F(1, 2)))
    t = is_radical_principal(gnumber(s))
    assert t.is_false
    data = t.witness.data[0]
    assert data is not None
    assert replay_dip_forcing(s, data)


def test_radical_characteristic_nets_factor_one():
    # |e_S|**(1/n) = e_S for the 0/1-valued characteristic nets, so
    # <e_S> is radical with factor 1; the identity holds on S itself
    for sched in (Geometric(F(1, 2)), Harmonic()):
        for e in (indicator(sched), spikes(sched)):
            t = is_radical_principal(gnumber(e))
            assert t.is_true
            a = t.witness.data[0]
            y = rootn(absn(e), 2)
            for j in range(1, 30):
                p = sched.value(j)
                assert eval_net(e, p) == 1.0
                assert eval_net(mul(a, e), p) == eval_net(y, p)


def test_structural_factor_needs_same_characteristic_net():
    # roots of one indicator are not factored into another's ideal
    e2, e3 = indicator(Geometric(F(1, 2))), indicator(Geometric(F(1, 3)))
    assert membership(rootn(absn(e2), 3), e2).is_true
    assert not membership(rootn(absn(e2), 3), e3).is_true


def test_replay_witness_samples_the_characteristic_set():
    # the log grid misses S = {2**-j}, where e = 1: a wrong factor must
    # still be rejected there, and the right one accepted
    from gnum.ideals import _replay_witness
    e = indicator(Geometric(F(1, 2)))
    assert not _replay_witness(const(0.0), e, e)
    assert _replay_witness(const(1.0), e, e)


def test_radical_of_radical():
    # for s with <s> radical, the root generator's ideal is radical too
    for s in (EPS, powq(EPS, 3), mul(const(2), EPS)):
        t = is_radical_principal(gnumber(s))
        assert t.is_true
        root = rootn(absn(s), 2)
        assert is_radical_principal(gnumber(root)).is_true


# -- convexity bridges (Lemma-level witnesses) --------------------------------

def test_abs_in_ideal_via_abs_factor():
    from gnum.lattice import abs_factor
    for x in (neg(EPS), sin_recip(1), mul(const(1j), EPS)):
        a = abs_factor(gnumber(x)).net
        assert replay_negligible_diff(mul(a, x), absn(x), 10, GRID).passed


def test_convex_in_ideal_via_convex_factor():
    from gnum.lattice import convex_factor
    pairs = [(EPS, powq(EPS, 2)), (add(const(1), EPS), EPS),
             (const(2), const(1))]
    for x, y in pairs:
        a = convex_factor(gnumber(x), gnumber(y)).net
        assert replay_negligible_diff(mul(a, x), y, 10, GRID).passed
