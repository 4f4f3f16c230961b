"""Witness generators: idempotents, zero divisors, Gelfand pairs,
annihilator splits, characteristic sets, restriction/invertibility."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from gnum import constructions
from gnum.asymptotics import gn_equal, is_moderate, is_negligible
from gnum.constructions import (annihilator_split, characteristic_set,
                                construct_zero_divisor, gelfand_witnesses,
                                idempotent_classify, interleaved_trains,
                                invertible_wrt, restriction_zero)
from gnum.errors import PreconditionError, SearchExhausted
from gnum.harness import (GridSpec, replay_growth_along, replay_moderate,
                          replay_negligible, replay_small_along)
from gnum.nets import (EPS, Const, ExpNegRecip, Tier, absn, add, bump_train,
                       const, cos_recip, eval_net, gnumber, indicator, mul,
                       neg, powq, sin_recip, sub)
from gnum.sequences import Geometric, Harmonic, PiSequence

GRID = GridSpec(n_points=500, eps_min=1e-6)
PTS = [float(e) for e in GRID.points()]


# -- idempotents -------------------------------------------------------------

def test_idempotent_one_and_zero():
    assert idempotent_classify(gnumber(const(1))).verdict == "one"
    assert idempotent_classify(gnumber(const(0))).verdict == "zero"


def test_idempotent_perturbed():
    u = add(const(1), ExpNegRecip())
    # oracle: u^2 - u = e^{-1/eps}(1 + e^{-1/eps}) is negligible
    d = sub(mul(u, u), u)
    assert replay_negligible(d, 12, GRID).passed
    assert idempotent_classify(gnumber(u)).verdict == "one"
    u0 = mul(const(-1), ExpNegRecip())
    assert idempotent_classify(gnumber(u0)).verdict == "zero"


def test_idempotent_rejections():
    assert idempotent_classify(gnumber(EPS)).verdict == "not-idempotent"
    assert idempotent_classify(gnumber(const(2))).verdict == "not-idempotent"
    u = add(const(1), sin_recip(1))
    assert idempotent_classify(gnumber(u)).verdict == "not-idempotent"


def test_idempotent_indicator_nontrivial():
    s = Geometric(F(1, 2))
    v = idempotent_classify(gnumber(indicator(s)))
    assert v.verdict == "nontrivial-idempotent"
    assert v.s == s


# -- zero divisors -----------------------------------------------------------

def test_zero_divisor_sine():
    r = sin_recip(1)
    rep = construct_zero_divisor(gnumber(r))
    s = rep.s.net
    assert all(v == 1.0 for _, v in rep.unit_points)  # explicit unit values
    assert replay_moderate(s, 0, GRID).passed
    assert replay_growth_along(s, rep.zero_sequence, 1).passed
    assert replay_negligible(mul(r, s), 12, GRID).passed
    assert gn_equal(mul(r, s), const(0)).is_true
    # converse direction: the constructed zero divisor is non-invertible
    from gnum.asymptotics import is_strictly_nonzero
    assert is_strictly_nonzero(s).is_false


def test_zero_divisor_zero_net():
    rep = construct_zero_divisor(gnumber(const(0)))
    assert rep.s.net == Const(1.0)


def test_zero_divisor_invertible_rejected():
    with pytest.raises(PreconditionError):
        construct_zero_divisor(gnumber(EPS))


def test_zero_divisor_perturbed_sine():
    r = add(sin_recip(1), ExpNegRecip())
    rep = construct_zero_divisor(gnumber(r))
    assert replay_negligible(mul(r, rep.s.net), 10, GRID).passed


# -- Gelfand pairs -----------------------------------------------------------

def test_gelfand_degenerate_zero():
    gw = gelfand_witnesses(gnumber(const(0)), gnumber(const(1)))
    for e in (1.0, 0.3, 1e-3):
        assert eval_net(gw.r.net, e) == 0.0
        assert eval_net(gw.s.net, e) == -1.0
        assert eval_net(gw.product_net(), e) == 0.0


def test_gelfand_half_half():
    gw = gelfand_witnesses(gnumber(const(0.5)), gnumber(const(0.5)))
    assert eval_net(gw.r.net, 0.7) == -2.0
    for e in (0.9, 0.25, 1e-4):
        assert eval_net(gw.product_net(), e) == 0.0


def test_gelfand_partition_of_unity_pair():
    a = mul(sin_recip(1), sin_recip(1))
    b = mul(cos_recip(1), cos_recip(1))
    gw = gelfand_witnesses(gnumber(a), gnumber(b))
    worst = max(abs(eval_net(gw.product_net(), e)) for e in PTS)
    assert worst <= 1e-14
    bound = max(max(abs(eval_net(gw.r.net, e)), abs(eval_net(gw.s.net, e)))
                for e in PTS)
    assert bound <= 4.0


def test_gelfand_precondition():
    with pytest.raises(PreconditionError):
        gelfand_witnesses(gnumber(EPS), gnumber(EPS))


# -- annihilator splits ------------------------------------------------------

def test_annihilator_split_trivial_zero():
    sp = annihilator_split(gnumber(const(0)), gnumber(sin_recip(1)))
    assert sp.x.net == Const(1.0)


def test_annihilator_split_trains():
    r, s = interleaved_trains()
    sp = annihilator_split(r, s)
    x = sp.x.net
    tail = [e for e in PTS if e <= 1e-2]
    for m in range(1, 11):
        for e in tail:
            assert abs(eval_net(mul(r.net, x), e)) ** 2 < 2 * e ** m
            assert abs(eval_net(mul(s.net, sub(const(1), x)), e)) ** 2 \
                < 2 * e ** m


def test_annihilator_split_identity_decomposition():
    r, s = interleaved_trains()
    sp = annihilator_split(r, s)
    x = sp.x.net
    t = add(powq(EPS, -1), sin_recip(2))
    for e in PTS[::25]:
        tv = eval_net(t, e)
        lhs = eval_net(mul(x, t), e) + eval_net(mul(sub(const(1), x), t), e)
        assert abs(lhs - tv) <= 1e-12 * max(1.0, abs(tv))


def test_annihilator_split_precondition():
    with pytest.raises(PreconditionError):
        annihilator_split(gnumber(const(1)), gnumber(const(1)))


# -- characteristic sets -----------------------------------------------------

def test_characteristic_set_interleaved_trains():
    r, s = interleaved_trains()
    cs = characteristic_set(r, s, n_points=16)
    pts = [cs.points.value(j) for j in range(1, 17)]
    assert all(a > b > 0 for a, b in zip(pts, pts[1:]))
    assert len(cs.order_schedule) == 16
    for p, q in zip(pts, cs.order_schedule):
        b = p ** float(q)
        assert abs(eval_net(r.net, p)) < b
        assert abs(eval_net(s.net, p)) < b


def test_characteristic_set_ends_at_its_prefix():
    r, s = interleaved_trains(F(1, 5))
    cs = characteristic_set(r, s, n_points=4)
    # the prefix is the start of a longer search, which goes on below it
    longer = characteristic_set(r, s, n_points=5).points
    assert [cs.points.value(j) for j in range(1, 5)] == \
        [longer.value(j) for j in range(1, 5)]
    assert 0 < longer.value(5) < cs.points.value(4)
    with pytest.raises(SearchExhausted):
        cs.points.value(5)
    # a replay that needs a point past the prefix treats it as missing
    assert not replay_small_along(const(1), cs.points, 2).passed


def test_characteristic_set_has_no_point_below_index_one():
    cs = characteristic_set(*interleaved_trains(F(1, 4)))
    for j in (0, -1):
        with pytest.raises(SearchExhausted):
            cs.points.value(j)


def test_characteristic_set_rejects_nonzero_product():
    with pytest.raises(PreconditionError):
        characteristic_set(gnumber(const(1)), gnumber(const(1)))


def test_characteristic_set_sine_pipeline():
    r = sin_recip(1)
    zd = construct_zero_divisor(gnumber(r))
    cs = characteristic_set(gnumber(r), zd.s, n_points=3)
    pts = [cs.points.value(j) for j in range(1, 4)]
    zeros = [1 / (k * math.pi) for k in range(1, 400)]
    for p, q in zip(pts, cs.order_schedule):
        assert abs(eval_net(r, p)) < p ** float(q)
        assert min(abs(p - z) for z in zeros) < 0.05 * p  # near shared zeros


# -- restriction and invertibility along sequences ---------------------------

def test_restriction_zero_cases():
    zeros = PiSequence(F(1), F(0), F(1))
    assert restriction_zero(gnumber(const(0)), zeros).is_true
    assert restriction_zero(gnumber(sin_recip(1)), zeros).is_true
    s = Geometric(F(1, 2))
    from gnum.sequences import Midpoints
    assert restriction_zero(gnumber(indicator(s)), Midpoints(s)).is_true
    assert restriction_zero(gnumber(const(1)), zeros).is_false


def test_invertible_wrt_cases():
    zeros = PiSequence(F(1), F(0), F(1))
    ones = PiSequence(F(2), F(1, 2), F(1))
    assert invertible_wrt(gnumber(EPS), zeros).is_true
    assert invertible_wrt(gnumber(sin_recip(1)), zeros).is_false
    t = invertible_wrt(gnumber(sin_recip(1)), ones)
    assert t.is_true
    assert t.witness.data[1] == 0  # |sin| = 1 exactly on that sequence


def test_characteristic_set_evaluates_the_product_once(monkeypatch):
    # |r*s| is the same on the scan points at every level; only the power
    # it is compared with changes
    r, s = interleaved_trains(F(1, 4))
    rs, calls = mul(r.net, s.net), []
    real = constructions.eval_points

    def counting(net, pts, fill=None):
        calls.append(net == rs)
        return real(net, pts, fill=fill)

    monkeypatch.setattr(constructions, "eval_points", counting)
    cs = characteristic_set(r, s, n_points=6)
    assert len(cs.order_schedule) == 6
    assert calls.count(True) == 1
