"""Grid evaluation: ``eval_points`` equals the scalar loop bit for bit.

The reference is ``[eval_net(net, p) for p in pts]``: the same values
(``==``, or both NaN, zeros with the same sign), the same types, and the
same first exception.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnum.asymptotics import _log_points
from gnum.errors import DomainError
from gnum.harness import DEFAULT_GRID, random_net
from gnum.nets import (EPS, AbsFactor, AnnihilatorTransition, BumpTrain,
                       Const, DecayHeights, ExpNegRecip, GelfandFactor, Inv,
                       PowQ, RegularizedQuotient, ShrunkWidths, SmoothBlend,
                       Tier, absn, add, bump_train, cos_recip, eval_net,
                       eval_points, inv, maxn, minn, mul, powq, sin_recip,
                       spikes)
from gnum.sequences import Geometric, Harmonic, PiSequence

DEEP = np.logspace(math.log10(DEFAULT_GRID.eps_min) - 12.0,
                   math.log10(DEFAULT_GRID.eps_min), 400)
GRIDS = {
    "default": DEFAULT_GRID.points(),
    "deep": DEEP,
    "lower-scan": np.array(_log_points(1e-6, 0.6, 160)),
    "lower-dense": np.array(_log_points(1e-6, 0.6, 1400)),
    "leq-scan": np.array(_log_points(1e-6, 0.9, 160)),
    "violation-scan": np.array(_log_points(1e-6, 0.9, 200)),
}


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, complex):
        return _same(a.real, b.real) and _same(a.imag, b.imag)
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_bit_identical(net, pts):
    pts = [float(p) for p in pts]
    want, first_error = [], None
    for p in pts:
        try:
            want.append(eval_net(net, p))
        except Exception as exc:
            first_error = first_error or exc
            want.append(math.nan)
    if first_error is None:
        got = eval_points(net, pts).tolist()
        assert all(_same(w, g) for w, g in zip(want, got)), net
    else:
        with pytest.raises(type(first_error)) as info:
            eval_points(net, pts)
        assert str(info.value) == str(first_error)
    # with a fill every point has a value, errors included
    got = eval_points(net, pts, fill=math.nan).tolist()
    assert all(_same(w, g) for w, g in zip(want, got)), net


@pytest.mark.parametrize("tier", list(Tier), ids=str)
@pytest.mark.parametrize("depth", [3, 4, 5])
def test_random_nets_every_grid(tier, depth):
    for seed in range(12):
        net = random_net(seed, tier, depth)
        for pts in GRIDS.values():
            assert_bit_identical(net, pts)


def test_points_outside_the_domain_raise_like_the_loop():
    # 1/eps past 2**62 (1e-19) or past every int64 (1e-300) is an index
    # the vector path leaves to eval_net
    net = add(sin_recip(1), bump_train(Harmonic()))
    assert_bit_identical(net, [0.5, 1e-19, 1e-300, 5e-324, 0.0, -1.0, 1.5,
                               math.nan])
    with pytest.raises(DomainError):
        eval_points(net, [0.5, 0.0])


def test_nodes_without_a_vector_rule_under_vector_nodes():
    # blend and witness nodes and complex constants have no vector rule:
    # the whole net goes to eval_net, values, types and first error alike
    s, c = sin_recip(1), cos_recip(1)
    nodes = (SmoothBlend(absn(s)), SmoothBlend(mul(Const(1j), absn(s))),
             GelfandFactor(s), RegularizedQuotient(EPS, s),
             RegularizedQuotient(Const(1j), add(s, Const(2.0))),
             AnnihilatorTransition(s, c), AbsFactor(s),
             AbsFactor(add(s, mul(Const(1j), EPS)), inverse=True),
             Const(1 + 2j))
    pts = np.concatenate((GRIDS["default"][::25], DEEP[::40], [0.5, 1.0]))
    for node in nodes:
        for net in (node, add(mul(node, EPS), Const(2.0)), absn(node),
                    mul(PowQ(add(node, c), F(1, 2)), ExpNegRecip()),
                    add(Inv(node), bump_train(Harmonic()))):
            assert_bit_identical(net, pts)
            assert_bit_identical(net, list(pts) + [0.0])


def test_min_max_propagate_nan_and_keep_signed_zero_order():
    # 0 * inf is nan once exp(-1/eps) underflows: a nan operand on either
    # side gives nan; of two equal zeros min/max keep the left one
    nan_net = mul(ExpNegRecip(), inv(ExpNegRecip()))
    zero, minus_zero = Const(0.0), Const(-0.0)
    for l, r in ((EPS, nan_net), (nan_net, EPS), (zero, minus_zero),
                 (minus_zero, zero)):
        for op in (minn, maxn):
            assert_bit_identical(op(l, r), DEEP)
            if nan_net in (l, r):
                assert np.isnan(eval_points(op(l, r), DEEP)).all()


def test_max_keeps_a_nan_right_operand():
    # max(A, B) with B nan off the bump supports (inf * 0.0)
    net, e = random_net(240, Tier.Arbitrary, 5), 1.0156e-3
    assert math.isnan(eval_net(net, e))
    assert np.isnan(eval_points(net, [e])).all()


def test_overlapping_supports_take_the_first_probe():
    # built without bump_train's disjointness check: the first probed
    # index whose support holds eps decides, as in the scalar probe
    net = BumpTrain(Geometric(F(1, 2)), ShrunkWidths((0.6, 0.45, 0.3, 0.2)),
                    DecayHeights(F(1), F(0)))
    assert_bit_identical(net, GRIDS["default"])


def test_empty_and_exact_train_points():
    assert eval_points(EPS, []).shape == (0,)
    s = Geometric(F(1, 3))
    assert_bit_identical(spikes(s), s.values(40))
    assert_bit_identical(bump_train(s), s.values(40))


_COMPLEX = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False)
_INDEX = st.lists(st.integers(0, len(GRIDS["default"]) - 1), min_size=1,
                  max_size=40)


@settings(max_examples=40, deadline=None)
@given(c=_COMPLEX, idx=_INDEX)
def test_complex_constants(c, idx):
    pts = GRIDS["default"][idx]
    for net in (add(Const(c), EPS), mul(Const(c), cos_recip(2)),
                absn(mul(Const(c), sin_recip(1))),
                add(powq(mul(Const(c), EPS), 3), ExpNegRecip())):
        assert_bit_identical(net, pts)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 400), idx=st.lists(st.integers(0, 399), min_size=1,
                                           max_size=40))
def test_inv_operand_underflowing_to_zero(k, idx):
    pts = DEEP[idx]
    assert_bit_identical(Inv(PowQ(EPS, F(k))), pts)
    assert_bit_identical(mul(inv(ExpNegRecip()), EPS), pts)
    assert_bit_identical(powq(ExpNegRecip(), -2), pts)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(1e-6, 1.0), q=st.sampled_from([F(1, 2), F(1, 3), F(3, 2),
                                                    F(-1, 2)]))
def test_fractional_power_of_a_negative_value(c, q):
    pts = [float(p) for p in GRIDS["default"]]
    for net in (PowQ(add(EPS, Const(-c)), q), PowQ(sin_recip(1), q)):
        first = next((i for i, p in enumerate(pts)
                      if eval_net(net.base, p) < 0.0), None)
        assert_bit_identical(net, pts)
        if first is not None:
            with pytest.raises(DomainError,
                               match="fractional power of a negative value"):
                eval_points(net, pts)
            # the loop stops at the same first point
            assert_bit_identical(net, pts[:first])
            with pytest.raises(DomainError):
                eval_points(net, pts[:first + 1])


@settings(max_examples=25, deadline=None)
@given(mult=st.sampled_from([F(1), F(2), F(3, 2)]),
       offset=st.sampled_from([F(0), F(1, 2)]),
       idx=st.lists(st.integers(0, 399), min_size=1, max_size=60))
def test_pi_sequence_train_indices_beyond_int64(mult, offset, idx):
    s = PiSequence(mult, offset, F(2))
    assert s.index_near(float(DEEP[0])) > 2 ** 63
    pts = DEEP[idx]
    assert_bit_identical(bump_train(s), pts)
    assert_bit_identical(add(spikes(s), EPS), pts)
