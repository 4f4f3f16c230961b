"""Net construction, evaluation, tiers, and structural invariants."""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnum import nets
from gnum.asymptotics import leq
from gnum.dsl import print_net
from gnum.errors import DomainError, PreconditionError, TierError
from gnum.nets import (EPS, AbsNode, Const, DecayHeights, ExpNegRecip,
                       GNumber, Indicator, SmoothBlend, SpikeTrain, Tier,
                       absn, add, bump_train, const, cos_recip, eval_net,
                       g_add, g_mul, gnumber, indicator, inv, is_real_net,
                       maxn, minimal_tier, minn, mul, neg, patch_weights,
                       powq, rootn, sin_recip, spikes, sub, tier_relax)
from gnum.harness import GridSpec, random_net
from gnum.sequences import Geometric, Harmonic, PiSequence
from gnum.smoothing import refute_continuous_representative


GRID = GridSpec(n_points=250, eps_min=1e-6).points()


def test_eval_identity_net():
    assert eval_net(EPS, 0.5) == 0.5


def test_eval_exp_neg_recip():
    assert eval_net(ExpNegRecip(), 1.0) == math.exp(-1.0)


def test_eval_spike_train_harmonic():
    st = spikes(Harmonic())
    assert eval_net(st, 1 / 3) == 1.0
    assert eval_net(st, 0.4) == 0.0
    assert eval_net(st, 1.0) == 1.0


def test_eval_outside_domain_rejected():
    with pytest.raises(DomainError):
        eval_net(EPS, 0.0)
    with pytest.raises(DomainError):
        eval_net(EPS, 1.5)


def test_ring_ops_pointwise_exact():
    # bit-level: eval(add(x,y)) == eval(x) + eval(y), same for mul/neg
    for seed in range(12):
        x = random_net(seed, Tier.Smooth, 3)
        y = random_net(seed + 100, Tier.Smooth, 3)
        for e in GRID[::25]:
            e = float(e)
            assert eval_net(add(x, y), e) == eval_net(x, e) + eval_net(y, e)
            assert eval_net(mul(x, y), e) == eval_net(x, e) * eval_net(y, e)
            assert eval_net(neg(x), e) == -eval_net(x, e)


def test_mul_unit_and_sub_self():
    x = add(sin_recip(1), powq(EPS, -2))
    for e in (0.9, 0.31, 0.011):
        assert eval_net(mul(const(1), x), e) == eval_net(x, e)
        assert eval_net(sub(x, x), e) == 0.0


def test_oscillator_exact_value():
    # sin(1/eps)^2 at eps = 2/pi is sin(pi/2)^2 = 1
    e = 2 / math.pi
    v = eval_net(mul(sin_recip(1), sin_recip(1)), e)
    assert abs(v - 1.0) < 1e-15


def test_partition_of_unity_sums_to_one():
    # the patch-cover partition AbsFactor evaluates with
    worst = 0.0
    for e in GridSpec(n_points=1000, eps_min=1e-6).points().tolist():
        ws = patch_weights(e)
        for m, w in ws:
            lo, hi = (1 / 3, 1.0) if m == 1 else (1 / (m + 1), 1 / (m - 1))
            assert w > 0.0 and lo < e <= hi
        worst = max(worst, abs(sum(w for _, w in ws) - 1.0))
    assert worst <= 1e-12


def test_bump_supports_disjoint_first_64():
    for sched in (Geometric(F(1, 2)), Geometric(F(1, 3)), Harmonic()):
        bt = bump_train(sched)
        for j in range(1, 64):
            cj, cj1 = sched.value(j), sched.value(j + 1)
            wj = bt.widths.value(sched, j)
            wj1 = bt.widths.value(sched, j + 1)
            assert cj1 + wj1 < cj - wj


def test_bump_center_value_is_height():
    bt = bump_train(Geometric(F(1, 2)), heights=DecayHeights(F(1), F(0)))
    for j in (1, 3, 7):
        c = Geometric(F(1, 2)).value(j)
        assert eval_net(bt, c) == c ** j


def test_phi_max_slope_constant_is_the_scan():
    assert nets._phi_max_slope() == nets.PHI_MAX_SLOPE == 2.278874883727966


def test_cached_floats_leave_repr_eq_hash():
    from gnum.nets import GapFraction, SinRecipPow
    for a, b in ((Geometric(F(1, 3)), Geometric(F(2, 6))),
                 (GapFraction(F(1, 8)), GapFraction(F(2, 16))),
                 (SinRecipPow(F(1, 2)), SinRecipPow(F(2, 4))),
                 (nets.CosRecipPow(F(2)), nets.CosRecipPow(F(2)))):
        assert a == b and hash(a) == hash(b)
        assert "_" not in repr(a).split("(", 1)[1]
    assert repr(Geometric(F(1, 3))) == "Geometric(ratio=Fraction(1, 3))"


def test_cached_rule_constants_leave_repr_eq_hash():
    # a record, as a frozen dataclass, hashes the tuple of its fields
    for a, b, fields, text in (
            (DecayHeights(F(3, 2), F(-1, 3)), DecayHeights(F(6, 4), F(-2, 6)),
             (F(3, 2), F(-1, 3)),
             "DecayHeights(slope=Fraction(3, 2), offset=Fraction(-1, 3))"),
            (nets.ShrunkWidths((0.25, 0.125), F(1, 2), F(2)),
             nets.ShrunkWidths((0.25, 0.125), F(2, 4), F(2)),
             ((0.25, 0.125), F(1, 2), F(2)),
             "ShrunkWidths(values=(0.25, 0.125), slope=Fraction(1, 2), "
             "offset=Fraction(2, 1))"),
            (PiSequence(F(2), F(1, 2), F(3)), PiSequence(F(4, 2), F(2, 4), F(3)),
             (F(2), F(1, 2), F(3)),
             "PiSequence(mult=Fraction(2, 1), offset=Fraction(1, 2), "
             "power=Fraction(3, 1))")):
        assert a == b and hash(a) == hash(b) == hash(fields)
        assert repr(a) == text
    assert DecayHeights(F(1), F(0)) != DecayHeights(F(1), F(1))
    assert PiSequence(F(1), F(0), F(1)) != PiSequence(F(1), F(0), F(2))


def _node_subclasses(cls=nets.NetExpr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_subclasses(sub)


def _one_node_of_each_type():
    cert = nets.SmallCert(mul(EPS, EPS), F(1, 2), F(2), 8, True)
    train = nets.BumpTrain(Harmonic(), nets.ShrunkWidths((0.125, 0.0625)),
                           DecayHeights(F(1), F(1, 2)), cert)
    return [Const(2), nets.Eps(), nets.PowQ(EPS, F(1, 2)),
            nets.Add(EPS, Const(1)), nets.Mul(EPS, EPS), nets.Neg(EPS),
            nets.Inv(EPS), AbsNode(EPS), nets.MinNode(EPS, Const(0.5)),
            nets.MaxNode(EPS, Const(0.5)), nets.RootN(EPS, 3),
            nets.SinRecipPow(F(1, 2)), nets.CosRecipPow(F(3)), ExpNegRecip(),
            train, Indicator(Geometric()), SpikeTrain(Harmonic()),
            nets.GelfandFactor(sin_recip(1)),
            nets.RegularizedQuotient(EPS, add(EPS, ExpNegRecip()), 2.0),
            nets.AnnihilatorTransition(EPS, neg(EPS), 0.5),
            nets.AbsFactor(sub(EPS, Const(0.5)), True),
            SmoothBlend(indicator(Harmonic()))]


def test_every_node_stores_the_generated_dataclass_hash():
    built = _one_node_of_each_type()
    assert {type(n) for n in built} == set(_node_subclasses())
    # every node of every tree, the certificate's reference net and the
    # blend's source included, so the stored hashes agree level by level
    # with the hash of the field tuple, which a frozen dataclass gives
    trees = built + [built[14].small_cert.ref, built[-1].source]
    for node in (n for tree in trees for n in nets.iter_nodes(tree)):
        compared = tuple(getattr(node, name) for name in node._fields)
        assert hash(node) == hash(compared), type(node).__name__
    for a, b in zip(built, _one_node_of_each_type()):
        assert a == b and a is not b and hash(a) == hash(b)
    assert hash(nets.Eps()) == hash(())
    assert hash(Const(2)) == hash(Const(2 + 0j)) == hash(Const(2.0)) \
        == hash((2.0,))
    assert repr(Const(2 + 0j)) == "Const(c=2.0)"


def test_hashing_a_deep_chain_does_not_recurse():
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(200)
        chain = EPS
        for k in range(1, 5000):
            chain = nets.Add(chain, Const(k))
        table = {chain: "chain"}
        assert hash(chain) == hash((chain.l, chain.r))
        assert table[chain] == "chain"
    finally:
        sys.setrecursionlimit(limit)


def _iter_nodes_recursive(net):
    yield net
    for c in nets.functional_children(net):
        yield from _iter_nodes_recursive(c)


def test_iter_nodes_is_a_loop_in_pre_order():
    # pre-order, left child first: candidate_sequences (printed by the
    # golden corpus) and the benchmark's witness node count read it
    limit = sys.getrecursionlimit()
    chain = EPS
    for k in range(5000):
        chain = nets.Add(chain, Const(k))
    try:
        sys.setrecursionlimit(200)
        count = sum(1 for _ in nets.iter_nodes(chain))
    finally:
        sys.setrecursionlimit(limit)
    assert count == 10001
    shallow = EPS
    for k in range(300):
        shallow = nets.Add(shallow, nets.Mul(Const(k), nets.Neg(EPS)))
    nodes = list(nets.iter_nodes(shallow))
    assert len(nodes) == 1501
    assert all(a is b for a, b in zip(nodes, _iter_nodes_recursive(shallow)))
    for net in _one_node_of_each_type():
        assert list(nets.iter_nodes(net)) == list(_iter_nodes_recursive(net))


def _decay_by_fractions(h, schedule, j):
    """DecayHeights.value computed on Fractions, index by index."""
    q = h.slope * j + h.offset
    base = schedule.value(j)
    if q.denominator == 1 and abs(q.numerator) <= 512:
        try:
            return base ** q.numerator
        except OverflowError:
            return math.inf
    return nets._exp(float(q) * math.log(base))


def _outcome(f, *args):
    """repr of the value (exact for floats, signed zeros and nan), or the
    type of the exception raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__


_FRACTIONS = st.builds(F, st.integers(-700, 700), st.integers(1, 12))
_SCHEDULES = st.one_of(
    st.just(Harmonic()),
    st.builds(Geometric, st.builds(F, st.integers(1, 15),
                                   st.just(16))))


@settings(max_examples=300, deadline=None)
@given(slope=_FRACTIONS, offset=_FRACTIONS, schedule=_SCHEDULES,
       j=st.integers(1, 1200))
def test_decay_heights_match_the_fraction_formula(slope, offset, schedule, j):
    h = DecayHeights(slope, offset)
    assert _outcome(h.value, schedule, j) == \
        _outcome(_decay_by_fractions, h, schedule, j)


def test_inv_requires_nowhere_zero():
    with pytest.raises(DomainError):
        inv(sin_recip(1))
    inv(add(const(2), ExpNegRecip()))  # positive: fine


def test_fractional_power_requires_nonneg():
    with pytest.raises(DomainError):
        powq(sin_recip(1), F(1, 2))
    powq(absn(sin_recip(1)), F(1, 2))


def test_rootn_requires_nonneg():
    with pytest.raises(DomainError):
        rootn(neg(EPS), 2)
    rootn(absn(neg(EPS)), 2)


def test_min_max_require_real():
    with pytest.raises(TypeError):
        minn(const(1j), EPS)
    with pytest.raises(TypeError):
        maxn(EPS, mul(const(1j), EPS))


def test_tier_inference():
    assert minimal_tier(add(powq(EPS, -2), sin_recip(1))) == Tier.Smooth
    assert minimal_tier(absn(sin_recip(1))) == Tier.Continuous
    assert minimal_tier(indicator(Harmonic())) == Tier.Arbitrary
    assert minimal_tier(powq(EPS, F(1, 2))) == Tier.Smooth  # eps positive
    assert minimal_tier(powq(absn(sin_recip(1)), F(1, 2))) == Tier.Continuous


def test_tier_relax_directions():
    x = gnumber(EPS)
    assert x.tier == Tier.Smooth
    y = tier_relax(x, Tier.Continuous)
    assert y.net is x.net and y.tier == Tier.Continuous
    z = tier_relax(tier_relax(x, Tier.Continuous), Tier.Arbitrary)
    assert z == tier_relax(x, Tier.Arbitrary)  # composition = direct relax
    with pytest.raises(TierError):
        tier_relax(gnumber(absn(sin_recip(1))), Tier.Smooth)


def test_gnumber_rejects_understated_tier():
    with pytest.raises(TierError):
        GNumber(indicator(Harmonic()), Tier.Continuous)
    with pytest.raises(TierError):
        GNumber(absn(sin_recip(1)), Tier.Smooth)


def test_gnumber_rejects_what_is_not_a_net():
    # a bare float reached minimal_tier and raised AttributeError there
    for bad in (1.0, 2, "eps", None, gnumber(EPS)):
        with pytest.raises(DomainError, match=type(bad).__name__):
            gnumber(bad)


def test_ring_ops_take_weakest_tier():
    a = gnumber(EPS)
    b = gnumber(absn(sin_recip(1)))
    assert g_add(a, b).tier == Tier.Continuous
    assert g_mul(a, gnumber(spikes(Harmonic()))).tier == Tier.Arbitrary


def test_indicator_arbitrary_only():
    with pytest.raises(TierError):
        GNumber(Indicator(Harmonic()), Tier.Smooth)
    with pytest.raises(TierError):
        GNumber(SpikeTrain(Harmonic()), Tier.Continuous)


def test_spike_train_is_an_indicator_under_its_own_name():
    s = Harmonic()
    spike, ind = SpikeTrain(s), Indicator(s)
    assert isinstance(spike, Indicator) and not isinstance(ind, SpikeTrain)
    assert repr(spike) == "SpikeTrain(s=Harmonic())"
    assert print_net(spike) == "spikes(harmonic)"
    assert print_net(ind) == "indicator(harmonic)"
    assert hash(spike) == hash(ind) == hash((s,))
    assert spike != ind and ind != spike and spike == SpikeTrain(s)
    assert len({spike, ind}) == 2
    for e in (1.0, 0.5, 0.4):
        assert eval_net(spike, e) == eval_net(ind, e)
    # the refuter's target is the spike net, not the indicator
    with pytest.raises(PreconditionError, match="spike net"):
        refute_continuous_representative(ind, EPS)


def test_eval_deterministic():
    x = random_net(7, Tier.Continuous, 4)
    vals1 = [eval_net(x, float(e)) for e in GRID[::10]]
    vals2 = [eval_net(x, float(e)) for e in GRID[::10]]
    assert vals1 == vals2


def test_complex_constants():
    x = mul(const(1j), EPS)
    v = eval_net(x, 0.25)
    assert v == 0.25j
    assert not nets.is_real_net(x)
    assert eval_net(absn(x), 0.25) == 0.25


def test_a_blend_is_real_iff_its_source_is():
    real = SmoothBlend(absn(sin_recip(1)))
    cplx = SmoothBlend(mul(const(1j), absn(sin_recip(1))))
    assert is_real_net(real) and not is_real_net(cplx)
    assert isinstance(eval_net(cplx, 0.3), complex)
    for op in (leq, minn):
        with pytest.raises(TypeError):
            op(cplx, const(2.0))
    assert leq(real, const(2.0)).is_true
