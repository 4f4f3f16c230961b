"""Grid evaluation: ``eval_points`` equals the scalar loop bit for bit.

The reference is ``[eval_net(net, p) for p in pts]``: the same values
(``==``, or both NaN, zeros with the same sign), the same types, and the
same first exception, whether the atom memo is empty or warm.
"""

import inspect
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnum import constructions, ideals, nets
from gnum import asymptotics as asym
from gnum.asymptotics import Scan
from gnum.errors import DomainError, SearchExhausted
from gnum.constructions import (CharsetPoints, _charset_points,
                                annihilator_split, construct_zero_divisor,
                                gelfand_witnesses, interleaved_trains)
from gnum.harness import (DEFAULT_GRID, GridSpec, ReplayReport, random_net,
                          replay_growth_along, verify_decision)
from gnum.ideals import (FinIdeal, dip_forcing_data, membership,
                         principal_forms, replay_dip_forcing)
from gnum.lattice import abs_factor
from gnum.nets import (EPS, AbsFactor, Add, AnnihilatorTransition, BumpTrain,
                       Const, ConstHeights, DecayHeights, ExpNegRecip,
                       GapFraction, GelfandFactor, Inv, Mul, PowQ,
                       RegularizedQuotient, RootN, ShrunkWidths, SmoothBlend,
                       Tier, absn, add,
                       bump_train, cos_recip, eval_net, eval_points, gnumber,
                       inv, maxn, minn, mul, neg, powq, sin_recip, spikes,
                       sub, unfill)
from gnum.sequences import (Geometric, Harmonic, HarmonicMidpoints, Midpoints,
                            PiSequence)
from gnum.smoothing import smooth_approximate

DEEP = DEFAULT_GRID.deep()
GRIDS = {
    "default": DEFAULT_GRID.points(),
    "deep": DEEP,
    "lower-scan": asym._LOWER_SCAN.points(),
    "lower-dense": asym._LOWER_DENSE.points(),
    "leq-scan": asym._LEQ_SCAN.points(),
    "violation-scan": asym._VIOLATION_SCAN.points(),
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


# The atom memo: an atom's vector is computed once per grid and kept, at
# most ATOM_MEMO_BYTES of it, under a key that only atoms evaluating alike
# share.

def test_random_nets_with_a_warm_memo():
    # the second run reads every atom the first one left in the memo
    nets._ATOMS.clear()
    full = GRIDS["default"]
    sub = full[full <= 0.01]
    for run in range(2):
        for tier in Tier:
            for seed in range(6):
                net = random_net(seed, tier, 4)
                for pts in (full, sub):
                    assert_bit_identical(net, pts)
    assert {full.tobytes(), sub.tobytes()} <= set(nets._ATOMS.grids)


def test_equal_trains_with_zeros_of_either_sign():
    # ConstHeights(0.0) == ConstHeights(-0.0), so the trains compare and
    # hash alike; on its supports one is 0.0, the other -0.0
    plus = BumpTrain(Harmonic(), heights=ConstHeights(0.0))
    minus = BumpTrain(Harmonic(), heights=ConstHeights(-0.0))
    assert plus == minus and hash(plus) == hash(minus)
    pts = GRIDS["default"]
    for order in ((plus, minus), (minus, plus)):
        nets._ATOMS.clear()
        for net in order:
            want = np.signbit([eval_net(net, p) for p in pts.tolist()])
            assert want.any() == (net is minus)
            assert (np.signbit(eval_points(net, pts)) == want).all()


def test_a_result_is_the_callers_to_write():
    pts = np.concatenate((GRIDS["default"], [1e-19, 1e-300]))
    for net in (ExpNegRecip(), PowQ(EPS, F(3)), sin_recip(2),
                bump_train(Harmonic()), spikes(Geometric(F(1, 2)))):
        first = eval_points(net, pts, fill=math.nan)
        want = first.copy()
        first[:] = 7.0
        again = eval_points(net, pts, fill=math.nan)
        assert again.flags.writeable and again is not first
        assert np.array_equal(again, want, equal_nan=True)
        assert_bit_identical(net, pts)


def test_the_memo_holds_at_most_its_cap():
    assert nets.ATOM_MEMO_BYTES == 1024 * 1024
    memo = nets._ATOMS
    for k in range(1, 40):
        pts = GRIDS["default"][k:]
        for p in range(1, 6):
            eval_points(add(powq(EPS, p * k), sin_recip(F(k, p))), pts)
        assert memo.nbytes == _held(memo) <= nets.ATOM_MEMO_BYTES
    # 39 grids of 10 atoms, 8 kB a vector: the oldest grids are gone
    assert GRIDS["default"][1:].tobytes() not in memo.grids
    assert GRIDS["default"][39:].tobytes() in memo.grids


def _decide_and_replay_sweep_nets():
    # the nets of the sweep benchmark, seeds 0-15 of every tier at depths
    # 3-5, each decided three ways and each verdict replayed: 680 kB of
    # atoms, more than the 512 KiB the cap once was
    for tier in Tier:
        for depth in (3, 4, 5):
            for seed in range(16):
                x = random_net(seed, tier, depth)
                for claim, decide in (("moderate", asym.is_moderate),
                                      ("negligible", asym.is_negligible),
                                      ("strictly-nonzero",
                                       asym.is_strictly_nonzero)):
                    verify_decision(claim, decide(x), x)


def test_a_sweep_fits_the_memo():
    # the replays read slices of whole grids, not grids of their own, and
    # the atoms of every grid fit the cap: nothing is evicted, and a
    # second run finds every atom the first one stored
    memo = nets._ATOMS
    memo.clear()
    _decide_and_replay_sweep_nets()
    assert memo.evictions == 0 and memo.hits and memo.misses
    assert memo.nbytes == _held(memo) <= nets.ATOM_MEMO_BYTES
    full = DEFAULT_GRID.points().tobytes()
    assert not [g for g in memo.grids if g != full and full.startswith(g)]
    misses = memo.misses
    _decide_and_replay_sweep_nets()
    assert memo.misses == misses and memo.evictions == 0


def _held(memo) -> int:
    return sum(map(sys.getsizeof, memo.grids)) + sum(
        nets._size(hit) for atoms in memo.grids.values()
        for hit in atoms.values())


def test_a_recursion_error_leaves_the_memo_consistent():
    # each limit cuts the walk of a chain of atoms at another depth, the
    # memo's lookups, updates and evictions included
    memo, full, pts = nets._ATOMS, GRIDS["default"], GRIDS["default"][::50]
    chain = EPS
    for k in range(1, 40):
        chain = Add(chain, PowQ(EPS, F(k)))
    depth, limit = len(inspect.stack(0)), sys.getrecursionlimit()
    try:
        for extra in range(40, 100):
            memo.clear()
            for k in range(1, 140):     # a full memo: a put evicts
                eval_points(cos_recip(F(1, k)), full)
            assert memo.evictions
            sys.setrecursionlimit(depth + extra)
            eval_points(chain, pts, fill=math.nan)
            sys.setrecursionlimit(limit)
            assert memo.nbytes == _held(memo) <= nets.ATOM_MEMO_BYTES
    finally:
        sys.setrecursionlimit(limit)
    assert_bit_identical(chain, pts)


def test_points_outside_the_domain_raise_like_the_loop():
    # 1/eps past 2**62 (1e-19) or past every int64 (1e-300) is an index
    # the vector path leaves to eval_net
    net = add(sin_recip(1), bump_train(Harmonic()))
    assert_bit_identical(net, [0.5, 1e-19, 1e-300, 5e-324, 0.0, -1.0, 1.5,
                               math.nan])
    with pytest.raises(DomainError):
        eval_points(net, [0.5, 0.0])


def test_witness_nodes_and_complex_constants_under_other_nodes():
    # blend and witness nodes under other nodes, with complex constants and
    # complex intermediates, whose points the vector rules flag for
    # eval_net: values, types and first error alike
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


# Every node type has a vector rule.  The nets the constructions build
# are evaluated on the vector path, each point by its rule, and a point
# goes to eval_net only where a rule flags it (a complex value, an index
# past int64, a point where the scalar rule raises).  A blend or a
# Gelfand factor flags every point: those nets go to eval_net whole.

@pytest.fixture(scope="module")
def witness_nets():
    """The witness nets of the paper's constructions, by name."""
    r, s = interleaved_trains()
    a = sin_recip(1)
    gw = gelfand_witnesses(gnumber(a), gnumber(sub(Const(1.0), a)))
    out = {
        "zero divisor of sin(1/eps)":
            construct_zero_divisor(gnumber(a)).s.net,
        "zero divisor of cos(1/eps^2)":
            construct_zero_divisor(gnumber(cos_recip(2))).s.net,
        "zero divisor of a train": construct_zero_divisor(
            gnumber(bump_train(Geometric(F(1, 2))))).s.net,
        "interleaved trains": add(r.net, s.net),
        "annihilator split": annihilator_split(r, s).x.net,
        "gelfand r": gw.r.net, "gelfand s": gw.s.net,
        "gelfand product": gw.product_net(),
        "abs factor": abs_factor(gnumber(mul(powq(EPS, 3), cos_recip(1)))).net,
        "abs factor of a train": abs_factor(gnumber(r.net)).net,
    }
    for k, (x, y) in enumerate(((EPS, sin_recip(1)), (r.net, s.net),
                                (mul(Const(3.0), EPS), powq(EPS, 2)))):
        sum_form, max_form = principal_forms(FinIdeal((gnumber(x),
                                                       gnumber(y))))
        witness = membership(sum_form.net, max_form.net).witness.data[0]
        out[f"membership quotient {k}"] = witness
    for k, x in enumerate((absn(sin_recip(1)), maxn(sin_recip(1), cos_recip(1)),
                           minn(EPS, Const(0.5)),
                           PowQ(absn(sin_recip(1)), F(3, 2)))):
        out[f"smoothed {k}"] = smooth_approximate(
            gnumber(x, Tier.Continuous)).output.net
    return out


def test_witness_nets_are_real_constructions(witness_nets):
    kinds = {type(node) for net in witness_nets.values()
             for node in nets.iter_nodes(net)}
    assert {SmoothBlend, RegularizedQuotient, AbsFactor, GelfandFactor,
            AnnihilatorTransition, BumpTrain} <= kinds
    assert any(isinstance(net, BumpTrain)
               and isinstance(net.widths, ShrunkWidths)
               and isinstance(net.schedule, PiSequence)
               for net in witness_nets.values())


def test_witness_nets_match_the_loop(witness_nets):
    pts = np.concatenate((GRIDS["default"][::3], GRIDS["lower-scan"],
                          DEEP[::20], [5e-324, 1e-300, 0.5,
                                       math.nextafter(1.0, 0.0), 1.0]))
    nan_net = mul(ExpNegRecip(), inv(ExpNegRecip()))
    for name, net in witness_nets.items():
        assert_bit_identical(net, pts)
        # signed zeros, nan, a complex value and a first error around it
        for wrapped in (neg(net), add(net, nan_net), mul(net, Const(1j)),
                        mul(net, _raising_at(float(pts[200])))):
            assert_bit_identical(wrapped, pts)


def test_witness_nets_take_no_scalar_point(witness_nets, monkeypatch):
    # in-domain grid points with indices inside int64 are never flagged,
    # in the nets that hold no blend and no Gelfand factor: the zero
    # divisors, the interleaved trains, the annihilator split, the abs
    # factors and the membership quotients
    vector = {name: net for name, net in witness_nets.items()
              if not any(isinstance(node, (SmoothBlend, GelfandFactor))
                         for node in nets.iter_nodes(net))}
    assert len(vector) == 10
    pts = GRIDS["default"]
    for net in vector.values():
        eval_points(net, pts)     # builds certificates
    calls = []

    def counted(net, e):
        calls.append(e)
        return eval_net(net, e)

    monkeypatch.setattr(nets, "eval_net", counted)
    for name, net in vector.items():
        want = [eval_net(net, p) for p in pts.tolist()]
        got = eval_points(net, pts).tolist()
        assert all(_same(w, g) for w, g in zip(want, got)), name
        assert not calls, name


def test_witness_rules_at_their_special_cases():
    # |a| = 1/4 exactly (0.0 against -0.0), quotients whose denominator
    # underflows to 0, transitions with d = 0 and eta = 0, abs factors of
    # a zero operand where patch_weights raises (5e-324) and at the patch
    # boundaries 1/m, a non-float eta scale
    pts = np.concatenate((GRIDS["default"][::4], DEEP[::40],
                          [1.0 / m for m in range(1, 60)],
                          [1 / 3, 0.75, 1 / 745.0, 1e-300, 5e-324]))
    zero, nan = mul(EPS, Const(0.0)), Const(math.nan)
    cases = [GelfandFactor(add(EPS, Const(-0.75))), GelfandFactor(Const(-0.25)),
             GelfandFactor(zero), GelfandFactor(nan),
             GelfandFactor(powq(EPS, -2)),
             RegularizedQuotient(EPS, zero), RegularizedQuotient(zero, zero),
             RegularizedQuotient(neg(EPS), bump_train(Harmonic())),
             RegularizedQuotient(powq(EPS, -200), powq(EPS, -200)),
             AnnihilatorTransition(zero, zero), AnnihilatorTransition(EPS, zero),
             AnnihilatorTransition(zero, EPS, 1e-300),
             AnnihilatorTransition(nan, EPS), AnnihilatorTransition(EPS, EPS, 2),
             AbsFactor(zero), AbsFactor(EPS), AbsFactor(neg(EPS), inverse=True),
             AbsFactor(nan), AbsFactor(powq(EPS, -300)),
             AbsFactor(bump_train(Harmonic()))]
    for net in cases:
        assert_bit_identical(net, pts)
        assert_bit_identical(net, pts[:-1])
    assert math.copysign(1.0, eval_net(cases[0], 1.0)) == 1.0
    with pytest.raises(OverflowError):      # int(1.0 / 5e-324)
        eval_points(AbsFactor(EPS), [0.5, 5e-324])


def test_bump_trains_over_every_schedule():
    # the vector schedules (pi, midpoints, harmonic midpoints, whose vector
    # rule stops at 2j(j+1) = 2**53) and the Python one of a charset,
    # which raises past its prefix, under every width and height rule
    pi = PiSequence(F(1), F(1, 2), F(2))
    charset = CharsetPoints(tuple(0.5 ** k for k in range(1, 11)))
    near = 1.0 / np.linspace(2.0 ** 26 - 40, 2.0 ** 26 + 40, 81)
    pts = np.concatenate((GRIDS["default"][::5], near,
                          np.logspace(-9, -7, 60), charset.points,
                          [0.5 ** 10 * 0.999, 0.5 ** 11, 1e-19, 1e-300]))
    rules = [(GapFraction(), ConstHeights(1.0)),
             (GapFraction(F(1, 8)), DecayHeights(F(1), F(0))),
             (ShrunkWidths((0.05, 0.01, 1e-3) + (1e-4,) * 7),
              DecayHeights(F(1, 2), F(1))),
             (ShrunkWidths((0.02,), F(1), F(0)), ConstHeights(-0.5))]
    for s in (pi, Midpoints(pi), HarmonicMidpoints(),
              Midpoints(HarmonicMidpoints()), Midpoints(Midpoints(Harmonic())),
              charset, Midpoints(charset)):
        assert_bit_identical(spikes(s), pts)
        for widths, heights in rules:
            assert_bit_identical(BumpTrain(s, widths, heights), pts)
    with pytest.raises(SearchExhausted, match="index 11"):
        eval_points(BumpTrain(charset), [0.5 ** 10 * 0.999])


def test_harmonic_midpoints_past_two_to_the_26():
    # int true division is exact at every j; numpy dividing the two ints
    # as floats would be exact only below 2j(j+1) = 2**53
    s = HarmonicMidpoints()
    js = np.unique(np.concatenate((
        np.arange(2 ** 26 - 5, 2 ** 26 + 5),
        np.random.default_rng(0).integers(2, 2 ** 40, 500))))
    jbad = np.zeros(len(js), bool)
    got = nets._seq_values(s, js, jbad)
    assert not jbad.any()
    assert got.tolist() == [s.value(j) for j in js.tolist()]


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
    blend = smooth_approximate(gnumber(absn(sin_recip(1)))).output.net
    for net in (EPS, bump_train(Harmonic()), spikes(Harmonic()), blend,
                AbsFactor(EPS)):
        assert eval_points(net, []).shape == (0,)
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


# the fast pass calls libm and ``**`` directly and masks the special cases
# of the scalar rules of powers and roots and of _exp; each is compared
# with the loop
EDGE = np.concatenate((DEFAULT_GRID.points()[::4], np.logspace(-320, 0, 200),
                       [1.0, 0.5, 1 / 745.0, 1 / 745.1, 1 / 745.2, 1e-300,
                        5e-324]))
POWERS = [F(-3), F(-2), F(-1), F(0), F(2), F(3), F(1, 2), F(-1, 2), F(3, 2)]


def _powers_of(base):
    return [PowQ(base, q) for q in POWERS] + [RootN(base, 2), RootN(base, 3)]


def test_zero_bases_of_every_power_and_root():
    # +-0.0 at every point, and zero off the train's supports only
    train = mul(bump_train(Harmonic()), EPS)
    for base in (Const(0.0), Const(-0.0), mul(EPS, Const(0.0)),
                 mul(EPS, Const(-0.0)), train, neg(train)):
        for net in _powers_of(base):
            assert_bit_identical(net, EDGE)


def test_negative_and_nan_bases():
    # nan once exp(-1/eps) underflows; negative below eps = 1/2
    nan_net = mul(ExpNegRecip(), Inv(ExpNegRecip()))
    for base in (nan_net, add(EPS, Const(-0.5)), neg(nan_net),
                 minn(add(EPS, Const(-0.5)), nan_net), sin_recip(1)):
        for net in _powers_of(base):
            assert_bit_identical(net, EDGE)


def test_integer_powers_that_overflow():
    big = PowQ(EPS, F(-300))
    for base in (big, neg(big), add(big, Const(-1.0))):
        for q in (F(3), F(-3), F(2), F(7)):
            assert_bit_identical(PowQ(base, q), EDGE)
    assert eval_points(PowQ(big, F(3)), [0.01])[0] == math.inf


def test_integer_powers_past_the_overflow_threshold(monkeypatch):
    # where n*log2|v| > 1025 the result is inf without a call of pow, or
    # complex(inf, 0) from eval_net at a negative base; nearer 2**1024 pow
    # raises and the point goes to eval_net
    subn = np.linspace(1 / 745.2, 1 / 700.0, 300)    # exp(-1/eps) subnormal
    tiny = 2.0 ** -np.linspace(330.0, 345.0, 61)      # eps**-3 near 2**1024
    pts = np.concatenate((EDGE, subn, tiny,
                          2.0 ** -np.linspace(1000, 1074, 75)))
    for base in (EPS, neg(EPS), ExpNegRecip(), neg(ExpNegRecip()),
                 mul(EPS, Const(2.0 ** 600))):
        for n in (-1, -2, -3, 2, 3, -4097, 4097, 10 ** 400):
            assert_bit_identical(PowQ(base, F(n)), pts)
    calls = []

    def counted(net, e):
        calls.append(e)
        return eval_net(net, e)

    monkeypatch.setattr(nets, "eval_net", counted)
    deep = np.linspace(1 / 744.0, 1 / 712.0, 50)     # exp(-1/eps) < 2**-1026
    assert (eval_points(PowQ(ExpNegRecip(), F(-1)), deep) == math.inf).all()
    assert not calls
    got = eval_points(PowQ(neg(ExpNegRecip()), F(-1)), deep)
    assert len(calls) == len(deep) and set(got.tolist()) == {complex(math.inf)}


def test_oscillators_where_the_power_overflows():
    tiny = np.logspace(-320, -100, 300)
    for net in (sin_recip(2), cos_recip(2), sin_recip(F(7, 2)),
                add(cos_recip(1), EPS)):
        assert_bit_identical(net, tiny)
        assert_bit_identical(net, EDGE)


def test_exp_neg_recip_at_the_ends_of_the_range():
    # -1/eps <= -1 never overflows; below -745 _exp clamps to 0.0 where
    # math.exp would still give the smallest subnormal
    pts = [1.0, 1e-300, 5e-324, 1 / 745.0, 1 / 745.1, 1 / 745.2]
    for net in (ExpNegRecip(), Inv(ExpNegRecip()),
                mul(ExpNegRecip(), Const(1e300))):
        assert_bit_identical(net, pts)
        assert_bit_identical(net, EDGE)
    assert eval_points(ExpNegRecip(), [1 / 745.1])[0] == 0.0
    assert math.exp(-745.1) > 0.0


def test_calibration_scans_match_the_power_operator():
    for lo, hi, n in ((1e-6, 0.6, 160), (1e-6, 0.6, 1400), (1e-6, 0.9, 200),
                      (3e-5, 0.013, 1400)):
        want = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
        assert Scan.log(lo, hi, n).points().tolist() == want
    with pytest.raises(ZeroDivisionError):      # i / (n - 1) at n = 1
        Scan.log(1e-6, 0.6, 1).points()
    scan = Scan.log(1e-6, 0.9, 200)
    pts = scan.points().tolist()
    for m in (-5, -1, 0, 1, 7, 60):
        assert scan.powers(m).tolist() == [e ** m for e in pts]
    # a negative exponent that overflows raises, as ``**`` does
    with pytest.raises(OverflowError):
        Scan(lambda: [0.5, 1e-200]).powers(-2)
    with pytest.raises(ZeroDivisionError):
        Scan(lambda: [0.5, 0.0]).powers(-1)


def test_unfill_raises_where_the_loop_does():
    # a fill hides the error at 0.3; reading that value raises it, a
    # genuine nan reads as nan, every other value is the scalar one
    net = PowQ(add(EPS, Const(-0.5)), F(1, 2))
    pts = [0.9, 0.7, 0.3, 0.6]
    vals = eval_points(net, pts, fill=math.nan).tolist()
    assert [unfill(net, p, v) for p, v in zip(pts[:2], vals)] == \
        [eval_net(net, 0.9), eval_net(net, 0.7)]
    with pytest.raises(DomainError, match="negative value"):
        unfill(net, pts[2], vals[2])
    nan_net = mul(ExpNegRecip(), inv(ExpNegRecip()))
    assert math.isnan(unfill(nan_net, 1e-3, eval_points(nan_net, [1e-3])[0]))


# Loops over a point list known in advance evaluate it with eval_points
# and read each value through unfill: they raise the scalar loop's
# exception at the point the loop reaches, and nothing where it stops
# first or skips.  _raising_at(p) raises only within 1e-6 of p.

NEGATIVE = "fractional power of a negative value"


def _raising_at(p):
    """1.0 on (0, 1], except within 1e-6 of p, where it raises DomainError."""
    d = add(EPS, Const(-p))
    return maxn(Const(1.0), PowQ(add(mul(d, d), Const(-1e-12)), F(1, 2)))


def test_growth_replay_ends_at_a_charset_prefix():
    # the walk ends with the prefix and judges its 10 ratios eps / eps
    seq = CharsetPoints(tuple(0.5 ** k for k in range(1, 11)))
    assert replay_growth_along(EPS, seq, 1) == ReplayReport(
        "growth-along", False, detail="ratio 1 -> 1")
    # an overflow ends the walk at its first point
    assert replay_growth_along(Const(math.inf), seq, 1).detail == "overflows"
    # an evaluation error is a nan, which the walk skips
    geo = Geometric(F(1, 2))
    assert replay_growth_along(mul(EPS, _raising_at(0.25)), geo, 1) == \
        replay_growth_along(EPS, geo, 1)


def test_smoothing_raises_where_its_loops_do():
    pts = GridSpec(n_points=50, eps_min=1e-3).points()
    net = mul(EPS, _raising_at(float(pts[30])))
    with pytest.raises(DomainError, match=NEGATIVE):
        smooth_approximate(gnumber(net, Tier.Continuous),
                           GridSpec(n_points=50, eps_min=1e-3))
    ok = mul(EPS, _raising_at(float(pts[30]) * 1.001))
    smooth_approximate(gnumber(ok, Tier.Continuous),
                       GridSpec(n_points=50, eps_min=1e-3))


def test_charset_scan_raises_only_at_anchors_it_reads():
    r, s = interleaved_trains()
    seq_r, seq_s = Geometric(F(1, 4)), Midpoints(Geometric(F(1, 4)))
    want = _charset_points(r.net, s.net, 1, seq_r, seq_s, 3)
    # 1/64 is an r-anchor the scan never reaches; 1/4 is its first read
    got = _charset_points(mul(r.net, _raising_at(1 / 64)), s.net, 1,
                          seq_r, seq_s, 3)
    assert got == want
    with pytest.raises(DomainError, match=NEGATIVE):
        _charset_points(mul(r.net, _raising_at(1 / 4)), s.net, 1,
                        seq_r, seq_s, 3)


def test_zero_divisor_raises_only_at_centres_it_reads(monkeypatch):
    # for sin(1/eps) the width loop reads centre n + 1 and stops there
    r = sin_recip(1)
    want = construct_zero_divisor(gnumber(r))
    seq, n = want.zero_sequence, len(want.widths)
    tri = constructions.is_strictly_nonzero(r)
    monkeypatch.setattr(constructions, "is_strictly_nonzero", lambda x: tri)
    got = construct_zero_divisor(
        gnumber(mul(r, _raising_at(seq.value(n + 2))), Tier.Continuous))
    assert (got.widths, got.unit_points) == (want.widths, want.unit_points)
    with pytest.raises(DomainError, match=NEGATIVE):
        construct_zero_divisor(
            gnumber(mul(r, _raising_at(seq.value(n + 1))), Tier.Continuous))


def test_dip_forcing_raises_only_at_anchors_it_reads(monkeypatch):
    # dips to eps_j**j at eps_j = 1/j, value 1 on the midpoints between
    sched = Harmonic()
    s = add(sub(Const(1.0), bump_train(sched)),
            bump_train(sched, heights=DecayHeights(F(1), F(0))))
    want = dip_forcing_data(s)
    # the same search sequences for s + 0 * _raising_at(p)
    monkeypatch.setattr(ideals, "_small_along", lambda net: iter([sched]))
    monkeypatch.setattr(ideals, "_lower_along", lambda net, kinds: iter(
        [(Midpoints(sched), None)]))

    def with_error_at(p):
        return Add(s, Mul(Const(0.0), _raising_at(p)))

    # every level skips 1/2 (not below its bound 1/(N+2)); 1/3 is the
    # first small anchor read, 5/12 the big anchor beside it
    assert dip_forcing_data(with_error_at(1 / 2)) == want
    for p in (1 / 3, 5 / 12):
        with pytest.raises(DomainError, match=NEGATIVE):
            dip_forcing_data(with_error_at(p))
    assert replay_dip_forcing(with_error_at(1 / 2), want)
    with pytest.raises(DomainError, match=NEGATIVE):
        replay_dip_forcing(with_error_at(want.levels[1][1]), want)
