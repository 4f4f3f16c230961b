"""Ideal algebra: principal reduction, membership routes, powers,
radicals, and radicality of principal ideals.  The domination route of
membership and the radicality check are compared with the code they
replaced, kept here verbatim, and the order's answers on the domination
bounds are checked against the implications between them."""

import math
from fractions import Fraction as F

import pytest

from gnum import ideals, nets
from gnum.asymptotics import (UNKNOWN, DecisionTri, WitnessRecord, gn_equal,
                              is_negligible, is_strictly_nonzero, leq)
from gnum.constructions import interleaved_trains
from gnum.errors import PreconditionError
from gnum.harness import GridSpec, random_net, replay_negligible_diff
from gnum.ideals import (FinIdeal, RootFamilyIdeal, _compose_witness,
                         _domination_bound, _exact_quotient, _phase,
                         _replay_witness, _structural_factor,
                         dip_forcing_data, intersect_principal,
                         is_radical_principal, membership, power_membership,
                         principal_forms, principal_reduce,
                         radical_membership, replay_dip_forcing)
from gnum.lattice import gabs
from gnum.nets import (EPS, Const, DecayHeights, ExpNegRecip,
                       RegularizedQuotient, Tier, absn, add, bump_train,
                       const, cos_recip, eval_net, gnumber, indicator, maxn,
                       mul, neg, nonneg_net, powq, rootn, sin_recip, spikes,
                       sub)
from gnum.profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, info, rat,
                           rat_lower, rat_upper)
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
    assert repr(membership(y, x)) == "DecisionTri(True [dominated C=1.0 M=0])"
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


# -- the domination route ----------------------------------------------------
#
# `_witnesses` reads one bound off the envelopes and asks `leq` one more.
# The reference below is the loop it ran before any pruning, copied
# verbatim with the candidates it asked: the envelope bound, then the grid
# of bounds C * eps**-M * |x|, each asked of `leq` in order until one holds.

GRID_C, GRID_M = (1.0, 2.0, 4.0, 8.0), (0, 1, 2)


def _dominations(y_abs, x_abs):
    """Candidate (C, M) with |y| <= C * eps**-M * |x|, cheapest first."""
    up = rat_upper(rat(y_abs)) or info(y_abs).upper
    lo = rat_lower(rat(x_abs)) or info(x_abs).lower
    if up is not None and lo is not None and up.kind in (ZERO_K, SUPERPOW,
                                                         POW):
        if lo.kind == POW and up.kind == POW:
            m = max(0, math.ceil(lo.q - up.q))
            yield (2.0 * up.c / lo.c, m)
        elif lo.kind == SUPERGROW:
            yield (1.0, 0)
    for C in GRID_C:
        for M in GRID_M:
            yield (C, M)


def _reference_witnesses(ynet, xnet):
    yield _structural_factor(ynet, xnet), ""
    yield _exact_quotient(ynet, xnet, use_abs=False), ""
    b = _exact_quotient(ynet, xnet, use_abs=True)
    if b is not None:
        yield _compose_witness([_phase(ynet, True), b, _phase(xnet, False)]), ""
    # domination route: |y| <= C eps^-M |x| makes the regularized
    # quotient a moderate witness
    y_abs = ynet if nonneg_net(ynet) else absn(ynet)
    x_abs = xnet if nonneg_net(xnet) else absn(xnet)
    seen = set()
    for C, M in _dominations(y_abs, x_abs):
        if (C, M) in seen:
            continue
        seen.add((C, M))
        bound = nets.mul(Const(C), x_abs) if M == 0 else \
            nets.mul(Const(C), nets.mul(nets.powq(nets.EPS, -M), x_abs))
        if leq(y_abs, bound).is_true:
            b = RegularizedQuotient(y_abs, x_abs, C if M == 0 else None)
            yield (_compose_witness([_phase(ynet, True), b,
                                     _phase(xnet, False)]),
                   f"dominated C={C} M={M}")


def _clear_analysis_caches():
    for cached in (info, rat):
        cached.cache_clear()


def _answer(fn, *args):
    _clear_analysis_caches()
    try:
        t = fn(*args)
    except Exception as exc:  # both loops must raise alike
        return "raises", type(exc).__name__, str(exc)
    return t.value, t.reason, repr(t.witness)


def _assert_verdicts_as_reference(monkeypatch, calls):
    """A verdict the reference decides is kept, and one it leaves Unknown
    may become True only with a membership witness that replays; the
    reasons and witnesses of True answers may differ."""
    for fn, *args in calls:
        with monkeypatch.context() as m:
            m.setattr(ideals, "_witnesses", _reference_witnesses)
            want = _answer(fn, *args)
        _clear_analysis_caches()
        t = fn(*args)
        if want[0] is None and t.is_true and fn is membership:
            y, x = args
            assert _replay_witness(t.witness.data[0], x, y), args
        else:
            assert t.value == want[0], (fn.__name__, args)
    _clear_analysis_caches()


def _corpus_calls():
    """The ideal operations of the benchmark's `witnesses` workload:
    generator forms, intersections, powers and radicals."""
    t1, t2 = interleaved_trains(F(1, 4))
    t3, t4 = interleaved_trains(F(1, 5))
    calls = []
    for r, s in [(sin_recip(1), cos_recip(1)), (EPS, powq(EPS, 2)),
                 (EPS, sin_recip(1)), (powq(EPS, -1), EPS), (t1.net, t2.net),
                 (cos_recip(1), add(const(2), sin_recip(1))),
                 (mul(const(3), EPS), mul(const(5), powq(EPS, 2)))]:
        sum_form, max_form = principal_forms(
            FinIdeal((gnumber(r), gnumber(s))))
        calls += [(membership, sum_form.net, max_form.net),
                  (membership, max_form.net, sum_form.net)]
    for x, y in [(EPS, powq(EPS, 2)), (powq(EPS, 2), powq(EPS, 3)),
                 (powq(EPS, 2), powq(EPS, 5)), (t1.net, t2.net),
                 (t3.net, t4.net)]:
        g = intersect_principal(gnumber(x), gnumber(y)).net
        calls += [(membership, z, w) for z in (mul(x, y), const(1))
                  for w in (g, x, y)]
    for g, k in [(sin_recip(1), 1), (EPS, 2), (t1.net, 1), (cos_recip(1), 3)]:
        r = mul(powq(EPS, k), g)
        calls += [(power_membership, gnumber(mul(r, r)), gnumber(g), 2),
                  (membership, r, g)]
    calls += [(is_radical_principal, gnumber(s))
              for s in (dip_train(), indicator(Geometric(F(1, 2))),
                        bump_train(Geometric(F(1, 2))), EPS)]
    return calls


def membership_pairs(seeds, depth):
    """(y, x), (1, x), (y, x*x) and (y*x, x) for y = net seed and
    x = net seed + 7000, in every tier."""
    pairs = []
    for seed in seeds:
        for tier in Tier:
            y = random_net(seed, tier, depth)
            x = random_net(seed + 7000, tier, depth)
            pairs += [(y, x), (const(1), x), (y, mul(x, x)), (mul(y, x), x)]
    return pairs


def test_domination_search_matches_reference_on_ideal_operations(
        monkeypatch):
    _assert_verdicts_as_reference(monkeypatch, _corpus_calls())


def test_domination_search_matches_reference_on_random_pairs(monkeypatch):
    # at depth 3, seeds 18 and 21 hold pairs whose weakest bound holds
    # while the envelope bound does not, and seed 22 one whose weakest
    # bound the reference's `leq` left Unknown while a stronger one held
    pairs = membership_pairs(range(4), 2) + membership_pairs((18, 21, 22), 3)
    _assert_verdicts_as_reference(monkeypatch,
                                  [(membership, y, x) for y, x in pairs])


def test_refuted_weakest_bound_ends_the_domination_search(monkeypatch):
    # 1 is not dominated by a bump train: the envelopes give no bound, and
    # the one bound asked, C = 8 and M = 2, is refuted
    t1, _ = interleaved_trains(F(1, 4))
    asked = []

    def counting_leq(a, b):
        asked.append(b)
        return leq(a, b)

    monkeypatch.setattr(ideals, "leq", counting_leq)
    assert membership(const(1), t1.net).is_false
    assert asked == [_domination_bound(t1.net, 8.0, 2)]


def order_grid(pairs):
    """For each pair (y, x), `leq`'s verdict on |y| <= C * eps**-M * |x|
    for every (C, M) of the grid."""
    out = []
    for y, x in pairs:
        y_abs = y if nonneg_net(y) else absn(y)
        x_abs = x if nonneg_net(x) else absn(x)
        out.append({(C, M): leq(y_abs, _domination_bound(x_abs, C, M)).value
                    for C in GRID_C for M in GRID_M})
    return out


def order_violations(grid):
    """(unsound, incomplete) cases (pair index, bound, weaker bound) of
    the verdict tables of `order_grid`.  On I a bound with a larger C and
    M is weaker, so a bound decided True makes every weaker bound true:
    a weaker bound decided False is unsound, and one not decided True is
    a gap in completeness."""
    unsound, incomplete = [], []
    for i, verdicts in enumerate(grid):
        for b, v in verdicts.items():
            for w, vw in verdicts.items():
                if v is True and w != b and b[0] <= w[0] and b[1] <= w[1]:
                    if vw is False:
                        unsound.append((i, b, w))
                    if vw is not True:
                        incomplete.append((i, b, w))
    return unsound, incomplete


def test_leq_answers_the_domination_bounds_as_they_imply_each_other():
    # a metamorphic test of the order (Chen et al., "Metamorphic Testing:
    # A Review of Challenges and Opportunities", ACM Computing Surveys,
    # 2018): weakening a bound that holds keeps it holding.  Without the
    # scaled-bound rule 20 (bound, weaker bound) cases in these 144 pairs
    # are True, then not True.  Of the 1,728 verdicts 814 are True and
    # 428 False
    grid = order_grid(membership_pairs(range(12), 2))
    unsound, incomplete = order_violations(grid)
    assert not unsound
    assert not incomplete
    verdicts = [v for t in grid for v in t.values()]
    assert verdicts.count(True) >= 800 and verdicts.count(False) >= 400


# -- radicality by the dichotomy ---------------------------------------------
#
# `is_radical_principal` answers a continuous-tier generator that is neither
# negligible nor strictly nonzero by dip forcing, without asking membership.
# The reference below is the order it had before, copied verbatim:
# membership first, dip forcing only where membership is Unknown.


def _reference_is_radical_principal(s):
    gs = nets._gn(s)
    snet = gs.net
    tn = is_negligible(snet)
    if tn.is_true:
        return DecisionTri(True, WitnessRecord("membership-factor",
                                               (Const(0.0),)),
                           reason="zero ideal")
    y = rootn(absn(snet), 2)
    t = membership(y, snet)
    if not t.is_unknown:
        return t
    if tn.is_false and is_strictly_nonzero(snet).is_false and \
            gs.tier <= Tier.Continuous:
        data = dip_forcing_data(snet)
        if data is not None:
            return DecisionTri(False, WitnessRecord("dip-forcing",
                                                    (data,)))
        return DecisionTri(False, WitnessRecord("dip-forcing", (None,)),
                           reason="level points not materialized")
    return UNKNOWN


def test_radicality_matches_reference_on_random_nets():
    for seed in range(20):
        for tier in Tier:
            s = gnumber(random_net(seed, tier, 3))
            assert _answer(is_radical_principal, s) == \
                _answer(_reference_is_radical_principal, s), (seed, tier)
    _clear_analysis_caches()


@pytest.mark.parametrize("s", [dip_train(), bump_train(Geometric(F(1, 2)))],
                         ids=["dip-train", "unit-bump-train"])
def test_radicality_by_dip_forcing_asks_no_domination_bound(monkeypatch, s):
    asked = []

    def counting_leq(a, b):
        asked.append(b)
        return leq(a, b)

    monkeypatch.setattr(ideals, "leq", counting_leq)
    t = is_radical_principal(gnumber(s))
    assert not asked
    assert t.is_false and t.witness.kind == "dip-forcing"
    assert replay_dip_forcing(s, t.witness.data[0])
