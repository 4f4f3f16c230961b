"""Decision procedures against independent numeric oracles.

Derived expected values are computed by brute force on a grid before the
engine's answer is asserted; the oracle never shares code with the
decision path it checks.
"""

import cmath
import math
import pickle
from fractions import Fraction as F

import pytest

from gnum import asymptotics as asym
from gnum import nets, profiles
from gnum.asymptotics import (UNKNOWN, DecisionTri, WitnessRecord, gn_equal,
                              is_moderate, is_negligible, is_strictly_nonzero,
                              leq, valuation)
from gnum.constructions import idempotent_classify, interleaved_trains
from gnum.dsl import parse, print_net
from gnum.errors import GnumError
from gnum.harness import (GridSpec, random_net, replay_negligible,
                          verify_decision)
from gnum.ideals import (_domination_bound, intersect_principal,
                         is_radical_principal, membership)
from gnum.lattice import convex_factor
from gnum.nets import (EPS, DecayHeights, ExpNegRecip, PowQ, Tier, absn, add,
                       bump_train, const, cos_recip, eval_net, gnumber,
                       indicator, inv, is_real_net, maxn, mul, neg, powq,
                       sin_recip, spikes, sub)
from gnum.profiles import (SUPERGROW, SUPERPOW, ZERO_K, candidate_sequences,
                           enclose, poly_nonneg, rat, substitute_along)
from gnum.scales import MONO_ONE, Poly
from gnum.sequences import Geometric, Harmonic, PiSequence
from gnum.smoothing import smooth_approximate

GRID = GridSpec(n_points=400, eps_min=1e-6)


# -- moderateness ------------------------------------------------------------

def test_moderate_power():
    t = is_moderate(powq(EPS, -5))
    assert t.is_true and t.witness.data[1] == 5


def test_moderate_oscillator_bounded():
    t = is_moderate(sin_recip(1))
    assert t.is_true and t.witness.data[1] == 0


def test_moderate_exp_growth_refuted():
    x = inv(ExpNegRecip())
    # oracle: for each N <= 12 there is a grid eps with e^{1/eps} > eps^-N
    for n_exp in range(13):
        assert any(math.exp(1 / e) > e ** (-n_exp)
                   for e in (0.5, 0.1, 0.05, 0.02))
    t = is_moderate(x)
    assert t.is_false
    rep = verify_decision("moderate", t, x, grid=GRID)
    assert rep.passed


# -- negligibility -----------------------------------------------------------

def test_negligible_exp():
    t = is_negligible(ExpNegRecip())
    assert t.is_true
    assert replay_negligible(ExpNegRecip(), 12, GRID).passed


def test_negligible_power_fails_next_exponent():
    t = is_negligible(powq(EPS, 3))
    assert t.is_false
    assert t.witness.data[1] == 4  # eps^3 = O(eps^m) first fails at m = 4
    # oracle: eps^3 / eps^4 -> infinity on the grid tail
    assert (1e-6) ** 3 / (1e-6) ** 4 > 1e5


def test_negligible_decaying_bump_train():
    bt = bump_train(Geometric(F(1, 2)), heights=DecayHeights(F(1), F(0)))
    # oracle first: h_j = eps_j^j <= eps_j^m once j >= m; verify numerically
    for m in range(13):
        for j in range(m, m + 6):
            e = Geometric(F(1, 2)).value(j)
            assert e ** j <= e ** m
    assert replay_negligible(bt, 12, GRID).passed
    assert is_negligible(bt).is_true


def test_negligible_unit_bump_train_false():
    bt = bump_train(Geometric(F(1, 2)))
    t = is_negligible(bt)
    assert t.is_false
    rep = verify_decision("negligible", t, bt, grid=GRID)
    assert rep.passed


# -- strict nonzeroness ------------------------------------------------------

def test_strictly_nonzero_eps():
    t = is_strictly_nonzero(EPS)
    assert t.is_true and t.witness.data[1] == 1


def test_strictly_nonzero_sin_false():
    x = sin_recip(1)
    # oracle: exhibit near-zero points |sin(1/eps)| < eps^m for small m
    e3 = 1 / (3 * math.pi)
    assert abs(math.sin(1 / e3)) < e3 ** 6
    t = is_strictly_nonzero(x)
    assert t.is_false
    rep = verify_decision("strictly-nonzero", t, x, grid=GRID)
    assert rep.passed


def test_strictly_nonzero_zero_net():
    assert is_strictly_nonzero(const(0)).is_false


def test_calibrate_lower_nan_ends_the_prefix_and_a_raise_passes():
    # 1e300 * (1e6 eps)^2 overflows above eps = 1.34e-2, where f - f is
    # nan; the square root of 0.0134 - eps raises there instead
    f = mul(const(1e300), powq(mul(const(1e6), EPS), 2))
    nan_above = add(sub(f, f), const(1.0))
    raise_above = add(PowQ(sub(const(0.0134), EPS), F(1, 2)), const(1.0))
    pts = asym._LOWER_SCAN.points().tolist()
    last = max(p for p in pts if p < 1.34e-2)
    assert math.isnan(eval_net(nan_above, pts[pts.index(last) + 1]))
    assert eval_net(nan_above, last) == 1.0
    assert asym._calibrate_lower(nan_above, 1) == last
    assert asym._calibrate_lower(raise_above, 1) == 0.6


_POWER_EXP_NODES = (nets.Const, nets.Eps, nets.PowQ, nets.Add, nets.Mul,
                    nets.Neg, nets.Inv, nets.ExpNegRecip)


def test_no_unknown_on_pure_power_exp_nets():
    # sums of products of powers of eps and of exp(-1/eps) have exact
    # normal forms, whose dominant scale group decides all three claims
    xs = [x for depth in (3, 4, 5) for tier in Tier for seed in range(200)
          for x in [random_net(seed, tier, depth)]
          if all(type(n) in _POWER_EXP_NODES for n in nets.iter_nodes(x))]
    assert len(xs) == 455
    assert [(print_net(x), decide.__name__) for x in xs
            for decide in (is_moderate, is_negligible, is_strictly_nonzero)
            if decide(x).value is None] == []


def test_a_growing_lead_outgrows_growing_terms_of_lower_order():
    x = random_net(90, Tier.Smooth, 3)
    assert print_net(x) == ("-1*(exp(-1/eps)^-1 + exp(-1/eps)^-1 + "
                            "eps^-2*exp(-1/eps)^-1)")
    for claim, decide, value in (("moderate", is_moderate, False),
                                 ("negligible", is_negligible, False),
                                 ("strictly-nonzero", is_strictly_nonzero,
                                  True)):
        t = decide(x)
        assert t.value is value
        assert verify_decision(claim, t, x).passed


def test_strictly_nonzero_abs_pair_rule():
    t = is_strictly_nonzero(add(absn(sin_recip(1)), absn(cos_recip(1))))
    assert t.is_true
    # oracle: min over grid of |sin|+|cos| at 1/eps stays near 1
    lo = min(abs(math.sin(1 / e)) + abs(math.cos(1 / e))
             for e in (0.9, 0.5, 0.1, 0.01, 0.001))
    assert lo >= 0.99


# -- equality mod negligibility ----------------------------------------------

def test_gn_equal_negligible_shift():
    assert gn_equal(EPS, add(EPS, ExpNegRecip())).is_true


def test_gn_equal_distinct_powers():
    assert gn_equal(EPS, powq(EPS, 2)).is_false


def test_gn_equal_indicator_nonzero():
    assert gn_equal(indicator(Geometric(F(1, 2))), const(0)).is_false


def test_gn_equal_reflexive_symmetric():
    for seed in range(20):
        x = random_net(seed, Tier.Continuous, 3)
        assert gn_equal(x, x).is_true
    x, y = sin_recip(1), add(sin_recip(1), ExpNegRecip())
    assert gn_equal(x, y).value == gn_equal(y, x).value


def test_gn_equal_transitive_on_decided():
    x = EPS
    y = add(EPS, ExpNegRecip())
    z = add(EPS, mul(const(2), ExpNegRecip()))
    assert gn_equal(x, y).is_true and gn_equal(y, z).is_true
    assert gn_equal(x, z).is_true


# -- partial order -----------------------------------------------------------

def test_leq_zero_below_eps():
    assert leq(const(0), EPS).is_true


def test_leq_oscillator_envelope():
    assert leq(sin_recip(1), const(1)).is_true


def test_leq_power_comparison_false():
    # oracle at a = 3: eps > eps^2 + eps^3 for all eps < 0.6
    for e in (0.5, 0.1, 0.01):
        assert e > e ** 2 + e ** 3
    t = leq(EPS, powq(EPS, 2))
    assert t.is_false
    rep = verify_decision("leq", t, EPS, powq(EPS, 2), grid=GRID)
    assert rep.passed


def test_leq_true_replay():
    t = leq(powq(EPS, 2), EPS)
    assert t.is_true
    rep = verify_decision("leq", t, powq(EPS, 2), EPS, grid=GRID)
    assert rep.passed


def test_leq_oscillator_refutations():
    # 1 <= sin(1/eps) fails cofinally at the minima of the oscillator
    t = leq(const(1), sin_recip(1))
    assert t.is_false
    rep = verify_decision("leq", t, const(1), sin_recip(1), grid=GRID)
    assert rep.passed
    assert leq(sin_recip(1), const(-1)).is_false
    assert leq(const(-1), sin_recip(1)).is_true


def test_leq_does_not_bound_heights_that_grow():
    # decay(0, -1) heights are eps_j^-1 = 2^j: the train is 1.27e30 at
    # eps = 2^-100, so no threshold makes it stay below 1e30
    x = bump_train(Geometric(F(1, 2)), heights=DecayHeights(F(0), F(-1)))
    assert eval_net(x, 2.0 ** -100) > 1e30
    assert leq(x, const(1e30)).value is not True


def test_leq_skips_points_where_a_power_overflows():
    # (-1/eps)^53 overflows to a complex infinity below eps ~ 1.5e-6; the
    # violation scan skips those points as it skips failed evaluations
    y = powq(neg(inv(EPS)), 53)
    assert isinstance(eval_net(y, 1e-6), complex)
    t = leq(const(0), y)
    assert t.is_false
    a, pt = t.witness.data
    assert pt > 1e-6 and 0.0 > eval_net(y, pt) + pt ** a
    rep = verify_decision("leq", t, const(0), y, grid=GRID)
    assert rep.passed


def test_leq_when_the_smaller_side_overflows_to_a_complex_infinity():
    # the threshold calibration and the replay read the complex points
    # as having no real value, as the violation scan does
    x = powq(neg(inv(EPS)), 53)
    t = leq(x, const(0))
    assert t.is_true
    assert verify_decision("leq", t, x, const(0)).passed


def test_leq_when_the_larger_side_is_minus_infinity():
    # y is -inf on part of the scan, where the calibration's slack
    # 1e-12*|y| is inf: the nan it makes ends the prefix without a warning
    x, y = random_net(257, Tier.Smooth, 4), random_net(5257, Tier.Smooth, 4)
    t = leq(x, y)
    assert t.is_true
    assert all(eps0 == 1e-6 for _, eps0 in t.witness.data)


def test_deciders_on_the_inverse_of_eps_plus_the_smallest_subnormal():
    # lower_vs_upper halves the bound 5e-324 of eps + 5e-324 to 0, which
    # no envelope may invert: each decider answers, and every decided
    # verdict passes its replay
    x = inv(add(EPS, const(5e-324)))
    for claim, t in (("moderate", is_moderate(x)),
                     ("negligible", is_negligible(x)),
                     ("strictly-nonzero", is_strictly_nonzero(x))):
        rep = verify_decision(claim, t, x)
        assert rep is None or rep.passed, (claim, t, rep)
    for claim, fn in (("leq", leq), ("gn_equal", gn_equal)):
        t = fn(x, EPS)
        rep = verify_decision(claim, t, x, EPS)
        assert rep is None or rep.passed, (claim, t, rep)
    valuation(x)


EDGE_CONSTANTS = (0.0, -0.0, 5e-324, 1e-300, 1e16, 1e300,
                  1.7976931348623157e308, -1e300)
EDGE_ATOMS = (EPS, powq(EPS, 400), powq(EPS, -400), sin_recip(1),
              inv(add(EPS, const(1))))
EDGE_SHAPES = (lambda a, c: add(a, c), lambda a, c: mul(a, c),
               lambda a, c: add(mul(a, c), EPS))


def _declared(fn, *args):
    """fn(*args), or None when it raises a declared `GnumError`."""
    try:
        return fn(*args)
    except GnumError:
        return None


@pytest.mark.parametrize("c", EDGE_CONSTANTS, ids=repr)
def test_edge_of_float_constants_raise_nothing_undeclared(c):
    # every atom with the constant added, multiplied, and multiplied then
    # added to eps; a RuntimeWarning is an error here, as in all of Tier-1.
    # The replays are run for their exceptions only: on the constants
    # 1e-300 and 5e-324 they reject verdicts whose sampled thresholds
    # and violation points do not hold on the float grid
    for atom in EDGE_ATOMS:
        for shape in EDGE_SHAPES:
            x = shape(atom, const(c))
            for claim, fn, args in (
                    ("moderate", is_moderate, (x,)),
                    ("negligible", is_negligible, (x,)),
                    ("strictly-nonzero", is_strictly_nonzero, (x,)),
                    ("leq", leq, (x, EPS)), ("leq", leq, (EPS, x)),
                    ("gn_equal", gn_equal, (x, EPS))):
                t = _declared(fn, *args)
                if t is not None:
                    _declared(verify_decision, claim, t, *args)
            _declared(valuation, x)
            _declared(print_net, x)
            for y, g in ((x, EPS), (EPS, x), (const(1), x)):
                _declared(membership, y, g)


# finite values that overflow under a power: an interval end that
# overflows is inf, an envelope constant that overflows bounds nothing
OVERFLOW_POWERS = (powq(add(EPS, const(1e200)), 3),
                   powq(add(absn(sin_recip(1)), const(1e200)), 3),
                   absn(sub(powq(EPS, -300), const(1))))


@pytest.mark.parametrize("x", OVERFLOW_POWERS, ids=print_net)
def test_a_power_that_overflows_raises_nothing_undeclared(x):
    for claim, fn in (("moderate", is_moderate),
                      ("negligible", is_negligible),
                      ("strictly-nonzero", is_strictly_nonzero)):
        t = _declared(fn, x)
        if t is not None:
            _declared(verify_decision, claim, t, x)
    lo, hi = enclose(x)
    assert lo <= hi
    rep = _declared(smooth_approximate, gnumber(x, Tier.Continuous))
    assert rep is None or not rep.flagged_bands


def test_an_overflowed_product_is_not_cancelled():
    # 1e300 * 1e300 is inf, which is no cancellation: the net is inf * eps
    # on the float grid, so not negligible and strictly nonzero
    x = mul(const(1e300), mul(const(1e300), EPS))
    assert repr(rat(x).num) == "Poly(inf*eps^1)"
    for claim, fn, want in (("moderate", is_moderate, True),
                            ("negligible", is_negligible, False),
                            ("strictly-nonzero", is_strictly_nonzero, True)):
        t = fn(x)
        assert t.value is want, claim
        rep = verify_decision(claim, t, x)
        assert rep is None or rep.passed, (claim, t, rep)


def test_an_overflowed_difference_is_not_decided_nonzero():
    # x - x has the coefficient inf - inf = nan, which bounds nothing: the
    # zero net is not decided nonzero, nor is x decided unequal to itself
    x = mul(const(1e300), mul(const(1e300), EPS))
    d = sub(x, x)
    assert repr(rat(d).num) == "Poly(nan*eps^1)"
    assert is_negligible(d).value is not False
    assert is_strictly_nonzero(d).value is not True
    assert gn_equal(x, x).value is not False
    assert valuation(d) is None
    # eps - x*x >= 0 only below eps = 1e-1200, which no float grid reaches
    t = leq(mul(x, x), EPS)
    rep = verify_decision("leq", t, mul(x, x), EPS)
    assert rep is None or rep.passed, (t, rep)


@pytest.mark.parametrize("c", (math.nan, math.inf, -math.inf), ids=repr)
def test_a_net_with_a_non_finite_constant_is_not_decided(c):
    # an inf or nan constant is no generalized number: the constant, and
    # any net holding one at any depth, is Unknown with the blocker
    # "non-finite" in every decider, leq and gn_equal
    k = const(c)
    # a bump train's height and width parameters and a blend's source too
    for x in (k, add(EPS, k), mul(sin_recip(1), k), sub(k, k),
              maxn(EPS, absn(add(powq(EPS, 2), mul(k, EPS)))),
              nets.BumpTrain(Harmonic(), heights=nets.ConstHeights(c)),
              nets.BumpTrain(Harmonic(), nets.ShrunkWidths((0.125, c))),
              nets.SmoothBlend(absn(add(EPS, k)))):
        assert not x._facts.finite
        answers = [decide(x) for decide in (is_moderate, is_negligible,
                                            is_strictly_nonzero)]
        answers += [f(*args) for f in (leq, gn_equal)
                    for args in ((x, EPS), (EPS, x), (x, x))]
        for t in answers:
            assert (t.value, t.reason) == (None, "non-finite"), (x, t)
    # constants that fold to inf on construction are caught the same way
    for x in (inv(const(5e-324)), mul(const(1e308), const(10))):
        assert is_strictly_nonzero(x).reason == "non-finite"
    assert EPS._facts.finite and gn_equal(EPS, EPS).value is True


def test_an_infinite_sum_is_not_cancelled():
    inf = Poly.const(math.inf)
    assert inf.add(Poly.const(1.0)).terms == {MONO_ONE: math.inf}
    # inf - inf = nan is kept too, and no nonnegativity pass is certified
    # on a coefficient that is not finite
    nan = inf.sub(inf)
    assert math.isnan(nan.terms[MONO_ONE])
    assert not poly_nonneg(nan) and not poly_nonneg(inf)


def test_substitution_drops_a_power_only_on_a_domain_error(monkeypatch):
    # along the sine's -1 points the base is -1: no square root of it
    net, minus_one = PowQ(sin_recip(1), F(1, 2)), PiSequence(F(2), F(3, 2))
    assert profiles.substitute_along(net, minus_one) is None

    def broken(base, q):
        raise ValueError("not a domain error")

    monkeypatch.setattr(profiles.nets, "powq", broken)
    with pytest.raises(ValueError):
        profiles.substitute_along(net, minus_one)


def test_poly_nonneg_replaces_each_atom_once(monkeypatch):
    # one interval bound for p, then two per replaced abs atom (|W| by W
    # and by -W); no bound certifies this p, negative at eps = 1/pi
    text = ("abs(sin(1/eps) - eps) + abs(cos(1/eps) - eps) + "
            "abs(sin(1/eps^2) - eps) - 5")
    p = profiles.rat(parse(text)[0]).num
    steps = []
    ivl = profiles.poly_ivl
    monkeypatch.setattr(profiles, "poly_ivl",
                        lambda q: steps.append(q) or ivl(q))
    assert profiles.poly_nonneg(p) is False
    assert len(steps) == 1 + 2 * 3
    assert all("AbsNode" not in repr(q) for q in steps[-2:])


@pytest.mark.parametrize("terms", [
    ["sin(1/eps)", "cos(1/eps)"],
    ["sin(1/eps)", "cos(1/eps)", "sin(1/eps^2)"],
    ["sin(1/eps)", "cos(1/eps)", "sin(1/eps^2)", "cos(1/eps^2)"]],
    ids=("2-atoms", "3-atoms", "4-atoms"))
def test_leq_triangle_inequality(terms):
    # sum t <= sum |t|: the pass replaces the atoms |t| one by one
    x = parse(" + ".join(terms))[0]
    y = parse(" + ".join(f"abs({t})" for t in terms))[0]
    assert leq(x, y).is_true


def test_leq_scaled_bound_peels_a_factor_of_at_least_one():
    # t1 + t2 = max(t1, t2) up to a negligible net, but the normal forms
    # leave t1 + t2 <= C * eps**-M * max(t1, t2) Unknown for M >= 1; the
    # rule peels both factors eps**-1, down to 8 * max(t1, t2), which holds
    t1, t2 = interleaved_trains(F(1, 4))
    y, x = add(t1.net, t2.net), maxn(t1.net, t2.net)
    bound = _domination_bound(x, 8.0, 2)
    t = leq(y, bound)
    assert t.is_true and t.reason == "scaled-bound"
    assert verify_decision("leq", t, y, bound).passed
    # a factor below 1 somewhere on I, or a z not certified >= 0 (here
    # 8 * max(t1, t2) - exp(-1/eps), with y <= z True), is not peeled
    z = _domination_bound(x, 8.0, 1)
    for k in (const(0.5), sin_recip(1)):
        assert leq(y, mul(k, z)).is_unknown
    unsigned = sub(mul(const(8.0), x), ExpNegRecip())
    assert leq(y, unsigned).is_true
    assert leq(y, mul(powq(EPS, -1), unsigned)).is_unknown
    # and a complex factor makes the bound complex, outside the order
    with pytest.raises(TypeError):
        leq(y, mul(const(2j), z))


def test_leq_rejects_complex():
    with pytest.raises(TypeError):
        leq(mul(const(1j), EPS), EPS)


def test_leq_reflexive_and_antisymmetric():
    for seed in range(10):
        x = random_net(seed, Tier.Smooth, 2)
        from gnum.nets import is_real_net
        if not is_real_net(x):
            continue
        assert leq(x, x).is_true
    x, y = EPS, add(EPS, ExpNegRecip())
    assert leq(x, y).is_true and leq(y, x).is_true
    assert gn_equal(x, y).is_true


def test_leq_transitive_and_compatible():
    x, y, z = powq(EPS, 3), powq(EPS, 2), EPS
    assert leq(x, y).is_true and leq(y, z).is_true and leq(x, z).is_true
    # translation invariance and multiplication by nonnegative z
    w = sin_recip(1)
    assert leq(add(x, w), add(y, w)).is_true
    t = powq(EPS, 2)
    assert leq(mul(x, t), mul(y, t)).is_true


# -- valuation ---------------------------------------------------------------

def test_valuation_pure_power():
    v = valuation(powq(EPS, F(3, 2)))
    assert v.kind == "finite" and v.v == F(3, 2)


def test_valuation_product():
    v = valuation(mul(powq(EPS, -1), powq(EPS, 2)))
    assert v.kind == "finite" and v.v == 1


def test_valuation_sum_takes_min():
    from gnum.harness import estimate_valuation
    v = valuation(add(EPS, powq(EPS, 2)))
    assert v.kind == "finite" and v.v == 1
    slope, se = estimate_valuation(add(EPS, powq(EPS, 2)), GRID)
    assert abs(slope - 1.0) <= 0.05


def test_valuation_negligible_is_plus_infinity():
    assert valuation(ExpNegRecip()).kind == "plus-infinity"
    assert valuation(const(0)).kind == "plus-infinity"
    assert valuation(inv(ExpNegRecip())).kind == "minus-infinity"


def test_valuation_additive_on_power_fragment():
    xs = [powq(EPS, F(3, 2)), powq(EPS, -2), add(EPS, powq(EPS, 3)),
          mul(const(2), EPS)]
    for x in xs:
        for y in xs:
            vx, vy, vxy = valuation(x), valuation(y), valuation(mul(x, y))
            if vx and vy and vxy and vx.kind == vy.kind == "finite":
                assert vxy.v == vx.v + vy.v


def _lead_scale_valuation(x):
    """The lead-scale walk that `valuation` ran before it read the
    deciders' envelopes, copied verbatim but for its names: every value
    it decides, `valuation` must decide the same."""
    net = nets._net(x)
    r = rat(net).simplify()
    if r.num.is_zero():
        return asym.PLUS_INF

    def lead_scale(p):
        groups = p.grouped_by_scale()
        (k, q), lead = groups[0]
        if len(lead) != 1 or lead[0][0] or not cmath.isfinite(lead[0][1]):
            return None
        for (k2, q2), terms in groups[1:]:
            for atoms, c2 in terms:
                e = profiles._term_upper((k2, q2, atoms), c2)
                if e is None or e.kind == SUPERGROW:
                    return None
                if e.kind == profiles.POW and (k > 0 or e.q <= q):
                    return None
        return (F(k), F(q))

    num_ld = lead_scale(r.num)
    den_ld = (F(0), F(0)) if r.is_poly() else lead_scale(r.den)
    if num_ld is None or den_ld is None:
        return None
    k_eff = num_ld[0] - den_ld[0]
    q_eff = num_ld[1] - den_ld[1]
    if k_eff > 0:
        return asym.PLUS_INF
    if k_eff < 0:
        return asym.MINUS_INF
    return asym.Valuation("finite", q_eff)


def valuation_breach(v, negligible, moderate) -> bool:
    """Does the valuation v contradict the deciders' verdicts?  It is
    +inf exactly where the net is negligible, -inf only where it is not
    moderate, finite only where it is moderate and not negligible."""
    if (v == asym.PLUS_INF) != (negligible is True):
        return True
    if v is None or v == asym.PLUS_INF:
        return False
    if v == asym.MINUS_INF:
        return moderate is not False
    return not (moderate is True and negligible is False)


def test_valuation_agrees_with_the_lead_scale_walk_and_the_deciders():
    decided = 0
    for seed in range(40):
        for tier in Tier:
            for depth in (3, 4, 5):
                x = random_net(seed, tier, depth)
                v, ref = valuation(x), _lead_scale_valuation(x)
                assert ref is None or v == ref, (seed, tier, depth, ref, v)
                assert not valuation_breach(v, is_negligible(x).value,
                                            is_moderate(x).value), (x, v)
                decided += v is not None
    assert decided > 0


@pytest.mark.parametrize("x", (const(math.inf), const(math.nan),
                               mul(EPS, const(math.inf))),
                         ids=("inf", "nan", "eps*inf"))
def test_valuation_of_a_non_finite_net_is_none(x):
    # the envelopes of these read Valuation(0), Valuation(0) and
    # Valuation(1); the deciders answer Unknown "non-finite", as must this
    assert valuation(x) is None


# -- cross-cutting invariants -------------------------------------------------

def test_well_definedness_mod_negligibility():
    nets_to_try = [EPS, powq(EPS, -2), sin_recip(1),
                   add(const(1), sin_recip(2)), const(0),
                   bump_train(Geometric(F(1, 2)))]
    n = ExpNegRecip()
    for x in nets_to_try:
        shifted = add(x, n)
        for fn in (is_moderate, is_negligible, is_strictly_nonzero):
            a, b = fn(x), fn(shifted)
            if a.value is not None and b.value is not None:
                assert a.value == b.value, (fn.__name__, x)


def test_leq_well_defined_mod_negligibility():
    pairs = [(const(0), EPS), (powq(EPS, 2), EPS), (sin_recip(1), const(1))]
    n = ExpNegRecip()
    for x, y in pairs:
        a = leq(x, y)
        b = leq(add(x, n), y)
        if a.value is not None and b.value is not None:
            assert a.value == b.value


def test_reducedness_no_nilpotents():
    # for random nonzero symbolic nets, x*x stays non-negligible
    count = 0
    seed = 0
    while count < 100 and seed < 500:
        x = random_net(seed, Tier.Smooth, 3)
        seed += 1
        if not is_negligible(x).is_false:
            continue
        count += 1
        assert is_negligible(mul(x, x)).is_false, x
    assert count == 100


# -- witness data on demand --------------------------------------------------
#
# A decider's threshold scans run when its witness data is first read, so
# the ideal operations and constructions, which read only verdicts, run
# none.  The reference deciders below are the eager ones they replaced,
# copied verbatim.

SCANS = ("_calibrate_lower", "_leq_thresholds", "_find_order_violation")


def _count_scans(monkeypatch):
    calls = []
    for name in SCANS:
        def counted(*args, _scan=getattr(asym, name), _name=name):
            calls.append(_name)
            return _scan(*args)
        monkeypatch.setattr(asym, name, counted)
    return calls


def _verdict_only_calls():
    """The six memberships of the benchmark's `ideal.meet.3`, then
    radicality, idempotent and convex-factor cases."""
    t1, t2 = interleaved_trains(F(1, 4))
    g = intersect_principal(t1, t2).net
    calls = [(membership, z, w) for z in (mul(t1.net, t2.net), const(1))
             for w in (g, t1.net, t2.net)]
    return calls + [(is_radical_principal, gnumber(EPS)),
                    (idempotent_classify, parse("1 + exp(-1/eps)")[0]),
                    (convex_factor, add(EPS, const(1)), EPS)]


def test_callers_that_read_only_the_verdict_run_no_scan(monkeypatch):
    # eager witnesses scan 5 times in the six memberships, 3 times for
    # the radicality of eps, once for the idempotent 1 + exp(-1/eps) and
    # twice for the convex factor of eps + 1 over eps
    calls = _verdict_only_calls()
    scans = _count_scans(monkeypatch)
    for fn, *args in calls:
        fn(*args)
        assert scans == [], fn.__name__


@pytest.mark.parametrize("decide, args, scan", [
    (is_negligible, (powq(EPS, 3),), "_calibrate_lower"),
    (is_strictly_nonzero, (EPS,), "_calibrate_lower"),
    (leq, (powq(EPS, 2), EPS), "_leq_thresholds"),
    (leq, (EPS, powq(EPS, 2)), "_find_order_violation")],
    ids=("negligible-false", "strictly-nonzero-true", "leq-true",
         "leq-false"))
def test_witness_data_is_scanned_once_on_first_read(monkeypatch, decide,
                                                    args, scan):
    read, unread = decide(*args), decide(*args)
    scans = _count_scans(monkeypatch)
    data = read.witness.data
    assert scans == [scan]
    assert read.witness.data is data and scans == [scan]
    # the unread record resolves as it is printed, compared or hashed
    assert repr(unread.witness) == repr(read.witness)
    assert unread.witness == read.witness and unread == read
    assert hash(unread.witness) == hash(read.witness)
    assert repr(read.witness) == \
        f"WitnessRecord(kind={read.witness.kind!r}, data={data!r})"
    assert scans == [scan, scan]
    twin = decide(*args).witness
    assert pickle.loads(pickle.dumps(twin)) == read.witness
    assert scans == [scan, scan, scan]


def _reference_is_negligible(x):
    net = nets._net(x)
    for up in asym._uppers(net):
        if up.kind in (ZERO_K, SUPERPOW):
            return DecisionTri(True, WitnessRecord("all-powers", (12,)))
    lo = next(iter(asym._lowers(net)), None)
    if lo is not None:
        if lo.kind == SUPERGROW:
            return DecisionTri(False, WitnessRecord(
                "lower-bound-along", (Geometric(F(1, 2)), None, lo.c)))
        m_star = max(1, math.floor(lo.q) + 1)
        return DecisionTri(False, WitnessRecord(
            "exponent-bound", ("m-fails", m_star,
                               asym._calibrate_lower(net, m_star))))
    hit = next(asym._lower_along(net), None)
    if hit is not None:
        return DecisionTri(False, WitnessRecord("lower-bound-along",
                                                asym.along_data(*hit)))
    return UNKNOWN


def _reference_is_strictly_nonzero(x):
    net = nets._net(x)
    lo = next(iter(asym._lowers(net)), None)
    if lo is not None:
        m = asym._lower_exponent(lo)
        eps0 = asym._calibrate_lower(net, m)
        return DecisionTri(True, WitnessRecord("exponent-bound",
                                               ("m", m, eps0)))
    for up in asym._uppers(net):
        if up.kind in (ZERO_K, SUPERPOW):
            return DecisionTri(False, WitnessRecord(
                "small-along", (Geometric(F(1, 2)),)))
    seq = next(asym._small_along(net), None)
    if seq is not None:
        return DecisionTri(False, WitnessRecord("small-along", (seq,)))
    return UNKNOWN


def _reference_gn_equal(x, y):
    return _reference_is_negligible(nets.sub(x, y))


def _reference_leq(x, y, a_max=6):
    xn, yn = nets._net(x), nets._net(y)
    if not (is_real_net(xn) and is_real_net(yn)):
        raise TypeError("leq is defined for real-valued nets")
    d = nets.sub(yn, xn)
    r = rat(d)
    if r.is_poly():
        R = asym._order_relevant(r.num)
        if R.is_zero():
            return DecisionTri(True, _reference_leq_thresholds(xn, yn, a_max),
                               reason="equal-mod-negligible")
        if poly_nonneg(R):
            return DecisionTri(True, _reference_leq_thresholds(xn, yn, a_max))
        sign, a_w = asym._lead_sign(R)
        if sign == 1:
            return DecisionTri(True, _reference_leq_thresholds(xn, yn, a_max))
        if sign == -1:
            return DecisionTri(False, WitnessRecord(
                "order-violation",
                (a_w, asym._find_order_violation(xn, yn, a_w))))
    if enclose(d)[0] >= 0.0:
        return DecisionTri(True, _reference_leq_thresholds(xn, yn, a_max),
                           reason="pointwise")
    for seq in candidate_sequences(d):
        out = substitute_along(d, seq)
        if out is None:
            continue
        r2 = rat(out[0])
        if not r2.is_poly():
            continue
        sign, a_w = asym._lead_sign(asym._order_relevant(r2.num))
        if sign == -1:
            pt = asym._find_violation_on_seq(xn, yn, a_w, seq)
            if pt is not None:
                return DecisionTri(False, WitnessRecord("order-violation",
                                                        (a_w, pt)))
    return UNKNOWN


def _reference_leq_thresholds(x, y, a_max):
    return WitnessRecord("eventual-threshold",
                         asym._leq_thresholds(x, y, a_max))


def _outcome(fn, *args):
    try:
        t = fn(*args)
    except Exception as exc:  # both deciders must raise alike
        return "raises", type(exc).__name__, str(exc)
    return t.value, t.reason, repr(t.witness)


def test_deferred_scans_match_the_eager_deciders():
    # nets and pairs the golden corpus does not hold: seeds 40-119 in
    # every tier and smooth pairs 40-99, all at depth 3
    cases = []
    for seed in range(40, 120):
        for tier in Tier:
            x = random_net(seed, tier, 3)
            cases += [(is_negligible, _reference_is_negligible, x),
                      (is_strictly_nonzero, _reference_is_strictly_nonzero,
                       x)]
    for seed in range(40, 100):
        x = random_net(seed, Tier.Smooth, 3)
        y = random_net(seed + 5000, Tier.Smooth, 3)
        cases += [(leq, _reference_leq, x, y),
                  (gn_equal, _reference_gn_equal, x, y)]
    decided = 0
    for lazy, eager, *args in cases:
        want = _outcome(eager, *args)
        assert _outcome(lazy, *args) == want, (lazy.__name__, args)
        decided += want[0] is not None
    assert decided > len(cases) // 2
