"""Decision procedures against independent numeric oracles.

Derived expected values are computed by brute force on a grid before the
engine's answer is asserted; the oracle never shares code with the
decision path it checks.
"""

import math
from fractions import Fraction as F

import pytest

from gnum import asymptotics as asym
from gnum import profiles
from gnum.asymptotics import (gn_equal, is_moderate, is_negligible,
                              is_strictly_nonzero, leq, valuation)
from gnum.dsl import parse, print_net
from gnum.errors import GnumError
from gnum.harness import (GridSpec, random_net, replay_negligible,
                          verify_decision)
from gnum.nets import (EPS, DecayHeights, ExpNegRecip, PowQ, Tier, absn, add,
                       bump_train, const, cos_recip, eval_net, indicator,
                       inv, mul, neg, powq, sin_recip, spikes, sub)
from gnum.sequences import Geometric, Harmonic, PiSequence

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
    pts = asym._log_points(1e-6, 0.6, 160)
    last = max(p for p in pts if p < 1.34e-2)
    assert math.isnan(eval_net(nan_above, pts[pts.index(last) + 1]))
    assert eval_net(nan_above, last) == 1.0
    assert asym._calibrate_lower(nan_above, 1) == last
    assert asym._calibrate_lower(raise_above, 1) == 0.6


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
