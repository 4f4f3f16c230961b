"""Envelope rules of the witness node types and of min, the along-sequence
rewrite of inverses and blends, and the normal form's quotient
arithmetic, each pinned at its current output; and over random subterms,
no lower envelope above an upper one."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from gnum import nets
from gnum.asymptotics import is_strictly_nonzero
from gnum.dsl import parse
from gnum.harness import random_net
from gnum.nets import (EPS, AbsFactor, Add, AnnihilatorTransition, Const,
                       ExpNegRecip, GelfandFactor, Inv, RegularizedQuotient,
                       SmoothBlend, Tier, absn, add, bump_train, const,
                       cos_recip, mul, nonneg_net, powq, sin_recip)
from gnum.profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, Env, _osc_points,
                           candidate_sequences, enclose, info, lower_pow, rat,
                           rat_lower, rat_upper, substitute_along, upper_pow)
from gnum.scales import MONO_ONE, Poly, RatForm
from gnum.sequences import Geometric, Harmonic, Midpoints, PiSequence

SIN_ZEROS = PiSequence(F(1), F(0), F(1))


def _envelopes(net):
    # the sign is the node's stored fact, the rest its Info
    i = info(net)
    return nonneg_net(net), i.upper, i.lower, i.lower_seq, i.small_seq


@pytest.mark.parametrize("a, upper", [
    (EPS, Env(ZERO_K)),                      # |a| -> 0: the factor is 0
    (ExpNegRecip(), Env(ZERO_K)),
    (Const(2.0), Env(POW, F(0), 4.0)),       # otherwise bounded by 4
    (sin_recip(1), Env(POW, F(0), 4.0)),
    (Inv(EPS), Env(POW, F(0), 4.0)),
])
def test_gelfand_factor_envelope(a, upper):
    assert _envelopes(GelfandFactor(a)) == (False, upper, None, None, None)


def test_regularized_quotient_envelope():
    num, den = EPS, powq(EPS, 2)
    assert _envelopes(RegularizedQuotient(num, den)) == \
        (False, Env(POW, F(-1), 1.0), None, None, None)
    # a recorded domination bound is the envelope, whatever the operands
    assert _envelopes(RegularizedQuotient(num, den, 3.0)) == \
        (False, Env(POW, F(0), 3.0), None, None, None)
    # no lower envelope of the denominator: no upper one of the quotient
    s = sin_recip(1)
    assert _envelopes(RegularizedQuotient(s, s)) == \
        (False, None, None, None, None)


def test_transition_and_abs_factor_envelopes():
    assert _envelopes(AnnihilatorTransition(EPS, sin_recip(1))) == \
        (True, Env(POW, F(0), 1.0), None, None, None)
    for x in (AbsFactor(sin_recip(1)), AbsFactor(EPS, inverse=True)):
        assert _envelopes(x) == (False, Env(POW, F(0), 2.0), None, None,
                                 None)


@pytest.mark.parametrize("text, lower", [
    # a supergrow bound yields to the other
    ("min(eps, abs(exp(-1/eps)^-1))", Env(POW, F(1), 1.0)),
    # of two power bounds the larger exponent, then the smaller constant
    ("min(2*eps, abs(eps))", Env(POW, F(1), 1.0)),
    ("min(root(abs(2), 2), 0.5)", Env(POW, F(0), 0.5)),
    ("min(eps^2, 3)", Env(POW, F(2), 1.0)),
    ("min(exp(-1/eps)^-1, eps^-2)", Env(POW, F(-2), 1.0)),
    ("min(exp(-1/eps)^-1, eps^-2 + exp(-1/eps)^-1)", Env(SUPERGROW)),
])
def test_min_keeps_the_weaker_lower_envelope(text, lower):
    assert info(parse(text)[0]).lower == lower


def test_min_minus_its_smaller_operand_is_not_strictly_nonzero():
    # min(eps^5, |exp(-1/eps)^-1|) is eps^5 on (0, 1]
    x = parse("min(eps^5, abs(exp(-1/eps)^-1)) - eps^5")[0]
    assert is_strictly_nonzero(x).value is False


@pytest.mark.parametrize("text, lower", [
    # |p| >= s*(c - r) for a lead group >= c*s over a rest <= r*s, with
    # s = exp(-k/eps)*eps^q: a growing lead outgrows growing terms of
    # lower order
    ("exp(-1/eps)^-1 + eps^-2*exp(-1/eps)^-1", Env(SUPERGROW)),
    ("eps^-2*exp(-1/eps)^-1 - 3*exp(-1/eps)^-1 + eps^-9", Env(SUPERGROW)),
    # a bounded lead keeps half its constant over a dominated rest
    ("2 + eps", Env(POW, F(0), 1.0)),
    ("2*eps^-1 - 3 + exp(-1/eps)", Env(POW, F(-1), 1.0)),
    # a negligible lead bounds nothing from below
    ("exp(-1/eps) + exp(-1/eps)^2", None),
])
def test_poly_lower_bounds_the_rest_relative_to_the_lead(text, lower):
    assert rat_lower(rat(parse(text)[0])) == lower


def envelope_exceeds(lo, up) -> bool:
    """True where the lower envelope lo eventually exceeds the upper
    envelope up, so that no net has both; a supergrow upper envelope
    bounds nothing."""
    if lo is None or up is None or up.kind == SUPERGROW:
        return False
    if lo.kind == SUPERGROW:
        return True
    if lo.kind != POW or not lo.c > 0:
        return False
    if up.kind != POW:
        return True        # zero or superpow
    return lo.q < up.q or (lo.q == up.q and lo.c > up.c)


def envelope_clashes(seeds) -> list:
    """(lower's analysis, upper's analysis, subterm) of every distinct
    subterm of ``random_net`` at the seeds (3 tiers, depths 3-5) where a
    lower envelope from ``info`` or ``rat_lower`` exceeds an upper one
    from ``info`` or ``rat_upper``."""
    subterms = {node for seed in seeds for tier in Tier for depth in (3, 4, 5)
                for node in nets.iter_nodes(random_net(seed, tier, depth))}
    out = []
    for x in subterms:
        i, r = info(x), rat(x)
        lowers = (("info", i.lower), ("rat", rat_lower(r)))
        uppers = (("info", i.upper), ("rat", rat_upper(r)))
        out += [(lname, uname, x) for lname, lo in lowers
                for uname, up in uppers if envelope_exceeds(lo, up)]
    return out


def test_no_lower_envelope_exceeds_an_upper_one():
    assert envelope_clashes(range(150)) == []


@pytest.mark.parametrize("lo, up, exceeds", [
    (Env(POW, F(1), 2.0), Env(POW, F(1), 1.0), True),
    (Env(POW, F(0), 1.0), Env(POW, F(1), 1.0), True),
    (Env(POW, F(5), 1.0), Env(SUPERPOW), True),
    (Env(POW, F(5), 1.0), Env(ZERO_K), True),
    (Env(SUPERGROW), Env(POW, F(-9), 1.0), True),
    (Env(POW, F(1), 1.0), Env(POW, F(1), 1.0), False),
    (Env(POW, F(2), 1.0), Env(POW, F(1), 1.0), False),
    (Env(POW, F(1), 0.0), Env(ZERO_K), False),
    (Env(SUPERGROW), Env(SUPERGROW), False),
    (None, Env(ZERO_K), False),
])
def test_envelope_exceeds(lo, up, exceeds):
    assert envelope_exceeds(lo, up) is exceeds


def test_the_power_rules_read_an_overflow_as_inf_or_no_bound():
    # (1e200)**3 overflows: an envelope constant that overflows bounds
    # nothing, and an interval end that overflows is inf
    env = Env(POW, F(1), 1e200)
    assert upper_pow(env, F(3)) is None and lower_pow(env, F(3)) is None
    assert upper_pow(env, F(1, 2)) == Env(POW, F(1, 2), 1e100)
    assert enclose(powq(add(EPS, const(1e200)), 3)) == (math.inf, math.inf)
    assert enclose(powq(add(EPS, const(1e-200)), -3)) == (1.0, math.inf)
    # a normal-form coefficient that overflows leaves the power an atom
    x = powq(mul(const(1e200), EPS), F(7, 2))
    assert repr(rat(x).num) == "Poly(1.0*[PowQ]^1)"


def test_an_oscillator_keeps_its_points():
    # the zeros, +1 and -1 points of cos(1/eps^2), built at the first use
    x = cos_recip(2)
    pts = _osc_points(x)
    assert pts is _osc_points(x) == (PiSequence(F(1), F(1, 2), F(2)),
                                     PiSequence(F(2), F(0), F(2)),
                                     PiSequence(F(2), F(1), F(2)))
    assert candidate_sequences(x)[:3] == list(pts)


def test_substitute_along_an_inverse():
    assert substitute_along(Inv(add(const(2), sin_recip(1))), SIN_ZEROS) \
        == (Const(0.5), True)
    assert substitute_along(Inv(add(const(1), EPS)), SIN_ZEROS) == \
        (Inv(Add(Const(1.0), EPS)), True)
    # the inverse of a value 0 along the sequence has none
    assert substitute_along(Inv(sin_recip(1)), SIN_ZEROS) is None
    assert substitute_along(Inv(sin_recip(1)), Harmonic()) is None


def test_substitute_along_a_blend_is_not_exact():
    assert substitute_along(SmoothBlend(sin_recip(1)), SIN_ZEROS) == \
        (Const(0.0), False)
    assert substitute_along(SmoothBlend(sin_recip(1)), Harmonic()) is None
    blend = Inv(SmoothBlend(add(const(2), sin_recip(1))))
    assert substitute_along(blend, SIN_ZEROS) == (Const(0.5), False)


def test_candidate_sequences_of_a_blend_are_its_source_s():
    sin_points = [SIN_ZEROS, PiSequence(F(2), F(1, 2), F(1)),
                  PiSequence(F(2), F(3, 2), F(1))]
    assert candidate_sequences(SmoothBlend(sin_recip(1))) == \
        sin_points + [Harmonic(), Geometric(F(1, 2))]
    # the source's sequences take its place in the pre-order walk, and
    # the fallbacks come after a later node's sequences
    cos_points = [PiSequence(F(1), F(1, 2), F(2)), PiSequence(F(2), F(0), F(2)),
                  PiSequence(F(2), F(1), F(2))]
    net = mul(SmoothBlend(absn(cos_recip(2))), bump_train(Harmonic()))
    assert candidate_sequences(net) == \
        cos_points + [Harmonic(), Midpoints(Harmonic()), Geometric(F(1, 2))]


E1 = (F(0), F(1), ())          # the monomial eps


def test_ratform_add_of_quotients():
    one_plus_eps = Poly({MONO_ONE: 1.0, E1: 1.0})
    q = RatForm(Poly.const(1.0), one_plus_eps)
    out = q.add(RatForm.from_poly(Poly.const(1.0)))
    assert out.num.terms == {MONO_ONE: 2.0, E1: 1.0}
    assert out.den.terms == {MONO_ONE: 1.0, E1: 1.0}
    # the common monomial factor of numerator and denominator cancels
    e2 = (F(0), F(2), ())
    out = RatForm(Poly({E1: 1.0}), Poly({E1: 1.0, e2: 1.0})).simplify()
    assert out.num.terms == {MONO_ONE: 1.0}
    assert out.den.terms == {MONO_ONE: 1.0, E1: 1.0}


def test_normal_forms_are_shared_and_frozen():
    net = parse("(1 + eps)^-1 + 1")[0]
    r = rat(net)
    assert rat(net) is r
    assert r.num.terms == {MONO_ONE: 2.0, E1: 1.0}
    with pytest.raises(FrozenInstanceError):
        r.num = Poly.zero()
