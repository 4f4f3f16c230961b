"""Envelope rules of the witness node types, the along-sequence rewrite
of inverses and blends, and the normal form's quotient arithmetic, each
pinned at its current output."""

from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from gnum.dsl import parse
from gnum.nets import (EPS, AbsFactor, Add, AnnihilatorTransition, Const,
                       ExpNegRecip, GelfandFactor, Inv, RegularizedQuotient,
                       SmoothBlend, absn, add, bump_train, const, cos_recip,
                       mul, powq, sin_recip)
from gnum.profiles import (POW, ZERO_K, Env, candidate_sequences, info, rat,
                           substitute_along)
from gnum.scales import MONO_ONE, Poly, RatForm
from gnum.sequences import Geometric, Harmonic, Midpoints, PiSequence

SIN_ZEROS = PiSequence(F(1), F(0), F(1))


def _envelopes(net):
    i = info(net)
    return i.nonneg, i.upper, i.lower, i.lower_seq, i.small_seq


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
