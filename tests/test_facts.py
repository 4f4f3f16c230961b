"""The structural facts a node stores when it is built, against the walks
they replaced.

Each node's ``Facts`` (real, nonneg, positive, nowhere zero, minimal
tier) comes from its type's rule in ``nets._FACT_RULES`` and its
children's stored facts.  The reference below is the five recursive
isinstance walks, with their helpers, that answered the same questions
before, copied verbatim but for one rule added to both since: 1/x > 0
where x >= 0 and x never vanishes.  Every public read must agree with
them on every subterm, as a bool and, for the tier, by identity.  The rest checks what
the walks could not do (deep nets) and that the sign certificates hold
on the values the evaluator gives.
"""

import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest

from gnum import dsl, nets
from gnum.harness import DEFAULT_GRID, random_net
from gnum.nets import (EPS, AbsFactor, AbsNode, Add, AnnihilatorTransition,
                       BumpTrain, Const, ConstHeights, CosRecipPow,
                       DecayHeights, Eps, ExpNegRecip, GelfandFactor,
                       HeightRule, Indicator, Inv, MaxNode, MinNode, Mul,
                       Neg, NetExpr, PowQ, RegularizedQuotient, RootN,
                       SinRecipPow, SmoothBlend, Tier, add, eval_points,
                       gnumber, inv, mul, neg, sin_recip)
from gnum.sequences import Harmonic
from test_nets import _one_node_of_each_type

F = Fraction


# -- the reference: the walks as they were -----------------------------------

def functional_children(net: NetExpr):
    """Subexpressions evaluated as functions (sample data excluded)."""
    if isinstance(net, (Const, Eps, SinRecipPow, CosRecipPow, ExpNegRecip,
                        Indicator, BumpTrain, SmoothBlend)):
        return ()
    if isinstance(net, PowQ):
        return (net.base,)
    if isinstance(net, (Add, Mul, MinNode, MaxNode)):
        return (net.l, net.r)
    if isinstance(net, (Neg, Inv, AbsNode, RootN, AbsFactor)):
        return (net.x,)
    if isinstance(net, GelfandFactor):
        return (net.a,)
    if isinstance(net, RegularizedQuotient):
        return (net.num, net.den)
    if isinstance(net, AnnihilatorTransition):
        return (net.r, net.s)
    raise TypeError(f"unknown net node {type(net).__name__}")


def iter_nodes(net: NetExpr):
    yield net
    for c in functional_children(net):
        yield from iter_nodes(c)


def is_real_net(net: NetExpr) -> bool:
    """Sound check that the net is real-valued on I."""
    if isinstance(net, Const):
        return not isinstance(net.c, complex)
    if isinstance(net, AbsNode):
        return True
    if isinstance(net, SmoothBlend):
        return is_real_net(net.source)
    return all(is_real_net(c) for c in functional_children(net))


def nonneg_net(net: NetExpr) -> bool:
    """Sound structural certificate that net(eps) >= 0 for all eps."""
    if isinstance(net, Const):
        return not isinstance(net.c, complex) and net.c >= 0
    if isinstance(net, (Eps, ExpNegRecip, AbsNode, Indicator,
                        AnnihilatorTransition)):
        return True
    if isinstance(net, RootN):
        return True  # constructor requires nonneg operand
    if isinstance(net, PowQ):
        return nonneg_power(net.base, net.q)
    if isinstance(net, Add):
        return nonneg_net(net.l) and nonneg_net(net.r)
    if isinstance(net, Mul):
        if nonneg_net(net.l) and nonneg_net(net.r):
            return True
        return net.l == net.r and is_real_net(net.l)
    if isinstance(net, MinNode):
        return nonneg_net(net.l) and nonneg_net(net.r)
    if isinstance(net, MaxNode):
        return nonneg_net(net.l) or nonneg_net(net.r)
    if isinstance(net, Inv):
        return positive_net(net)
    if isinstance(net, BumpTrain):
        return _heights_nonneg(net.heights)
    return False


def nonneg_power(x: NetExpr, q: Fraction) -> bool:
    """Sound certificate that x**q >= 0: x >= 0, or q even and x real."""
    return nonneg_net(x) or (q.denominator == 1 and q.numerator % 2 == 0
                             and is_real_net(x))


def _heights_nonneg(rule: HeightRule) -> bool:
    if isinstance(rule, ConstHeights):
        return rule.c >= 0
    if isinstance(rule, DecayHeights):
        return True
    return False


def positive_net(net: NetExpr) -> bool:
    """Sound structural certificate that net(eps) > 0 for all eps."""
    if isinstance(net, Const):
        return not isinstance(net.c, complex) and net.c > 0
    if isinstance(net, (Eps, ExpNegRecip)):
        return True
    if isinstance(net, Inv):
        return nonneg_net(net.x) and nowhere_zero_net(net.x)
    if isinstance(net, PowQ):
        return positive_net(net.base)
    if isinstance(net, RootN):
        return positive_net(net.x)
    if isinstance(net, Mul):
        return positive_net(net.l) and positive_net(net.r)
    if isinstance(net, Add):
        return (positive_net(net.l) and nonneg_net(net.r)) or \
               (nonneg_net(net.l) and positive_net(net.r))
    if isinstance(net, MinNode):
        return positive_net(net.l) and positive_net(net.r)
    if isinstance(net, MaxNode):
        return (positive_net(net.l) and is_real_net(net.r)) or \
               (positive_net(net.r) and is_real_net(net.l))
    return False


def nowhere_zero_net(net: NetExpr) -> bool:
    """Sound structural certificate that net never vanishes on I."""
    if positive_net(net):
        return True
    if isinstance(net, Const):
        return net.c != 0
    if isinstance(net, Neg):
        return nowhere_zero_net(net.x)
    if isinstance(net, (Mul,)):
        return nowhere_zero_net(net.l) and nowhere_zero_net(net.r)
    if isinstance(net, Inv):
        return nowhere_zero_net(net.x)
    if isinstance(net, PowQ):
        return nowhere_zero_net(net.base)
    if isinstance(net, AbsNode):
        return nowhere_zero_net(net.x)
    return False


def minimal_tier(net: NetExpr) -> Tier:
    """Most restrictive tier structurally admitting the tree."""
    if isinstance(net, Indicator):
        return Tier.Arbitrary
    if isinstance(net, PowQ):
        t = minimal_tier(net.base)
        if net.q.denominator == 1 or positive_net(net.base):
            return t
        return max(t, Tier.Continuous)
    if isinstance(net, (AbsNode, MinNode, MaxNode, RootN,
                        AnnihilatorTransition, AbsFactor)):
        t = max((minimal_tier(c) for c in functional_children(net)),
                default=Tier.Smooth)
        return max(t, Tier.Continuous)
    return max((minimal_tier(c) for c in functional_children(net)),
               default=Tier.Smooth)


# -- the stored facts against the walks --------------------------------------

POWERS = (F(2), F(3), F(-2), F(1, 2))


def assert_same_as_the_walks(net):
    signs = [(nets.is_real_net, is_real_net), (nets.nonneg_net, nonneg_net),
             (nets.positive_net, positive_net),
             (nets.nowhere_zero_net, nowhere_zero_net)]
    for read, walk in signs:
        assert bool(read(net)) == bool(walk(net)), (read.__name__, net)
    for q in POWERS:
        assert bool(nets.nonneg_power(net, q)) == bool(nonneg_power(net, q))
    assert nets.minimal_tier(net) is minimal_tier(net), net
    assert nets.functional_children(net) == functional_children(net)
    assert all(a is b for a, b in zip(nets.functional_children(net),
                                      functional_children(net)))
    # the invariant the constructors lean on: positive is nonneg and
    # nowhere zero
    f = net._facts
    assert not f.positive or (f.nonneg and f.nowhere_zero), net


def _subterms(nets_):
    return {node for net in nets_ for node in iter_nodes(net)}


@pytest.mark.parametrize("tier", list(Tier), ids=str)
def test_random_subterms(tier):
    for net in _subterms(random_net(seed, tier, depth)
                         for seed in range(200) for depth in (2, 3, 4, 5)):
        assert_same_as_the_walks(net)


def test_one_node_of_each_type():
    built = _one_node_of_each_type()
    trees = built + [built[14].small_cert.ref, built[-1].source]
    for net in _subterms(trees):
        assert_same_as_the_walks(net)


def _chain(n, term=lambda k: SinRecipPow(F(k + 1))):
    net = EPS
    for k in range(n):
        net = Add(net, term(k))
    return net


def _hand_cases():
    s = sin_recip(1)
    cplx = add(s, mul(Const(1j), EPS))
    yield from (Const(1j), Const(2 - 3j), Const(1 + 0j), Const(-1 + 0j),
                Const(0j), Const(0.0), Const(-0.0), Const(math.nan),
                Const(math.inf), Const(-math.inf), Const(-2.0), Const(2),
                mul(Const(1j), EPS), cplx, Mul(Const(1j), Const(1j)),
                Mul(cplx, cplx), AbsNode(cplx), MaxNode(EPS, cplx),
                MaxNode(cplx, EPS), SmoothBlend(cplx), SmoothBlend(EPS),
                BumpTrain(Harmonic(), heights=ConstHeights(-1.0)),
                BumpTrain(Harmonic(), heights=ConstHeights(0.0)),
                BumpTrain(Harmonic(), heights=ConstHeights(math.nan)),
                AnnihilatorTransition(s, cplx), RegularizedQuotient(s, cplx))
    # even, odd and fractional powers of signed, complex and zero bases
    for base in (s, neg(EPS), add(EPS, Const(-0.5)), Const(-2.0),
                 Const(0.0), cplx, EPS, Inv(EPS), neg(ExpNegRecip()),
                 Mul(s, s), AbsNode(s)):
        for q in (2, -2, 4, 3, -3, 1, F(1, 2), F(3, 2), F(-1, 2)):
            yield PowQ(base, F(q))
    twice = neg(add(2, EPS))
    yield inv(mul(twice, twice))


def test_hand_cases():
    for net in _subterms(_hand_cases()):
        assert_same_as_the_walks(net)
    # x*x with the operands built separately, equal or unequal only at the
    # far end (the walks take time quadratic in a chain's length, so the
    # products alone)
    a, b = _chain(300), _chain(300)
    far = _chain(300, lambda k: SinRecipPow(F(k + 1) if k else F(7, 3)))
    assert a == b and a is not b and a != far
    for net in (Mul(a, b), Mul(a, a), Mul(a, far), Mul(a, _chain(299))):
        assert_same_as_the_walks(net)
    assert nets.nonneg_net(Mul(a, b)) and not nets.nonneg_net(Mul(a, far))
    twice = neg(add(2, EPS))
    square = mul(twice, twice)
    assert nets.nonneg_net(square) and not nets.positive_net(square)
    assert nets.positive_net(inv(square))


# -- what the walks could not do ---------------------------------------------

def test_deep_nets_are_read_without_recursion():
    chain = _chain(5000, lambda k: Const(float(k)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        reads = (nets.is_real_net(chain), nets.nonneg_net(chain),
                 nets.positive_net(chain), nets.nowhere_zero_net(chain))
        g = gnumber(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert reads == (True, True, True, True)
    assert g.tier is Tier.Smooth
    net, tier = dsl.parse(" + ".join(["eps"] * 600))
    assert tier is Tier.Smooth and nets.positive_net(net)
    assert sum(1 for _ in nets.iter_nodes(net)) == 1199


def test_facts_survive_pickles_and_copies():
    net = random_net(3, Tier.Arbitrary, 4)
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net),
                 copy.copy(net)):
        assert vars(twin)["_facts"] == net._facts
        assert twin._facts.tier is net._facts.tier


# -- the certificates against the evaluator ----------------------------------

def test_sign_certificates_hold_on_the_values():
    # where nonneg_net holds no float value is negative, and where
    # is_real_net holds no value is complex
    pts = DEFAULT_GRID.points()[::5]
    subterms = _subterms(random_net(seed, tier, depth) for seed in range(100)
                         for tier in Tier for depth in (2, 3, 4, 5))
    assert len(subterms) > 3000
    for net in subterms:
        vals = eval_points(net, pts, fill=math.nan).tolist()
        if nets.nonneg_net(net):
            assert not any(type(v) is float and v < 0 for v in vals), net
        if nets.is_real_net(net):
            assert not any(isinstance(v, complex) for v in vals), net
