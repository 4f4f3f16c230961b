"""The scalar evaluator's rule table against the tree walk it replaced.

``eval_net`` builds each node's closure once from ``nets._EVAL_RULES``.
The reference below is the isinstance walk that ``eval_net`` ran before,
with its power helpers, copied verbatim (its blend import names the
package, since this file is not in it): the closures must give the same
values bit for bit, real and imaginary parts compared by ``float.hex``,
and raise the same errors.
The rest checks what the closures must not change: a net is freed by
reference counting, building never recurses, a shared subterm is built
once, and a RecursionError leaves evaluation working.
"""

import copy
import gc
import math
import pickle
import sys
import weakref
from fractions import Fraction as F

import pytest

from gnum import nets
from gnum.constructions import gelfand_witnesses
from gnum.errors import DomainError
from gnum.harness import DEFAULT_GRID, random_net
from gnum.lattice import abs_factor
from gnum.nets import (EPS, AbsFactor, AbsNode, Add, AnnihilatorTransition,
                       BumpTrain, Const, CosRecipPow, Eps, ExpNegRecip,
                       GelfandFactor, Indicator, Inv, MaxNode, MinNode, Mul,
                       Neg, NetExpr, PowQ, RegularizedQuotient, RootN, Scalar,
                       SinRecipPow, SmoothBlend, SpikeTrain, Tier, _exp,
                       absn, add, bump_phi, bump_train, cos_recip, eval_net,
                       eval_points, gelfand_chi, mul, patch_weights,
                       sin_recip, spikes, sub, transition_pm1)
from gnum.sequences import Geometric, Harmonic, SequenceRule

POINTS = [*DEFAULT_GRID.points()[::10].tolist(), 5e-324, 1e-300,
          math.nextafter(1.0, 0.0), 1.0]


# -- the reference: the tree walk as it was ----------------------------------

def _ev(net: NetExpr, eps: float) -> Scalar:
    if isinstance(net, Const):
        return net.c
    if isinstance(net, Eps):
        return eps
    if isinstance(net, Add):
        return _ev(net.l, eps) + _ev(net.r, eps)
    if isinstance(net, Mul):
        return _ev(net.l, eps) * _ev(net.r, eps)
    if isinstance(net, Neg):
        return -_ev(net.x, eps)
    if isinstance(net, Inv):
        v = _ev(net.x, eps)
        if v == 0:
            # operand is structurally nowhere zero; a float 0.0 is an
            # underflow, so the true reciprocal overflows
            return math.inf
        return 1.0 / v
    if isinstance(net, PowQ):
        v = _ev(net.base, eps)
        q = net.q
        if q.denominator == 1:
            return _pow_int(v, q.numerator)
        return _pow_frac(v, float(q))
    if isinstance(net, AbsNode):
        return abs(_ev(net.x, eps))
    if isinstance(net, MinNode):
        l, r = _ev(net.l, eps), _ev(net.r, eps)
        return r if r < l or r != r else l
    if isinstance(net, MaxNode):
        l, r = _ev(net.l, eps), _ev(net.r, eps)
        return r if r > l or r != r else l
    if isinstance(net, RootN):
        v = _ev(net.x, eps)
        if v < 0.0:
            raise DomainError("RootN of a negative value")
        return math.pow(v, 1.0 / net.n) if v != 0.0 else 0.0
    if isinstance(net, SinRecipPow):
        return math.sin(eps ** -net._p)
    if isinstance(net, CosRecipPow):
        return math.cos(eps ** -net._p)
    if isinstance(net, ExpNegRecip):
        return _exp(-1.0 / eps)
    if isinstance(net, BumpTrain):
        return _ev_bump(net, eps)
    if isinstance(net, Indicator):
        return _ev_spike(net.s, eps)
    if isinstance(net, GelfandFactor):
        v = _ev(net.a, eps)
        m = abs(v)
        if m <= 0.25:
            return 0.0
        return -gelfand_chi(2.0 * m) / v
    if isinstance(net, RegularizedQuotient):
        nv = _ev(net.num, eps)
        dv = _ev(net.den, eps)
        delta = _exp(-1.0 / eps)
        m = abs(dv)  # m * m overflows to inf where m ** 2 raises
        denom = m * m + delta * delta
        if denom == 0.0:
            return 0.0
        return nv * dv.conjugate() / denom if isinstance(dv, complex) \
            else nv * dv / denom
    if isinstance(net, AnnihilatorTransition):
        d = abs(_ev(net.s, eps)) - abs(_ev(net.r, eps))
        eta = net.eta_scale * _exp(-1.0 / eps)
        if eta == 0.0:
            return 1.0 if d > 0.0 else (0.0 if d < 0.0 else 0.5)
        return transition_pm1(d / eta)
    if isinstance(net, AbsFactor):
        return _ev_abs_factor(net, eps)
    if isinstance(net, SmoothBlend):
        from gnum.smoothing import _blend_value
        return _blend_value(net, eps)
    raise TypeError(f"cannot evaluate node {type(net).__name__}")
def _ev_bump(net: BumpTrain, eps: float) -> float:
    j0 = net.schedule.index_near(eps)
    for j in range(max(1, j0 - 2), j0 + 3):
        c = net.schedule.value(j)
        w = net.widths.value(net.schedule, j)
        if w <= 0.0:
            if eps == c:
                return net.heights.value(net.schedule, j)
            continue
        t = (eps - c) / w
        if -1.0 < t < 1.0:
            return net.heights.value(net.schedule, j) * bump_phi(t)
    return 0.0


def _ev_spike(s: SequenceRule, eps: float) -> float:
    j0 = s.index_near(eps)
    for j in range(max(1, j0 - 2), j0 + 3):
        if s.value(j) == eps:
            return 1.0
    return 0.0

def _ev_abs_factor(net: AbsFactor, eps: float) -> Scalar:
    v = _ev(net.x, eps)
    m = abs(v)
    if m == 0.0:
        return 0.0
    if isinstance(v, complex):
        phase = v / m if net.inverse else v.conjugate() / m
    else:
        phase = 1.0 if v > 0 else -1.0
    patched = 0.0
    for idx, chi in patch_weights(eps):
        em = eps ** idx
        b = em / m if m >= em else 1.0
        patched += b * chi
    return phase * (1.0 - patched)


def _pow_int(v: Scalar, n: int) -> Scalar:
    if v == 0 and n < 0:
        return math.inf
    try:
        return v ** n
    except OverflowError:
        return math.inf if (not isinstance(v, complex) and v > 0) \
            else complex(math.inf, 0)


def _pow_frac(v: Scalar, q: float) -> float:
    if isinstance(v, complex):
        raise DomainError("fractional power of a complex value")
    if v < 0.0:
        raise DomainError("fractional power of a negative value")
    if v == 0.0:
        return math.inf if q < 0 else 0.0
    try:
        return math.pow(v, q)
    except OverflowError:
        return math.inf


# -- values and errors, bit for bit -------------------------------------------

def _outcome(evaluate, net, p):
    """What evaluating gives at p: the value's type and ``float.hex`` of
    its parts, or the error's type and message."""
    try:
        v = evaluate(net, p)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    if isinstance(v, complex):
        return complex, v.real.hex(), v.imag.hex()
    return type(v), float(v).hex()


def assert_same_as_the_walk(net, pts=POINTS):
    for p in pts:
        want = _outcome(_ev, net, p)
        assert _outcome(eval_net, net, p) == want, (net, p)


@pytest.mark.parametrize("tier", list(Tier), ids=str)
@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_random_nets(tier, depth):
    for seed in range(200):
        assert_same_as_the_walk(random_net(seed, tier, depth))


def _witness_nets():
    s, c = sin_recip(1), cos_recip(2)
    cplx = add(s, mul(Const(1j), EPS))
    pair = gelfand_witnesses(random_net(3, Tier.Smooth, 3),
                             sub(1.0, random_net(3, Tier.Smooth, 3)))
    nodes = [GelfandFactor(s), GelfandFactor(cplx), pair.r.net, pair.s.net,
             pair.product_net(),
             RegularizedQuotient(EPS, s), RegularizedQuotient(Const(1j), cplx),
             RegularizedQuotient(s, PowQ(ExpNegRecip(), F(-1)), 2.0),
             AnnihilatorTransition(s, c), AnnihilatorTransition(c, s, 0.5),
             AbsFactor(s), AbsFactor(s, inverse=True), AbsFactor(cplx),
             AbsFactor(cplx, inverse=True), abs_factor(add(s, EPS)).net,
             SmoothBlend(absn(s)), SmoothBlend(mul(Const(1j), absn(c))),
             spikes(Geometric(F(1, 2))), spikes(Harmonic()),
             Const(1 + 2j), Inv(ExpNegRecip()), PowQ(EPS, F(-300))]
    for node in nodes:
        yield node
        yield add(mul(node, EPS), bump_train(Harmonic()))


def test_witness_and_edge_nets():
    # the spike trains' points of S too
    pts = POINTS + [0.5, 2.0 ** -20, 1 / 3, 1 / 7]
    for net in _witness_nets():
        assert_same_as_the_walk(net, pts)


def test_powers_and_roots_of_edge_bases():
    # zeros of either sign, nan, negative, complex and overflowing bases
    big = PowQ(EPS, F(-300))
    bases = (Const(0.0), Const(-0.0), mul(EPS, Const(-0.0)), ExpNegRecip(),
             mul(ExpNegRecip(), Inv(ExpNegRecip())), add(EPS, Const(-0.5)),
             big, mul(big, Const(-1.0)), add(EPS, Const(1j)))
    for base in bases:
        for q in (-3, -2, -1, 0, 2, 3, 7, F(1, 2), F(-1, 2), F(3, 2)):
            assert_same_as_the_walk(PowQ(base, F(q)))
        assert_same_as_the_walk(RootN(base, 3))


def test_what_eval_net_refuses(monkeypatch):
    class Unruled(NetExpr):
        pass

    # every node type is built with the facts of its fact rule; this one
    # has a fact rule, and no evaluation rule
    monkeypatch.setitem(nets._FACT_RULES, Unruled, lambda net: nets._POSITIVE)
    with pytest.raises(TypeError, match="cannot evaluate node Unruled"):
        eval_net(Unruled(), 0.5)
    with pytest.raises(DomainError):
        eval_net(EPS, 0.0)


# -- lifetime, sharing and depth ---------------------------------------------

def _one_of_each():
    """A fresh net of every node type but SmoothBlend, whose closure holds
    its node because its band plan is keyed by it."""
    def s():
        return SinRecipPow(F(1))
    return [Const(2.0), Eps(), Add(Eps(), s()), Mul(s(), Eps()), Neg(s()),
            Inv(Eps()), PowQ(Eps(), F(1, 2)), PowQ(s(), F(3)), AbsNode(s()),
            MinNode(Eps(), s()), MaxNode(s(), Eps()), RootN(AbsNode(s()), 3),
            s(), CosRecipPow(F(2)), ExpNegRecip(), BumpTrain(Harmonic()),
            Indicator(Geometric(F(1, 2))), SpikeTrain(Harmonic()),
            GelfandFactor(s()), RegularizedQuotient(Eps(), s()),
            AnnihilatorTransition(s(), CosRecipPow(F(1))), AbsFactor(s()),
            AbsFactor(Add(s(), Mul(Const(1j), Eps())), inverse=True)]


def test_nets_are_freed_without_the_cycle_collector():
    kinds = [type(n) for n in _one_of_each()]
    assert set(kinds) == set(nets._EVAL_RULES) - {SmoothBlend}
    gc.disable()
    try:
        for k in range(len(kinds)):
            net = _one_of_each()[k]     # the list, and the other nets, go
            eval_net(net, 0.3)
            eval_points(net, [0.3, 0.5])    # keeps an atom's memo key
            refs = [weakref.ref(n) for n in nets.iter_nodes(net)]
            del net
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _chain(n: int) -> NetExpr:
    net = Eps()
    for k in range(n):
        net = Add(net, Const(float(k)))
    return net


def test_building_a_long_chain_does_not_recurse():
    chain = _chain(5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        fn = nets._build(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert fn is chain._fn
    node, built = chain, 0
    while isinstance(node, Add):
        built += "_fn" in vars(node) and "_fn" in vars(node.r)
        node = node.l
    assert built == 5000 and "_fn" in vars(node)


def test_a_shared_subterm_gets_one_closure():
    shared = Add(Eps(), SinRecipPow(F(1)))
    net = Mul(shared, shared)
    assert eval_net(net, 0.3) == _ev(net, 0.3)
    l, r = (cell.cell_contents for cell in net._fn.__closure__)
    assert l is r is shared._fn
    eval_net(Neg(shared), 0.3)
    assert shared._fn is l


def test_a_recursion_error_leaves_evaluation_working():
    chain = _chain(5000)
    with pytest.raises(RecursionError):
        eval_net(chain, 0.5)
    with pytest.raises(RecursionError):
        eval_net(chain, 0.5)
    shallow = _chain(50)
    assert eval_net(shallow, 0.5) == _ev(shallow, 0.5) == 0.5 + sum(range(50))
    assert eval_net(add(EPS, 1.0), 0.25) == 1.25


def test_an_evaluated_net_pickles_and_copies():
    # the closure is left out and built again by the copy
    net = random_net(3, Tier.Arbitrary, 4)
    want = [_outcome(eval_net, net, p) for p in POINTS]
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert twin == net and hash(twin) == hash(net)
        assert "_fn" not in vars(twin)
        assert [_outcome(eval_net, twin, p) for p in POINTS] == want
