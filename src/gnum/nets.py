"""Expression trees for eps-parametrized nets on I = (0,1].

A net is a closed immutable tree built from the primitives below; there
are no opaque user closures, which is what keeps the asymptotic decision
procedures (see ``asymptotics``) able to pattern-match representatives.
``eval_net`` evaluates any admissible tree at a concrete eps in double
precision, deterministically, through each node's closure, built once by
its type's rule in ``_EVAL_RULES``; ``eval_points`` gives the same
values, bit for bit, on a whole array of points, by its type's rule in
``_VEC_RULES``.

Tiers tag the regularity of eps -> r_eps: Smooth < Continuous <
Arbitrary.  Structural admissibility is checked at construction time,
when a node also stores its hash and its structural ``Facts`` (realness,
sign certificates, the most restrictive tier it lives in), each from its
children's, so no query walks a subtree.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from functools import partial
from itertools import repeat
from numbers import Complex
from operator import attrgetter, gt, lt
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, TierError
from .records import Record
from .sequences import (PI, Geometric, Harmonic, Midpoints, PiSequence,
                        SequenceRule)

Scalar = Union[float, complex]


def _exp(u: float) -> float:
    """math.exp, with inf where it overflows and 0.0 below -745."""
    if u < -745.0:
        return 0.0
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# smooth reference profiles
# --------------------------------------------------------------------------

def bump_phi(t: float) -> float:
    """Reference bump: exp(1 - 1/(1-t^2)) on (-1,1), 0 outside.

    phi(0) = 1, 0 <= phi <= 1, all derivatives vanish at +-1.
    """
    if not -1.0 < t < 1.0:
        return 0.0
    return _exp(1.0 - 1.0 / (1.0 - t * t))


def smoothstep01(t: float) -> float:
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = _exp(-1.0 / t)
    b = _exp(-1.0 / (1.0 - t))
    return a / (a + b)


def transition_pm1(u: float) -> float:
    """Smooth step from 0 at u <= -1 to 1 at u >= +1."""
    if u <= -1.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return smoothstep01(0.5 * (u + 1.0))


def gelfand_chi(t: float) -> float:
    """Smooth chi with chi = 0 on (-inf, 1/2] and chi = 1 on [1, inf)."""
    return smoothstep01(2.0 * t - 1.0)


# maximum slope of bump_phi with a 5% margin, used by Lipschitz estimates
def _phi_max_slope() -> float:
    m = 0.0
    for i in range(1, 20000):
        t = -1.0 + 2.0 * i / 20000.0
        h = 1e-6
        if abs(t) + h >= 1.0:
            continue
        d = abs(bump_phi(t + h) - bump_phi(t - h)) / (2 * h)
        m = max(m, d)
    return m * 1.05  # safety


# the value _phi_max_slope() returns; the profile is fixed, so the scan
# is run by the tests rather than at import
PHI_MAX_SLOPE = 2.278874883727966


# --------------------------------------------------------------------------
# height / width rules for bump trains
# --------------------------------------------------------------------------

class HeightRule:
    finite = True       # no parameter is inf or nan (a Fraction never is)

    def at(self, j: int, c: float) -> float:
        """h_j, for c the schedule's point eps_j."""
        raise NotImplementedError

    def value(self, schedule: SequenceRule, j: int) -> float:
        return self.at(j, schedule.value(j))

    def sup(self, schedule: SequenceRule, j1: int, j2: float) -> float:
        """Sup of |h_j| for j1 <= j <= j2 (j2 may be inf; 0.0 if empty)."""
        raise NotImplementedError


class ConstHeights(HeightRule, Record):
    c: float = 1.0

    @property
    def finite(self):
        return abs(self.c) < math.inf

    def at(self, j, c):
        return self.c

    def value(self, schedule, j):
        return self.c

    def sup(self, schedule, j1, j2):
        # max() reads a nan height as 0.0, as a walk over the range does
        return max(0.0, abs(self.c)) if j1 <= j2 else 0.0


class DecayHeights(HeightRule, Record):
    """h_j = eps_j ** (slope*j + offset); exact integer powers where
    representable, log space beyond."""

    slope: Fraction = Fraction(1)
    offset: Fraction = Fraction(0)
    # slope*j + offset == (_a*j + _b) / _d, in integers

    def __post_init__(self):
        s, o = self.slope, self.offset
        object.__setattr__(self, "_a", s.numerator * o.denominator)
        object.__setattr__(self, "_b", o.numerator * s.denominator)
        object.__setattr__(self, "_d", s.denominator * o.denominator)

    def at(self, j, base):
        n = self._a * j + self._b
        if n % self._d == 0 and abs(n // self._d) <= 512:
            try:
                return base ** (n // self._d)
            except OverflowError:
                return math.inf
        # int true division rounds correctly, as float(Fraction) does
        return _exp(n / self._d * math.log(base))

    def sup(self, schedule, j1, j2):
        # h_j = exp(n_j * log eps_j) stops rising once n_j >= 0 and
        # eps_j <= 1 (slope >= 0).  Otherwise it is unbounded and peaks at
        # an end of a range (convex exponent in j: harmonic, geometric).
        if j1 > j2:
            return 0.0
        if self.slope > 0 or (self.slope == 0 and self.offset >= 0):
            out, j = 0.0, j1
            while True:
                out = max(out, self.value(schedule, j))
                if j >= j2 or (self._a * j + self._b >= 0
                               and schedule.value(j) <= 1.0):
                    return out
                j += 1
        if j2 == math.inf:
            return math.inf
        return max(self.value(schedule, j1), self.value(schedule, j2))


class WidthRule:
    finite = True       # no parameter is inf or nan (a Fraction never is)

    def step(self, j: int, c: float, value) -> Tuple[float, Optional[float]]:
        """(w_j, eps_{j+1} if the rule reads it, else None), for c the
        schedule's point eps_j and ``value`` its rule: the next probe of a
        train takes eps_{j+1} as its centre without reading it again."""
        raise NotImplementedError

    def value(self, schedule: SequenceRule, j: int) -> float:
        return self.step(j, schedule.value(j), schedule.value)[0]


class GapFraction(WidthRule, Record):
    """w_j = frac * (eps_j - eps_{j+1}); frac <= 1/4 keeps supports disjoint."""

    frac: Fraction = Fraction(1, 4)

    def __post_init__(self):
        if not 0 < self.frac <= Fraction(1, 4):
            raise DomainError("gap fraction must be in (0, 1/4]")
        object.__setattr__(self, "_frac", float(self.frac))

    def step(self, j, c, value):
        nxt = value(j + 1)
        return self._frac * (c - nxt), nxt


class ShrunkWidths(WidthRule, Record):
    """Explicit first widths, then w_j = min(gap/4, eps_j**(slope*j+offset)).

    Used by the zero-divisor construction: the tail exponent rule keeps
    the reference net below eps**(j/2) on each support.  Underflow to
    0.0 collapses the support to the single point eps_j.
    """

    values: Tuple[float, ...]
    slope: Fraction = Fraction(1, 2)
    offset: Fraction = Fraction(2)

    def __post_init__(self):
        object.__setattr__(self, "_slope", float(self.slope))
        object.__setattr__(self, "_offset", float(self.offset))
        object.__setattr__(self, "finite", all(
            abs(v) < math.inf for v in self.values))

    def step(self, j, c, value):
        if j <= len(self.values):
            return self.values[j - 1], None
        nxt = value(j + 1)
        e = (self._slope * j + self._offset) * math.log(c)
        return min(0.25 * (c - nxt), _exp(e)), nxt

    def value(self, schedule, j):
        # an explicit width reads no point of the schedule
        if j <= len(self.values):
            return self.values[j - 1]
        return super().value(schedule, j)


class SmallCert(Record):
    """Construction-time certificate: |ref(eps)| <= eps**(slope*j+offset)
    on the support of bump j.  ``checked_upto`` supports were verified
    numerically; ``tail_sound`` marks that the tail rule was certified
    analytically (exact zero locations)."""

    ref: "NetExpr"
    slope: Fraction
    offset: Fraction
    checked_upto: int
    tail_sound: bool


# --------------------------------------------------------------------------
# node types
# --------------------------------------------------------------------------

class NetExpr(Record):
    """Base class for net expression nodes (immutable).

    Every node type is a record (``records.Record``): it compares and
    prints by its fields, and it stores its hash when it is built, the
    hash of the tuple of its fields that any record gives.  A child
    already holds its hash, so building a node costs one hash of its own
    fields and ``hash(node)`` never walks the subtree, however deep: nets
    are the keys of the analysis caches and their atoms the keys of
    polynomial monomials.  It stores its structural facts (``_facts``)
    the same way, from its type's rule in ``_FACT_RULES`` and its
    children's stored facts; a type that normalises its fields does so in
    its own ``__post_init__`` before it calls this one.  A node also
    keeps the closure ``eval_net`` builds for it, which a pickle or copy
    leaves out (closures do not pickle), and the values ``stored`` makes
    for it at their first use: its exact key as a grid atom (``_key``),
    its sort key as a polynomial atom (``_repr``), an oscillator's
    sequences (``_osc``), a blend's band plans (``_plans``), its upper and
    lower envelopes (``_uppers``, ``_lowers``), its absolute values on
    each replay grid and fixed lower scan (``_grid_abs``), its candidate
    sequences (``_seqs``) and its substitutions along them (``_along``).
    A pickle or copy leaves out too every store that can hold a net or an
    array (``_NOT_PICKLED``): a substitution can hold the node itself.
    """

    __slots__ = ()
    # the fields annotated NetExpr that are sample data, not children
    _sample = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the functional children: fields annotated NetExpr, less sample data
        cls._children = staticmethod(_fields_getter([
            name for name, kind in cls.__init__.__annotations__.items()
            if kind == "NetExpr" and name not in cls._sample]))

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._values()))
        kids = [c._facts for c in self._children(self)]
        facts = _FACT_RULES[type(self)](self, *kids)
        object.__setattr__(self, "_facts", facts if all(
            k.finite for k in kids) else facts._replace(finite=False))

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        return {k: v for k, v in vars(self).items()
                if k not in _NOT_PICKLED}


# the closure of eval_net and the stores that can hold a net or an array
_NOT_PICKLED = ("_fn", "_plans", "_grid_abs", "_along")


def stored(node: NetExpr, name: str, make):
    """``make(node)``, made at the first call for this ``name`` and kept
    on the node (a frozen record) as the attribute ``name``."""
    value = node.__dict__.get(name)
    if value is None:
        value = make(node)
        object.__setattr__(node, name, value)
    return value


def _fields_getter(names):
    """node -> the tuple of its fields ``names``."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names) if names else lambda node: ()


class Const(NetExpr):
    c: Scalar

    def __post_init__(self):
        if isinstance(self.c, complex) and self.c.imag == 0.0:
            object.__setattr__(self, "c", self.c.real)
        if isinstance(self.c, int):
            object.__setattr__(self, "c", float(self.c))
        NetExpr.__post_init__(self)


class Eps(NetExpr):
    pass


class PowQ(NetExpr):
    base: NetExpr
    q: Fraction


class Add(NetExpr):
    l: NetExpr
    r: NetExpr


class Mul(NetExpr):
    l: NetExpr
    r: NetExpr


class Neg(NetExpr):
    x: NetExpr


class Inv(NetExpr):
    x: NetExpr


class AbsNode(NetExpr):
    x: NetExpr


class MinNode(NetExpr):
    l: NetExpr
    r: NetExpr


class MaxNode(NetExpr):
    l: NetExpr
    r: NetExpr


class RootN(NetExpr):
    x: NetExpr
    n: int


class SinRecipPow(NetExpr):
    """eps -> sin(eps**-p)."""

    p: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "_p", float(self.p))
        NetExpr.__post_init__(self)


class CosRecipPow(NetExpr):
    p: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "_p", float(self.p))
        NetExpr.__post_init__(self)


class ExpNegRecip(NetExpr):
    """eps -> exp(-1/eps); the canonical nonzero negligible net."""


class BumpTrain(NetExpr):
    """Sum_j h_j * phi((eps - eps_j)/w_j) with pairwise disjoint supports."""

    schedule: SequenceRule
    widths: WidthRule = GapFraction()
    heights: HeightRule = ConstHeights(1.0)
    small_cert: Optional[SmallCert] = None


class Indicator(NetExpr):
    """Characteristic function e_S of S = {eps_j}; Arbitrary tier only."""

    s: SequenceRule


class SpikeTrain(Indicator):
    """Indicator's function (1 at the points eps_j, 0 elsewhere) under its
    own name (DSL ``spikes``, the refuter's target); unequal to Indicator."""


# -- witness nodes produced by the construction operators -------------------

class GelfandFactor(NetExpr):
    """eps -> -chi(2|a_eps|)/a_eps extended by 0 where |a_eps| <= 1/4.

    chi is the smooth step that is 0 on (-inf,1/2] and 1 on [1,inf); the
    factor is smooth whenever ``a`` is, bounded by 4, and a_eps * r_eps
    = -1 wherever |a_eps| >= 1/2.
    """

    a: NetExpr


class RegularizedQuotient(NetExpr):
    """eps -> num * conj(den) / (|den|^2 + exp(-1/eps)^2).

    Tikhonov-regularized quotient used as an ideal-membership witness;
    ``dom_bound`` records a bound |num| <= C*|den| that holds for eps
    small enough, when one is known (then eventually |value| <= C and
    value*den - num is negligible, dominated by C*exp(-1/eps)).
    """

    num: NetExpr
    den: NetExpr
    dom_bound: Optional[float] = None


class AnnihilatorTransition(NetExpr):
    """Smooth-step transition between the annihilators of r and s.

    Value T((|s|-|r|)/eta) with eta = eta_scale * exp(-1/eps): equals 1
    where |r| <= |s| - eta, 0 where |r| >= |s| + eta."""

    r: NetExpr
    s: NetExpr
    eta_scale: float = 1.0


class AbsFactor(NetExpr):
    """The absolute-value factor a with a*x = |x| up to negligibility.

    a_eps = phase(x_eps) * (1 - sum_m b_m(eps) chi_m(eps)) with
    b_m = eps^m/|x| where |x| >= eps^m (else 1), chi_m the partition
    subordinate to the patch cover; |a| <= 2 everywhere.  With
    ``inverse`` the phase is conjugated, giving a*|x| = x up to
    negligibility instead.
    """

    x: NetExpr
    inverse: bool = False


class SmoothBlend(NetExpr):
    """Partition-of-unity smoothing of ``source``: sum chi_k * source(c_k)
    with sample points c_k on a per-band uniform subdivision whose width
    is chosen so |self - source| <= exp(-1/eps) pointwise.

    The source tree is sample data, not a functional subexpression: the
    blend is structurally smooth regardless of the source's tier.
    """

    source: NetExpr
    _sample = ("source",)


# --------------------------------------------------------------------------
# structural facts
# --------------------------------------------------------------------------

def functional_children(net: NetExpr):
    """Subexpressions evaluated as functions (sample data excluded)."""
    return net._children(net)


def iter_nodes(net: NetExpr):
    """Every node in pre-order, left child first, by a loop over a stack."""
    stack = [net]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(functional_children(node))


class Tier(IntEnum):
    Smooth = 0
    Continuous = 1
    Arbitrary = 2

    def __str__(self):
        return self.name.lower()


class Facts(NamedTuple):
    """Sound structural certificates for a net on I: real-valued, >= 0,
    > 0 and never 0, and the most restrictive tier structurally admitting
    the tree.  A node stores its facts when it is built (``_facts``)."""

    real: bool
    nonneg: bool
    positive: bool
    nowhere_zero: bool
    tier: Tier
    # no constant, bump train height or width, or blend source in the
    # tree holds inf or nan
    finite: bool = True


def _facts(real, nonneg, positive, tier, nowhere_zero=False) -> Facts:
    # nowhere zero: positive, or by the node type's own rule
    return Facts(real, nonneg, positive, positive or nowhere_zero, tier)


_SMOOTH, _CONTINUOUS = Tier.Smooth, Tier.Continuous
_POSITIVE = _facts(True, True, True, _SMOOTH)
_OSCILLATING = _facts(True, False, False, _SMOOTH)
_INDICATOR = _facts(True, True, False, Tier.Arbitrary)


def _const_facts(net):
    c = net.c
    real = not isinstance(c, complex)
    return Facts(real, real and c >= 0, real and c > 0, c != 0, _SMOOTH,
                 abs(c) < math.inf)


def _mul_facts(net, l, r):
    # x*x >= 0 for real x; the hashes are stored, so unequal operands
    # are not deep-compared
    same = net.l is net.r or (hash(net.l) == hash(net.r) and net.l == net.r)
    return _facts(l.real and r.real,
                  (l.nonneg and r.nonneg) or (same and l.real),
                  l.positive and r.positive, max(l.tier, r.tier),
                  l.nowhere_zero and r.nowhere_zero)


def _inv_facts(net, x):
    # 1/x > 0 where x >= 0 and x never vanishes
    positive = x.nonneg and x.nowhere_zero
    return _facts(x.real, positive, positive, x.tier, x.nowhere_zero)


# a node type's rule: from the node and its children's facts (in
# functional_children order), the node's facts; the blend reads its
# source, which is sample data rather than a child
_FACT_RULES = {
    Const: _const_facts,
    Eps: lambda net: _POSITIVE,
    PowQ: lambda net, x: _facts(
        x.real, nonneg_power(net.base, net.q), x.positive,
        x.tier if net.q.denominator == 1 or x.positive
        else max(x.tier, _CONTINUOUS), x.nowhere_zero),
    Add: lambda net, l, r: _facts(
        l.real and r.real, l.nonneg and r.nonneg,
        (l.positive and r.nonneg) or (l.nonneg and r.positive),
        max(l.tier, r.tier)),
    Mul: _mul_facts,
    Neg: lambda net, x: _facts(x.real, False, False, x.tier, x.nowhere_zero),
    Inv: _inv_facts,
    AbsNode: lambda net, x: _facts(True, True, False,
                                   max(x.tier, _CONTINUOUS), x.nowhere_zero),
    MinNode: lambda net, l, r: _facts(
        l.real and r.real, l.nonneg and r.nonneg, l.positive and r.positive,
        max(l.tier, r.tier, _CONTINUOUS)),
    MaxNode: lambda net, l, r: _facts(
        l.real and r.real, l.nonneg or r.nonneg,
        (l.positive and r.real) or (r.positive and l.real),
        max(l.tier, r.tier, _CONTINUOUS)),
    # the constructor requires a nonnegative operand
    RootN: lambda net, x: _facts(x.real, True, x.positive,
                                 max(x.tier, _CONTINUOUS)),
    SinRecipPow: lambda net: _OSCILLATING,
    CosRecipPow: lambda net: _OSCILLATING,
    ExpNegRecip: lambda net: _POSITIVE,
    BumpTrain: lambda net: Facts(
        True, isinstance(net.heights, DecayHeights) or (
            isinstance(net.heights, ConstHeights) and net.heights.c >= 0),
        False, False, _SMOOTH, net.widths.finite and net.heights.finite),
    Indicator: lambda net: _INDICATOR,
    SpikeTrain: lambda net: _INDICATOR,
    GelfandFactor: lambda net, a: _facts(a.real, False, False, a.tier),
    RegularizedQuotient: lambda net, num, den: _facts(
        num.real and den.real, False, False, max(num.tier, den.tier)),
    AnnihilatorTransition: lambda net, r, s: _facts(
        r.real and s.real, True, False, max(r.tier, s.tier, _CONTINUOUS)),
    AbsFactor: lambda net, x: _facts(x.real, False, False,
                                     max(x.tier, _CONTINUOUS)),
    SmoothBlend: lambda net: Facts(net.source._facts.real, False, False,
                                   False, _SMOOTH, net.source._facts.finite),
}


def is_real_net(net: NetExpr) -> bool:
    """Sound check that the net is real-valued on I."""
    return net._facts.real


def nonneg_net(net: NetExpr) -> bool:
    """Sound structural certificate that net(eps) >= 0 for all eps."""
    return net._facts.nonneg


def nonneg_power(x: NetExpr, q: Fraction) -> bool:
    """Sound certificate that x**q >= 0: x >= 0, or q even and x real."""
    return x._facts.nonneg or (q.denominator == 1 and q.numerator % 2 == 0
                               and x._facts.real)


def positive_net(net: NetExpr) -> bool:
    """Sound structural certificate that net(eps) > 0 for all eps."""
    return net._facts.positive


def nowhere_zero_net(net: NetExpr) -> bool:
    """Sound structural certificate that net never vanishes on I."""
    return net._facts.nowhere_zero


def minimal_tier(net: NetExpr) -> Tier:
    """Most restrictive tier structurally admitting the tree."""
    return net._facts.tier


# --------------------------------------------------------------------------
# tiers
# --------------------------------------------------------------------------

class GNumber(Record):
    """A net together with its parametrization tier, understood modulo
    negligibility (equality is decided in ``asymptotics``)."""

    net: NetExpr
    tier: Tier

    def __post_init__(self):
        mt = minimal_tier(self.net)
        if mt > self.tier:
            raise TierError(
                f"net requires tier {mt} but was declared {self.tier}")


def gnumber(net: NetExpr, tier: Optional[Tier] = None) -> GNumber:
    if not isinstance(net, NetExpr):
        raise DomainError(f"gnumber needs a net, not {type(net).__name__}")
    return GNumber(net, minimal_tier(net) if tier is None else tier)


def tier_relax(x: GNumber, to: Tier) -> GNumber:
    """Relax the tier tag (Smooth -> Continuous -> Arbitrary); the
    representative is unchanged.  Strengthening is not a cast."""
    if to < x.tier:
        raise TierError(
            f"cannot strengthen {x.tier} to {to}; use smoothing.smooth_approximate")
    return GNumber(x.net, to)


# --------------------------------------------------------------------------
# smart constructors
# --------------------------------------------------------------------------

EPS = Eps()
ONE = Const(1.0)
ZERO = Const(0.0)


def _net(x) -> NetExpr:
    if isinstance(x, GNumber):
        return x.net
    if isinstance(x, NetExpr):
        return x
    if isinstance(x, Complex):
        return Const(x)
    raise TypeError(f"not a net: {x!r}")


def _gn(x) -> GNumber:
    return x if isinstance(x, GNumber) else gnumber(_net(x))


def const(c: Scalar) -> Const:
    return Const(c)


def add(l, r) -> NetExpr:
    l, r = _net(l), _net(r)
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.c + r.c)
    return Add(l, r)


def sub(l, r) -> NetExpr:
    return add(l, neg(r))


def mul(l, r) -> NetExpr:
    l, r = _net(l), _net(r)
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.c * r.c)
    return Mul(l, r)


def neg(x) -> NetExpr:
    x = _net(x)
    if isinstance(x, Const):
        return Const(-x.c)
    return Neg(x)


def inv(x) -> NetExpr:
    x = _net(x)
    if not nowhere_zero_net(x):
        raise DomainError("Inv operand must be certified nowhere zero on I")
    if isinstance(x, Const):
        return Const(1.0 / x.c)
    return Inv(x)


def powq(base, q) -> NetExpr:
    base = _net(base)
    q = Fraction(q)
    if q.denominator != 1:
        if not nonneg_net(base):    # a positive net is nonneg
            raise DomainError("fractional PowQ needs a nonnegative base")
    elif q < 0 and not nowhere_zero_net(base):
        raise DomainError("negative integer PowQ needs a nowhere-zero base")
    if q == 1:
        return base
    return PowQ(base, q)


def absn(x) -> NetExpr:
    return AbsNode(_net(x))


def _require_real(*nets):
    for n in nets:
        if not is_real_net(n):
            raise TypeError("operation defined for real-valued nets only")


def minn(l, r) -> NetExpr:
    l, r = _net(l), _net(r)
    _require_real(l, r)
    return MinNode(l, r)


def maxn(l, r) -> NetExpr:
    l, r = _net(l), _net(r)
    _require_real(l, r)
    return MaxNode(l, r)


def rootn(x, n: int) -> NetExpr:
    x = _net(x)
    if n < 1:
        raise DomainError("root order must be a positive integer")
    if not nonneg_net(x):
        raise DomainError("RootN needs a certified nonnegative operand")
    if n == 1:
        return x
    return RootN(x, n)


def sin_recip(p=1) -> SinRecipPow:
    p = Fraction(p)
    if p <= 0:
        raise DomainError("oscillator power must be positive")
    return SinRecipPow(p)


def cos_recip(p=1) -> CosRecipPow:
    p = Fraction(p)
    if p <= 0:
        raise DomainError("oscillator power must be positive")
    return CosRecipPow(p)


def bump_train(schedule: SequenceRule,
               widths: Optional[WidthRule] = None,
               heights: Optional[HeightRule] = None,
               small_cert: Optional[SmallCert] = None,
               check: int = 64) -> BumpTrain:
    """Build a bump train, verifying support disjointness on the first
    ``check`` indices: eps_{j+1} + w_{j+1} < eps_j - w_j.  A first bump
    centered at eps = 1 is allowed; its support is clipped by I."""
    widths = widths if widths is not None else GapFraction()
    heights = heights if heights is not None else ConstHeights(1.0)
    for j in range(1, check):
        cj, cj1 = schedule.value(j), schedule.value(j + 1)
        wj, wj1 = widths.value(schedule, j), widths.value(schedule, j + 1)
        if not (cj1 + wj1 < cj - wj):
            raise DomainError(f"bump supports overlap at j={j}")
        if cj + wj > 1.0 + 1e-15 and cj < 1.0:
            raise DomainError(f"bump support leaves I at j={j}")
    return BumpTrain(schedule, widths, heights, small_cert)


def indicator(s: SequenceRule) -> Indicator:
    return Indicator(s)


def spikes(s: SequenceRule) -> SpikeTrain:
    return SpikeTrain(s)


# ring operations on GNumbers ------------------------------------------------

def _wrap2(op, x, y) -> GNumber:
    gx, gy = _gn(x), _gn(y)
    return GNumber(op(gx.net, gy.net), max(gx.tier, gy.tier))


def g_add(x, y) -> GNumber:
    return _wrap2(add, x, y)


def g_sub(x, y) -> GNumber:
    return _wrap2(sub, x, y)


def g_mul(x, y) -> GNumber:
    return _wrap2(mul, x, y)


def g_neg(x) -> GNumber:
    gx = _gn(x)
    return GNumber(neg(gx.net), gx.tier)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def eval_net(net, eps: float) -> Scalar:
    """Evaluate the net at eps in (0,1].  Deterministic; repeated calls
    agree bit-exactly."""
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0,1], got {eps}")
    net = _net(net)
    try:
        fn = net._fn
    except AttributeError:
        fn = _build(net)
    return fn(eps)


def _build(net: NetExpr):
    """Net's closure ``eps -> value``, built children first by a loop
    over a stack.  A node keeps its closure as it keeps its hash, so a
    shared subterm is built once; a closure holds the fields it reads and
    its children's closures, not the node (a blend's excepted)."""
    stack = [net]
    while stack:
        node = stack.pop()
        if "_fn" in node.__dict__:
            continue
        rule = _EVAL_RULES.get(type(node))
        if rule is None:
            raise TypeError(f"cannot evaluate node {type(node).__name__}")
        kids = functional_children(node)
        todo = [c for c in kids if "_fn" not in c.__dict__]
        if todo:
            stack += [node, *todo]
        else:
            object.__setattr__(node, "_fn",
                               rule(node, *[c._fn for c in kids]))
    return net._fn


def _const(c):
    return lambda eps: c


def _inv(x):
    def ev(eps):
        v = x(eps)
        if v == 0:  # an underflow, as v is nowhere zero: 1/v overflows
            return math.inf
        return 1.0 / v
    return ev


def _powq(base, q):
    if q.denominator == 1:
        n = q.numerator

        def int_power(eps):
            v = base(eps)
            if v == 0 and n < 0:
                return math.inf
            try:
                return v ** n
            except OverflowError:
                return math.inf if (not isinstance(v, complex) and v > 0) \
                    else complex(math.inf, 0)
        return int_power
    p = float(q)

    def frac_power(eps):
        v = base(eps)
        if isinstance(v, complex):
            raise DomainError("fractional power of a complex value")
        if v < 0.0:
            raise DomainError("fractional power of a negative value")
        if v == 0.0:
            return math.inf if p < 0 else 0.0
        try:
            return math.pow(v, p)
        except OverflowError:
            return math.inf
    return frac_power


def _select(before, l, r):
    # min and max: a nan operand on either side gives nan
    def ev(eps):
        a, b = l(eps), r(eps)
        return b if before(b, a) or b != b else a
    return ev


def _root(x, n):
    def ev(eps):
        v = x(eps)
        if v < 0.0:
            raise DomainError("RootN of a negative value")
        return math.pow(v, 1.0 / n) if v != 0.0 else 0.0
    return ev


def _osc(f, p):
    def ev(eps):
        try:
            return f(eps ** p)
        except OverflowError:
            raise DomainError("oscillator argument overflows") from None
    return ev


def _bump(index_near, value, width, height):
    def ev(eps):
        j0 = index_near(eps)
        j, nxt = max(1, j0 - 2), None
        # probes j0 - 2 .. j0 + 2, each schedule point read once: a probe's
        # centre is the point its predecessor's width read, if it did
        while j < j0 + 3:
            c = value(j) if nxt is None else nxt
            w, nxt = width(j, c, value)
            if w <= 0.0:
                if eps == c:
                    return height(j, c)
            else:
                t = (eps - c) / w
                if -1.0 < t < 1.0:
                    return height(j, c) * bump_phi(t)
            j += 1
        return 0.0
    return ev


def _spike(index_near, at):
    def ev(eps):
        j0 = index_near(eps)
        for j in range(max(1, j0 - 2), j0 + 3):
            if at(j) == eps:
                return 1.0
        return 0.0
    return ev


def _gelfand(a):
    def ev(eps):
        v = a(eps)
        m = abs(v)
        if m <= 0.25:
            return 0.0
        return -gelfand_chi(2.0 * m) / v
    return ev


def _quotient(num, den):
    def ev(eps):
        nv, dv = num(eps), den(eps)
        delta = _exp(-1.0 / eps)
        m = abs(dv)  # m * m overflows to inf where m ** 2 raises
        denom = m * m + delta * delta
        if denom == 0.0:
            return 0.0
        return nv * dv.conjugate() / denom if isinstance(dv, complex) \
            else nv * dv / denom
    return ev


def _transition(r, s, scale):
    def ev(eps):
        d = abs(s(eps)) - abs(r(eps))
        eta = scale * _exp(-1.0 / eps)
        if eta == 0.0:
            return 1.0 if d > 0.0 else (0.0 if d < 0.0 else 0.5)
        return transition_pm1(d / eta)
    return ev


def _abs_factor(x, inverse):
    def ev(eps):
        v = x(eps)
        m = abs(v)
        if m == 0.0:
            return 0.0
        if isinstance(v, complex):
            phase = v / m if inverse else v.conjugate() / m
        else:
            phase = 1.0 if v > 0 else -1.0
        patched = 0.0
        for idx, chi in patch_weights(eps):
            em = eps ** idx
            b = em / m if m >= em else 1.0
            patched += b * chi
        return phase * (1.0 - patched)
    return ev


def _smoothing():
    # a blend's rule reads its band plans, which smoothing keeps on the
    # node; smoothing imports nets, so nets imports it only here
    from . import smoothing
    return smoothing


# a node type's rule: from the node and its children's closures (in
# functional_children order), the node's closure, which holds the node
# only for a blend
_EVAL_RULES = {
    Const: lambda net: _const(net.c),
    Eps: lambda net: lambda eps: eps,
    Add: lambda net, l, r: lambda eps: l(eps) + r(eps),
    Mul: lambda net, l, r: lambda eps: l(eps) * r(eps),
    Neg: lambda net, x: lambda eps: -x(eps),
    Inv: lambda net, x: _inv(x),
    PowQ: lambda net, x: _powq(x, net.q),
    AbsNode: lambda net, x: lambda eps: abs(x(eps)),
    MinNode: lambda net, l, r: _select(lt, l, r),
    MaxNode: lambda net, l, r: _select(gt, l, r),
    RootN: lambda net, x: _root(x, net.n),
    SinRecipPow: lambda net: _osc(math.sin, -net._p),
    CosRecipPow: lambda net: _osc(math.cos, -net._p),
    ExpNegRecip: lambda net: lambda eps: _exp(-1.0 / eps),
    BumpTrain: lambda net: _bump(net.schedule.index_near, net.schedule.value,
                                 net.widths.step, net.heights.at),
    Indicator: lambda net: _spike(net.s.index_near, net.s.value),
    SpikeTrain: lambda net: _spike(net.s.index_near, net.s.value),
    GelfandFactor: lambda net, a: _gelfand(a),
    RegularizedQuotient: lambda net, num, den: _quotient(num, den),
    AnnihilatorTransition: lambda net, r, s: _transition(r, s, net.eta_scale),
    AbsFactor: lambda net, x: _abs_factor(x, net.inverse),
    SmoothBlend: lambda net: partial(_smoothing()._blend_value, net),
}


def patch_weights(eps: float):
    """Active (m, chi_m(eps)) pairs of the smooth partition of unity
    subordinate to the patch cover (1/(m+1), 1/(m-1)) for m >= 2, plus
    (1/3, 1] as m = 1; the chi values sum to 1.

    chi_m = psi_m / sum psi with psi_m the reference bump mapped onto the
    m-th interval (for the right-closed first interval the bump peaks at
    the right endpoint), so supp(chi_m) lies in that interval.
    """
    base = int(1.0 / eps)
    ms = list(range(max(2, base - 1), base + 3))
    if eps > 1.0 / 3.0:
        ms.append(1)
    acc = []
    for m in ms:
        if m == 1:
            lo, hi = 1.0 / 3.0, 1.0
            p = bump_phi((eps - hi) / (hi - lo)) if lo < eps <= hi else 0.0
        else:
            lo, hi = 1.0 / (m + 1), 1.0 / (m - 1)
            p = bump_phi((2.0 * eps - lo - hi) / (hi - lo)) \
                if lo < eps < hi else 0.0
        if p > 0.0:
            acc.append((m, p))
    total = sum(p for _, p in acc)
    if total <= 0.0:
        raise DomainError(f"partition of unity not covering eps={eps}")
    return [(m, p / total) for m, p in acc]


# --------------------------------------------------------------------------
# evaluation on many points
# --------------------------------------------------------------------------

_J_MAX = 2 ** 62  # probe indices up to j0 + 3 must fit int64


def eval_points(net, pts, fill=None) -> np.ndarray:
    """``[eval_net(net, p) for p in pts]`` as an array, bit for bit.

    The array is float64 when every value is a float, otherwise an
    object array of the scalar values.  With ``fill``, a point where
    eval_net raises gets ``fill``; without it the first such exception
    propagates, as it does from the loop.  Library code calls eval_net
    for one point or where the next point depends on the last value; a
    list of points known in advance goes through eval_points, with
    ``fill=nan`` and a read through ``unfill`` where the loop stops early,
    skips points or does more between them, so that it raises where the
    scalar loop would.

    Bit-identity holds by construction (README, "Grid evaluation"):
    every node type has a vector rule in ``_VEC_RULES``, numpy does only
    correctly rounded arithmetic, comparison and selection, every libm
    call and ``**`` is the call the node's scalar rule makes, and a point
    where that rule raises or special-cases, or whose value is not a
    float (a complex constant or intermediate), is flagged and evaluated
    by eval_net; a blend or a Gelfand factor flags every point.
    An atom's vector is computed once per grid, the grid's bytes, and kept
    in a bounded memo (``_ATOMS``, counting hits, misses and evictions):
    part of a stored scan is read as a slice of the values on the whole
    scan, since a slice of its points is another grid.
    """
    net = _net(net)
    e = np.array(pts, dtype=float).reshape(-1)
    bad = ~((0.0 < e) & (e <= 1.0))
    try:
        with np.errstate(all="ignore"):
            # count_nonzero is the cheapest test of a mask
            out = _vec(net, np.where(bad, 1.0, e) if np.count_nonzero(bad)
                       else e, bad, e.tobytes())
    except RecursionError:
        out = np.full(len(e), math.nan)
        bad[:] = True
    if not out.flags.writeable:     # a memoised atom's vector
        out = out.copy()
    if not np.count_nonzero(bad):
        return out
    for i in np.flatnonzero(bad).tolist():
        try:
            v = eval_net(net, float(e[i]))
        except Exception:
            if fill is None:
                raise
            v = fill
        if type(v) is not float and out.dtype != object:
            out = out.astype(object)
        out[i] = v
    return out


def unfill(net, p: float, v) -> Scalar:
    """``eval_net(net, p)`` from v = ``eval_points(net, pts, fill=nan)``
    at p: v, or at a nan (maybe a fill) eval_net again, raising its error."""
    return eval_net(net, p) if v != v else v


def _calls(fn, xs, bad, *args, strict: bool = False) -> np.ndarray:
    """``fn(x, *args)`` at each element x of the list ``xs``, as float64.

    An element where fn raises, or returns anything but a float, is nan
    and flagged in ``bad`` (aligned with xs).  Without ``strict`` fn is
    trusted to return floats unless it raises, and all elements are
    first tried in one ``map``: one C call each for a builtin fn."""
    if not strict:
        try:
            return np.fromiter(map(fn, xs, *map(repeat, args)), float)
        except Exception:
            pass
    out = np.full(len(xs), math.nan)
    for i, x in enumerate(xs):
        try:
            v = fn(x, *args)
        except Exception:
            bad[i] = True
            continue
        if type(v) is float:
            out[i] = v
        else:
            bad[i] = True
    return out


def _math_pow(v: np.ndarray, c: float, at_zero: float,
              bad: np.ndarray) -> np.ndarray:
    """``math.pow(x, c)`` at each x of v as the scalar rules of fractional
    powers and roots call it: ``at_zero`` at a zero base; a negative base,
    which raises DomainError there, is flagged."""
    bad |= v < 0.0
    zero = v == 0.0
    out = _calls(math.pow, np.where(zero | bad, 1.0, v).tolist(), bad, c)
    return np.where(zero, at_zero, out)


def _exp_nonpos(u: np.ndarray) -> np.ndarray:
    """``_exp`` at each element of u <= 0: math.exp, which cannot overflow
    or raise there, and 0.0 below -745 (_exp's clamp)."""
    return np.where(u < -745.0, 0.0,
                    np.fromiter(map(math.exp, u.tolist()), float, len(u)))


def _phi(t: np.ndarray) -> np.ndarray:
    """``bump_phi`` at each element of t."""
    on = (-1.0 < t) & (t < 1.0)
    t = np.where(on, t, 0.0)
    return np.where(on, _exp_nonpos(1.0 - 1.0 / (1.0 - t * t)), 0.0)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """``smoothstep01`` at each element of t (nan at a nan)."""
    mid = np.where((t <= 0.0) | (t >= 1.0), 0.5, t)
    a, b = _exp_nonpos(-1.0 / mid), _exp_nonpos(-1.0 / (1.0 - mid))
    return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, a / (a + b)))


def _vec(net: NetExpr, e: np.ndarray, bad: np.ndarray,
         g: bytes) -> np.ndarray:
    """``net`` at the points ``e`` as float64, by its type's rule in
    ``_VEC_RULES``.  Flags in ``bad`` the points whose value must come
    from eval_net; their entries are arbitrary.  An atom's vector, or a
    power's of an atom or of eps, is read from the memo (read-only) under
    the grid's bytes ``g``."""
    if isinstance(net, _ATOM_TYPES) or (
            isinstance(net, PowQ) and isinstance(net.base, _ATOM_BASES)):
        return _atom_vec(net, e, bad, g)
    return _VEC_RULES[type(net)](net, e, bad, g)


def _flag_all(net, e, bad, g):
    # every point to eval_net: the rule of a blend and a Gelfand factor,
    # for which no workload pays for a vector twin (README, "Grid
    # evaluation")
    bad[:] = True
    return np.full(len(e), math.nan)


def _vec_const(net, e, bad, g):
    # a complex constant's points go to eval_net
    return np.full(len(e), net.c) if type(net.c) is float \
        else _flag_all(net, e, bad, g)


def _vec_inv(net, e, bad, g):
    v = _vec(net.x, e, bad, g)
    return np.where(v == 0, math.inf, 1.0 / v)


def _vec_powq(net, e, bad, g):
    v, q = _vec(net.base, e, bad, g), net.q
    if q.denominator == 1:
        # the scalar rule: pow, but inf where it overflows (a zero base
        # of a negative power too), complex(inf, 0) at a negative base
        # (flagged).  Sure where n*log2|v| > 1025 (n clamped to fit a
        # float); nearer 2**1024 pow raises and eval_net decides
        n = q.numerator
        inf = max(-4096, min(n, 4096)) * np.log2(np.abs(v)) > 1025.0
        bad |= inf & (v < 0.0)
        u = _calls(pow, np.where(inf, 1.0, v).tolist(), bad, n)
        return np.where(inf, math.inf, u)
    return _math_pow(v, float(q), math.inf if q < 0 else 0.0, bad)


def _vec_select(before):
    # min and max: a nan operand on either side gives nan
    def rule(net, e, bad, g):
        l, r = _vec(net.l, e, bad, g), _vec(net.r, e, bad, g)
        return np.where(before(r, l) | (r != r), r, l)
    return rule


def _vec_osc(f):
    def rule(net, e, bad, g):
        return _calls(f, _calls(pow, e.tolist(), bad, -net._p).tolist(), bad)
    return rule


def _vec_quotient(net, e, bad, g):
    nv, dv = _vec(net.num, e, bad, g), _vec(net.den, e, bad, g)
    delta = _vec(_EXP_NEG_RECIP, e, bad, g)
    m = np.abs(dv)
    denom = m * m + delta * delta
    return np.where(denom == 0.0, 0.0, nv * dv / denom)


def _vec_transition(net, e, bad, g):
    if type(net.eta_scale) is not float:    # never built by annihilator_split
        return _flag_all(net, e, bad, g)
    d = np.abs(_vec(net.s, e, bad, g)) - np.abs(_vec(net.r, e, bad, g))
    eta = net.eta_scale * _vec(_EXP_NEG_RECIP, e, bad, g)
    u = d / eta
    # transition_pm1(u)
    step = np.where(u <= -1.0, 0.0, np.where(
        u >= 1.0, 1.0, _smoothstep(0.5 * (u + 1.0))))
    return np.where(eta == 0.0, np.where(
        d > 0.0, 1.0, np.where(d < 0.0, 0.0, 0.5)), step)


def _vec_patch_weights(e: np.ndarray):
    """``patch_weights`` at each point as five slots in its order, the m
    of the patch cover from max(2, int(1/eps) - 1) up and then m = 1:
    ``(ms, chis, cover)``, a slot's chi 0.0 where patch_weights does not
    list it, and ``cover`` False where patch_weights raises."""
    base = np.trunc(1.0 / e)        # int(1.0 / eps), which raises at inf
    cover = np.isfinite(base)
    base = np.where(cover, base, 3.0)
    off = np.maximum(2.0 - base, -1.0)
    ms, ps = [], []
    for k in range(4):
        # m - 1, m and m + 1 as float(int), each one rounding of base + n
        lo, hi = 1.0 / (base + (off + (k + 1))), 1.0 / (base + (off + (k - 1)))
        on = (off + k <= 2.0) & (lo < e) & (e < hi)
        ms.append(base + (off + k))
        ps.append(np.where(on, _phi((2.0 * e - lo - hi) / (hi - lo)), 0.0))
    lo, hi = 1.0 / 3.0, 1.0
    ms.append(np.ones(len(e)))
    ps.append(np.where((lo < e) & (e <= hi), _phi((e - hi) / (hi - lo)), 0.0))
    total = ps[0] + ps[1] + ps[2] + ps[3] + ps[4]   # sum() of the listed
    cover &= total > 0.0
    return ms, [p / total for p in ps], cover


def _vec_abs_factor(net, e, bad, g):
    v = _vec(net.x, e, bad, g)
    m = np.abs(v)
    ms, chis, cover = _vec_patch_weights(e)
    bad |= ~cover & (m != 0.0)
    patched = np.zeros(len(e))
    el = e.tolist()
    for idx, chi in zip(ms, chis):
        em = np.fromiter(map(pow, el, idx.tolist()), float, len(el))
        patched += np.where(m >= em, em / m, 1.0) * chi
    phase = np.where(v > 0.0, 1.0, -1.0)
    return np.where(m == 0.0, 0.0, phase * (1.0 - patched))


def _vec_widths(s: SequenceRule, widths: WidthRule, js: np.ndarray,
                c: np.ndarray, cbad: np.ndarray):
    """A train's widths at the probed indices js, whose centres c carry
    the flags cbad: ``(w, jbad)``, jbad flagging an index whose width, or
    a centre it reads, must come from eval_net."""
    if isinstance(widths, GapFraction):
        cn, nbad = _seq_next(s, js, c, cbad)
        return widths._frac * (c - cn), cbad | nbad
    jbad = cbad.copy()
    if not isinstance(widths, ShrunkWidths):
        return _calls(partial(widths.value, s), js.tolist(), jbad,
                      strict=True), jbad
    head = js <= len(widths.values)
    w = np.array((*widths.values, math.nan))[np.where(head, js - 1, -1)]
    tail = np.flatnonzero(~head)
    if len(tail):
        # min(0.25 * (c - cn), _exp(x)); an x > 0 may overflow: eval_net
        jt, c = js[tail], c[tail]
        cn, nbad = _seq_next(s, jt, c, cbad[tail])
        tbad = np.zeros(len(tail), bool)
        x = (widths._slope * jt + widths._offset) * _calls(
            math.log, c.tolist(), tbad)
        jbad[tail] |= nbad | tbad | (x > 0.0)
        ex, gap = _exp_nonpos(np.minimum(x, 0.0)), 0.25 * (c - cn)
        w[tail] = np.where(ex < gap, ex, gap)
    return w, jbad


def _vec_bump(net, e, bad):
    s = net.schedule
    valid, js, pos = _probe(s, e, bad)
    cbad = np.zeros(len(js), bool)
    c = _seq_values(s, js, cbad)
    w, jbad = _vec_widths(s, net.widths, js, c, cbad)
    hit = np.full(len(e), -1)       # place in js of the first probe that hits
    t = np.zeros(len(e))
    for k in range(5):
        p = pos[k]
        live = valid[k] & (hit < 0)
        bad |= live & jbad[p]
        tk = (e - c[p]) / w[p]
        on = live & np.where(w[p] <= 0.0, e == c[p], (-1.0 < tk) & (tk < 1.0))
        hit[on] = p[on]
        t[on] = tk[on]
    out = np.zeros(len(e))
    idx = np.flatnonzero(hit >= 0)
    if not len(idx):
        return out
    hj, inv = _distinct(hit[idx])
    hbad = np.zeros(len(hj), bool)
    # the heights read the centres already computed
    height, centre = net.heights.at, dict(zip(js[hj].tolist(),
                                              c[hj].tolist()))
    h = _calls(lambda j: height(j, centre[j]), js[hj].tolist(), hbad,
               strict=True)[inv]
    bad[idx[hbad[inv]]] = True
    out[idx] = h
    # a support that underflowed to its centre has height, no profile
    span = idx[w[hit[idx]] > 0.0]
    out[span] *= _phi(t[span])
    return out


def _vec_spike(net, e, bad):
    valid, js, pos = _probe(net.s, e, bad)
    jbad = np.zeros(len(js), bool)
    c = _seq_values(net.s, js, jbad)
    hit = np.zeros(len(e), bool)
    for k in range(5):
        p = pos[k]
        live = valid[k] & ~hit
        bad |= live & jbad[p]
        hit |= live & (c[p] == e)
    return np.where(hit, 1.0, 0.0)


_EXP_NEG_RECIP = ExpNegRecip()

# a node type's rule: ``(net, e, bad, g) -> net at the points e``, reading
# its children through _vec; a blend or a Gelfand factor flags every point
_VEC_RULES = {
    Const: _vec_const,
    Eps: lambda net, e, bad, g: e,
    Add: lambda net, e, bad, g: _vec(net.l, e, bad, g) + _vec(net.r, e, bad, g),
    Mul: lambda net, e, bad, g: _vec(net.l, e, bad, g) * _vec(net.r, e, bad, g),
    Neg: lambda net, e, bad, g: -_vec(net.x, e, bad, g),
    Inv: _vec_inv,
    PowQ: _vec_powq,
    AbsNode: lambda net, e, bad, g: np.abs(_vec(net.x, e, bad, g)),
    MinNode: _vec_select(lt),
    MaxNode: _vec_select(gt),
    RootN: lambda net, e, bad, g: _math_pow(
        _vec(net.x, e, bad, g), 1.0 / net.n, 0.0, bad),
    SinRecipPow: _vec_osc(math.sin),
    CosRecipPow: _vec_osc(math.cos),
    ExpNegRecip: lambda net, e, bad, g: _exp_nonpos(-1.0 / e),
    BumpTrain: lambda net, e, bad, g: _vec_bump(net, e, bad),
    Indicator: lambda net, e, bad, g: _vec_spike(net, e, bad),
    SpikeTrain: lambda net, e, bad, g: _vec_spike(net, e, bad),
    GelfandFactor: _flag_all,
    RegularizedQuotient: _vec_quotient,
    AnnihilatorTransition: _vec_transition,
    AbsFactor: _vec_abs_factor,
    SmoothBlend: _flag_all,
}


def _anchors(s: SequenceRule, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``s.index_near`` at each point as int64; a point where it raises or
    leaves int64 is flagged (anchor 1)."""
    while isinstance(s, Midpoints):     # the index_near of its rule
        s = s.of
    if isinstance(s, Geometric):
        x = _calls(math.log, e.tolist(), bad) / math.log(s._ratio)
    elif isinstance(s, Harmonic):
        x = 1.0 / e
    elif isinstance(s, PiSequence):
        t = _calls(pow, e.tolist(), bad, -s._power)
        x = (t / PI - s._offset) / s._mult
    else:
        out = np.ones(len(e), np.int64)
        for i, v in enumerate(e.tolist()):
            try:
                j = s.index_near(v)
            except Exception:
                bad[i] = True
                continue
            if type(j) is int and abs(j) < _J_MAX:
                out[i] = j
            else:
                bad[i] = True
        return out
    # round() on a float rounds half to even, as rint does
    x = np.rint(x)
    ok = np.abs(x) < _J_MAX
    bad |= ~ok
    return np.maximum(np.where(ok, x, 1.0).astype(np.int64), 1)


def _probe(s: SequenceRule, e: np.ndarray, bad: np.ndarray):
    """The indices the scalar rules of bump trains and spikes probe at
    each point, in probe order: ``(valid, js, pos)`` where row k is the
    probe of j0 - 2 + k, ``valid[k]`` says whether it is made (index
    >= 1), ``js`` holds the distinct indices and ``pos[k]`` each probe's
    place in js."""
    j0 = _anchors(s, e, bad)
    cand = j0 + np.arange(-2, 3)[:, None]
    valid = cand >= 1
    js, pos = _distinct(np.where(valid, cand, j0))
    return valid, js, pos


def _distinct(a: np.ndarray):
    """The sorted distinct values of ``a`` and each element's place among
    them (np.unique without its return_inverse machinery, which costs
    the process more than a megabyte of resident memory)."""
    s = np.sort(a, axis=None)
    first = np.ones(len(s), bool)     # first of each run of equal values
    first[1:] = s[1:] != s[:-1]
    js = s[first]
    return js, np.searchsorted(js, a)


def _seq_next(s: SequenceRule, js: np.ndarray, c: np.ndarray,
              cbad: np.ndarray):
    """``s.value`` at j + 1 for each j of js, given c, its value at js,
    with flags cbad: ``(c_next, flags)``.  A j + 1 that js holds is read
    from c; only the others are computed."""
    k = np.minimum(np.searchsorted(js, js + 1), len(js) - 1)
    cn, nbad = c[k], cbad[k]
    miss = np.flatnonzero(js[k] != js + 1)
    if len(miss):
        mbad = np.zeros(len(miss), bool)
        cn[miss] = _seq_values(s, js[miss] + 1, mbad)
        nbad[miss] = mbad
    return cn, nbad


def _seq_values(s: SequenceRule, js: np.ndarray,
                jbad: np.ndarray) -> np.ndarray:
    """``s.value`` at each index of js (int64, sorted, distinct, >= 1) as
    float64; an index where it raises or gives a non-float is flagged in
    ``jbad``."""
    if isinstance(s, Harmonic):
        return 1.0 / js
    if isinstance(s, Geometric):
        return np.fromiter(map(pow, repeat(s._ratio), js.tolist()), float,
                           len(js))
    if isinstance(s, PiSequence):
        t = (s._mult * js + s._offset) * PI
        return _calls(pow, t.tolist(), jbad, -1.0 / s._power)
    if isinstance(s, Midpoints):
        # 0.5 * (of.value(j) + of.value(j + 1))
        v = _seq_values(s.of, js, jbad)
        vn, nbad = _seq_next(s.of, js, v, jbad)
        jbad |= nbad
        return 0.5 * (v + vn)
    return _calls(s.value, js.tolist(), jbad, strict=True)


# --------------------------------------------------------------------------
# the atom memo of eval_points
# --------------------------------------------------------------------------

# An atom depends on eps alone and costs a libm or Python call per point;
# the same few recur in every net on the same few grids.
_ATOM_TYPES = (SinRecipPow, CosRecipPow, ExpNegRecip, BumpTrain, Indicator)
# a power of one of these is an atom too
_ATOM_BASES = (Eps, *_ATOM_TYPES)
ATOM_MEMO_BYTES = 1024 * 1024


def _exact(x):
    """A key of x that values evaluating differently never share: each
    value tagged with its type, a float also with its sign (since
    ``0.0 == -0.0``), a Fraction as its integer pair (hashed in C), a
    record by its fields.  Equal keys mean equal types and values, floats
    bit for bit."""
    if isinstance(x, float):
        return type(x), x, math.copysign(1.0, x)
    if isinstance(x, Fraction):
        return type(x), x.numerator, x.denominator
    if type(x) is tuple:
        return (tuple, *map(_exact, x))
    if isinstance(x, Record):
        return (type(x), *map(_exact, x._values()))
    return type(x), x


def _exact_atom(net: NetExpr):
    if isinstance(net, PowQ):
        return PowQ, _exact_atom(net.base), _exact(net.q)
    # a bump train's certificate is construction data, not evaluated
    return _exact(net) if not isinstance(net, BumpTrain) else (
        BumpTrain, *map(_exact, (net.schedule, net.widths, net.heights)))


class _AtomMemo:
    """Atom vectors of recent grids, least recently used first: ``grids``
    maps a grid's bytes to an OrderedDict from an atom's exact key to
    (read-only vector, own ``bad`` mask or None when no point is flagged).
    ``nbytes`` is the ``sys.getsizeof`` of every grid key, vector and mask
    held, at most ATOM_MEMO_BYTES.  ``hits``, ``misses`` and ``evictions``
    (entries dropped for room) count since ``clear``.  Callers slice the
    values on a whole stored scan, not evaluate a slice of its points."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.grids = OrderedDict()
        self.nbytes = self.hits = self.misses = self.evictions = 0

    def get(self, g: bytes, key):
        atoms = self.grids.get(g)
        hit = None if atoms is None else atoms.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
            self.grids.move_to_end(g)
            atoms.move_to_end(key)
        return hit

    def put(self, g: bytes, key, hit):
        # nothing below calls deeper than this first _size: a
        # RecursionError stops put before it changes anything
        size = _size(hit)
        if size + sys.getsizeof(g) > ATOM_MEMO_BYTES:
            return
        atoms = self.grids.get(g)
        if atoms is None:
            atoms = self.grids[g] = OrderedDict()
            self.nbytes += sys.getsizeof(g)
        self.grids.move_to_end(g)
        atoms[key] = hit
        self.nbytes += size
        while self.nbytes > ATOM_MEMO_BYTES:    # never reaches the new entry
            old_g, old = next(iter(self.grids.items()))
            self.nbytes -= _size(old.popitem(last=False)[1])
            self.evictions += 1
            if not old:
                del self.grids[old_g]
                self.nbytes -= sys.getsizeof(old_g)


def _size(hit) -> int:
    v, mask = hit
    return sys.getsizeof(v) + (0 if mask is None else sys.getsizeof(mask))


_ATOMS = _AtomMemo()


def _atom_vec(net: NetExpr, e: np.ndarray, bad: np.ndarray,
              g: bytes) -> np.ndarray:
    """The atom's vector from the memo, its flags added to ``bad``.  A
    missing entry is built by the type's rule under ``g``: a power reads
    its base's entry and its mask carries the base's flags.  A rule reads
    flags only to choose entries of flagged points, which are arbitrary,
    so its own mask computed from none is what it would add to any ``bad``."""
    key = stored(net, "_key", _exact_atom)
    hit = _ATOMS.get(g, key)
    if hit is None:
        own = np.zeros(len(e), bool)
        v = _VEC_RULES[type(net)](net, e, own, g)
        v.flags.writeable = False
        hit = v, (own if own.any() else None)
        _ATOMS.put(g, key, hit)
    if hit[1] is not None:
        bad |= hit[1]
    return hit[0]
