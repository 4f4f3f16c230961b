"""Expression trees for eps-parametrized nets on I = (0,1].

A net is a closed immutable tree built from the primitives below; there
are no opaque user closures, which is what keeps the asymptotic decision
procedures (see ``asymptotics``) able to pattern-match representatives.
``eval_net`` evaluates any admissible tree at a concrete eps in double
precision, deterministically; ``eval_points`` gives the same values, bit
for bit, on a whole array of points.

Tiers tag the regularity of eps -> r_eps: Smooth < Continuous <
Arbitrary.  Structural admissibility is checked at construction time;
``minimal_tier`` infers the most restrictive tier a tree lives in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import partial
from numbers import Complex
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError, TierError
from .sequences import Geometric, Harmonic, HarmonicMidpoints, SequenceRule

Scalar = Union[float, complex]

_EXP_MAX = 700.0  # exp overflow guard; math.exp raises past ~709


def _exp(u: float) -> float:
    if u > _EXP_MAX:
        return math.inf
    if u < -745.0:
        return 0.0
    return math.exp(u)


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
    def value(self, schedule: SequenceRule, j: int) -> float:
        raise NotImplementedError

    def sup(self, schedule: SequenceRule, j1: int, j2: float) -> float:
        """Sup of |h_j| for j1 <= j <= j2 (j2 may be inf; 0.0 if empty)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstHeights(HeightRule):
    c: float = 1.0

    def value(self, schedule, j):
        return self.c

    def sup(self, schedule, j1, j2):
        # max() reads a nan height as 0.0, as a walk over the range does
        return max(0.0, abs(self.c)) if j1 <= j2 else 0.0


@dataclass(frozen=True)
class DecayHeights(HeightRule):
    """h_j = eps_j ** (slope*j + offset); exact integer powers where
    representable, log space beyond."""

    slope: Fraction = Fraction(1)
    offset: Fraction = Fraction(0)
    # slope*j + offset == (_a*j + _b) / _d, in integers
    _a: int = field(init=False, repr=False, compare=False)
    _b: int = field(init=False, repr=False, compare=False)
    _d: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, o = self.slope, self.offset
        object.__setattr__(self, "_a", s.numerator * o.denominator)
        object.__setattr__(self, "_b", o.numerator * s.denominator)
        object.__setattr__(self, "_d", s.denominator * o.denominator)

    def value(self, schedule, j):
        n = self._a * j + self._b
        base = schedule.value(j)
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
        top = max(self.value(schedule, j1), self.value(schedule, j2))
        # past exp(_EXP_MAX) an inner height may read inf (log-space path)
        return top if top <= math.exp(_EXP_MAX) else math.inf


class WidthRule:
    def value(self, schedule: SequenceRule, j: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class GapFraction(WidthRule):
    """w_j = frac * (eps_j - eps_{j+1}); frac <= 1/4 keeps supports disjoint."""

    frac: Fraction = Fraction(1, 4)
    _frac: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.frac <= Fraction(1, 4):
            raise DomainError("gap fraction must be in (0, 1/4]")
        object.__setattr__(self, "_frac", float(self.frac))

    def value(self, schedule, j):
        return self._frac * schedule.gap(j)


@dataclass(frozen=True)
class ShrunkWidths(WidthRule):
    """Explicit first widths, then w_j = min(gap/4, eps_j**(slope*j+offset)).

    Used by the zero-divisor construction: the tail exponent rule keeps
    the reference net below eps**(j/2) on each support.  Underflow to
    0.0 collapses the support to the single point eps_j.
    """

    values: Tuple[float, ...]
    slope: Fraction = Fraction(1, 2)
    offset: Fraction = Fraction(2)
    _slope: float = field(init=False, repr=False, compare=False)
    _offset: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_slope", float(self.slope))
        object.__setattr__(self, "_offset", float(self.offset))

    def value(self, schedule, j):
        if j <= len(self.values):
            return self.values[j - 1]
        gap = 0.25 * schedule.gap(j)
        e = (self._slope * j + self._offset) * math.log(schedule.value(j))
        return min(gap, _exp(e))


@dataclass(frozen=True)
class SmallCert:
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

class NetExpr:
    """Base class for net expression nodes (immutable)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(NetExpr):
    c: Scalar

    def __post_init__(self):
        if isinstance(self.c, complex) and self.c.imag == 0.0:
            object.__setattr__(self, "c", self.c.real)
        if isinstance(self.c, int):
            object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class Eps(NetExpr):
    pass


@dataclass(frozen=True)
class PowQ(NetExpr):
    base: NetExpr
    q: Fraction


@dataclass(frozen=True)
class Add(NetExpr):
    l: NetExpr
    r: NetExpr


@dataclass(frozen=True)
class Mul(NetExpr):
    l: NetExpr
    r: NetExpr


@dataclass(frozen=True)
class Neg(NetExpr):
    x: NetExpr


@dataclass(frozen=True)
class Inv(NetExpr):
    x: NetExpr


@dataclass(frozen=True)
class AbsNode(NetExpr):
    x: NetExpr


@dataclass(frozen=True)
class MinNode(NetExpr):
    l: NetExpr
    r: NetExpr


@dataclass(frozen=True)
class MaxNode(NetExpr):
    l: NetExpr
    r: NetExpr


@dataclass(frozen=True)
class RootN(NetExpr):
    x: NetExpr
    n: int


@dataclass(frozen=True)
class SinRecipPow(NetExpr):
    """eps -> sin(eps**-p)."""

    p: Fraction = Fraction(1)
    _p: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_p", float(self.p))


@dataclass(frozen=True)
class CosRecipPow(NetExpr):
    p: Fraction = Fraction(1)
    _p: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_p", float(self.p))


@dataclass(frozen=True)
class ExpNegRecip(NetExpr):
    """eps -> exp(-1/eps); the canonical nonzero negligible net."""


@dataclass(frozen=True)
class BumpTrain(NetExpr):
    """Sum_j h_j * phi((eps - eps_j)/w_j) with pairwise disjoint supports."""

    schedule: SequenceRule
    widths: WidthRule = GapFraction()
    heights: HeightRule = ConstHeights(1.0)
    small_cert: Optional[SmallCert] = None


@dataclass(frozen=True)
class Indicator(NetExpr):
    """Characteristic function e_S of S = {eps_j}; Arbitrary tier only."""

    s: SequenceRule


@dataclass(frozen=True)
class SpikeTrain(NetExpr):
    """Value 1 exactly at the points eps_j, 0 elsewhere; Arbitrary tier."""

    s: SequenceRule


# -- witness nodes produced by the construction operators -------------------

@dataclass(frozen=True)
class GelfandFactor(NetExpr):
    """eps -> -chi(2|a_eps|)/a_eps extended by 0 where |a_eps| <= 1/4.

    chi is the smooth step that is 0 on (-inf,1/2] and 1 on [1,inf); the
    factor is smooth whenever ``a`` is, bounded by 4, and a_eps * r_eps
    = -1 wherever |a_eps| >= 1/2.
    """

    a: NetExpr


@dataclass(frozen=True)
class RegularizedQuotient(NetExpr):
    """eps -> num * conj(den) / (|den|^2 + exp(-1/eps)^2).

    Tikhonov-regularized quotient used as an ideal-membership witness;
    ``dom_bound`` records a certified pointwise bound |num| <= C*|den|
    when one is known (then |value| <= C and value*den - num is
    negligible, dominated by C*exp(-1/eps)).
    """

    num: NetExpr
    den: NetExpr
    dom_bound: Optional[float] = None


@dataclass(frozen=True)
class AnnihilatorTransition(NetExpr):
    """Smooth-step transition between the annihilators of r and s.

    Value T((|s|-|r|)/eta) with eta = eta_scale * exp(-1/eps): equals 1
    where |r| <= |s| - eta, 0 where |r| >= |s| + eta."""

    r: NetExpr
    s: NetExpr
    eta_scale: float = 1.0


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SmoothBlend(NetExpr):
    """Partition-of-unity smoothing of ``source``: sum chi_k * source(c_k)
    with sample points c_k on a per-band uniform subdivision whose width
    is chosen so |self - source| <= exp(-1/eps) pointwise.

    The source tree is sample data, not a functional subexpression: the
    blend is structurally smooth regardless of the source's tier.
    """

    source: NetExpr


# --------------------------------------------------------------------------
# structural predicates
# --------------------------------------------------------------------------

def functional_children(net: NetExpr):
    """Subexpressions evaluated as functions (sample data excluded)."""
    if isinstance(net, (Const, Eps, SinRecipPow, CosRecipPow, ExpNegRecip,
                        Indicator, SpikeTrain, BumpTrain, SmoothBlend)):
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
    if isinstance(net, (AbsNode,)):
        return True
    if isinstance(net, AbsFactor):
        return is_real_net(net.x)
    if isinstance(net, GelfandFactor):
        return is_real_net(net.a)
    return all(is_real_net(c) for c in functional_children(net))


def nonneg_net(net: NetExpr) -> bool:
    """Sound structural certificate that net(eps) >= 0 for all eps."""
    if isinstance(net, Const):
        return not isinstance(net.c, complex) and net.c >= 0
    if isinstance(net, (Eps, ExpNegRecip, AbsNode, Indicator, SpikeTrain,
                        AnnihilatorTransition)):
        return True
    if isinstance(net, RootN):
        return True  # constructor requires nonneg operand
    if isinstance(net, PowQ):
        if nonneg_net(net.base):
            return True
        return net.q.denominator == 1 and net.q.numerator % 2 == 0 \
            and is_real_net(net.base)
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
        return positive_net(net.x)
    if isinstance(net, BumpTrain):
        return _heights_nonneg(net.heights)
    return False


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
        return positive_net(net.x)
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


# --------------------------------------------------------------------------
# tiers
# --------------------------------------------------------------------------

class Tier(IntEnum):
    Smooth = 0
    Continuous = 1
    Arbitrary = 2

    def __str__(self):
        return self.name.lower()


def minimal_tier(net: NetExpr) -> Tier:
    """Most restrictive tier structurally admitting the tree."""
    if isinstance(net, (Const, Eps, SinRecipPow, CosRecipPow, ExpNegRecip,
                        BumpTrain, SmoothBlend)):
        return Tier.Smooth
    if isinstance(net, (Indicator, SpikeTrain)):
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
    children = functional_children(net)
    if not children:
        return Tier.Smooth
    return max(minimal_tier(c) for c in children)


@dataclass(frozen=True)
class GNumber:
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
        if not (positive_net(base) or nonneg_net(base)):
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
    return _ev(_net(net), eps)


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
        return min(_ev(net.l, eps), _ev(net.r, eps))
    if isinstance(net, MaxNode):
        return max(_ev(net.l, eps), _ev(net.r, eps))
    if isinstance(net, RootN):
        return _root(_ev(net.x, eps), net.n)
    if isinstance(net, SinRecipPow):
        return math.sin(eps ** -net._p)
    if isinstance(net, CosRecipPow):
        return math.cos(eps ** -net._p)
    if isinstance(net, ExpNegRecip):
        return _exp(-1.0 / eps)
    if isinstance(net, BumpTrain):
        return _ev_bump(net, eps)
    if isinstance(net, (Indicator, SpikeTrain)):
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
        denom = abs(dv) ** 2 + delta * delta
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
        from .smoothing import _blend_value
        return _blend_value(net, eps)
    raise TypeError(f"cannot evaluate node {type(net).__name__}")


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


def _root(v: float, n: int) -> float:
    if v < 0.0:
        raise DomainError("RootN of a negative value")
    return math.pow(v, 1.0 / n) if v != 0.0 else 0.0


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


# --------------------------------------------------------------------------
# evaluation on many points
# --------------------------------------------------------------------------

_J_MAX = 2 ** 62  # probe indices up to j0 + 3 must fit int64


class _NotReal(Exception):
    """A subtree without a vector rule produced a non-float value."""


def eval_points(net, pts, fill=None) -> np.ndarray:
    """``[eval_net(net, p) for p in pts]`` as an array, bit for bit.

    The array is float64 when every value is a float, otherwise an
    object array of the scalar values.  With ``fill``, a point where
    eval_net raises gets ``fill``; without it the first such exception
    propagates, as it does from the loop.

    Bit-identity holds by construction: numpy does only correctly
    rounded arithmetic, comparison and selection, and every libm call and
    ``**`` is the Python call ``_ev`` makes, element by element.  A point
    where the scalar path would raise or special-case (a domain error, an
    overflow, a complex value, an index beyond int64) is flagged and
    evaluated by eval_net.  Node types without a vector rule evaluate
    their subtree with ``_ev``.
    """
    net = _net(net)
    e = np.array(pts, dtype=float).reshape(-1)
    bad = ~((0.0 < e) & (e <= 1.0))
    try:
        with np.errstate(all="ignore"):
            out = _vec(net, np.where(bad, 1.0, e), bad)
    except (_NotReal, RecursionError):
        out = np.full(len(e), math.nan)
        bad[:] = True
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


def _calls(fn, xs, bad, strict: bool = False) -> np.ndarray:
    """``fn`` at each element of the list ``xs``, as float64.

    An element where fn raises, or returns anything but a float, is nan
    and flagged in ``bad`` (aligned with xs).  Without ``strict`` fn is
    trusted to return floats unless it raises, and all elements are
    first tried in one pass."""
    if not strict:
        try:
            return np.fromiter(map(fn, xs), float, len(xs))
        except Exception:
            pass
    out = np.full(len(xs), math.nan)
    for i, x in enumerate(xs):
        try:
            v = fn(x)
        except Exception:
            bad[i] = True
            continue
        if type(v) is float:
            out[i] = v
        else:
            bad[i] = True
    return out


def _vec(net: NetExpr, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``net`` at the points ``e`` as float64.  Flags in ``bad`` the points
    whose value must come from eval_net; their entries are arbitrary."""
    if isinstance(net, Const) and type(net.c) is float:
        return np.full(len(e), net.c)
    if isinstance(net, Eps):
        return e
    if isinstance(net, Add):
        return _vec(net.l, e, bad) + _vec(net.r, e, bad)
    if isinstance(net, Mul):
        return _vec(net.l, e, bad) * _vec(net.r, e, bad)
    if isinstance(net, Neg):
        return -_vec(net.x, e, bad)
    if isinstance(net, Inv):
        v = _vec(net.x, e, bad)
        return np.where(v == 0, math.inf, 1.0 / v)
    if isinstance(net, PowQ):
        v = _vec(net.base, e, bad).tolist()
        q = net.q
        if q.denominator == 1:
            # for n >= 0, _pow_int is pow unless pow overflows (flagged)
            f = partial(pow, exp=q.numerator) if q.numerator >= 0 \
                else partial(_pow_int, n=q.numerator)
            return _calls(f, v, bad)
        return _calls(partial(_pow_frac, q=float(q)), v, bad)
    if isinstance(net, AbsNode):
        return np.abs(_vec(net.x, e, bad))
    if isinstance(net, MinNode):
        # Python's min/max keep the left operand unless the right one
        # compares smaller/larger, NaN included
        l, r = _vec(net.l, e, bad), _vec(net.r, e, bad)
        return np.where(r < l, r, l)
    if isinstance(net, MaxNode):
        l, r = _vec(net.l, e, bad), _vec(net.r, e, bad)
        return np.where(r > l, r, l)
    if isinstance(net, RootN):
        return _calls(partial(_root, n=net.n), _vec(net.x, e, bad).tolist(),
                      bad)
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        u = _calls(partial(pow, exp=-net._p), e.tolist(), bad)
        f = math.sin if isinstance(net, SinRecipPow) else math.cos
        return _calls(f, u.tolist(), bad)
    if isinstance(net, ExpNegRecip):
        return _calls(_exp, (-1.0 / e).tolist(), bad)
    if isinstance(net, BumpTrain):
        return _vec_bump(net, e, bad)
    if isinstance(net, (Indicator, SpikeTrain)):
        return _vec_spike(net.s, e, bad)
    return _vec_scalar(net, e, bad)


def _vec_scalar(net: NetExpr, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``_ev`` at each unflagged point, for nodes without a vector rule."""
    out = np.full(len(e), math.nan)
    for i in np.flatnonzero(~bad).tolist():
        try:
            v = _ev(net, float(e[i]))
        except Exception:
            bad[i] = True
            continue
        if type(v) is not float:
            raise _NotReal
        out[i] = v
    return out


def _anchors(s: SequenceRule, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """``s.index_near`` at each point as int64; a point where it raises or
    leaves int64 is flagged (anchor 1)."""
    if isinstance(s, Geometric):
        x = _calls(math.log, e.tolist(), bad) / math.log(s._ratio)
    elif isinstance(s, (Harmonic, HarmonicMidpoints)):
        x = 1.0 / e
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
    """The indices ``_ev_bump``/``_ev_spike`` probe at each point, in
    probe order: ``(valid, js, pos)`` where row k is the probe of
    j0 - 2 + k, ``valid[k]`` says whether it is made (index >= 1), ``js``
    holds the distinct indices and ``pos[k]`` each probe's place in js."""
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
    js = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return js, np.searchsorted(js, a)


def _seq_values(s: SequenceRule, js: np.ndarray,
                jbad: np.ndarray) -> np.ndarray:
    if isinstance(s, Harmonic):
        return 1.0 / js
    return _calls(s.value, js.tolist(), jbad, strict=True)


def _vec_bump(net: BumpTrain, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    s = net.schedule
    valid, js, pos = _probe(s, e, bad)
    jbad = np.zeros(len(js), bool)
    c = _seq_values(s, js, jbad)
    if isinstance(net.widths, GapFraction):
        w = net.widths._frac * (c - _seq_values(s, js + 1, jbad))
    else:
        w = _calls(partial(net.widths.value, s), js.tolist(), jbad,
                   strict=True)
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
    h = _calls(partial(net.heights.value, s), js[hj].tolist(), hbad,
               strict=True)[inv]
    bad[idx[hbad[inv]]] = True
    out[idx] = h
    # a support that underflowed to its centre has height, no profile
    span = idx[w[hit[idx]] > 0.0]
    pbad = np.zeros(len(span), bool)
    out[span] *= _calls(bump_phi, t[span].tolist(), pbad)
    bad[span[pbad]] = True
    return out


def _vec_spike(s: SequenceRule, e: np.ndarray, bad: np.ndarray) -> np.ndarray:
    valid, js, pos = _probe(s, e, bad)
    jbad = np.zeros(len(js), bool)
    c = _seq_values(s, js, jbad)
    hit = np.zeros(len(e), bool)
    for k in range(5):
        p = pos[k]
        live = valid[k] & ~hit
        bad |= live & jbad[p]
        hit |= live & (c[p] == e)
    return np.where(hit, 1.0, 0.0)
