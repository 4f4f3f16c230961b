"""Constructive smoothing: continuous-tier nets to smooth-tier nets
within an exp(-1/eps) envelope, and the spike-net refuter.

The smoothing operator realizes the inverse of the smooth-to-continuous
inclusion on scalar nets.  The output is a partition-of-unity blend of
*constant* sample values of the input: on each dyadic band
[2^-b-1, 2^-b] the band is split uniformly into 2^L subintervals, one
reference bump and one sample per subinterval, with L chosen from a
certified modulus-of-continuity bound so that the sample spacing keeps
|blend - input| below exp(-1/eps) on the whole band.

Where the required width falls below the floating-point resolution of
the band (the envelope shrinks much faster than double precision can
follow), the true construction's subintervals are narrower than one
representable number apart; the evaluator then returns the input's value
at eps itself, which is the blend's value to all 53 bits.  A band with
no certified modulus is exact in the same way, and flagged in the report.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Optional, Tuple

from . import nets
from .asymptotics import _bisect_sign_change
from .errors import PreconditionError, SearchExhausted, TierError
from .harness import DEFAULT_GRID
from .nets import (AbsNode, Add, BumpTrain, Const, CosRecipPow, Eps,
                   ExpNegRecip, GNumber, Inv, MaxNode, MinNode, Mul, Neg,
                   NetExpr, PHI_MAX_SLOPE, PowQ, RootN, SinRecipPow,
                   SmoothBlend, SpikeTrain, Tier, bump_phi, eval_net,
                   eval_points, minimal_tier, nonneg_net, unfill)
from .profiles import abs_range, enclose, fpow
from .records import Record
from .sequences import Harmonic

LOG_ULP = math.log(2.0 ** -52)


# --------------------------------------------------------------------------
# per-band modulus of continuity (the band's range is profiles.enclose)
# --------------------------------------------------------------------------

Modulus = List[Tuple[float, int]]  # M(d) = sum K * d**(1/r)


def _mod_scale(m: Modulus, c: float) -> Modulus:
    return [(k * c, r) for k, r in m]


def _mod_add(m1: Modulus, m2: Modulus) -> Modulus:
    merged = {}
    for k, r in m1 + m2:
        merged[r] = merged.get(r, 0.0) + k
    return [(k, r) for r, k in sorted(merged.items())]


def _mod_root(m: Modulus, n: int) -> Modulus:
    # (sum K d^(1/r))^(1/n) <= sum K^(1/n) d^(1/(r n)) for d <= 1 terms
    return [(k ** (1.0 / n), r * n) for k, r in m]


def _inv_modulus(x: NetExpr, a: float, b: float) -> Optional[Modulus]:
    """Modulus of 1/x on [a, b]: |1/s - 1/t| <= |s - t| / inf|x|**2."""
    m = band_modulus(x, a, b)
    i = abs_range(enclose(x, a, b))[0]
    if m is None or i * i <= 0:     # i * i underflows below 1e-162
        return None
    return _mod_scale(m, 1.0 / (i * i))


def band_modulus(net: NetExpr, a: float, b: float) -> Optional[Modulus]:
    """Certified modulus |net(s)-net(t)| <= M(|s-t|) on [a, b], 0 < a;
    None where no rule certifies one (a K that overflows is inf)."""
    if isinstance(net, Const):
        return []
    if isinstance(net, Eps):
        return [(1.0, 1)]
    if isinstance(net, ExpNegRecip):
        return [(math.exp(-1.0 / b) / (a * a), 1)]
    if isinstance(net, (SinRecipPow, CosRecipPow)):
        p = float(net.p)
        return [(p * fpow(a, -p - 1.0), 1)]
    if isinstance(net, (Neg, AbsNode)):
        return band_modulus(net.x, a, b)
    if isinstance(net, (Add, MinNode, MaxNode)):
        m1, m2 = band_modulus(net.l, a, b), band_modulus(net.r, a, b)
        if m1 is None or m2 is None:
            return None
        return _mod_add(m1, m2)
    if isinstance(net, Mul):
        m1, m2 = band_modulus(net.l, a, b), band_modulus(net.r, a, b)
        if m1 is None or m2 is None:
            return None
        s1, s2 = (abs_range(enclose(x, a, b))[1] for x in (net.l, net.r))
        if not (math.isfinite(s1) and math.isfinite(s2)):
            return None
        return _mod_add(_mod_scale(m1, s2), _mod_scale(m2, s1))
    if isinstance(net, Inv):
        return _inv_modulus(net.x, a, b)
    if isinstance(net, RootN):
        m = band_modulus(net.x, a, b)
        if m is None:
            return None
        return _mod_root(m, net.n)
    if isinstance(net, PowQ):
        q = net.q
        if isinstance(net.base, Eps):
            fq = float(q)
            k = abs(fq) * max(fpow(a, fq - 1.0), fpow(b, fq - 1.0))
            return [(k, 1)]
        if q.denominator == 1 and q.numerator >= 1:
            m = band_modulus(net.base, a, b)
            s = abs_range(enclose(net.base, a, b))[1]
            if m is None or not math.isfinite(s):
                return None
            n = q.numerator
            return _mod_scale(m, n * fpow(max(s, 1e-300), n - 1))
        if q > 0:
            num, den = q.numerator, q.denominator
            inner = band_modulus(PowQ(net.base, Fraction(num)), a, b) \
                if num != 1 else band_modulus(net.base, a, b)
            if inner is None:
                return None
            return _mod_root(inner, den)
        return _inv_modulus(PowQ(net.base, -q), a, b)
    if isinstance(net, BumpTrain):
        lo = net.schedule.index_near(b)
        hi = net.schedule.index_near(a)
        k = 0.0
        for j in range(max(1, lo - 2), hi + 3):
            w = net.widths.value(net.schedule, j)
            h = abs(net.heights.value(net.schedule, j))
            if h == 0.0:
                continue
            if w <= 0.0:
                return None  # sub-float supports: no useful Lipschitz bound
            k = max(k, h * PHI_MAX_SLOPE / w)
        return [(k, 1)]
    return None


# --------------------------------------------------------------------------
# band plans for SmoothBlend evaluation
# --------------------------------------------------------------------------

def _band_bounds(b: int) -> Tuple[float, float]:
    if b <= 0:
        return (0.5, 1.0)
    return (2.0 ** (-b - 1), 2.0 ** (-b))


def _band_of(eps: float) -> int:
    """b with 2**-(b+1) <= eps < 2**-b, and 0 for eps >= 1/2."""
    return 0 if eps >= 0.5 else -math.frexp(eps)[1]


class _Plans(dict):
    """Band -> plan of one blend, each made at its first lookup.  The blend
    keeps them (``nets.stored``) and its closure holds the blend, so they
    live exactly as long as it does."""

    def __init__(self, blend: SmoothBlend):
        super().__init__()
        self.source = blend.source

    def __missing__(self, b: int):
        self[b] = plan = _plan(self.source, b)
        return plan


def _band_plan(blend: SmoothBlend, b: int):
    """The plan of band b of ``blend``, kept on the blend."""
    return nets.stored(blend, "_plans", _Plans)[b]


def _plan(src: NetExpr, b: int):
    """('exact', 0.0) or ('real', width) for band b of a blend of src,
    plus a flag note."""
    a, hi = _band_bounds(b)
    wa, wb = a * 0.5, min(1.0, hi * 2.0)
    sup = abs_range(enclose(src, wa, wb))[1]
    # pointwise target exp(-1/eps), evaluated at the band's left end
    # where it is smallest
    log_env = -1.0 / a
    if not math.isfinite(sup) or log_env < math.log(3e-13 * max(1.0, sup)):
        return ("exact", 0.0, "")
    mod = band_modulus(src, wa, wb)
    if mod is None or not all(math.isfinite(k) for k, _ in mod):
        return ("exact", 0.0, "uncertified-modulus")
    mod = [(max(k, 1e-300), r) for k, r in mod] or [(1e-300, 1)]
    nterms = len(mod)
    log_w = min(r * (log_env - math.log(8 * nterms * k))
                for k, r in mod) - math.log(4.0)
    if log_w < LOG_ULP + math.log(a):
        return ("exact", 0.0, "")
    levels = max(0, math.ceil(math.log2((hi - a) / math.exp(log_w))))
    return ("real", (hi - a) / 2.0 ** levels, "")


def _band_bumps(b: int, w: float, eps: float):
    """(center, psi) pairs of band b's bumps of width w whose support
    holds eps, less those whose psi underflowed to 0."""
    a, hi = _band_bounds(b)
    count = round((hi - a) / w)
    k = int(math.floor((eps - a) / w))
    out = []
    for i in (k - 1, k, k + 1):
        if 0 <= i < count:
            c = a + (i + 0.5) * w
            p = bump_phi((eps - c) / w)
            if p > 0.0:
                out.append((c, p))
    return out


def _blend_value(blend: SmoothBlend, eps: float) -> complex:
    plans = nets.stored(blend, "_plans", _Plans)
    b = _band_of(eps)
    pairs = []
    if plans[b][0] != "exact":
        for nb in (b, b - 1, b + 1):
            if nb >= 0 and plans[nb][0] == "real":
                pairs += _band_bumps(nb, plans[nb][1], eps)
    total = sum(p for _, p in pairs)
    if total <= 0.0:    # no bump holds eps: the source's own value
        return eval_net(blend.source, eps)
    out = 0.0
    for c, p in pairs:
        out += (p / total) * eval_net(blend.source, min(c, 1.0))
    return out


# --------------------------------------------------------------------------
# the smoothing operator
# --------------------------------------------------------------------------

class SmoothingReport(Record):
    output: GNumber
    grid_max_ratio: float
    flagged_bands: Tuple[Tuple[int, str], ...] = ()
    shortcut: bool = False


def _presimplify(net: NetExpr) -> NetExpr:
    """Remove redundant continuous-only nodes (|x| = x for nonneg x, ...)."""
    if isinstance(net, AbsNode):
        inner = _presimplify(net.x)
        while isinstance(inner, Neg):
            inner = inner.x
        if nonneg_net(inner):
            return inner
        if isinstance(inner, Const):
            return Const(abs(inner.c))
        return AbsNode(inner)
    if isinstance(net, (MinNode, MaxNode)):
        l, r = _presimplify(net.l), _presimplify(net.r)
        if l == r:
            return l
        return type(net)(l, r)
    if isinstance(net, (Add, Mul, Neg)):
        return type(net)(*map(_presimplify, nets.functional_children(net)))
    return net


def smooth_approximate(x, grid=None) -> SmoothingReport:
    """Smooth representative of a continuous-tier net within
    exp(-1/eps) pointwise.

    Already-smooth inputs are returned unchanged.  The output is
    structurally smooth: a partition-of-unity blend of constant samples,
    free of abs/min/max/root nodes.
    """
    net = nets._net(x)
    if minimal_tier(net) >= Tier.Arbitrary:
        raise TierError("smoothing is defined on continuous-tier nets; "
                        "spike/indicator nets have no continuous representative")
    simplified = _presimplify(net)
    if minimal_tier(simplified) == Tier.Smooth:
        return SmoothingReport(GNumber(simplified, Tier.Smooth), 0.0, (),
                               shortcut=True)
    blend = SmoothBlend(simplified)
    pts = (grid or DEFAULT_GRID).points().tolist()
    # the flag notes of the grid's bands, in grid order
    notes = ((b, _band_plan(blend, b)[2])
             for b in dict.fromkeys(map(_band_of, pts)))
    flags = tuple((b, note) for b, note in notes if note)
    sides = (blend, net, ExpNegRecip())   # the blend goes point by point
    worst = 0.0
    for e, vb, vn, bv in zip(pts, *(eval_points(s, pts, fill=math.nan)
                                    .tolist() for s in sides)):
        vb, vn = unfill(blend, e, vb), unfill(net, e, vn)
        # equal values (the same infinity too) or two nans match; any
        # other non-finite difference is an unbounded ratio
        if vb == vn or (cmath.isnan(vb) and cmath.isnan(vn)):
            continue
        diff = abs(vb - vn)
        bv = unfill(sides[2], e, bv)
        worst = max(worst, diff / bv if bv > 0.0 and math.isfinite(diff)
                    else math.inf)
    return SmoothingReport(GNumber(blend, Tier.Smooth), worst, flags)


# --------------------------------------------------------------------------
# the non-surjectivity refuter
# --------------------------------------------------------------------------

class RefutationWitness(Record):
    """Evidence that a continuous candidate misses the harmonic spike net.

    kind 'spike-miss':   |candidate(1/n) - 1| >= 1/4 at eps = 1/n
    kind 'midpoint-miss':|candidate(mid_n)| >= 1/4 at the midpoint
    kind 'crossing':     bisection point with ||candidate| - 1/2| <= 1e-9
    """

    kind: str
    n: int
    eps: float
    value: complex


def refute_continuous_representative(target, candidate) -> RefutationWitness:
    """Witness that |candidate - target| is not negligible, for target
    the spike net with value 1 at eps = 1/n."""
    tnet, cnet = nets._net(target), nets._net(candidate)
    if not isinstance(tnet, SpikeTrain) or not isinstance(tnet.s, Harmonic):
        raise PreconditionError("target must be the harmonic spike net")
    if minimal_tier(cnet) >= Tier.Arbitrary:
        raise PreconditionError("candidate must be continuous-tier")

    def off_half(e):
        """|candidate(e)| - 1/2, read as 0.0 within 1e-9."""
        g = abs(eval_net(cnet, e)) - 0.5
        return 0.0 if abs(g) <= 1e-9 else g

    for n in range(1, 65):
        sp = 1.0 / n
        v1 = eval_net(cnet, sp)
        if abs(v1 - 1.0) >= 0.25:
            return RefutationWitness("spike-miss", n, sp, v1)
        mid = (2 * n + 1) / (2 * n * (n + 1))
        v2 = eval_net(cnet, mid)
        if abs(v2) >= 0.25:
            return RefutationWitness("midpoint-miss", n, mid, v2)
        # |candidate| > 3/4 at the spike, < 1/4 at the midpoint: the
        # intermediate value theorem forces a |.| = 1/2 crossing between
        m = _bisect_sign_change(off_half, mid, sp, 0.0)
        if m is not None and abs(abs(eval_net(cnet, m)) - 0.5) <= 1e-6:
            return RefutationWitness("crossing", n, m, eval_net(cnet, m))
    raise SearchExhausted(
        "no refutation witness within the first 64 spikes",
        detail={"max_spikes": 64})
