"""Independent numeric oracle: grid evaluation, witness replay, log-log
exponent regression, and seeded random net generation.

The replay functions only ever *falsify* decided claims; a finite grid
cannot decide an asymptotic statement, so Unknown is never upgraded.

The tolerance model of the O(.)-claims (``replay_negligible``,
``replay_negligible_diff``, ``replay_moderate``), all checked by
``_fitted_bound``:
- the largest 70% of the grid (the head) fits the constant, the
  smallest 30% (the tail) tests it; points with no finite value are
  dropped from both;
- the fitted constant C is 4 times the largest |x| / eps**m on the head;
- a tail point refutes the claim only above C * eps**m * (1 + 1e-9)
  + 1e-290, a relative allowance for rounding and an absolute one for
  underflow;
- a difference a - b is replayed above the rounding floor of its two
  float paths, 1e-13 * (1 + |a| + |b|) at each point, and the floor
  itself leaves no slack: its constant is fitted with a factor of 1.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from . import nets
from .asymptotics import (DecisionTri, Scan, _abs_on, _abs_points,
                          _first_violation, _real_values)
from .errors import DomainError, SearchExhausted
from .nets import NetExpr, Tier, eval_net, eval_points, unfill
from .records import Record
from .sequences import Geometric, Harmonic, SequenceRule

F = Fraction


class GridSpec(Scan, Record):
    """Log-spaced evaluation grid on [eps_min, 1] by ``np.logspace``: a
    ``Scan``, so its points, powers, logs and ``deep()`` are built once."""

    n_points: int = 1000
    eps_min: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.eps_min < 1.0 or self.n_points < 8:
            raise DomainError("grid needs 0 < eps_min < 1 and >= 8 points")

    def _build(self):
        return np.logspace(math.log10(self.eps_min), 0.0, self.n_points)

    def deep(self) -> np.ndarray:
        """400 log-spaced points over the twelve decades below eps_min."""
        lo = math.log10(self.eps_min)
        return self._stored("deep", lambda: np.logspace(lo - 12.0, lo, 400))

    def split(self) -> Tuple[np.ndarray, np.ndarray]:
        """(tail, head): smallest 30% of the points, and the rest."""
        return _split(self.points())


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(tail, head) of ascending grid points, or of values on them."""
    cut = max(1, int(0.3 * len(a)))
    return a[:cut], a[cut:]


DEFAULT_GRID = GridSpec()


class ReplayReport(Record):
    claim: str
    passed: bool
    max_violation: float = 0.0
    arg_eps: Optional[float] = None
    detail: str = ""

    # mutable, so with no hash
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __bool__(self):
        return self.passed


def _abs_at(net: NetExpr, e: float) -> float:
    """|net(e)|; nan when the evaluator cannot produce a value (domain
    guard or an underflow/overflow collision inside a product)."""
    try:
        return abs(eval_net(net, e))
    except Exception:
        return math.nan


def _raise_first_error(a: NetExpr, b: NetExpr, pts, va, vb) -> None:
    """Re-raise, in the order of the scalar loop over pts (a, then b, at
    each point), the first evaluation error hidden behind a nan fill."""
    nan = (va != va) | (vb != vb)
    for e, x, y in zip(*(z[nan].tolist() for z in (pts, va, vb))):
        unfill(a, e, x)
        unfill(b, e, y)


def eval_grid(net: NetExpr, grid: GridSpec = DEFAULT_GRID):
    """(eps, value) rows; values may be complex."""
    pts = grid.points()
    return list(zip(pts.tolist(), eval_points(net, pts).tolist()))


# --------------------------------------------------------------------------
# replay of asymptotic claims
# --------------------------------------------------------------------------

def _finite(pts: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The points where v is finite, and v there: points the evaluator
    cannot resolve (0*inf collisions, overflow of an internally
    compensated product) carry no evidence either way."""
    keep = np.isfinite(v)
    return pts[keep], v[keep]


def _worst(excess: np.ndarray, pts: np.ndarray) -> Tuple[float, float]:
    """(excess, eps) at the first point of largest excess."""
    i = int(np.argmax(excess))
    return float(excess[i]), float(pts[i])


def _ratio(v: np.ndarray, e: np.ndarray, m: int) -> np.ndarray:
    """v / e**m, taken as v * e**-m for m < 0 (a growth bound)."""
    return v / e ** m if m >= 0 else v * e ** -m


def _fitted_bound(claim: str, pts: np.ndarray, v: np.ndarray, exps,
                  slack: float = 4.0, deep=None) -> ReplayReport:
    """|x| <= C * eps**m under the tolerance model above, v = |x| at pts,
    for the exponent ``exps`` or for each m of the range ``exps`` (the
    report then names the m it stops at).  A C that is not finite ends
    the check with a pass that says so.  ``deep`` is None or gives the
    (points, values) of a deeper extension, asked once, at the first
    tail excess: a transient ratio hump turns over at depth, a genuine
    violation keeps rising, so an excess whose ratio is below half its
    peak in the deepest quarter moves on to the next m."""
    scan = isinstance(exps, range)
    (tail, head), (vt, vh) = _split(pts), _split(v)
    (tail, vt), (head, vh) = _finite(tail, vt), _finite(head, vh)
    if not len(head):
        return ReplayReport(claim, True, detail="no evaluable points")
    ext = None
    for m in exps if scan else (exps,):
        # the fitted constant gets a fixed slack: O(.) constants are
        # arbitrary, and sparsely supported nets may peak off the head grid
        with np.errstate(over="ignore"):
            C = slack * float(np.max(_ratio(vh, head, m)))
        if not math.isfinite(C):
            return ReplayReport(claim, True, detail="no finite constant"
                                + (f" from m={m}" if scan else ""))
        bound = C * tail ** m * (1 + 1e-9) + 1e-290
        if not (vt > bound).any():
            continue
        if deep is not None:
            if ext is None:
                ext, ve = _finite(*deep())
            if len(ext) > 8:
                re_ = _ratio(ve, ext, m)
                peak = max(float(np.max(re_)),
                           float(np.max(_ratio(vt, tail, m))),
                           float(np.max(_ratio(vh, head, m))))
                if float(np.max(re_[:len(ext) // 4])) <= 0.5 * peak + 1e-290:
                    continue
        return ReplayReport(claim, False, *_worst(vt - bound, tail),
                            f"fails at m={m}" if scan else "")
    return ReplayReport(claim, True)


def replay_negligible(x, m_max: int = 12,
                      grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    """Check |x| <= C * eps**m on the grid tail for each m <= m_max,
    with C fitted on the head; an excess is probed twelve decades below
    the grid floor (``GridSpec.deep``) for a hump that turns over."""
    net = nets._net(x)
    return _fitted_bound(
        f"negligible(m<={m_max})", grid.points(), _abs_on(net, grid),
        range(m_max + 1),
        deep=lambda: (ext := grid.deep(), _abs_points(net, ext)))


def _with_characteristic_points(grid: GridSpec, *sides: NetExpr) -> np.ndarray:
    """The grid's points plus, for each ``Indicator``/``SpikeTrain`` point
    set S in the sides, the point of S nearest to each grid point."""
    pts = grid.points()
    sets = {n.s for side in sides for n in nets.iter_nodes(side)
            if isinstance(n, nets.Indicator)}
    if not sets:
        return pts
    near = {s.value(s.index_near(e)) for s in sets for e in pts.tolist()}
    return np.array(sorted({*pts.tolist(),
                            *(p for p in near if grid.eps_min <= p <= 1.0)}))


def replay_negligible_diff(a, b, m_max: int = 12,
                           grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    """Check that a - b is negligible, discounting the evaluator's
    rounding floor (1e-13 of the local value scale); for replaying
    witness identities a*x = y whose two sides are computed by
    different float paths.

    A log grid never meets the point set S of an ``Indicator`` or
    ``SpikeTrain``, so when either side has one, the point of S nearest
    to each grid point (within the grid's range) joins the grid."""
    an, bn = nets._net(a), nets._net(b)
    pts = _with_characteristic_points(grid, an, bn)
    va, vb = (eval_points(n, pts, fill=math.nan) for n in (an, bn))
    tail = _split(pts)[0]
    # errors surface in the scalar order: the head, then the tail
    _raise_first_error(an, bn,
                       *(np.roll(z, -len(tail)) for z in (pts, va, vb)))
    # both sides inf: inf - inf is nan; near the largest float the sums
    # overflow to inf
    with np.errstate(invalid="ignore", over="ignore"):
        scale = 1.0 + np.abs(va) + np.abs(vb)
        out = np.abs(va - vb) - 1e-13 * scale
    # max(0.0, out), with nan read as 0; the floor leaves no slack
    return _fitted_bound(f"negligible-diff(m<={m_max})", pts,
                         np.where(out > 0.0, out, 0.0).astype(float),
                         range(m_max + 1), slack=1.0)


def replay_moderate(x, n_exp: int, grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    """Check |x| <= C * eps**-N with C fitted on the head."""
    return _fitted_bound("moderate", grid.points(),
                         _abs_on(nets._net(x), grid), -n_exp)


def replay_lower_eventual(x, m: int, eps0: float,
                          grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    """Check |x| >= eps**m on grid points below eps0 (strict nonzeroness)."""
    net = nets._net(x)
    scan, sel = grid, grid.points() <= eps0
    if np.count_nonzero(sel) < 3:
        scan, sel = Scan(lambda: [eps0 * 0.5 ** k for k in range(1, 12)
                                  if eps0 * 0.5 ** k > 1e-9]), slice(None)
    pts, need = scan.points()[sel], scan.powers(m)[sel] * (1 - 1e-9)
    v = (_abs_on(net, grid) if scan is grid
         else _abs_points(net, scan.points()))[sel]
    short = np.where(v < need, need - v, 0.0)
    if len(pts) and short.max() > 0.0:
        return ReplayReport(f"|x|>=eps^{m} below {eps0:g}", False,
                            *_worst(short, pts))
    return ReplayReport(f"|x|>=eps^{m} below {eps0:g}", True)


def replay_growth_along(x, seq: SequenceRule, m_star: int) -> ReplayReport:
    """Check that |x(eps_j)| / eps_j**m_star does not collapse (and
    typically grows) along the first 64 evaluable points among the
    sequence's first 256, refuting |x| = O(eps**m_star) with a fitted
    constant.  The walk ends where a finite rule does."""
    net = nets._net(x)
    pts, vals, ratios = [], [], []
    j = 0
    while len(ratios) < 64 and j < 256:
        j += 1
        if j > len(pts):    # the next 64 points, as the walk reaches them
            pts += seq.values(j + 63, j)
            if j > len(pts):
                break
            # nan where it raises: an inf below means "overflows"
            vals += _abs_points(net, pts[j - 1:], math.nan).tolist()
        e, v = pts[j - 1], vals[j - 1]
        if e <= 0:
            break
        if math.isinf(v):
            return ReplayReport("growth-along", True, detail="overflows")
        scale = e ** m_star
        if scale == 0.0:
            break
        r = v / scale
        if not math.isnan(r):
            ratios.append(r)
    if len(ratios) < 6:
        return ReplayReport("growth-along", True,
                            detail="insufficient evaluable points")
    early = max(ratios[:4]) + 1e-300
    late = max(ratios[-4:])
    ok = late >= 1.15 * early or late > 1e6
    return ReplayReport("growth-along", ok,
                        detail=f"ratio {early:.3g} -> {late:.3g}")


def _local_min_abs(net: NetExpr, lo: float, hi: float) -> Tuple[float, float]:
    """Ternary search (80 steps) for a local minimum of |net| on [lo, hi]."""
    a, b = lo, hi
    for _ in range(80):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if _abs_at(net, m1) <= _abs_at(net, m2):
            b = m2
        else:
            a = m1
    mid = 0.5 * (a + b)
    return mid, _abs_at(net, mid)


def replay_small_along(x, seq: SequenceRule, m_max: int = 12) -> ReplayReport:
    """For each m <= m_max exhibit a point with |x| < eps**m near the
    sequence (refutes strict nonzeroness): at the first 48 indices, then
    on a ladder growing by 1.6.  Only ladder points in (0, 1) count:
    at eps = 1 every eps**m is 1, so a point there shows nothing."""
    net = nets._net(x)
    ladder = list(range(0, 49))
    j = 48
    while j < 5000:
        j = int(j * 1.6) + 1
        ladder.append(j)

    # A ladder point's value, |x| there and local-minimum search do not
    # depend on m: each is computed once, the first time an m needs it.
    # Each m searches only when no ladder point itself is small enough.
    # Both steps stop at a rule's end and ``_abs_at`` reads errors as nan,
    # so any(point or search) = any(point) or any(search), errors alike.
    @functools.cache
    def point(j):
        """(eps_j, |x(eps_j)|), or None when eps_j is not in (0, 1)."""
        try:
            e = seq.value(j)
        except (ZeroDivisionError, SearchExhausted):
            # 1/0 at index 0, or past the prefix of a CharsetPoints
            return None
        return (e, _abs_at(net, e)) if 0 < e < 1 else None

    @functools.cache
    def local_min(j):
        """(point, |x|) of the search around eps_j, or None when the
        neighbouring gap is empty or eps_{j+1} does not exist."""
        e, _ = point(j)
        try:
            below = seq.value(j + 1)
        except SearchExhausted:
            return None
        gap = min(e - below, (seq.value(j - 1) - e)
                  if j > 1 else e * 0.1) * 0.45
        if gap <= 0:
            return None
        return _local_min_abs(net, e - gap, e + gap)

    def small(p, m):
        return p is not None and p[1] < p[0] ** m

    for m in range(0, m_max + 1):
        if not (any(small(point(j), m) for j in ladder)
                or any(point(j) is not None and small(local_min(j), m)
                       for j in ladder)):
            # distinguish genuine failure from float-resolution exhaustion:
            # at the best candidate the observed minimum must exceed the
            # local derivative-times-ulp band for the failure to count
            best_pt, best_v = None, math.inf
            for p in map(point, ladder[:48]):
                if p is None:
                    continue
                e, v = p
                if v < best_v:
                    best_pt, best_v = e, v
            if best_pt is not None:
                # smallest value change one float step away bounds what
                # the evaluator can resolve near a cusp
                ulp = best_pt * 2.0 ** -52
                jump = min(abs(_abs_at(net, min(1.0, best_pt + k * ulp))
                               - best_v) for k in (1.0, 2.0, 4.0))
                noise = 64.0 * (jump + best_pt * 2.0 ** -52)
                if best_v <= noise:
                    return ReplayReport(
                        "small-along", True,
                        detail=f"resolution-limited below eps^{m}")
            return ReplayReport("small-along", False,
                                detail=f"no point below eps^{m}")
    return ReplayReport("small-along", True)


def replay_leq(x, y, thresholds, grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    """Check x <= y + eps**a below each witnessed threshold."""
    xn, yn = nets._net(x), nets._net(y)
    pts = grid.points()
    vx, vy = _real_values(xn, pts), _real_values(yn, pts)
    ay = np.abs(vy)
    slack = 1e-11 * np.where(ay > 1.0, ay, 1.0)
    for a, eps0 in thresholds:
        sel = pts <= eps0
        e, xs, ys = pts[sel], vx[sel], vy[sel]
        with np.errstate(over="ignore"):  # y near the largest float: inf
            bad = xs > ys + grid.powers(a)[sel] + slack[sel]
        k = int(np.argmax(bad)) if bad.any() else len(e)
        _raise_first_error(xn, yn, e[:k], xs[:k], ys[:k])
        if k < len(e):
            return ReplayReport("leq", False, float(xs[k] - ys[k]),
                                float(e[k]), f"violated at a={a}")
    return ReplayReport("leq", True)


def replay_order_violation(x, y, a: int, pt: Optional[float],
                           grid: GridSpec = DEFAULT_GRID) -> ReplayReport:
    scan = grid if pt is None else Scan(lambda: [pt])
    hit = _first_violation(nets._net(x), nets._net(y), a, scan)
    if hit is not None:
        return ReplayReport("order-violation", True, arg_eps=hit)
    return ReplayReport("order-violation", False,
                        detail="no violating point found")


def verify_decision(claim: str, tri: DecisionTri, x, y=None,
                    grid: GridSpec = DEFAULT_GRID,
                    m_max: int = 12) -> Optional[ReplayReport]:
    """Replay a decided verdict; None for Unknown (nothing to check)."""
    if tri.value is None:
        return None
    w = tri.witness
    net = nets._net(x) if y is None else nets.sub(nets._net(x), nets._net(y))
    if claim == "moderate":
        if tri.value:
            return replay_moderate(net, w.data[1], grid)
        return replay_growth_along(net, w.data[0], 12)
    if claim in ("negligible", "gn_equal"):
        if tri.value:
            return replay_negligible(net, m_max, grid)
        if w.kind == "lower-bound-along":
            seq, q, _ = w.data
            m_star = max(1, math.floor(q) + 1) if q is not None else 12
            return replay_growth_along(net, seq, m_star)
        # eventual lower bound: |x| >= eps**m_star below the threshold
        return replay_lower_eventual(net, w.data[1], w.data[2], grid)
    if claim == "strictly-nonzero":
        if tri.value:
            return replay_lower_eventual(net, w.data[1], w.data[2], grid)
        return replay_small_along(net, w.data[0], m_max)
    if claim == "leq":
        if tri.value:
            return replay_leq(x, y, w.data, grid)
        return replay_order_violation(x, y, w.data[0], w.data[1], grid)
    raise ValueError(f"unknown claim {claim!r}")


# --------------------------------------------------------------------------
# log-log regression
# --------------------------------------------------------------------------

def estimate_valuation(x, grid: GridSpec = DEFAULT_GRID) -> Tuple[float, float]:
    """Least-squares slope of log|x| vs log eps (with standard error)
    over grid points where the value is finite and nonzero."""
    v = _abs_on(nets._net(x), grid)
    keep = (0.0 < v) & (v < math.inf)
    if keep.sum() < 8:
        return (math.nan, math.inf)
    t = grid.logs()[keep]
    v = np.fromiter(map(math.log, v[keep].tolist()), float)
    n = len(t)
    tbar = t.mean()
    sxx = float(((t - tbar) ** 2).sum())
    slope = float(((t - tbar) * (v - v.mean())).sum() / sxx)
    icept = float(v.mean() - slope * tbar)
    res = v - (slope * t + icept)
    se = math.sqrt(float((res ** 2).sum()) / max(1, n - 2) / sxx)
    return (slope, se)


# --------------------------------------------------------------------------
# seeded random nets
# --------------------------------------------------------------------------

_LEAF_CONSTS = [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0]
_OSC_POWERS = [F(1), F(2), F(1, 2)]


def random_net(seed: int, tier: Tier = Tier.Smooth, depth: int = 3) -> NetExpr:
    """Deterministic tier-admissible random tree of depth <= depth.

    Distribution: leaves are constants, eps, oscillators and exp(-1/eps);
    interior nodes are ring operations, powers of eps, bump trains, and
    (per tier) abs/min/max/root or indicator/spike nodes.
    """
    rng = random.Random(f"gnum-random-net|{seed}|{int(tier)}|{depth}")
    return _gen(rng, tier, depth)


def _leaf(rng: random.Random, tier: Tier) -> NetExpr:
    k = rng.randrange(9)
    if k == 0:
        return nets.Const(rng.choice(_LEAF_CONSTS))
    if k in (1, 2):
        return nets.EPS
    if k == 3:
        return nets.SinRecipPow(rng.choice(_OSC_POWERS))
    if k == 4:
        return nets.CosRecipPow(rng.choice(_OSC_POWERS))
    if k == 5:
        return nets.ExpNegRecip()
    if k == 6:
        return nets.PowQ(nets.EPS, F(rng.choice([-3, -2, -1, 2, 3])))
    if k == 7:
        return nets.powq(nets.ExpNegRecip(), F(rng.choice([-1, 2])))
    return nets.PowQ(nets.EPS, F(rng.choice([1, 3]), 2))


def _schedule(rng: random.Random) -> SequenceRule:
    if rng.random() < 0.5:
        return Geometric(F(1, rng.choice([2, 3])))
    return Harmonic()


def _gen(rng: random.Random, tier: Tier, depth: int) -> NetExpr:
    if depth <= 0:
        return _leaf(rng, tier)
    hi = 12
    if tier >= Tier.Continuous:
        hi = 16
    if tier >= Tier.Arbitrary:
        hi = 18
    k = rng.randrange(hi)
    if k in (0, 1, 2):
        return nets.add(_gen(rng, tier, depth - 1), _gen(rng, tier, depth - 1))
    if k in (3, 4, 5):
        return nets.mul(_gen(rng, tier, depth - 1), _gen(rng, tier, depth - 1))
    if k == 6:
        return nets.neg(_gen(rng, tier, depth - 1))
    if k == 7:
        return nets.PowQ(nets.EPS, F(rng.choice([-3, -2, -1, 2, 3])))
    if k == 8:
        h = nets.ConstHeights(1.0) if rng.random() < 0.5 \
            else nets.DecayHeights(F(1), F(0))
        return nets.bump_train(_schedule(rng), heights=h)
    if k == 9:
        return nets.mul(nets.Const(rng.choice(_LEAF_CONSTS)),
                        _gen(rng, tier, depth - 1))
    if k in (10, 11):
        return _leaf(rng, tier)
    if k == 12:
        return nets.AbsNode(_gen(rng, tier, depth - 1))
    if k == 13:
        return nets.minn(_gen(rng, tier, depth - 1),
                         _gen(rng, tier, depth - 1))
    if k == 14:
        return nets.maxn(_gen(rng, tier, depth - 1),
                         _gen(rng, tier, depth - 1))
    if k == 15:
        return nets.RootN(nets.AbsNode(_gen(rng, tier, depth - 1)),
                          rng.choice([2, 3]))
    if k == 16:
        return nets.Indicator(_schedule(rng))
    return nets.SpikeTrain(Harmonic())
