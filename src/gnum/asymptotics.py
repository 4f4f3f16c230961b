"""Decision procedures for moderateness, negligibility, strict
nonzeroness, equality modulo negligibility, and the partial order.

Exact on the symbolic fragment (scale polynomials, lattice/abs
composites, oscillators and trains with computable value sequences);
three-valued elsewhere: an answer of Unknown means the engine refuses to
guess, never that the property fails.

True/False answers carry replayable witnesses; ``harness`` can verify
each witness kind numerically on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import List, Optional

import numpy as np

from . import nets, profiles
from .errors import SearchExhausted
from .nets import NetExpr, eval_points, is_real_net
from .profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, Env, along_lower,
                       along_small, candidate_sequences, enclose, info,
                       poly_nonneg, rat, rat_lower, rat_upper,
                       substitute_along)
from .scales import Poly
from .sequences import Geometric

F = Fraction


# --------------------------------------------------------------------------
# verdict and witness types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecord:
    """Replayable evidence for a True/False verdict.

    kinds:
      exponent-bound     data = (name, exponent, eps0)
      all-powers         data = (m_max_suggested,)
      lower-bound-along  data = (seq, q, c)
      small-along        data = (seq,)
      eventual-threshold data = ((a, eps0), ...)
      order-violation    data = (a, eps_example)
    """

    kind: str
    data: tuple = ()


@dataclass(frozen=True)
class DecisionTri:
    value: Optional[bool]           # True / False / None == Unknown
    witness: Optional[WitnessRecord] = None
    reason: str = ""

    @property
    def is_true(self) -> bool:
        return self.value is True

    @property
    def is_false(self) -> bool:
        return self.value is False

    @property
    def is_unknown(self) -> bool:
        return self.value is None

    def __repr__(self):
        tag = {True: "True", False: "False", None: "Unknown"}[self.value]
        extra = f" [{self.reason}]" if self.reason else ""
        return f"DecisionTri({tag}{extra})"


UNKNOWN = DecisionTri(None, reason="outside-fragment")


@dataclass(frozen=True)
class Valuation:
    """Sharp exponent sup{a : |x_eps| = O(eps^a)} on the power/exp
    fragment; the zero class (and every negligible net) maps to +inf."""

    kind: str                      # 'finite' | 'plus-infinity' | 'minus-infinity'
    v: Optional[Fraction] = None

    def __repr__(self):
        if self.kind == "finite":
            return f"Valuation({self.v})"
        return f"Valuation({'+inf' if self.kind == 'plus-infinity' else '-inf'})"


PLUS_INF = Valuation("plus-infinity")
MINUS_INF = Valuation("minus-infinity")


# --------------------------------------------------------------------------
# numeric calibration helpers (witness thresholds; claims stay symbolic)
# --------------------------------------------------------------------------

def _log_points(lo: float, hi: float, n: int) -> List[float]:
    """``lo * (hi / lo) ** (i / (n - 1))`` for i < n, by Python's ``**``."""
    steps = map(pow, repeat(hi / lo), map(truediv, range(n), repeat(n - 1)))
    return (lo * np.fromiter(steps, float, n)).tolist()


def _powers(pts: List[float], m: int) -> np.ndarray:
    """``e ** m`` at each point, by Python's ``**`` (numpy's power can
    round differently); raises where ``**`` does."""
    return np.fromiter(map(pow, pts, repeat(m)), float, len(pts))


def _last_passing(pts: List[float], ok: np.ndarray) -> Optional[float]:
    """The last point of the longest prefix of ``pts`` on which ``ok``
    holds; None when it fails at the first point."""
    k = len(pts) if ok.all() else int(np.argmin(ok))
    return pts[k - 1] if k else None


def _real_values(net: NetExpr, pts) -> np.ndarray:
    """The net at each point as float64, nan where it cannot be
    evaluated or is not a float (a real net's power can overflow to a
    complex infinity)."""
    v = eval_points(net, pts, fill=math.nan)
    if v.dtype == object:
        v = np.array([u if type(u) is float else math.nan for u in v])
    return v


def _first_violation(x: NetExpr, y: NetExpr, a: int,
                     pts: List[float]) -> Optional[float]:
    """First point of ``pts`` with x > y + eps**a; points where either
    side has no real value are skipped."""
    bad = _real_values(x, pts) > _real_values(y, pts) + _powers(pts, a)
    return pts[int(np.argmax(bad))] if bad.any() else None


def _bisect_sign_change(g, a: float, b: float,
                        rtol: float) -> Optional[float]:
    """A point between a < b where g changes sign, by bisection: a or b
    where g vanishes, None when g(a) and g(b) have the same sign, else
    the midpoint once g vanishes there, the bracket is below rtol*b or
    200 steps are done."""
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga < 0) == (gb < 0):
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm == 0.0 or (b - a) < rtol * b:
            return mid
        if (gm < 0) == (ga < 0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def _calibrate_lower(net: NetExpr, m: int) -> float:
    """Largest scan point below which |net| >= eps**m holds at every
    smaller scan point.  A point where the evaluator raises passes (it is
    filled with inf); a nan value fails, which ends the prefix.

    A dense second pass guards against narrow cancellation windows
    (e.g. a train edge crossing a power term) slipping between the
    coarse scan points."""
    def ok(pts):
        v = np.abs(eval_points(net, pts, fill=math.inf)).astype(float)
        return v >= _powers(pts, m)

    pts = _log_points(1e-6, 0.6, 160)
    good = _last_passing(pts, ok(pts))
    if good is None:
        return 1e-6
    pts = _log_points(1e-6, good, 1400)
    refined = _last_passing(pts, ok(pts))
    return refined if refined is not None else 1e-6


def _calibrate_leq(pts: List[float], vx: np.ndarray, vy: np.ndarray,
                   a: int) -> float:
    """Largest scan point below which x <= y + eps**a holds at every
    smaller scan point, from x and y on the scan (nan where a side has
    no real value, which ends the prefix)."""
    ay = np.abs(vy)
    # y = -inf: -inf + inf slack is nan; y near the largest float: the
    # slack overflows to inf, which compares correctly
    with np.errstate(invalid="ignore", over="ignore"):
        ok = vx <= vy + _powers(pts, a) + 1e-12 * np.where(ay > 1.0, ay, 1.0)
    good = _last_passing(pts, ok)
    return good if good is not None else 1e-6


# --------------------------------------------------------------------------
# the decision procedures
# --------------------------------------------------------------------------

_UP_RANK = {ZERO_K: 0, SUPERPOW: 1, POW: 2}


def _uppers(net: NetExpr):
    """Upper envelopes from both analyses, strongest first."""
    out = [e for e in (rat_upper(rat(net)), info(net).upper) if e is not None]
    out.sort(key=lambda e: (_UP_RANK.get(e.kind, 3),
                            e.q if e.kind == POW else 0))
    return out


def _lowers(net: NetExpr):
    """Lower envelopes from both analyses, strongest first."""
    out = [e for e in (rat_lower(rat(net)), info(net).lower) if e is not None]
    out.sort(key=lambda e: (0 if e.kind == SUPERGROW else 1,
                            -e.q if e.kind == POW else 0))
    return out


def _lower_along(net: NetExpr, kinds=(POW, SUPERGROW)):
    """(seq, env), a lower bound of |net| along seq: Info's first, of
    any kind, then the candidate sequences' of the given kinds, lazily."""
    i = info(net).lower_seq
    if i is not None:
        yield i.seq, i.env
    for seq in candidate_sequences(net):
        lo = along_lower(net, seq)
        if lo is not None and lo.kind in kinds:
            yield seq, lo


def _small_along(net: NetExpr):
    """The sequences along which |net| is below every power: Info's
    first, then the candidate sequences, lazily."""
    i = info(net).small_seq
    if i is not None:
        yield i.seq
    for seq in candidate_sequences(net):
        if along_small(net, seq) is not None:
            yield seq


def along_data(seq, env: Env) -> tuple:
    """Witness data (seq, q, c) of a lower bound c*eps**q along seq; q
    is None for a growth bound."""
    return (seq, env.q if env.kind == POW else None, env.c)


def is_moderate(x) -> DecisionTri:
    """Does |x_eps| stay below some power eps**-N as eps -> 0?"""
    net = nets._net(x)
    for up in _uppers(net):
        if up.kind in (ZERO_K, SUPERPOW):
            return DecisionTri(True, WitnessRecord("exponent-bound",
                                                   ("N", 0, 0.5)))
        if up.kind == POW:
            n_exp = max(0, math.ceil(-up.q))
            return DecisionTri(True, WitnessRecord("exponent-bound",
                                                   ("N", n_exp, 0.5)))
    lo = next(iter(_lowers(net)), None)
    if lo is not None and lo.kind == SUPERGROW:
        return DecisionTri(False, WitnessRecord("lower-bound-along",
                                                (Geometric(F(1, 2)), None, None)))
    seq = next((s for s, e in _lower_along(net) if e.kind == SUPERGROW), None)
    if seq is not None:
        return DecisionTri(False, WitnessRecord("lower-bound-along",
                                                (seq, None, None)))
    return UNKNOWN


def is_negligible(x) -> DecisionTri:
    """Does |x_eps| fall below every power eps**m as eps -> 0?"""
    net = nets._net(x)
    for up in _uppers(net):
        if up.kind in (ZERO_K, SUPERPOW):
            return DecisionTri(True, WitnessRecord("all-powers", (12,)))
    lo = next(iter(_lowers(net)), None)
    if lo is not None:
        if lo.kind == SUPERGROW:
            return DecisionTri(False, WitnessRecord(
                "lower-bound-along", (Geometric(F(1, 2)), None, lo.c)))
        m_star = max(1, math.floor(lo.q) + 1)
        return DecisionTri(False, WitnessRecord(
            "exponent-bound", ("m-fails", m_star,
                               _calibrate_lower(net, m_star))))
    hit = next(_lower_along(net), None)
    if hit is not None:
        return DecisionTri(False, WitnessRecord("lower-bound-along",
                                                along_data(*hit)))
    return UNKNOWN


def _lower_exponent(lo: Env) -> int:
    """An m with |x| >= eps**m eventually, from a lower envelope."""
    if lo.kind == SUPERGROW:
        return 1
    if lo.q.denominator == 1 and lo.c >= 1.0:
        return max(0, int(lo.q))
    return max(0, math.floor(lo.q) + 1)


def is_strictly_nonzero(x) -> DecisionTri:
    """|x_eps| >= eps**m eventually, for some m (= invertibility)."""
    net = nets._net(x)
    lo = next(iter(_lowers(net)), None)
    if lo is not None:
        m = _lower_exponent(lo)
        eps0 = _calibrate_lower(net, m)
        return DecisionTri(True, WitnessRecord("exponent-bound",
                                               ("m", m, eps0)))
    for up in _uppers(net):
        if up.kind in (ZERO_K, SUPERPOW):
            return DecisionTri(False, WitnessRecord(
                "small-along", (Geometric(F(1, 2)),)))
    seq = next(_small_along(net), None)
    if seq is not None:
        return DecisionTri(False, WitnessRecord("small-along", (seq,)))
    return UNKNOWN


def gn_equal(x, y) -> DecisionTri:
    """Equality in the quotient ring: is x - y negligible?"""
    return is_negligible(nets.sub(x, y))


def valuation(x) -> Optional[Valuation]:
    """Exact sharp exponent on the power/exp fragment; None if outside."""
    net = nets._net(x)
    r = rat(net).simplify()
    if r.num.is_zero():
        return PLUS_INF

    def lead_scale(p):
        groups = p.grouped_by_scale()
        (k, q), lead = groups[0]
        if len(lead) != 1 or lead[0][0]:
            return None
        for (k2, q2), terms in groups[1:]:
            for atoms, c2 in terms:
                e = profiles._term_upper((k2, q2, atoms), c2)
                if e is None or e.kind == SUPERGROW:
                    return None
                if e.kind == POW and (k > 0 or e.q <= q):
                    return None
        return (k, q)

    num_ld = lead_scale(r.num)
    den_ld = (F(0), F(0)) if r.is_poly() else lead_scale(r.den)
    if num_ld is None or den_ld is None:
        return None
    k_eff = num_ld[0] - den_ld[0]
    q_eff = num_ld[1] - den_ld[1]
    if k_eff > 0:
        return PLUS_INF
    if k_eff < 0:
        return MINUS_INF
    return Valuation("finite", q_eff)


def leq(x, y, a_max: int = 6) -> DecisionTri:
    """Partial order on real generalized numbers: r <= s iff for every
    a > 0, r_eps <= s_eps + eps**a for eps small enough."""
    xn, yn = nets._net(x), nets._net(y)
    if not (is_real_net(xn) and is_real_net(yn)):
        raise TypeError("leq is defined for real-valued nets")
    d = nets.sub(yn, xn)
    r = rat(d)
    if r.is_poly():
        R = _order_relevant(r.num)
        if R.is_zero():
            return DecisionTri(True, _leq_thresholds(xn, yn, a_max),
                               reason="equal-mod-negligible")
        if poly_nonneg(R):
            return DecisionTri(True, _leq_thresholds(xn, yn, a_max))
        sign, a_w = _lead_sign(R)
        if sign == 1:
            return DecisionTri(True, _leq_thresholds(xn, yn, a_max))
        if sign == -1:
            return DecisionTri(False, WitnessRecord(
                "order-violation", (a_w, _find_order_violation(xn, yn, a_w))))
    if enclose(d)[0] >= 0.0:
        return DecisionTri(True, _leq_thresholds(xn, yn, a_max),
                           reason="pointwise")
    # along-sequence refutation: if y - x is eventually bounded below a
    # strictly negative power along a computable sequence, the order
    # characterization fails cofinally at every larger exponent
    for seq in candidate_sequences(d):
        out = substitute_along(d, seq)
        if out is None:
            continue
        r2 = rat(out[0])
        if not r2.is_poly():
            continue
        sign, a_w = _lead_sign(_order_relevant(r2.num))
        if sign == -1:
            pt = _find_violation_on_seq(xn, yn, a_w, seq)
            if pt is not None:
                return DecisionTri(False, WitnessRecord("order-violation",
                                                        (a_w, pt)))
    return UNKNOWN


def _order_relevant(p: Poly) -> Poly:
    """The terms of p that are not below every power: the others are
    irrelevant for the order."""
    kept = {}
    for m, c in p.terms.items():
        e = profiles._term_upper(m, c)
        if e is None or e.kind not in (ZERO_K, SUPERPOW):
            kept[m] = c
    return Poly(kept)


def _find_violation_on_seq(x: NetExpr, y: NetExpr, a: int, seq) -> Optional[float]:
    """First of the sequence's points 1..63 in I with x > y + eps**a."""
    pts = []
    for j in range(1, 64):
        try:
            e = seq.value(j)
        except SearchExhausted:
            continue
        if 0 < e <= 1:
            pts.append(e)
    return _first_violation(x, y, a, pts)


def _lead_sign(R: Poly):
    """(sign of R's dominant scale group, exponent a at which a negative
    R refutes the order), or (None, None) when R has no lower envelope."""
    if profiles.poly_lower(R) is None:
        return None, None
    (k, q), lead = R.grouped_by_scale()[0]
    bound = profiles.group_bound(lead)
    return (None if bound is None else bound[0],
            max(1, math.floor(q) + 1) if k == 0 else 1)


def _leq_thresholds(x: NetExpr, y: NetExpr, a_max: int) -> WitnessRecord:
    pts = _log_points(1e-6, 0.9, 160)
    vx, vy = _real_values(x, pts), _real_values(y, pts)
    data = tuple((a, _calibrate_leq(pts, vx, vy, a))
                 for a in range(1, a_max + 1))
    return WitnessRecord("eventual-threshold", data)


def _find_order_violation(x: NetExpr, y: NetExpr, a: int) -> Optional[float]:
    """First scan point with x > y + eps**a."""
    return _first_violation(x, y, a, _log_points(1e-6, 0.9, 200))
