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

import cmath
import math
from fractions import Fraction
from itertools import repeat
from operator import truediv
from typing import Callable, Iterable, Optional

import numpy as np

from . import nets, profiles
from .errors import SearchExhausted
from .nets import Mul, NetExpr, eval_points, is_real_net, nonneg_net
from .profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, Env, along_lower,
                       along_small, candidate_sequences, enclose, info,
                       poly_nonneg, rat, rat_lower, rat_upper,
                       substitute_along)
from .records import Record
from .scales import Poly
from .sequences import Geometric

F = Fraction


# --------------------------------------------------------------------------
# verdict and witness types
# --------------------------------------------------------------------------

class WitnessRecord(Record):
    """Replayable evidence for a True/False verdict.

    kinds:
      exponent-bound     data = (name, exponent, eps0)
      all-powers         data = (m_max_suggested,)
      lower-bound-along  data = (seq, q, c)
      small-along        data = (seq,)
      eventual-threshold data = ((a, eps0), ...)
      order-violation    data = (a, eps_example)

    ``data`` may be a function of no arguments: a threshold scan that no
    verdict depends on.  The first read of ``data`` (by ``repr``, ``==``,
    ``hash`` or a replay) calls it and stores its tuple in its place, so
    a caller that reads only the verdict pays for no scan.  A scan raises
    nothing: it evaluates with the inf and nan fills of ``eval_points``,
    whose vector rules run under ``np.errstate``.
    """

    kind: str
    data: tuple = ()

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name == "data" and callable(value):
            value = value()
            object.__setattr__(self, "data", value)
        return value

    def __reduce__(self):           # a pickle holds data, not its scan
        return WitnessRecord, (self.kind, self.data)


class DecisionTri(Record):
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


class Valuation(Record):
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

class Scan:
    """Points from ``build()`` (or a subclass's ``_build``), their
    ``e ** m`` by Python's ``**`` (numpy's power can round differently;
    it raises where ``**`` does) and ``math.log``, kept at first use."""

    def __init__(self, build: Callable[[], Iterable[float]]):
        self._build = build

    @staticmethod
    def log(lo: float, hi: float, n: int) -> Scan:
        """``lo * (hi / lo) ** (i / (n - 1))`` for i < n, by ``**``."""
        return Scan(lambda: lo * np.fromiter(map(pow, repeat(hi / lo), map(
            truediv, range(n), repeat(n - 1))), float, n))

    def _stored(self, key, make) -> np.ndarray:
        store = self.__dict__.setdefault("_arrays", {})
        if key not in store:
            store[key] = np.fromiter(make(), float)
            store[key].flags.writeable = False
        return store[key]

    def points(self) -> np.ndarray:
        return self._stored("points", self._build)

    def powers(self, m: int) -> np.ndarray:
        return self._stored(m, lambda: map(pow, self.points().tolist(),
                                           repeat(m)))

    def logs(self) -> np.ndarray:
        return self._stored("logs", lambda: map(math.log,
                                                self.points().tolist()))


# the fixed scans of _calibrate_lower, leq and _product_thresholds
_LOWER_SCAN, _LOWER_DENSE = (Scan.log(1e-6, 0.6, n) for n in (160, 1400))
_LEQ_SCAN, _VIOLATION_SCAN = Scan.log(1e-6, 0.9, 160), Scan.log(1e-6, 0.9, 200)
_PRODUCT_SCAN = Scan(lambda: (10.0 ** (-6 + 5.7 * i / 239)
                              for i in range(240)))


def _last_passing(pts: np.ndarray, ok: np.ndarray) -> float:
    """The last point of the longest prefix of ``pts`` on which ``ok``
    holds; 1e-6 when it fails at the first point."""
    k = len(pts) if ok.all() else int(np.argmin(ok))
    return float(pts[k - 1]) if k else 1e-6


def _real_values(net: NetExpr, pts) -> np.ndarray:
    """The net at each point as float64, nan where it cannot be
    evaluated or is not a float (a real net's power can overflow to a
    complex infinity)."""
    v = eval_points(net, pts, fill=math.nan)
    if v.dtype == object:
        v = np.array([u if type(u) is float else math.nan for u in v])
    return v


def _first_violation(x: NetExpr, y: NetExpr, a: int,
                     scan: Scan) -> Optional[float]:
    """First point of the scan with x > y + eps**a; points where either
    side has no real value are skipped."""
    pts = scan.points()
    bad = _real_values(x, pts) > _real_values(y, pts) + scan.powers(a)
    return float(pts[int(np.argmax(bad))]) if bad.any() else None


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
    def last_passing(scan):
        v = np.abs(eval_points(net, scan.points(), fill=math.inf))
        return _last_passing(scan.points(), v.astype(float) >= scan.powers(m))

    good = last_passing(_LOWER_SCAN)
    if good == 1e-6:    # the scan's first point: a dense pass gives it too
        return good
    return last_passing(_LOWER_DENSE if good == 0.6
                        else Scan.log(1e-6, good, 1400))


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
    if not net._facts.finite:
        return DecisionTri(None, reason="non-finite")
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
    if not net._facts.finite:
        return DecisionTri(None, reason="non-finite")
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
            "exponent-bound",
            lambda: ("m-fails", m_star, _calibrate_lower(net, m_star))))
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
    if not net._facts.finite:
        return DecisionTri(None, reason="non-finite")
    lo = next(iter(_lowers(net)), None)
    if lo is not None:
        m = _lower_exponent(lo)
        return DecisionTri(True, WitnessRecord(
            "exponent-bound", lambda: ("m", m, _calibrate_lower(net, m))))
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
        if len(lead) != 1 or lead[0][0] or not cmath.isfinite(lead[0][1]):
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
    if not (xn._facts.finite and yn._facts.finite):
        return DecisionTri(None, reason="non-finite")
    holds = WitnessRecord("eventual-threshold",
                          lambda: _leq_thresholds(xn, yn, a_max))
    d = nets.sub(yn, xn)
    r = rat(d)
    if r.is_poly():
        R = _order_relevant(r.num)
        if R.is_zero():
            return DecisionTri(True, holds, reason="equal-mod-negligible")
        if poly_nonneg(R):
            return DecisionTri(True, holds)
        sign, a_w = _lead_sign(R)
        if sign == 1:
            return DecisionTri(True, holds)
        if sign == -1:
            return DecisionTri(False, WitnessRecord(
                "order-violation",
                lambda: (a_w, _find_order_violation(xn, yn, a_w))))
    if enclose(d)[0] >= 0.0:
        return DecisionTri(True, holds, reason="pointwise")
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
    # scaled bound: y = k*z with k >= 1 and z >= 0 on I (k is real, as y
    # is) gives z <= y on I, so x <= z gives x <= y
    if isinstance(yn, Mul) and enclose(yn.l)[0] >= 1.0 and \
            nonneg_net(yn.r) and leq(xn, yn.r, a_max).is_true:
        return DecisionTri(True, holds, reason="scaled-bound")
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
    return _first_violation(x, y, a, Scan(lambda: pts))


def _lead_sign(R: Poly):
    """(sign of R's dominant scale group, exponent a at which a negative
    R refutes the order), or (None, None) when R has no lower envelope."""
    if profiles.poly_lower(R) is None:
        return None, None
    (k, q), lead = R.grouped_by_scale()[0]
    bound = profiles.group_bound(lead)
    return (None if bound is None else bound[0],
            max(1, math.floor(q) + 1) if k == 0 else 1)


def _leq_thresholds(x: NetExpr, y: NetExpr, a_max: int) -> tuple:
    """((a, eps0) for a = 1..a_max): eps0 is the largest scan point below
    which x <= y + eps**a holds at every smaller scan point (1e-6 when
    none is); a point where a side has no real value (nan) ends that."""
    pts = _LEQ_SCAN.points()
    vx, vy = _real_values(x, pts), _real_values(y, pts)
    ay = np.abs(vy)
    slack = 1e-12 * np.where(ay > 1.0, ay, 1.0)
    # y = -inf: -inf + inf slack is nan; y near the largest float: the
    # sum overflows to inf, which compares correctly
    with np.errstate(invalid="ignore", over="ignore"):
        return tuple((a, _last_passing(pts, vx <= vy + _LEQ_SCAN.powers(a)
                                       + slack)) for a in range(1, a_max + 1))


def _find_order_violation(x: NetExpr, y: NetExpr, a: int) -> Optional[float]:
    """First scan point with x > y + eps**a."""
    return _first_violation(x, y, a, _VIOLATION_SCAN)
