"""Executable witnesses for the ring-structure theorems: idempotent
classification, zero divisors, Gelfand pairs, annihilator splits,
characteristic sets, and restriction/invertibility along a sequence.

Each construction returns nets (not just verdicts) whose defining
inequalities replay numerically on a grid; infinite objects are
materialized lazily (an explicit prefix plus a recorded rule).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import nets
from .asymptotics import (DecisionTri, UNKNOWN, WitnessRecord,
                          _PRODUCT_SCAN, _bisect_sign_change, _last_passing,
                          _lower_exponent, along_data, gn_equal, is_moderate,
                          is_negligible, is_strictly_nonzero)
from .errors import PreconditionError, SearchExhausted
from .nets import (AnnihilatorTransition, Const, ConstHeights,
                   GelfandFactor, GNumber, Indicator, NetExpr, ShrunkWidths,
                   SmallCert, Tier, eval_net, eval_points, gnumber,
                   iter_nodes, unfill)
from .profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, along_lower,
                       along_small, info, rat)
from .sequences import Geometric, Midpoints, SequenceRule

F = Fraction


def _is_zero_net(net: NetExpr) -> bool:
    return rat(net).num.is_zero()


# --------------------------------------------------------------------------
# idempotents
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdemVerdict:
    """verdict: 'zero' | 'one' | 'not-idempotent' |
    'nontrivial-idempotent' | 'unknown'."""

    verdict: str
    s: Optional[SequenceRule] = None
    reason: str = ""


def idempotent_classify(u) -> IdemVerdict:
    """Classify a solution of u^2 = u.

    In the smooth and continuous tiers the only idempotents are the
    classes of 0 and 1 (decided by testing which of |u|, |u-1| is
    negligible once u^2 - u is); characteristic-function nets in the
    arbitrary tier are the nontrivial ones.
    """
    gu = nets._gn(u)
    net = gu.net
    if gu.tier == Tier.Arbitrary:
        for node in iter_nodes(net):
            if isinstance(node, Indicator):
                return IdemVerdict("nontrivial-idempotent", node.s)
    d = nets.sub(nets.mul(net, net), net)
    tri = is_negligible(d)
    if tri.is_false:
        return IdemVerdict("not-idempotent")
    if tri.is_unknown:
        return IdemVerdict("unknown", reason="u^2 - u undecided: " + tri.reason)
    t0 = is_negligible(net)
    if t0.is_true:
        return IdemVerdict("zero")
    t1 = is_negligible(nets.sub(net, Const(1.0)))
    if t1.is_true:
        return IdemVerdict("one")
    if t0.is_unknown or t1.is_unknown:
        return IdemVerdict("unknown", reason="0/1 dichotomy undecided")
    return IdemVerdict("unknown", reason="idempotent but neither 0 nor 1 "
                                         "certified (should not happen in "
                                         "smooth/continuous tiers)")


# --------------------------------------------------------------------------
# zero divisors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroDivisorReport:
    s: GNumber
    zero_sequence: SequenceRule
    unit_points: Tuple[Tuple[float, float], ...]  # (eps_j, s(eps_j))
    widths: Tuple[float, ...]


def construct_zero_divisor(r) -> ZeroDivisorReport:
    """A nonzero s with r*s = 0, for non-invertible r.

    Unit-height bumps are centered on a sequence where |r| falls below
    every power; each of the first 16 widths is halved (at most 300
    times) until |r| < eps**(j/2) holds on sampled support points, and
    the tail follows the recorded width rule
    w_j = min(gap/4, eps_j**(j/2+2)).
    """
    gr = nets._gn(r)
    rnet = gr.net
    tri = is_strictly_nonzero(rnet)
    if tri.is_true:
        raise PreconditionError("r is invertible; no zero divisor exists")
    if tri.is_unknown:
        raise PreconditionError(
            "strict nonzeroness of r is undecided; refusing to construct")
    if _is_zero_net(rnet):
        s = gnumber(Const(1.0))
        return ZeroDivisorReport(s, Geometric(F(1, 2)), (), ())
    assert tri.witness is not None and tri.witness.kind == "small-along"
    seq = tri.witness.data[0]
    cs = seq.values(16)
    hs = [max(c * 1e-8, 1e-300) for c in cs]
    pts = [p for c, h in zip(cs, hs) for p in (c, min(1.0, c + h), c - h)]
    vals = eval_points(rnet, pts, fill=math.nan).tolist()
    widths = []
    for j in range(1, 17):
        c, h = seq.value(j), hs[j - 1]
        # stop materializing once the required bound falls below what
        # double precision can resolve near the zero; the recorded tail
        # width rule covers the remaining indices
        vc, vr, vl = (abs(unfill(rnet, pts[i], vals[i]))
                      for i in range(3 * j - 3, 3 * j))
        slope = max(abs(vr - vc), abs(vl - vc)) / h
        noise_floor = (slope + 1.0) * c * 2.0 ** -52 * 64.0
        if c ** (0.5 * j) < noise_floor and j > 4:
            break
        gap_w = 0.25 * min(seq.gap(j), (seq.value(j - 1) - c) if j > 1
                           else (1.0 - c) if c < 1.0 else seq.gap(j))
        w = gap_w
        target_exp = 0.5 * j
        ok = False
        for _ in range(300):
            if w <= 0.0:
                break
            samples = [c - 0.9 * w, c - 0.5 * w, c, c + 0.5 * w, c + 0.9 * w]
            bound = min((c - w) ** target_exp, (c + w) ** target_exp)
            if all(abs(eval_net(rnet, p)) < bound
                   for p in samples if 0 < p <= 1):
                ok = True
                break
            w *= 0.5
        if not ok:
            raise SearchExhausted(
                f"could not shrink bump {j} to satisfy |r| < eps^(j/2)",
                detail={"j": j, "center": c})
        widths.append(w)
    small = info(rnet).small_seq
    tail_sound = small is not None and small.seq == seq and \
        small.env.kind in (ZERO_K, SUPERPOW)
    if not tail_sound:
        up = info(rnet).upper
        tail_sound = up is not None and up.kind in (ZERO_K, SUPERPOW)
    n_mat = len(widths)
    cert = SmallCert(rnet, F(1, 2), F(0), n_mat, tail_sound)
    snet = nets.bump_train(
        seq, widths=ShrunkWidths(tuple(widths), F(1, 2), F(2)),
        heights=ConstHeights(1.0), small_cert=cert,
        check=min(64, n_mat + 32))
    s = GNumber(snet, Tier.Smooth)
    unit_pts = tuple(zip(cs[:n_mat], eval_points(snet, cs[:n_mat]).tolist()))
    return ZeroDivisorReport(s, seq, unit_pts, tuple(widths))


# --------------------------------------------------------------------------
# Gelfand pairs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GelfandWitnesses:
    r: GNumber
    s: GNumber
    a: GNumber
    b_normalized: GNumber

    def product_net(self) -> NetExpr:
        """(1 + a r)(1 + b s); identically zero on I."""
        one = Const(1.0)
        f1 = nets.add(one, nets.mul(self.a.net, self.r.net))
        f2 = nets.add(one, nets.mul(self.b_normalized.net, self.s.net))
        return nets.mul(f1, f2)


def gelfand_witnesses(a, b) -> GelfandWitnesses:
    """r, s with (1 + a r)(1 + b s) = 0 pointwise, for a + b = 1.

    b is replaced by the representative 1 - a, so a_eps + b_eps = 1 holds
    exactly; then wherever |a_eps| >= 1/2 the first factor vanishes and
    wherever |a_eps| < 1/2 (so |b_eps| > 1/2) the second does.  Both
    factors are bounded by 4 and smooth when a is.
    """
    ga, gb = nets._gn(a), nets._gn(b)
    pre = gn_equal(nets.add(ga.net, gb.net), Const(1.0))
    if not pre.is_true:
        raise PreconditionError(f"a + b = 1 not certified: {pre}")
    b_norm = nets.sub(Const(1.0), ga.net)
    r = GelfandFactor(ga.net)
    s = GelfandFactor(b_norm)
    tier = max(ga.tier, gb.tier)
    return GelfandWitnesses(GNumber(r, tier), GNumber(s, tier),
                            ga, GNumber(b_norm, ga.tier))


# --------------------------------------------------------------------------
# annihilator splits (normality)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnihilatorSplit:
    x: GNumber
    eta_scale: float


def annihilator_split(r, s) -> AnnihilatorSplit:
    """x with r*x = 0 and s*(1-x) = 0, given r*s = 0.

    x is a smooth-step transition between the regions |r| < |s| + eta
    and |r| > |s| - eta, with eta a positive net below eps**(m+N) on the
    dyadic band where |r*s| < eps**m holds.
    """
    gr, gs = nets._gn(r), nets._gn(s)
    pre = gn_equal(nets.mul(gr.net, gs.net), Const(0.0))
    if not pre.is_true:
        raise PreconditionError(f"r*s = 0 not certified: {pre}")
    if _is_zero_net(gr.net):
        return AnnihilatorSplit(gnumber(Const(1.0)), 1.0)
    if _is_zero_net(gs.net):
        return AnnihilatorSplit(gnumber(Const(0.0)), 1.0)
    n_bound = 0
    for g in (gr, gs):
        tri = is_moderate(g.net)
        if tri.is_true and tri.witness is not None:
            n_bound = max(n_bound, tri.witness.data[1])
        else:
            n_bound = max(n_bound, 6)
    # calibrate c0 <= eps^(m+N) * e^(1/eps) on the bands eps ~ 2^-m
    log_c0 = 0.0
    for m in range(1, 42):
        e = 2.0 ** (-m)
        log_c0 = min(log_c0, (m + n_bound) * math.log(e) + 1.0 / e)
    c0 = max(1e-8, min(1.0, 0.5 * math.exp(min(0.0, log_c0))))
    x = AnnihilatorTransition(gr.net, gs.net, c0)
    return AnnihilatorSplit(GNumber(x, max(Tier.Continuous, gr.tier,
                                           gs.tier)), c0)


# --------------------------------------------------------------------------
# characteristic sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicSet:
    """Strictly decreasing points with |r| = |s| < eps**((m+2(i-1))/2)
    at the i-th point; the tail continues by the recorded search."""

    points: SequenceRule
    order_schedule: Tuple[Fraction, ...]


def _nonzero_source(net: NetExpr) -> Tuple[SequenceRule, int]:
    """(sequence where |net| is provably not small, exponent K)."""
    tri = is_negligible(net)
    if not tri.is_false:
        raise PreconditionError("net must be certified non-negligible")
    w = tri.witness
    if w.kind == "lower-bound-along":
        seq, q, _c = w.data
        k_exp = max(1, math.floor(q) + 1) if q is not None else 1
        return seq, k_exp
    # eventual lower bound: any sequence below the threshold works
    m_star = w.data[1]
    return Geometric(F(1, 2)), max(1, m_star)


def _product_thresholds(rs: NetExpr, m: int):
    """Largest scan points below which |r*s| < eps**m, eps**(m + 2), ...
    holds (1e-6 where none is); |r*s| is evaluated once, at the first."""
    pts = _PRODUCT_SCAN.points()
    # evaluated from the top, so an error is the one the largest point raises
    v = np.abs(eval_points(rs, pts[::-1])).astype(float)[::-1]
    for m_i in itertools.count(m, 2):
        yield _last_passing(pts, v < _PRODUCT_SCAN.powers(m_i))


def _charset_points(rnet: NetExpr, snet: NetExpr, k_exp: int,
                    seq_r: SequenceRule, seq_s: SequenceRule,
                    n_points: int) -> List[float]:
    m = 2 * k_exp
    thresholds = _product_thresholds(nets.mul(rnet, snet), m)
    (r_r, s_r), (r_s, s_s) = (
        [eval_points(n, pts, fill=math.nan).tolist() for n in (rnet, snet)]
        for pts in (seq_r.values(399), seq_s.values(399)))
    points: List[float] = []
    prev = 1.0
    for i in range(1, n_points + 1):
        m_i = m + 2 * (i - 1)
        thr = min(prev * 0.99, 1.0 / (i + 1), next(thresholds) * 0.9)
        found = None
        for jr in range(1, 400):
            pr = seq_r.value(jr)
            if pr >= thr or pr <= 0:
                continue
            if abs(unfill(rnet, pr, r_r[jr - 1])) <= \
                    abs(unfill(snet, pr, s_r[jr - 1])):
                continue
            # nearest s-anchor below the threshold bracketing the crossing
            for js in range(1, 400):
                ps = seq_s.value(js)
                if ps >= thr or ps <= 0:
                    continue
                if abs(unfill(snet, ps, s_s[js - 1])) <= \
                        abs(unfill(rnet, ps, r_s[js - 1])):
                    continue
                lo, hi = min(pr, ps), max(pr, ps)
                root = _bisect_sign_change(
                    lambda e: abs(eval_net(rnet, e)) - abs(eval_net(snet, e)),
                    lo, hi, 1e-18)
                if root is None:
                    continue
                bound = root ** (0.5 * m_i)
                if abs(eval_net(rnet, root)) < bound and \
                        abs(eval_net(snet, root)) < bound:
                    found = root
                    break
            if found is not None:
                break
        if found is None:
            raise SearchExhausted(
                f"no characteristic point below {thr:g} for index {i}",
                detail={"index": i, "threshold": thr})
        points.append(found)
        prev = found
    return points


@dataclass(frozen=True)
class CharsetPoints(SequenceRule):
    """The points found by ``_charset_points``; an index outside the
    found prefix raises ``SearchExhausted``."""

    points: Tuple[float, ...]

    def value(self, j: int) -> float:
        if not 1 <= j <= len(self.points):
            raise SearchExhausted(f"no charset point at index {j}")
        return self.points[j - 1]

    def index_near(self, eps: float) -> int:
        for i, p in enumerate(self.points):
            if p <= eps:
                return max(1, i)
        return len(self.points)


def characteristic_set(r, s, n_points: int = 16) -> CharacteristicSet:
    """Points eps_1 > eps_2 > ... -> 0 where |r| = |s| with the bound
    |r| < eps**((m+2(i-1))/2), for nonzero r, s with r*s = 0.

    Located by bisection of |r| - |s| between anchors where each factor
    dominates, inside the region where |r*s| < eps**(m+2(i-1)) already
    holds; the proof's induction then gives the stated bound at the
    crossing.  Arbitrary-tier inputs are refused (no intermediate-value
    step is available there).
    """
    gr, gs = nets._gn(r), nets._gn(s)
    if max(gr.tier, gs.tier) >= Tier.Arbitrary:
        raise PreconditionError(
            "characteristic_set needs continuous |r|, |s|; arbitrary-tier "
            "inputs are refused")
    pre = gn_equal(nets.mul(gr.net, gs.net), Const(0.0))
    if not pre.is_true:
        raise PreconditionError(f"r*s = 0 not certified: {pre}")
    seq_r, kr = _nonzero_source(gr.net)
    seq_s, ks = _nonzero_source(gs.net)
    k_exp = max(kr, ks)
    m = 2 * k_exp
    pts = _charset_points(gr.net, gs.net, k_exp, seq_r, seq_s, n_points)
    rule = CharsetPoints(tuple(pts))
    schedule = tuple(F(m + 2 * (i - 1), 2) for i in range(1, n_points + 1))
    return CharacteristicSet(rule, schedule)


# --------------------------------------------------------------------------
# restriction and invertibility along a characteristic set
# --------------------------------------------------------------------------

def restriction_zero(r, S: SequenceRule) -> DecisionTri:
    """r|_S = 0: for every m, |r_eps| < eps**m on S near 0."""
    net = nets._gn(r).net
    sm = along_small(net, S)
    if sm is not None:
        return DecisionTri(True, WitnessRecord("small-along", (S,)))
    lo = along_lower(net, S)
    if lo is not None and lo.kind in (POW, SUPERGROW):
        return DecisionTri(False, WitnessRecord("lower-bound-along",
                                                along_data(S, lo)))
    return UNKNOWN


def invertible_wrt(r, S: SequenceRule) -> DecisionTri:
    """Invertibility with respect to S (= strict nonzeroness along S):
    |r_eps| >= eps**m eventually on S, for some m."""
    net = nets._gn(r).net
    lo = along_lower(net, S)
    if lo is not None and lo.kind in (POW, SUPERGROW):
        return DecisionTri(True, WitnessRecord(
            "exponent-bound", ("m-along", _lower_exponent(lo), 0.5)))
    sm = along_small(net, S)
    if sm is not None:
        return DecisionTri(False, WitnessRecord("small-along", (S,)))
    return UNKNOWN


# --------------------------------------------------------------------------
# corpus helper: interleaved disjoint unit bump trains
# --------------------------------------------------------------------------

def interleaved_trains(ratio: Fraction = F(1, 4)) -> Tuple[GNumber, GNumber]:
    """Two unit bump trains with interleaved, pairwise disjoint supports
    (their product is the exact zero net)."""
    base = Geometric(ratio)
    t1 = nets.bump_train(base)
    t2 = nets.bump_train(Midpoints(base))
    return gnumber(t1), gnumber(t2)
