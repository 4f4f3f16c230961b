"""Finitely generated ideal algebra: principal reduction, intersection,
membership, powers, radicals, and radicality of principal ideals.

Membership y in x*R is three-valued.  True answers come with a moderate
witness a such that a*x = y up to negligibility, built from (in order)
a structural factor, exact division in the normal form, or a
Tikhonov-regularized quotient justified by a domination bound
|y| <= C * eps**-M * |x|; each candidate witness is replayed numerically
before the answer is committed.  False answers need a forcing argument:
a located sequence where x is below every power while y keeps power
size, so no moderate multiple of x can track y.  Everything else is
Unknown.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from . import nets
from .asymptotics import (DecisionTri, UNKNOWN, WitnessRecord,
                          _bisect_sign_change, _lower_along, _small_along,
                          along_data, is_negligible, is_strictly_nonzero,
                          leq)
from .errors import PreconditionError
from .harness import GridSpec, replay_negligible_diff
from .lattice import gabs, gmax, gmin
from .nets import (AbsFactor, AbsNode, Const, GNumber, Indicator, Mul, Neg,
                   NetExpr, RegularizedQuotient, RootN, Tier,
                   absn, eval_net, eval_points, nonneg_net, rootn, unfill)
from .profiles import (POW, SUPERGROW, SUPERPOW, ZERO_K, _rat_abs,
                       along_lower, along_small, candidate_sequences,
                       canonical_net, info, poly_upper, rat, rat_lower,
                       rat_upper)
from .records import Record
from .scales import RatForm

F = Fraction

_REPLAY_GRID = GridSpec(n_points=240, eps_min=1e-5)


class FinIdeal(Record):
    """Finitely generated ideal, as its generator list."""

    generators: Tuple[GNumber, ...]

    def __post_init__(self):
        if not self.generators:
            raise PreconditionError("an ideal needs at least one generator")


class RootFamilyIdeal(Record):
    """Truncation of the radical of a principal ideal: the ideal
    generated by the roots |s|**(1/n) for n <= root_cap."""

    base: GNumber
    root_cap: int = 8


# --------------------------------------------------------------------------
# principal reduction and intersection
# --------------------------------------------------------------------------

def principal_reduce(J: FinIdeal) -> GNumber:
    """The sum-of-absolute-values generator |g1| + |g2| + ... of J."""
    out = gabs(J.generators[0], resmooth=False)
    for g in J.generators[1:]:
        out = nets.g_add(out, gabs(g, resmooth=False))
    return out


def principal_forms(J: FinIdeal) -> Tuple[GNumber, GNumber]:
    """(sum form, max form); the two generate the same ideal."""
    sum_form = principal_reduce(J)
    max_form = gabs(J.generators[0], resmooth=False)
    for g in J.generators[1:]:
        max_form = gmax(max_form, gabs(g, resmooth=False), resmooth=False)
    return sum_form, max_form


def intersect_principal(x, y) -> GNumber:
    """Generator of x*R intersect y*R: min(|x|, |y|)."""
    return gmin(gabs(nets._gn(x), resmooth=False),
                gabs(nets._gn(y), resmooth=False), resmooth=False)


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def _strip_negs(net: NetExpr) -> Tuple[NetExpr, float]:
    sign = 1.0
    while isinstance(net, Neg):
        net = net.x
        sign = -sign
    return net, sign


def _characteristic_core(net: NetExpr) -> Optional[NetExpr]:
    """e when net is e under any nesting of abs and roots, for a
    characteristic net e (values 0 and 1, so |e|**(1/n) = e exactly);
    None otherwise."""
    while isinstance(net, (AbsNode, RootN)):
        net = net.x
    return net if isinstance(net, Indicator) else None


def _structural_factor(y: NetExpr, x: NetExpr) -> Optional[NetExpr]:
    yy, sign = _strip_negs(y)
    if yy == x:
        return Const(sign)
    core = _characteristic_core(yy)
    if core is not None and core == _characteristic_core(x):
        return Const(sign)
    if isinstance(yy, Mul):
        if yy.l == x:
            return nets.mul(Const(sign), yy.r) if sign != 1.0 else yy.r
        if yy.r == x:
            return nets.mul(Const(sign), yy.l) if sign != 1.0 else yy.l
    return None


def _exact_quotient(y: NetExpr, x: NetExpr, use_abs: bool) -> Optional[NetExpr]:
    """a with rat(a) = rat(y)/rat(x) when the division is exact and the
    quotient is a moderate polynomial."""
    ry = _rat_abs(y) if use_abs else rat(y)
    rx = _rat_abs(x) if use_abs else rat(x)
    if rx.num.is_zero():
        return None
    q = RatForm(ry.num.mul(rx.den), ry.den.mul(rx.num)).simplify()
    if not q.is_poly() or q.num.is_zero():
        return None
    if poly_upper(q.num) is None:
        return None  # not certifiably moderate
    return canonical_net(q.num)


def _phase(net: NetExpr, inverse: bool) -> Optional[NetExpr]:
    """Factor p with p * net = |net|, or with p * |net| = net when
    inverse, mod negligibility (None = identity)."""
    if nonneg_net(net):
        return None
    return AbsFactor(net, inverse=inverse)


def _compose_witness(parts: List[Optional[NetExpr]]) -> NetExpr:
    real = [p for p in parts if p is not None]
    if not real:
        return Const(1.0)
    out = real[0]
    for p in real[1:]:
        out = nets.mul(out, p)
    return out


def _replay_witness(a: NetExpr, x: NetExpr, y: NetExpr) -> bool:
    """Numeric sanity check of a membership witness: |a*x - y| must fall
    below every tested power up to eps**8, up to the evaluator's
    rounding floor."""
    return bool(replay_negligible_diff(nets.mul(a, x), y, 8, _REPLAY_GRID))


def _envelope_bound(y_abs: NetExpr, x_abs: NetExpr
                    ) -> Optional[Tuple[float, int]]:
    """(C, M) with |y| <= C * eps**-M * |x| for eps small enough, read off
    the envelopes |y| <= c1 * eps**q1 and |x| >= c2 * eps**q2: C = 2*c1/c2
    and M = max(0, ceil(q2 - q1)), or (1, 0) when |x| is above every
    power.  None when the envelopes give no finite C."""
    up = rat_upper(rat(y_abs)) or info(y_abs).upper
    lo = rat_lower(rat(x_abs)) or info(x_abs).lower
    if up is None or lo is None or up.kind not in (ZERO_K, SUPERPOW, POW):
        return None
    if lo.kind == SUPERGROW:
        return 1.0, 0
    if lo.kind == POW and up.kind == POW and lo.c > 0.0:
        C = 2.0 * up.c / lo.c
        if math.isfinite(C):
            return C, max(0, math.ceil(lo.q - up.q))
    return None


def _domination_bound(x_abs: NetExpr, C: float, M: int) -> NetExpr:
    """The net C * eps**-M * |x|, as eps**-1 * (... * (C * |x|)), so that
    the scaled-bound rule of `leq` peels one factor at a time."""
    out = nets.mul(Const(C), x_abs)
    for _ in range(M):
        out = nets.mul(nets.powq(nets.EPS, -1), out)
    return out


def _forcing(y: NetExpr, x: NetExpr, seqs) -> Optional[DecisionTri]:
    """False, witnessed by the first of seqs along which x is below every
    power while y keeps power size; None when there is none."""
    for seq in seqs:
        if along_small(x, seq) is None:
            continue
        loy = along_lower(y, seq)
        if loy is not None and loy.kind in (POW, SUPERGROW):
            return DecisionTri(False, WitnessRecord("membership-forcing",
                                                    along_data(seq, loy)))
    return None


def _witnesses(ynet: NetExpr, xnet: NetExpr):
    """Candidate factors a with a*x = y mod negligibility, cheapest first,
    each with the reason a True answer reports (None: no candidate).

    The domination route: any bound |y| <= C * eps**-M * |x| makes the
    regularized quotient of |y| by |x| a moderate witness, with C only as
    its clamp at M = 0.  The envelope bound asks `leq` nothing; then `leq`
    is asked once, for 8 * eps**-2 * |x|.
    """
    yield _structural_factor(ynet, xnet), ""
    yield _exact_quotient(ynet, xnet, use_abs=False), ""
    b = _exact_quotient(ynet, xnet, use_abs=True)
    if b is not None:
        yield _compose_witness([_phase(ynet, True), b, _phase(xnet, False)]), ""
    y_abs = ynet if nonneg_net(ynet) else absn(ynet)
    x_abs = xnet if nonneg_net(xnet) else absn(xnet)

    def dominated(C, M):
        b = RegularizedQuotient(y_abs, x_abs, C if M == 0 else None)
        return (_compose_witness([_phase(ynet, True), b, _phase(xnet, False)]),
                f"dominated C={C} M={M}")

    env = _envelope_bound(y_abs, x_abs)
    if env is not None:
        yield dominated(*env)
    if leq(y_abs, _domination_bound(x_abs, 8.0, 2)).is_true:
        yield dominated(8.0, 2)


def membership(y, x) -> DecisionTri:
    """Decide y in x*R (the principal ideal of x)."""
    gy, gx = nets._gn(y), nets._gn(x)
    ynet, xnet = gy.net, gx.net
    if is_negligible(ynet).is_true:
        return DecisionTri(True, WitnessRecord("membership-factor",
                                               (Const(0.0),)))
    for a, reason in _witnesses(ynet, xnet):
        if a is not None and _replay_witness(a, xnet, ynet):
            return DecisionTri(True, WitnessRecord("membership-factor", (a,)),
                               reason=reason)
    # forcing refutation: x below every power along a sequence where y
    # keeps power size
    seqs = candidate_sequences(xnet)
    i = info(xnet)
    if i.small_seq is not None and i.small_seq.seq not in seqs:
        seqs.insert(0, i.small_seq.seq)
    return _forcing(ynet, xnet, seqs) or UNKNOWN


def power_membership(r, J, m: int) -> DecisionTri:
    """r in J**m for principal J = <g>: reduces to |r|**(1/m) in <g>."""
    if m < 1:
        raise PreconditionError("power must be a positive integer")
    gr = nets._gn(r)
    g = J.net if isinstance(J, GNumber) else principal_reduce(J).net \
        if isinstance(J, FinIdeal) else nets._net(J)
    if is_negligible(gr.net).is_true:
        return DecisionTri(True, WitnessRecord("membership-factor",
                                               (Const(0.0),)))
    y = rootn(absn(gr.net), m) if m > 1 else absn(gr.net)
    return membership(y, g)


def radical_membership(y, R: RootFamilyIdeal) -> DecisionTri:
    """y in the radical of <base>, tested against the root family
    |base|**(1/n) for n <= root_cap; CapReached when the truncation is
    the only obstruction."""
    gy = nets._gn(y)
    base = R.base.net
    # uniform refutation: along a sequence where base (hence every root
    # of it) is below every power, y keeps power size
    t = _forcing(gy.net, base, candidate_sequences(base))
    if t is not None:
        return t
    base_abs = base if nonneg_net(base) else absn(base)
    for n in range(1, R.root_cap + 1):
        g = base_abs if n == 1 else rootn(base_abs, n)
        t = membership(gy.net, g)
        if t.is_true:
            return DecisionTri(True, t.witness, reason=f"root n={n}")
    return DecisionTri(None, reason="CapReached")


# --------------------------------------------------------------------------
# radical principal ideals
# --------------------------------------------------------------------------

class DipForcingData(Record):
    """Replayable refutation of sqrt(|s|) in <s>: for each moderateness
    budget N, a located point p with |s(p)| at level p**L, L = 2N + 2,
    and sqrt(|s(p)|) >= p**(L/2) >> p**-N * |s(p)|."""

    levels: Tuple[Tuple[int, float, float], ...]  # (N, point, |s(point)|)


def dip_forcing_data(s) -> Optional[DipForcingData]:
    """Locate the level points of the dip-forcing refutation for the
    budgets N = 0..3."""
    snet = nets._gn(s).net
    small = next(_small_along(snet), None)
    big = next((seq for seq, _ in _lower_along(snet, (POW,))), None)
    if small is None or big is None:
        return None
    smalls, bigs = small.values(199), big.values(399)
    s_small, s_big = (eval_points(snet, pts, fill=math.nan).tolist()
                      for pts in (smalls, bigs))
    out = []
    for n_budget in range(4):
        lvl = 2 * n_budget + 2
        found = None
        for j in range(2, 200):
            p_small = small.value(j)
            if p_small >= 1.0 / (n_budget + 2):
                continue
            if p_small ** lvl < 1e-250:
                break  # level below any floating resolution
            # nearest big anchor adjacent to the small point
            jb = next((k for k, v in enumerate(bigs) if v < p_small),
                      len(bigs))
            if jb == len(bigs) < 399:
                big.value(jb + 1)  # the scan passes a finite rule's end
            if jb == 0:
                continue
            p_big = bigs[jb - 1]
            if abs(unfill(snet, p_small, s_small[j - 1])) >= p_small ** lvl \
                    or abs(unfill(snet, p_big, s_big[jb - 1])) <= p_big ** lvl:
                continue
            # |s| - eps**lvl changes sign between the small and the big
            # point (p_small <= p_big)
            root = _bisect_sign_change(
                lambda e: abs(eval_net(snet, e)) - e ** lvl,
                p_small, p_big, 1e-16)
            if root is None:
                continue
            sval = abs(eval_net(snet, root))
            if sval <= 0.0:
                continue
            yval = sval ** 0.5
            if yval >= root ** (lvl / 2) * 0.25 and \
                    root ** (-n_budget) * sval <= 0.5 * yval:
                found = (n_budget, root, sval)
                break
        if found is None:
            break  # deeper levels fall below double resolution
        out.append(found)
    if len(out) < 2:
        return None
    return DipForcingData(tuple(out))


def is_radical_principal(s) -> DecisionTri:
    """Is the principal ideal <s> radical (equivalently idempotent)?

    In the smooth and continuous tiers <s> is radical iff s is
    negligible or invertible, and the answer follows that dichotomy.
    A continuous-tier s decided neither negligible nor strictly nonzero
    (|s| >= eps**m0 and |s| < eps**L for every L, each at arbitrarily
    small eps) passes through every level eps**L (L > m0) at arbitrarily
    small eps, and where |s| = eps**(2N+2) any a with |a| <= eps**-N
    leaves |a*s - sqrt(|s|)| >= eps**(N+1)/2: False, with a replayable
    refutation at located dip-level points.  Any other nonzero s is
    decided through the check sqrt(|s|) in <s>, whose True answer
    carries the factor; in the arbitrary tier the characteristic nets
    e_S (Indicator, SpikeTrain) pass it with factor 1, as
    sqrt(|e_S|) = e_S.
    """
    gs = nets._gn(s)
    snet = gs.net
    tn = is_negligible(snet)
    if tn.is_true:
        return DecisionTri(True, WitnessRecord("membership-factor",
                                               (Const(0.0),)),
                           reason="zero ideal")
    if gs.tier <= Tier.Continuous and tn.is_false and \
            is_strictly_nonzero(snet).is_false:
        data = dip_forcing_data(snet)
        if data is not None:
            return DecisionTri(False, WitnessRecord("dip-forcing",
                                                    (data,)))
        return DecisionTri(False, WitnessRecord("dip-forcing", (None,)),
                           reason="level points not materialized")
    return membership(rootn(absn(snet), 2), snet)


def replay_dip_forcing(s, data: DipForcingData) -> bool:
    """Verify the dip-forcing inequalities at the located points: at each
    (N, p) the square root of |s(p)| exceeds twice eps**-N * |s(p)|, so a
    moderate factor of budget N cannot reach the root there."""
    snet = nets._gn(s).net
    vals = eval_points(snet, [p for _, p, _ in data.levels]).tolist()
    ok = True
    for (n_budget, p, _), v in zip(data.levels, map(abs, vals)):
        yv = v ** 0.5
        if not (yv > 0.0 and p ** (-n_budget) * v <= 0.5 * yv):
            ok = False
    return ok
