"""Acceptance suite: the twelve desk-scale criteria, one pass/fail line
per criterion (run with  pytest tests/test_acceptance.py -s  to see them).

Every tolerance is pinned here; nothing is deferred to calibration.

Criterion 10 (radicality of principal ideals): <s> is radical iff
sqrt(|s|) is in <s>.  In the smooth and continuous tiers that holds
only for negligible or invertible s: a continuous s that is neither
(|s| >= eps**m0 and |s| < eps**L for every L, each at arbitrarily
small eps) passes through every level eps**L (L > m0) at arbitrarily
small eps, and where |s| = eps**(2N+2) any a with |a| <= eps**-N
leaves |a*s - sqrt(|s|)| >= eps**(N+1)/2.  So the unit bump train's
ideal is not radical (10e, 10f).  The arbitrary-tier idempotent e_S is the
radical case: y**n in <e_S> makes y**n (1 - e_S), hence y (1 - e_S),
negligible, and sqrt(|e_S|) = e_S pointwise, with factor 1 (10f).
"""

import math
import time
from fractions import Fraction as F

import pytest

from gnum import asymptotics as asym
from gnum import dsl, harness, ideals, lattice, smoothing
from gnum.asymptotics import gn_equal, is_negligible, is_strictly_nonzero
from gnum.constructions import (annihilator_split, characteristic_set,
                                construct_zero_divisor, gelfand_witnesses,
                                idempotent_classify, interleaved_trains,
                                idempotent_classify)
from gnum.errors import ParseError
from gnum.harness import (GridSpec, random_net, replay_growth_along,
                          replay_moderate, replay_negligible,
                          replay_negligible_diff, verify_decision)
from gnum.nets import (EPS, Const, DecayHeights, ExpNegRecip, Tier, absn,
                       add, bump_train, const, cos_recip, eval_net, gnumber,
                       indicator, iter_nodes, maxn, minimal_tier, minn, mul,
                       neg, powq, rootn, sin_recip, spikes, sub)
from gnum.nets import AbsNode, MinNode, MaxNode, RootN
from gnum.sequences import Geometric, Harmonic

GRID = GridSpec(n_points=1000, eps_min=1e-6)
PTS = [float(e) for e in GRID.points()]


def report(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:>2} [{mark}] {name}" +
          (f" -- {detail}" if detail else ""))
    return ok


# -- 1: smoothing ------------------------------------------------------------

def _continuous_corpus_30():
    explicit = [
        absn(sin_recip(1)),
        absn(cos_recip(1)),
        absn(sin_recip(2)),
        absn(sin_recip(F(1, 2))),
        minn(EPS, const(0.5)),
        maxn(sin_recip(1), cos_recip(1)),
        minn(sin_recip(1), cos_recip(1)),
        absn(sub(sin_recip(1), const(0.5))),
        add(absn(sin_recip(1)), EPS),
        rootn(absn(sin_recip(1)), 2),
        rootn(absn(cos_recip(1)), 3),
        minn(absn(sin_recip(1)), absn(cos_recip(1))),
        maxn(absn(sin_recip(1)), powq(EPS, 2)),
        powq(absn(sin_recip(1)), F(3, 2)),
        add(maxn(sin_recip(1), const(0)), powq(EPS, -1)),
        minn(maxn(sin_recip(1), neg(cos_recip(1))), add(EPS, const(0.25))),
        absn(add(sin_recip(1), cos_recip(2))),
        maxn(EPS, absn(sin_recip(1))),
    ]
    seed = 0
    while len(explicit) < 30 and seed < 400:
        x = random_net(seed, Tier.Continuous, 3)
        seed += 1
        if minimal_tier(x) == Tier.Continuous:
            explicit.append(x)
    return explicit[:30]


def test_acceptance_01_smoothing():
    t0 = time.time()
    corpus = _continuous_corpus_30()
    assert len(corpus) == 30
    violations = 0
    structural = 0
    for x in corpus:
        rep = smoothing.smooth_approximate(gnumber(x), grid=GRID)
        out = rep.output.net
        if any(isinstance(n, (AbsNode, MinNode, MaxNode, RootN))
               for n in iter_nodes(out)):
            structural += 1
        for e in PTS:
            if abs(eval_net(out, e) - eval_net(x, e)) > math.exp(-1.0 / e):
                violations += 1
    took = time.time() - t0
    ok = violations == 0 and structural == 0 and took <= 30.0
    assert report(1, "smoothing within exp(-1/eps), structurally smooth",
                  ok, f"30 nets, {violations} violations, {took:.1f}s")


# -- 2: idempotent classification ---------------------------------------------

def _perturbations():
    out = []
    for c in (1.0, -1.0, 0.5, 2.0, -3.0):
        out.append(mul(const(c), ExpNegRecip()))
        out.append(mul(const(c), powq(ExpNegRecip(), 2)))
        out.append(mul(const(c), mul(ExpNegRecip(), sin_recip(1))))
        out.append(mul(const(c), mul(ExpNegRecip(), powq(EPS, -3))))
        out.append(mul(const(c), bump_train(Geometric(F(1, 2)),
                                            heights=DecayHeights(F(1), F(0)))))
    return out  # 25 shapes


def test_acceptance_02_idempotents():
    good = bad = 0
    perturbed = []
    for base, name in ((const(0), "zero"), (const(1), "one")):
        for n in _perturbations():
            perturbed.append((add(base, n), name))
    assert len(perturbed) == 100 - 50  # 50 so far; add scaled variants
    for base, name in ((const(0), "zero"), (const(1), "one")):
        for n in _perturbations():
            perturbed.append((add(base, mul(powq(EPS, 3), n)), name))
    assert len(perturbed) == 100
    for u, want in perturbed:
        v = idempotent_classify(gnumber(u))
        if v.verdict == want:
            good += 1
        else:
            bad += 1
    non_idem = [EPS, const(2), const(0.5), const(-1), add(const(1), EPS),
                powq(EPS, -1), add(const(1), powq(EPS, 2)),
                add(const(1), sin_recip(1)), add(const(2), sin_recip(1)),
                add(const(1), cos_recip(1)), add(EPS, ExpNegRecip()),
                mul(const(3), EPS), sub(const(1), EPS), powq(EPS, F(1, 2)),
                add(const(1), powq(EPS, 3)), sub(mul(const(2), EPS), const(1)),
                add(const(0.5), sin_recip(2)), mul(const(2), sin_recip(1)),
                sub(const(0), EPS), add(powq(EPS, 2), const(3))]
    assert len(non_idem) == 20
    for u in non_idem:
        v = idempotent_classify(gnumber(u))
        if v.verdict == "not-idempotent":
            good += 1
        else:
            bad += 1
    for s in (Geometric(F(1, 2)), Geometric(F(1, 3)), Geometric(F(2, 3)),
              Harmonic()):
        v = idempotent_classify(gnumber(indicator(s)))
        if v.verdict == "nontrivial-idempotent" and v.s == s:
            good += 1
        else:
            bad += 1
    ok = bad == 0
    assert report(2, "idempotent classification, zero misclassifications",
                  ok, f"{good} classified, {bad} wrong")


# -- 3: non-surjectivity refuter ----------------------------------------------

def test_acceptance_03_refuter():
    target = gnumber(spikes(Harmonic()))
    corpus = [const(0), const(1), const(0.5), EPS, sub(const(1), EPS),
              absn(sin_recip(1)), bump_train(Harmonic()),
              minn(const(1), powq(EPS, -1)), mul(const(0.3), cos_recip(1)),
              add(const(0.5), mul(const(0.5), sin_recip(1)))]
    seed = 0
    while len(corpus) < 50 and seed < 300:
        x = random_net(seed, Tier.Continuous, 3)
        seed += 1
        corpus.append(x)
    failures = 0
    kinds = set()
    for cand in corpus[:50]:
        try:
            w = smoothing.refute_continuous_representative(target,
                                                           gnumber(cand))
            kinds.add(w.kind)
        except Exception:
            failures += 1
    ok = failures == 0
    assert report(3, "spike-net refuter finds a witness for all 50",
                  ok, f"witness kinds seen: {sorted(kinds)}")


# -- 4: zero divisors ----------------------------------------------------------

def _non_invertible_corpus_20():
    return [sin_recip(1), sin_recip(2), sin_recip(F(1, 2)), cos_recip(1),
            cos_recip(2), cos_recip(F(1, 2)), ExpNegRecip(),
            powq(ExpNegRecip(), 2), mul(EPS, sin_recip(1)),
            mul(const(2), sin_recip(1)), add(sin_recip(1), ExpNegRecip()),
            absn(sin_recip(1)), bump_train(Geometric(F(1, 2))),
            bump_train(Geometric(F(1, 3))), bump_train(Harmonic()),
            bump_train(Geometric(F(1, 2)), heights=DecayHeights(F(1), F(0))),
            const(0), mul(sin_recip(1), cos_recip(1)),
            mul(const(3), cos_recip(2)), mul(powq(EPS, 2), cos_recip(1))]


def test_acceptance_04_zero_divisors():
    corpus = _non_invertible_corpus_20()
    assert len(corpus) == 20
    failures = []
    for r in corpus:
        try:
            rep = construct_zero_divisor(gnumber(r))
        except Exception as e:
            failures.append((r, repr(e)))
            continue
        s = rep.s.net
        ok_m = replay_moderate(s, 0, GRID).passed
        ok_nn = is_negligible(s).is_false and \
            (not rep.unit_points or
             all(v == 1.0 for _, v in rep.unit_points))
        ok_prod = replay_negligible(mul(r, s), 12, GRID).passed
        if not (ok_m and ok_nn and ok_prod):
            failures.append((r, (ok_m, ok_nn, ok_prod)))
    ok = not failures
    assert report(4, "zero-divisor construction, all three replays",
                  ok, f"{len(failures)} failures")


# -- 5: Gelfand ----------------------------------------------------------------

def test_acceptance_05_gelfand():
    sin2 = mul(sin_recip(1), sin_recip(1))
    cos2 = mul(cos_recip(1), cos_recip(1))
    a_list = [const(0), const(1), const(0.5), sin2, cos2, EPS,
              sub(const(1), EPS), ExpNegRecip(), powq(EPS, 2),
              add(const(0.5), mul(const(0.5), sin_recip(1)))]
    worst_prod = 0.0
    worst_bound = 0.0
    for a in a_list:
        b = sub(const(1), a)
        gw = gelfand_witnesses(gnumber(a), gnumber(b))
        prod = gw.product_net()
        for e in PTS:
            worst_prod = max(worst_prod, abs(eval_net(prod, e)))
            worst_bound = max(worst_bound, abs(eval_net(gw.r.net, e)),
                              abs(eval_net(gw.s.net, e)))
    ok = worst_prod <= 1e-14 and worst_bound <= 4.0
    assert report(5, "Gelfand products exactly 0, factors bounded by 4",
                  ok, f"max |product| = {worst_prod:.2e}, "
                      f"max factor = {worst_bound:.3f}")


# -- 6: annihilator splits -------------------------------------------------------

def test_acceptance_06_annihilator_split():
    pairs = [interleaved_trains(F(1, 4)), interleaved_trains(F(1, 5)),
             interleaved_trains(F(1, 6)), interleaved_trains(F(1, 8)),
             interleaved_trains(F(2, 5))]
    pairs += [(gnumber(const(0)), gnumber(sin_recip(1))),
              (gnumber(sin_recip(1)), gnumber(const(0))),
              (gnumber(ExpNegRecip()), gnumber(bump_train(Geometric(F(1, 2))))),
              (gnumber(sin_recip(1)),
               construct_zero_divisor(gnumber(sin_recip(1))).s),
              (gnumber(cos_recip(2)),
               construct_zero_divisor(gnumber(cos_recip(2))).s)]
    assert len(pairs) == 10
    tail = [e for e in PTS if e <= PTS[int(0.3 * len(PTS))]]
    bad = 0
    for r, s in pairs:
        sp = annihilator_split(r, s)
        x = sp.x.net
        rx = mul(r.net, x)
        s1mx = mul(s.net, sub(const(1), x))
        for m in range(1, 11):
            for e in tail:
                if abs(eval_net(rx, e)) ** 2 >= 2 * e ** m or \
                        abs(eval_net(s1mx, e)) ** 2 >= 2 * e ** m:
                    bad += 1
    ok = bad == 0
    assert report(6, "annihilator split: |rx|^2, |s(1-x)|^2 < 2 eps^m",
                  ok, f"{bad} violations on the tail, m <= 10")


# -- 7: characteristic sets ------------------------------------------------------

def test_acceptance_07_characteristic_sets():
    pairs = [interleaved_trains(F(1, 4)), interleaved_trains(F(1, 5)),
             interleaved_trains(F(1, 6)), interleaved_trains(F(1, 8)),
             interleaved_trains(F(1, 3))]
    bad = 0
    for r, s in pairs:
        cs = characteristic_set(r, s, n_points=16)
        pts = [cs.points.value(j) for j in range(1, 17)]
        if not all(a > b > 0 for a, b in zip(pts, pts[1:])):
            bad += 1
            continue
        for p, q in zip(pts, cs.order_schedule):
            bound = p ** float(q)
            if not (abs(eval_net(r.net, p)) < bound and
                    abs(eval_net(s.net, p)) < bound):
                bad += 1
    ok = bad == 0
    assert report(7, "characteristic sets: 16 points meet the bound schedule",
                  ok, f"{bad} violations over 5 pairs")


# -- 8: f-ring law ----------------------------------------------------------------

def _nonneg_nets():
    return [powq(EPS, 2), EPS, const(1), const(0.5), ExpNegRecip(),
            mul(sin_recip(2), sin_recip(2)), mul(cos_recip(1), cos_recip(1)),
            bump_train(Geometric(F(1, 2))), powq(EPS, F(1, 2)),
            add(const(1), EPS)]


def test_acceptance_08_f_ring_law():
    from gnum.nets import is_real_net
    t0 = time.time()
    nonneg = _nonneg_nets()
    checked = 0
    bad_pointwise = 0
    bad_equal = 0
    seed = 0
    sample = PTS[::37]
    while checked < 100 and seed < 600:
        r = random_net(seed, Tier.Smooth, 2)
        s = random_net(seed + 1000, Tier.Smooth, 2)
        seed += 1
        if not (is_real_net(r) and is_real_net(s)):
            continue
        t = nonneg[checked % len(nonneg)]
        lhs = mul(lattice.gmin(gnumber(r), gnumber(s)).net, t)
        rhs = lattice.gmin(gnumber(mul(r, t)), gnumber(mul(s, t))).net
        for e in sample:
            a, b = eval_net(lhs, e), eval_net(rhs, e)
            if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
                bad_pointwise += 1
        if not gn_equal(lhs, rhs).is_true:
            bad_equal += 1
        checked += 1
    # re-smoothing spot checks (the identity modulo negligibility)
    coarse = GridSpec(n_points=160, eps_min=1e-5)
    for r, s, t in [(sin_recip(1), cos_recip(1), _nonneg_nets()[5]),
                    (sin_recip(2), neg(cos_recip(2)), EPS)]:
        lhs = mul(smoothing.smooth_approximate(
            lattice.gmin(gnumber(r), gnumber(s)), grid=coarse).output.net, t)
        rhs = smoothing.smooth_approximate(
            lattice.gmin(gnumber(mul(r, t)), gnumber(mul(s, t))),
            grid=coarse).output.net
        if not gn_equal(lhs, rhs).is_true:
            bad_equal += 1
    ok = checked == 100 and bad_pointwise == 0 and bad_equal == 0
    assert report(8, "f-ring law pointwise and modulo negligibility", ok,
                  f"100 triples, {bad_pointwise} pointwise / "
                  f"{bad_equal} gn_equal failures, {time.time()-t0:.1f}s")


# -- 9: absolute-value factor -----------------------------------------------------

def test_acceptance_09_abs_factor():
    corpus = [neg(EPS), EPS, sin_recip(1), cos_recip(2), powq(EPS, 2),
              mul(const(1j), EPS), mul(const(2j), sin_recip(1)),
              mul(add(const(1), const(1j)), EPS), sub(sin_recip(1), const(2)),
              add(const(2), sin_recip(1)), mul(const(-3), EPS),
              bump_train(Geometric(F(1, 2))), add(EPS, ExpNegRecip()),
              mul(const(1j), cos_recip(1)), powq(EPS, -1),
              mul(EPS, sin_recip(2)), const(5), const(-2 + 1j), const(0),
              sub(mul(const(1j), EPS), powq(EPS, 2))]
    assert len(corpus) == 20
    bad_bound = bad_track = 0
    for x in corpus:
        a = lattice.abs_factor(gnumber(x)).net
        for e in PTS:
            if abs(eval_net(a, e)) > 2.0:
                bad_bound += 1
        for m in range(1, 11):
            for e in (p for p in PTS if p <= 1.0 / m):
                va, vx = eval_net(a, e), eval_net(x, e)
                # strict mathematically; the evaluator's rounding floor
                # (<= 1e-12 relative) is discounted per the package
                # convention for complex phase arithmetic
                lhs = abs(va * vx - abs(vx)) - 1e-12 * (1.0 + abs(vx))
                if lhs >= 2 * e ** m:
                    bad_track += 1
    ok = bad_bound == 0 and bad_track == 0
    assert report(9, "abs factor: |a| <= 2, |a x - |x|| < 2 eps^m", ok,
                  f"20 nets (incl. complex), {bad_bound}+{bad_track} violations")


# -- 10: ideal identities -----------------------------------------------------------

def _gen_pairs_20():
    out = [(sin_recip(1), cos_recip(1)), (sin_recip(2), cos_recip(2)),
           (EPS, powq(EPS, 2)), (EPS, sin_recip(1)),
           (add(const(1), EPS), EPS), (powq(EPS, -1), EPS),
           (sin_recip(1), sub(const(1), EPS)),
           (absn(sin_recip(1)), absn(cos_recip(1))),
           (mul(EPS, sin_recip(1)), mul(EPS, cos_recip(1))),
           (powq(EPS, F(1, 2)), powq(EPS, F(3, 2)))]
    t1, t2 = interleaved_trains(F(1, 4))
    t3, t4 = interleaved_trains(F(1, 5))
    out += [(t1.net, t2.net), (t3.net, t4.net),
            (mul(const(2), t1.net), t2.net),
            (EPS, const(1)), (const(2), const(3)),
            (powq(EPS, 3), powq(EPS, 5)), (EPS, ExpNegRecip()),
            (cos_recip(1), add(const(2), sin_recip(1))),
            (sin_recip(F(1, 2)), cos_recip(F(1, 2))),
            (mul(const(3), EPS), mul(const(5), powq(EPS, 2)))]
    return out


def test_acceptance_10a_generation_equivalence():
    bad = undecided = 0
    for r, s in _gen_pairs_20():
        J = ideals.FinIdeal((gnumber(r), gnumber(s)))
        sum_form, max_form = ideals.principal_forms(J)
        t1 = ideals.membership(sum_form.net, max_form.net)
        t2 = ideals.membership(max_form.net, sum_form.net)
        if t1.is_unknown or t2.is_unknown:
            undecided += 1
        elif not (t1.is_true and t2.is_true):
            bad += 1
    ok = bad == 0 and undecided == 0
    assert report("10a", "generation equivalence |r|+|s| ~ |r| v |s| (20 pairs)",
                  ok, f"{bad} wrong, {undecided} undecided")


def test_acceptance_10b_intersection_elementwise():
    checks = bad = 0
    power_pairs = [(1, 2), (1, 3), (2, 5), (2, 3), (1, 1), (3, 4), (2, 2),
                   (1, 5), (3, 5), (4, 5)]
    for a, b in power_pairs:
        x, y = powq(EPS, a), powq(EPS, b)
        g = ideals.intersect_principal(gnumber(x), gnumber(y))
        for z in (powq(EPS, max(a, b)), powq(EPS, a + b), const(1)):
            tg = ideals.membership(z, g.net)
            tx = ideals.membership(z, x)
            ty = ideals.membership(z, y)
            if tg.is_unknown or tx.is_unknown or ty.is_unknown:
                continue
            checks += 1
            if tg.is_true != (tx.is_true and ty.is_true):
                bad += 1
    for ratio in (F(1, 4), F(1, 5), F(1, 6), F(1, 8), F(2, 5),
                  F(1, 3), F(1, 7), F(1, 9), F(1, 10), F(1, 12)):
        r, s = interleaved_trains(ratio)
        g = ideals.intersect_principal(r, s)
        for z in (mul(r.net, s.net), const(1)):
            tg = ideals.membership(z, g.net)
            tx = ideals.membership(z, r.net)
            ty = ideals.membership(z, s.net)
            if tg.is_unknown or tx.is_unknown or ty.is_unknown:
                continue
            checks += 1
            if tg.is_true != (tx.is_true and ty.is_true):
                bad += 1
    ok = bad == 0 and checks >= 40
    assert report("10b", "intersection matches elementwise membership "
                         "(20 pairs)", ok, f"{checks} decided checks, {bad} wrong")


def test_acceptance_10c_power_membership_consistency():
    gens = [sin_recip(1), cos_recip(1), EPS, powq(EPS, 2),
            interleaved_trains(F(1, 4))[0].net]
    ks = (1, 2, 3, 4)
    bad = checked = 0
    for g in gens:
        for k in ks:
            r = mul(powq(EPS, k), g)
            t_sq = ideals.power_membership(gnumber(mul(r, r)),
                                           gnumber(g), 2)
            t_r = ideals.membership(r, g)
            checked += 1
            if t_sq.is_true and not t_r.is_true:
                bad += 1
    ok = bad == 0 and checked == 20
    assert report("10c", "r^2 in J^2 implies r in J (20 instances)", ok,
                  f"{checked} instances, {bad} violations")


def _dip_train():
    sched = Harmonic()
    unit = bump_train(sched)
    decay = bump_train(sched, heights=DecayHeights(F(1), F(0)))
    return add(sub(const(1), unit), decay)


def test_acceptance_10e_radical_checks():
    dip = _dip_train()
    t_dip = ideals.is_radical_principal(gnumber(dip))
    dip_ok = t_dip.is_false and t_dip.witness.data[0] is not None and \
        ideals.replay_dip_forcing(dip, t_dip.witness.data[0])
    assert report("10e", "dip-train counterexample is not radical "
                         "(with replayed refutation)", dip_ok)


def test_acceptance_10f_radical_unit_bump_train_as_stated():
    # A unit bump train is continuous, neither negligible nor invertible:
    # at the support edges it passes through every level eps**L, so
    # sqrt(|s|) is out of reach of every moderate multiple of s and <s>
    # is not radical.  The answer is False with dip-forcing levels.
    bt = bump_train(Geometric(F(1, 2)))
    t_bt = ideals.is_radical_principal(gnumber(bt))
    data = t_bt.witness.data[0] if t_bt.is_false else None
    bt_ok = data is not None and len(data.levels) >= 2 and \
        ideals.replay_dip_forcing(bt, data)
    # The indicator e_S is idempotent: sqrt(|e_S|) = e_S pointwise, so
    # <e_S> is radical, a proper nonzero ideal answered True with
    # factor a.  The grid misses S, so a*e_S = sqrt(|e_S|) is also
    # checked at the points of S, where e_S = 1.
    sched = Geometric(F(1, 2))
    e = indicator(sched)
    t_e = ideals.is_radical_principal(gnumber(e))
    e_ok = t_e.is_true and t_e.witness.kind == "membership-factor"
    if e_ok:
        ae = mul(t_e.witness.data[0], e)
        y = rootn(absn(e), 2)
        on_s = [sched.value(j) for j in range(1, 41)]
        e_ok = bool(replay_negligible_diff(ae, y, 12, GRID)) and \
            all(eval_net(e, p) == 1.0 and eval_net(ae, p) == eval_net(y, p)
                for p in on_s)
    report("10f", "unit bump train not radical (replayed dip forcing); "
                  "indicator radical (replayed factor)", bt_ok and e_ok,
           f"bump train: {t_bt!r}; indicator: {t_e!r}")
    assert bt_ok, f"bump train: {t_bt!r}"
    assert e_ok, f"indicator: {t_e!r}"


# -- 11: oracle coherence -----------------------------------------------------------

def test_acceptance_11_oracle_coherence():
    t0 = time.time()
    grid = GridSpec(n_points=400, eps_min=1e-6)
    tiers = [Tier.Smooth, Tier.Continuous, Tier.Arbitrary]
    contradictions = []
    decided = 0
    for seed in range(200):
        x = random_net(seed, tiers[seed % 3], 3)
        for claim, fn in (("moderate", asym.is_moderate),
                          ("negligible", asym.is_negligible),
                          ("strictly-nonzero", asym.is_strictly_nonzero)):
            tri = fn(x)
            rep = verify_decision(claim, tri, x, grid=grid)
            if rep is None:
                continue
            decided += 1
            if not rep.passed:
                contradictions.append((seed, claim, tri.value, rep.detail))
    ok = not contradictions
    assert report(11, "zero contradictions between verdicts and replays",
                  ok, f"{decided} decided verdicts over 200 nets, "
                      f"{len(contradictions)} contradictions, "
                      f"{time.time()-t0:.1f}s"), contradictions[:5]


# -- 12: parser round-trip ------------------------------------------------------------

def test_acceptance_12_parser():
    tiers = [Tier.Smooth, Tier.Continuous, Tier.Arbitrary]
    mismatch = 0
    for seed in range(200):
        ast = random_net(seed, tiers[seed % 3], 3)
        if dsl.parse(dsl.print_net(ast))[0] != ast:
            mismatch += 1
    malformed = ["eps^(1/2", "min(eps,)", "sin(2/eps)", "eps +", "(",
                 "abs eps", "bumptrain(geo(1/2), nope)", "eps ^ ^ 2",
                 "max(eps 1)", "root(eps, 1.5)"]
    positioned = 0
    for text in malformed:
        try:
            dsl.parse(text)
        except ParseError as e:
            if e.line >= 1 and e.column >= 1 and e.expected:
                positioned += 1
    ok = mismatch == 0 and positioned == len(malformed)
    assert report(12, "200 round-trips, positioned errors", ok,
                  f"{mismatch} mismatches, {positioned}/{len(malformed)} "
                  f"errors positioned")
