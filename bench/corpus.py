"""Inputs and output checks of the three workloads.

Every workload is a fixed list of operations; `--seed` only permutes
their order.  Keeping the set fixed makes `failed_share` and
`unknown_share` comparable between commits, and every operation has a
stored reference verdict (refs/).  Each operation returns
`(verdict, kind, problem, output)`:

- verdict: "true"/"false"/"unknown" for three-valued decisions, a value
  string for valuations and classifications, "ok" for constructions;
- kind: the witness kind (or construction variant) behind the verdict;
- problem: None, or "<layer>:<reason>" when the output check rejected it;
- output: the CLI document text (cli only), else None.

Calls into gnum's public functions go through `tr.call(<layer>, fn, ...)`
so the traced run can time them; the untraced run calls them directly.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction as F

from gnum import asymptotics as A
from gnum import cli, dsl
from gnum import constructions as C
from gnum import harness as H
from gnum import ideals as I
from gnum import lattice as L
from gnum import nets as N
from gnum import profiles as P
from gnum import smoothing as S
from gnum.nets import (EPS, AbsNode, DecayHeights, ExpNegRecip, MaxNode,
                       MinNode, RootN, Tier, absn, add, bump_train, const,
                       cos_recip, eval_net, gnumber, indicator, iter_nodes,
                       maxn, minimal_tier, minn, mul, neg, powq, rootn,
                       sin_recip, spikes, sub)
from gnum.sequences import Geometric, Harmonic

import measure

CHECK_GRID = H.GridSpec(n_points=200, eps_min=1e-6)
CHECK_PTS = [float(e) for e in CHECK_GRID.points()]
EVAL_GRID = H.GridSpec(n_points=measure.EVAL_POINTS, eps_min=1e-6)

TIERS = {"s": Tier.Smooth, "c": Tier.Continuous, "a": Tier.Arbitrary}


class Op:
    __slots__ = ("id", "group", "fn")

    def __init__(self, op_id: str, group: str, fn):
        self.id, self.group, self.fn = op_id, group, fn


class Workload:
    def __init__(self, ops, nets):
        self.ops = ops            # canonical order
        self.nets = nets          # input nets, for the evaluation probe

    def ordered(self, seed: int):
        ops = list(self.ops)
        random.Random(f"gnum-bench|{seed}").shuffle(ops)
        return ops

    def one_per_group(self):
        seen, out = set(), []
        for op in self.ops:
            if op.group not in seen:
                seen.add(op.group)
                out.append(op)
        return out


def _tri(tri, rep, layer):
    """Outcome of a decided-and-replayed three-valued query."""
    if tri.value is None:
        return "unknown", "", None, None
    kind = tri.witness.kind if tri.witness is not None else ""
    problem = None if rep is None or rep.passed else f"{layer}:replay-rejected"
    return ("true" if tri.value else "false"), kind, problem, None


def _rejected(problem):
    """Outcome of a construction whose stated property failed."""
    return "ok", "", problem, None


def _nodes(net) -> int:
    return sum(1 for _ in iter_nodes(net))


# --------------------------------------------------------------------------
# sweep: random nets, every claim decided and replayed
# --------------------------------------------------------------------------

SWEEP_SEEDS = range(16)
SWEEP_DEPTHS = (3, 4, 5)
# Depth-5 arbitrary-tier nets whose correct `moderate` verdict the replay
# rejects (head of the grid all zeros, fitted C = 0).  Known baseline
# failures, kept in the set so failed_share shows them until fixed.
SWEEP_KNOWN = (575, 648, 750)
# Real depth-3 pairs (seed, seed + PAIR_OFFSET) for leq/gn_equal.  17, 73
# and 123 are known: the replay finds a violation below the witnessed
# threshold of a decided leq.
PAIR_SEEDS = tuple(range(16)) + (17, 73, 123)
PAIR_OFFSET = 5000

_CLAIMS = (("moderate", A.is_moderate), ("negligible", A.is_negligible),
           ("strictly_nonzero", A.is_strictly_nonzero))


def valuation_agrees(v, slope: float) -> bool:
    """The regression slope over the default grid is consistent with an
    exact valuation: within 0.1 of a finite one, beyond +-6 for +-inf
    (a net below every power may underflow to too few points: nan)."""
    if v.kind == "finite":
        return abs(slope - float(v.v)) <= 0.1
    if v.kind == "plus-infinity":
        return math.isnan(slope) or slope >= 6.0
    return slope <= -6.0


def _valuation_verdict(v) -> str:
    return f"finite:{v.v}" if v.kind == "finite" else v.kind


def _net_ops(uid: str, x):
    ops = []
    for claim, fn in _CLAIMS:
        def run(tr, claim=claim, fn=fn):
            if claim == "moderate":      # cold analyses, before deciding
                tr.call("profiles.info", P.info, x)
                tr.call("profiles.rat", P.rat, x)
            tri = tr.call(f"asymptotics.{fn.__name__}", fn, x)
            layer = f"harness.verify_decision.{claim}"
            rep = tr.call(layer, H.verify_decision,
                          claim.replace("_", "-"), tri, x)
            return _tri(tri, rep, layer)
        ops.append(Op(f"{uid}:{claim}", claim, run))

    def run_valuation(tr):
        v = tr.call("asymptotics.valuation", A.valuation, x)
        if v is None:
            return "unknown", "", None, None
        slope, _ = tr.call("harness.estimate_valuation",
                           H.estimate_valuation, x)
        problem = None if valuation_agrees(v, slope) else \
            "harness.estimate_valuation:slope-mismatch"
        return _valuation_verdict(v), v.kind, problem, None
    ops.append(Op(f"{uid}:valuation", "valuation", run_valuation))
    return ops


def _pair_ops(uid: str, x, y):
    def run_leq(tr):
        tri = tr.call("asymptotics.leq", A.leq, x, y)
        layer = "harness.verify_decision.leq"
        return _tri(tri, tr.call(layer, H.verify_decision, "leq", tri, x, y),
                    layer)

    def run_equal(tr):
        tri = tr.call("asymptotics.gn_equal", A.gn_equal, x, y)
        layer = "harness.verify_decision.gn_equal"
        return _tri(tri, tr.call(layer, H.verify_decision, "gn_equal", tri,
                                 x, y), layer)
    return [Op(f"{uid}:leq", "leq", run_leq),
            Op(f"{uid}:gn_equal", "gn_equal", run_equal)]


def sweep() -> Workload:
    units = [(f"{t}{d}-{s}", H.random_net(s, TIERS[t], d))
             for s in SWEEP_SEEDS for t in TIERS for d in SWEEP_DEPTHS]
    units += [(f"a5-{s}", H.random_net(s, Tier.Arbitrary, 5))
              for s in SWEEP_KNOWN]
    pairs = [(f"p{s}", H.random_net(s, Tier.Smooth, 3),
              H.random_net(s + PAIR_OFFSET, Tier.Smooth, 3))
             for s in PAIR_SEEDS]
    ops = [op for uid, x in units for op in _net_ops(uid, x)]
    ops += [op for uid, x, y in pairs for op in _pair_ops(uid, x, y)]
    return Workload(ops, [x for _, x in units])


# --------------------------------------------------------------------------
# witnesses: the paper's constructions, each with the property it states
# --------------------------------------------------------------------------

def _continuous_nets(n: int):
    out, seed = [], 0
    while len(out) < n:
        x = H.random_net(seed, Tier.Continuous, 3)
        seed += 1
        if minimal_tier(x) == Tier.Continuous:
            out.append(x)
    return out


def _smooth_ops():
    corpus = [absn(sin_recip(1)), absn(cos_recip(2)), minn(EPS, const(0.5)),
              maxn(sin_recip(1), cos_recip(1)), rootn(absn(sin_recip(1)), 2),
              powq(absn(sin_recip(1)), F(3, 2)),
              add(maxn(sin_recip(1), const(0)), powq(EPS, -1)),
              absn(add(sin_recip(1), cos_recip(2)))] + _continuous_nets(4)
    ops = []
    for i, x in enumerate(corpus):
        def run(tr, x=x):
            rep = tr.call("smoothing.smooth_approximate",
                          S.smooth_approximate, gnumber(x), grid=CHECK_GRID)
            out = rep.output.net
            tr.count("smoothing.blend_nodes", _nodes(out))
            if any(isinstance(n, (AbsNode, MinNode, MaxNode, RootN))
                   for n in iter_nodes(out)):
                return _rejected("smoothing.smooth_approximate:not-smooth")
            for e in CHECK_PTS:
                if abs(eval_net(out, e) - eval_net(x, e)) > math.exp(-1.0 / e):
                    return _rejected("smoothing.smooth_approximate:off-bound")
            return "ok", "shortcut" if rep.shortcut else "blend", None, None
        ops.append(Op(f"smooth.{i}", "smooth", run))
    return ops, corpus


def _zero_divisor_ops():
    corpus = [sin_recip(1), cos_recip(2), sin_recip(F(1, 2)), ExpNegRecip(),
              mul(EPS, sin_recip(1)), absn(sin_recip(1)),
              bump_train(Geometric(F(1, 2))), bump_train(Harmonic()),
              const(0), mul(sin_recip(1), cos_recip(1))]
    ops = []
    for i, r in enumerate(corpus):
        def run(tr, r=r):
            rep = tr.call("constructions.construct_zero_divisor",
                          C.construct_zero_divisor, gnumber(r))
            s = rep.s.net
            tr.count("constructions.witness_nodes", _nodes(s))
            layer = "constructions.construct_zero_divisor"
            if not H.replay_moderate(s, 0).passed:
                return _rejected(f"{layer}:s-not-moderate")
            if not (A.is_negligible(s).is_false and
                    all(v == 1.0 for _, v in rep.unit_points)):
                return _rejected(f"{layer}:s-negligible")
            if not H.replay_negligible(mul(r, s), 12).passed:
                return _rejected(f"{layer}:product-not-negligible")
            return "ok", type(rep.zero_sequence).__name__, None, None
        ops.append(Op(f"zerodiv.{i}", "zerodiv", run))
    return ops, corpus


_SPLIT_RATIOS = (F(1, 4), F(1, 5), F(1, 6), F(1, 8), F(2, 5))


def _split_ops():
    pairs = [C.interleaved_trains(q) for q in _SPLIT_RATIOS]
    pairs.append((gnumber(ExpNegRecip()),
                  gnumber(bump_train(Geometric(F(1, 2))))))
    cut = CHECK_PTS[int(0.3 * len(CHECK_PTS))]
    tail = [e for e in CHECK_PTS if e <= cut]
    ops = []
    for i, (r, s) in enumerate(pairs):
        def run(tr, r=r, s=s):
            sp = tr.call("constructions.annihilator_split",
                         C.annihilator_split, r, s)
            x = sp.x.net
            tr.count("constructions.witness_nodes", _nodes(x))
            rx, s1mx = mul(r.net, x), mul(s.net, sub(const(1), x))
            for e in tail:
                a, b = abs(eval_net(rx, e)) ** 2, abs(eval_net(s1mx, e)) ** 2
                for m in range(1, 11):
                    if a >= 2 * e ** m or b >= 2 * e ** m:
                        return _rejected("constructions.annihilator_split:"
                                         "not-annihilating")
            return "ok", str(sp.x.tier), None, None
        ops.append(Op(f"split.{i}", "split", run))
    return ops, [p.net for pair in pairs for p in pair]


def _charset_ops():
    pairs = [C.interleaved_trains(q) for q in (F(1, 4), F(1, 5), F(1, 3))]
    ops = []
    for i, (r, s) in enumerate(pairs):
        def run(tr, r=r, s=s):
            cs = tr.call("constructions.characteristic_set",
                         C.characteristic_set, r, s, n_points=16)
            pts = [cs.points.value(j) for j in range(1, 17)]
            layer = "constructions.characteristic_set"
            if not all(a > b > 0 for a, b in zip(pts, pts[1:])):
                return _rejected(f"{layer}:not-decreasing")
            for p, q in zip(pts, cs.order_schedule):
                bound = p ** float(q)
                if not (abs(eval_net(r.net, p)) < bound and
                        abs(eval_net(s.net, p)) < bound):
                    return _rejected(f"{layer}:bound-missed")
            return "ok", type(cs.points).__name__, None, None
        ops.append(Op(f"charset.{i}", "charset", run))
    return ops


def _gelfand_ops():
    sin2 = mul(sin_recip(1), sin_recip(1))
    cos2 = mul(cos_recip(1), cos_recip(1))
    corpus = [const(0.5), sin2, cos2, EPS, sub(const(1), EPS), ExpNegRecip(),
              add(const(0.5), mul(const(0.5), sin_recip(1)))]
    ops = []
    for i, a in enumerate(corpus):
        def run(tr, a=a):
            gw = tr.call("constructions.gelfand_witnesses",
                         C.gelfand_witnesses, gnumber(a),
                         gnumber(sub(const(1), a)))
            tr.count("constructions.witness_nodes", _nodes(gw.r.net))
            tr.count("constructions.witness_nodes", _nodes(gw.s.net))
            prod = gw.product_net()
            layer = "constructions.gelfand_witnesses"
            for e in CHECK_PTS:
                # zero up to the evaluator's rounding floor (1 ulp of the
                # factors), the tolerance the acceptance suite pins
                if abs(eval_net(prod, e)) > 1e-14:
                    return _rejected(f"{layer}:product-nonzero")
                if max(abs(eval_net(gw.r.net, e)),
                       abs(eval_net(gw.s.net, e))) > 4.0:
                    return _rejected(f"{layer}:factor-above-4")
            return "ok", "product-zero", None, None
        ops.append(Op(f"gelfand.{i}", "gelfand", run))
    return ops, corpus


def _abs_factor_ops():
    corpus = [neg(EPS), sin_recip(1), mul(const(1j), EPS),
              mul(const(2j), sin_recip(1)), mul(add(const(1), const(1j)), EPS),
              sub(sin_recip(1), const(2)), bump_train(Geometric(F(1, 2))),
              add(EPS, ExpNegRecip()), const(-2 + 1j), const(0)]
    ops = []
    for i, x in enumerate(corpus):
        def run(tr, x=x):
            a = tr.call("lattice.abs_factor", L.abs_factor, gnumber(x)).net
            for e in CHECK_PTS:
                va, vx = eval_net(a, e), eval_net(x, e)
                if abs(va) > 2.0:
                    return _rejected("lattice.abs_factor:above-2")
                # the evaluator's complex-phase rounding floor is discounted
                gap = abs(va * vx - abs(vx)) - 1e-12 * (1.0 + abs(vx))
                for m in range(1, 11):
                    if e <= 1.0 / m and gap >= 2 * e ** m:
                        return _rejected("lattice.abs_factor:not-tracking")
            return "ok", "complex" if not N.is_real_net(x) else "real", \
                None, None
        ops.append(Op(f"absfactor.{i}", "abs_factor", run))
    return ops, corpus


def _idempotent_ops():
    corpus = [(add(const(1), ExpNegRecip()), "one"),
              (mul(const(3), ExpNegRecip()), "zero"),
              (add(const(1), mul(powq(EPS, 3),
                                 mul(ExpNegRecip(), sin_recip(1)))), "one"),
              (bump_train(Geometric(F(1, 2)),
                          heights=DecayHeights(F(1), F(0))), "zero"),
              (EPS, "not-idempotent"),
              (add(const(1), sin_recip(1)), "not-idempotent"),
              (const(2), "not-idempotent"),
              (indicator(Geometric(F(1, 2))), "nontrivial-idempotent"),
              (indicator(Harmonic()), "nontrivial-idempotent")]
    ops = []
    for i, (u, want) in enumerate(corpus):
        def run(tr, u=u, want=want):
            v = tr.call("constructions.idempotent_classify",
                        C.idempotent_classify, gnumber(u))
            problem = None
            if v.verdict not in ("unknown", want):
                problem = "constructions.idempotent_classify:misclassified"
            return v.verdict, type(v.s).__name__ if v.s else "", problem, None
        ops.append(Op(f"idem.{i}", "idempotent", run))
    return ops, [u for u, _ in corpus]


def _dip_train():
    unit = bump_train(Harmonic())
    decay = bump_train(Harmonic(), heights=DecayHeights(F(1), F(0)))
    return add(sub(const(1), unit), decay)


def _ideal_ops():
    t1, t2 = C.interleaved_trains(F(1, 4))
    t3, t4 = C.interleaved_trains(F(1, 5))
    gen_pairs = [(sin_recip(1), cos_recip(1)), (EPS, powq(EPS, 2)),
                 (EPS, sin_recip(1)), (powq(EPS, -1), EPS), (t1.net, t2.net),
                 (cos_recip(1), add(const(2), sin_recip(1))),
                 (mul(const(3), EPS), mul(const(5), powq(EPS, 2)))]
    ops = []
    for i, (r, s) in enumerate(gen_pairs):
        def run(tr, r=r, s=s):
            sum_form, max_form = I.principal_forms(
                I.FinIdeal((gnumber(r), gnumber(s))))
            a = tr.call("ideals.membership", I.membership, sum_form.net,
                        max_form.net)
            b = tr.call("ideals.membership", I.membership, max_form.net,
                        sum_form.net)
            if a.is_unknown or b.is_unknown:
                return "unknown", "", None, None
            if not (a.is_true and b.is_true):
                return ("false", "", "ideals.membership:forms-not-equivalent",
                        None)
            return "true", a.witness.kind if a.witness else "", None, None
        ops.append(Op(f"ideal.gen.{i}", "membership", run))

    meet_pairs = [(powq(EPS, 1), powq(EPS, 2)), (powq(EPS, 2), powq(EPS, 3)),
                  (powq(EPS, 2), powq(EPS, 5)), (t1.net, t2.net),
                  (t3.net, t4.net)]
    for i, (x, y) in enumerate(meet_pairs):
        def run(tr, x=x, y=y):
            g = tr.call("ideals.intersect_principal", I.intersect_principal,
                        gnumber(x), gnumber(y))
            decided = 0
            for z in (mul(x, y), const(1)):
                tg, tx, ty = (tr.call("ideals.membership", I.membership, z, w)
                              for w in (g.net, x, y))
                if tg.is_unknown or tx.is_unknown or ty.is_unknown:
                    continue
                decided += 1
                if tg.is_true != (tx.is_true and ty.is_true):
                    return ("false", "",
                            "ideals.intersect_principal:not-elementwise", None)
            return ("true" if decided else "unknown"), "", None, None
        ops.append(Op(f"ideal.meet.{i}", "intersect", run))

    for i, (g, k) in enumerate([(sin_recip(1), 1), (EPS, 2), (t1.net, 1),
                                (cos_recip(1), 3)]):
        def run(tr, g=g, k=k):
            r = mul(powq(EPS, k), g)
            t_sq = tr.call("ideals.power_membership", I.power_membership,
                           gnumber(mul(r, r)), gnumber(g), 2)
            t_r = tr.call("ideals.membership", I.membership, r, g)
            problem = None
            if t_sq.is_true and not t_r.is_true:
                problem = "ideals.power_membership:root-not-member"
            return _tri(t_sq, None, "")[:2] + (problem, None)
        ops.append(Op(f"ideal.power.{i}", "power", run))

    # indicator(geo(1/2)) is a known coverage gap (Unknown, should be True)
    for i, s in enumerate([_dip_train(), indicator(Geometric(F(1, 2))),
                           bump_train(Geometric(F(1, 2))), EPS]):
        def run(tr, s=s):
            t = tr.call("ideals.is_radical_principal", I.is_radical_principal,
                        gnumber(s))
            problem = None
            if t.is_false and t.witness is not None and \
                    t.witness.data and t.witness.data[0] is not None and \
                    not I.replay_dip_forcing(s, t.witness.data[0]):
                problem = "ideals.is_radical_principal:refutation-not-replayed"
            return _tri(t, None, "")[:2] + (problem, None)
        ops.append(Op(f"ideal.radical.{i}", "radical", run))
    return ops, [r for r, _ in gen_pairs] + [x for x, _ in meet_pairs]


def _refuter_ops():
    target = gnumber(spikes(Harmonic()))
    corpus = [const(0), const(1), EPS, absn(sin_recip(1)),
              bump_train(Harmonic()),
              add(const(0.5), mul(const(0.5), sin_recip(1)))]
    corpus += _continuous_nets(2)
    ops = []
    for i, cand in enumerate(corpus):
        def run(tr, cand=cand):
            w = tr.call("smoothing.refute_continuous_representative",
                        S.refute_continuous_representative, target,
                        gnumber(cand))
            v = eval_net(cand, w.eps)
            ok = {"spike-miss": lambda: abs(v - 1) >= 0.25,
                  "midpoint-miss": lambda: abs(v) >= 0.25,
                  "crossing": lambda: abs(abs(v) - 0.5) <= 1e-9}
            if w.kind not in ok or not ok[w.kind]():
                return ("ok", w.kind,
                        "smoothing.refute_continuous_representative:"
                        "witness-not-replayed", None)
            return "ok", w.kind, None, None
        ops.append(Op(f"refute.{i}", "refute", run))
    return ops, corpus


def _add_chain(n: int):
    chain = H.random_net(0, Tier.Smooth, 1)
    for s in range(1, n):
        chain = add(chain, H.random_net(s, Tier.Smooth, 1))
    return chain


def _deep_chain_ops():
    """Left-nested add chains of depth-1 random nets.  Known baseline
    failures: profiles.info recurses past the interpreter limit at 250
    terms, profiles.rat at about 330."""
    info_chain, rat_chain = _add_chain(250), _add_chain(340)

    def run_info(tr):
        tr.call("profiles.info", P.info, info_chain)
        return "ok", "", None, None

    def run_rat(tr):
        tr.call("profiles.rat", P.rat, rat_chain)
        return "ok", "", None, None
    return [Op("chain.info.250", "chain", run_info),
            Op("chain.rat.340", "chain", run_rat)]


def witnesses() -> Workload:
    ops, net_list = [], []
    for part in (_smooth_ops, _zero_divisor_ops, _split_ops, _gelfand_ops,
                 _abs_factor_ops, _idempotent_ops, _ideal_ops, _refuter_ops):
        o, n = part()
        ops += o
        net_list += n
    ops += _charset_ops() + _deep_chain_ops()
    return Workload(ops, net_list)


# --------------------------------------------------------------------------
# cli: the README corpus plus generated known cases
# --------------------------------------------------------------------------

def cli_commands():
    """[(id, argv, expressions)].  Document-producing commands get --json
    so the document can be compared; eval-grid prints columns."""
    readme = [
        ("classify", ["classify", "eps^-2 + sin(1/eps)"]),
        ("compare", ["compare", "eps", "eps + exp(-1/eps)"]),
        ("smooth", ["smooth", "abs(sin(1/eps))"]),
        ("zerodiv", ["zerodiv", "sin(1/eps)"]),
        ("split", ["split", "bumptrain(harmonic)", "bumptrain(harmonic_mid)"]),
        ("charset", ["charset", "bumptrain(harmonic)",
                     "bumptrain(harmonic_mid)"]),
        ("idem", ["idem", "1 + exp(-1/eps)"]),
        ("ideal-membership", ["ideal", "membership", "eps*sin(1/eps)",
                              "sin(1/eps)"]),
    ]
    out = [(cid, argv + ["--json"], argv[2:] if cid.startswith("ideal")
            else argv[1:]) for cid, argv in readme]
    expr = "eps^-1 * sin(1/eps)"
    out.append(("eval-grid", ["eval-grid", expr, "--grid", "100"], [expr]))
    # generated from the sweep's known cases, as a CLI user would type them
    a575 = dsl.print_net(H.random_net(575, Tier.Arbitrary, 5))
    px = dsl.print_net(H.random_net(17, Tier.Smooth, 3))
    py = dsl.print_net(H.random_net(17 + PAIR_OFFSET, Tier.Smooth, 3))
    out += [("classify-a5-575", ["classify", a575, "--json"], [a575]),
            ("compare-p17", ["compare", px, py, "--json"], [px, py]),
            ("ideal-isradical-indicator",
             ["ideal", "isradical", "indicator(geo(1/2))", "--json"],
             ["indicator(geo(1/2))"])]
    return out


def _cli_op(cid, argv, exprs):
    def run(tr):
        for text in exprs:
            net, _ = tr.call("dsl.parse", dsl.parse, text)
            tr.call("dsl.print_net", dsl.print_net, net)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, list(argv))
        return measure.cli_outcome(cid, code, buf.getvalue())
    return Op(f"cli.{cid}", cid, run)


def cli_inprocess() -> Workload:
    cmds = cli_commands()
    return Workload([_cli_op(*c) for c in cmds],
                    [dsl.parse(e)[0] for _, _, exprs in cmds for e in exprs])


BUILDERS = {"sweep": sweep, "witnesses": witnesses, "cli": cli_inprocess}
