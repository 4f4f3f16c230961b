"""Command line interface: every engine operation behind one `gnum`
entry point with a machine-readable result document.

Exit codes: 0 = all queries decided, 3 = some verdict Unknown,
1 = usage or parse error, 2 = precondition violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional

from . import asymptotics as asym
from . import constructions as cons
from . import dsl, harness, ideals, lattice, nets, smoothing
from .errors import (DomainError, GnumError, ParseError, PreconditionError,
                     SearchExhausted, TierError)
from .nets import GNumber, Tier, eval_points, unfill

SCHEMA_VERSION = "1"

_TIERS = {"smooth": Tier.Smooth, "continuous": Tier.Continuous,
          "arbitrary": Tier.Arbitrary}


def _tri_doc(tri: asym.DecisionTri, replay=None) -> dict:
    out = {"verdict": {True: "true", False: "false", None: "unknown"}
           [tri.value]}
    if tri.reason:
        out["reason"] = tri.reason
    if tri.witness is not None:
        out["witness"] = {"kind": tri.witness.kind,
                          "data": _plain(tri.witness.data)}
    if replay is not None:
        out["replay"] = {"passed": replay.passed, "detail": replay.detail}
    return out


def _plain(obj):
    """JSON-safe rendering of witness payloads."""
    if isinstance(obj, (list, tuple)):
        return [_plain(o) for o in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, nets.NetExpr):
        try:
            return dsl.print_net(obj)
        except ValueError:
            return repr(obj)
    return repr(obj)


def _render(doc: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(doc, indent=2, sort_keys=False)
    lines: List[str] = []

    def emit(key, val, indent):
        pad = "  " * indent
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            for k, v in val.items():
                emit(k, v, indent + 1)
        elif isinstance(val, list):
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(val):
                emit(f"[{i}]", v, indent + 1)
        else:
            lines.append(f"{pad}{key}: {val!r}" if isinstance(val, str)
                         else f"{pad}{key}: {val}")

    for k, v in doc.items():
        emit(k, v, 0)
    return "\n".join(lines)


def _config(args) -> dict:
    """The values of the subcommand's flags (``--json`` and ``--file``
    aside) with a fingerprint of them."""
    cfg = {k: getattr(args, k) for k in ("grid", "eps_min", "m_max", "a_max",
                                         "root_cap", "tier") if k in args}
    blob = json.dumps(cfg, sort_keys=True).encode()
    cfg["fingerprint"] = hashlib.sha256(blob).hexdigest()[:12]
    return cfg


def _grid(args) -> harness.GridSpec:
    return harness.GridSpec(n_points=args.grid, eps_min=args.eps_min)


def _parse_expr(text: str, args) -> GNumber:
    net, tier = dsl.parse(text)
    if args.tier is not None:
        want = _TIERS[args.tier]
        if tier > want:
            raise TierError(
                f"expression needs tier {tier} but --tier {args.tier} "
                f"was requested")
        tier = want
    return GNumber(net, tier)


def _inputs(args) -> List[str]:
    if getattr(args, "file", None):
        out = []
        with open(args.file, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    out.append(line)
        return out
    if not args.expr:
        raise DomainError("no expression given (positional or --file)")
    return list(args.expr)


def _has_unknown(doc) -> bool:
    """Whether some ``verdict`` in the document is ``unknown``."""
    if isinstance(doc, dict):
        return doc.get("verdict") == "unknown" or \
            any(_has_unknown(v) for v in doc.values())
    return isinstance(doc, list) and any(map(_has_unknown, doc))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_classify(args) -> dict:
    grid = _grid(args)
    results = []
    for text in _inputs(args):
        g = _parse_expr(text, args)
        doc = {"query": text, "tier": str(g.tier)}
        for claim, decide in (("moderate", asym.is_moderate),
                              ("negligible", asym.is_negligible),
                              ("strictly-nonzero", asym.is_strictly_nonzero)):
            tri = decide(g.net)
            replay = harness.verify_decision(claim, tri, g.net, grid=grid,
                                             m_max=args.m_max)
            doc[claim.replace("-", "_")] = _tri_doc(tri, replay)
        v = asym.valuation(g.net)
        doc["valuation"] = repr(v) if v is not None else "unknown"
        slope, se = harness.estimate_valuation(g.net, grid)
        doc["valuation_regression"] = {"slope": slope, "stderr": se}
        results.append(doc)
    return {"results": results}


def _cmd_compare(args) -> dict:
    e1, e2 = args.expr
    g1, g2 = _parse_expr(e1, args), _parse_expr(e2, args)
    grid = _grid(args)
    eq = asym.gn_equal(g1.net, g2.net)
    doc = {"query": {"x": e1, "y": e2},
           "gn_equal": _tri_doc(eq, harness.verify_decision(
               "gn_equal", eq, g1.net, g2.net, grid=grid, m_max=args.m_max))}
    if nets.is_real_net(g1.net) and nets.is_real_net(g2.net):
        le = asym.leq(g1.net, g2.net, a_max=args.a_max)
        doc["leq_xy"] = _tri_doc(le, harness.verify_decision(
            "leq", le, g1.net, g2.net, grid=grid))
        ge = asym.leq(g2.net, g1.net, a_max=args.a_max)
        doc["leq_yx"] = _tri_doc(ge, harness.verify_decision(
            "leq", ge, g2.net, g1.net, grid=grid))
    return doc


def _cmd_lattice(args) -> dict:
    e1, e2 = args.expr
    g1, g2 = _parse_expr(e1, args), _parse_expr(e2, args)
    mn = lattice.gmin(g1, g2)
    mx = lattice.gmax(g1, g2)
    ab = lattice.gabs(g1)
    doc = {"query": {"x": e1, "y": e2},
           "gmin": dsl.print_net(mn.net), "gmax": dsl.print_net(mx.net),
           "gabs_x": dsl.print_net(ab.net)}
    doc["contract_min_le_x"] = _tri_doc(asym.leq(mn.net, g1.net))
    doc["contract_x_le_max"] = _tri_doc(asym.leq(g1.net, mx.net))
    return doc


def _cmd_smooth(args) -> dict:
    grid = _grid(args)
    results = []
    for text in _inputs(args):
        g = _parse_expr(text, args)
        rep = smoothing.smooth_approximate(g, grid=grid)
        eq = asym.gn_equal(rep.output.net, g.net)
        results.append({
            "query": text,
            "shortcut": rep.shortcut,
            "grid_max_ratio": rep.grid_max_ratio,
            "flagged_bands": [list(f) for f in rep.flagged_bands],
            "output_tier": str(rep.output.tier),
            "gn_equal_output_input": _tri_doc(eq),
        })
    return {"results": results}


def _cmd_zerodiv(args) -> dict:
    grid = _grid(args)
    text = args.expr[0]
    g = _parse_expr(text, args)
    rep = cons.construct_zero_divisor(g)
    prod = nets.mul(g.net, rep.s.net)
    doc = {"query": text,
           "zero_sequence": repr(rep.zero_sequence),
           "unit_points": [[e, v] for e, v in rep.unit_points],
           "replay_moderate": bool(harness.replay_moderate(rep.s.net, 0,
                                                           grid)),
           "replay_nonnegligible": bool(harness.replay_growth_along(
               rep.s.net, rep.zero_sequence, 1)),
           "replay_product_negligible": bool(harness.replay_negligible(
               prod, args.m_max, grid))}
    return doc


def _cmd_split(args) -> dict:
    e1, e2 = args.expr
    g1, g2 = _parse_expr(e1, args), _parse_expr(e2, args)
    sp = cons.annihilator_split(g1, g2)
    tail = _grid(args).split()[0].tolist()
    rx = nets.mul(g1.net, sp.x.net)
    s1mx = nets.mul(g2.net, nets.sub(nets.ONE, sp.x.net))
    m = min(10, args.m_max)
    worst_r = worst_s = 0.0
    for e, vr, vs in zip(tail, *(eval_points(n, tail, fill=math.nan).tolist()
                                 for n in (rx, s1mx))):
        vr = abs(unfill(rx, e, vr)) ** 2
        vs = abs(unfill(s1mx, e, vs)) ** 2
        worst_r = max(worst_r, vr / (2 * e ** m))
        worst_s = max(worst_s, vs / (2 * e ** m))
    return {"query": {"r": e1, "s": e2}, "eta_scale": sp.eta_scale,
            "x_tier": str(sp.x.tier),
            "replay_rx_ratio": worst_r, "replay_s1mx_ratio": worst_s,
            "passed": worst_r < 1.0 and worst_s < 1.0}


def _cmd_charset(args) -> dict:
    e1, e2 = args.expr
    g1, g2 = _parse_expr(e1, args), _parse_expr(e2, args)
    cs = cons.characteristic_set(g1, g2)
    pts = [cs.points.value(j) for j in range(1, 17)]
    bounds = []
    for p, q, vr, vs in zip(pts, cs.order_schedule,
                            *(eval_points(g.net, pts, fill=math.nan).tolist()
                              for g in (g1, g2))):
        b = p ** float(q)
        vr, vs = abs(unfill(g1.net, p, vr)), abs(unfill(g2.net, p, vs))
        bounds.append({"eps": p, "exponent": str(q), "ok": vr < b and vs < b})
    return {"query": {"r": e1, "s": e2}, "points": pts,
            "schedule_ok": all(d["ok"] for d in bounds), "bounds": bounds}


def _cmd_idem(args) -> dict:
    results = []
    for text in _inputs(args):
        g = _parse_expr(text, args)
        v = cons.idempotent_classify(g)
        results.append({"query": text, "verdict": v.verdict,
                        "reason": v.reason,
                        "s": repr(v.s) if v.s is not None else None})
    return {"results": results}


def _cmd_ideal(args) -> dict:
    op = args.op
    if op == "membership":
        y, x = args.args
        gy, gx = _parse_expr(y, args), _parse_expr(x, args)
        t = ideals.membership(gy.net, gx.net)
        return {"query": {"y": y, "x": x}, "membership": _tri_doc(t)}
    if op == "reduce":
        gens = tuple(_parse_expr(e, args) for e in args.args)
        J = ideals.FinIdeal(gens)
        sum_form, max_form = ideals.principal_forms(J)
        t1 = ideals.membership(sum_form.net, max_form.net)
        t2 = ideals.membership(max_form.net, sum_form.net)
        return {"query": list(args.args),
                "sum_form": dsl.print_net(sum_form.net),
                "max_form": dsl.print_net(max_form.net),
                "sum_in_max": _tri_doc(t1), "max_in_sum": _tri_doc(t2)}
    if op == "intersect":
        x, y = args.args
        gx, gy = _parse_expr(x, args), _parse_expr(y, args)
        g = ideals.intersect_principal(gx, gy)
        return {"query": {"x": x, "y": y},
                "generator": dsl.print_net(g.net)}
    if op == "power":
        r, s, m = args.args
        gr, gs = _parse_expr(r, args), _parse_expr(s, args)
        t = ideals.power_membership(gr, gs, int(m))
        return {"query": {"r": r, "s": s, "m": int(m)},
                "power_membership": _tri_doc(t)}
    if op == "radical":
        y, s = args.args
        gy, gs = _parse_expr(y, args), _parse_expr(s, args)
        R = ideals.RootFamilyIdeal(gs, args.root_cap)
        t = ideals.radical_membership(gy, R)
        return {"query": {"y": y, "s": s, "root_cap": args.root_cap},
                "radical_membership": _tri_doc(t)}
    if op == "isradical":
        (s,) = args.args
        gs = _parse_expr(s, args)
        t = ideals.is_radical_principal(gs)
        return {"query": {"s": s}, "is_radical": _tri_doc(t)}
    raise DomainError(f"unknown ideal operation {op!r}")


def _cmd_eval_grid(args) -> Optional[dict]:
    grid = _grid(args)
    text = _inputs(args)[0]
    g = _parse_expr(text, args)
    rows = harness.eval_grid(g.net, grid)
    is_complex = any(isinstance(v, complex) for _, v in rows)
    header = "eps re im" if is_complex else "eps value"
    print(f"# gnum eval-grid: {text}")
    print(f"# columns: {header}")
    for e, v in rows:
        if is_complex:
            v = complex(v)
            print(f"{e!r} {v.real!r} {v.imag!r}")
        else:
            print(f"{e!r} {v!r}")
    return None


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

_FLAGS = {
    "--grid": {"type": int, "default": 1000},
    "--eps-min": {"type": float, "default": 1e-6},
    "--m-max": {"type": int, "default": 12},
    "--a-max": {"type": int, "default": 6},
    "--root-cap": {"type": int, "default": 8},
    "--json": {"action": "store_true"},
}
_GRID = ("--grid", "--eps-min")


def _build_parser() -> argparse.ArgumentParser:
    """Every subcommand takes ``--tier`` and otherwise only the flags
    its handler reads."""
    ap = argparse.ArgumentParser(
        prog="gnum",
        description="computer algebra for generalized numbers: asymptotic "
                    "decision procedures and ring-structure witnesses")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help, flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--tier", choices=sorted(_TIERS), default=None)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    def multi(name, run, help, flags):
        p = command(name, run, help, flags)
        p.add_argument("expr", nargs="*")
        p.add_argument("--file", default=None,
                       help="read one expression per line")

    def fixed(name, run, help, flags, n):
        command(name, run, help, flags).add_argument("expr", nargs=n)

    multi("classify", _cmd_classify,
          "moderate/negligible/strictly-nonzero/valuation",
          _GRID + ("--m-max", "--json"))
    fixed("compare", _cmd_compare, "gn_equal and the partial order",
          _GRID + ("--m-max", "--a-max", "--json"), 2)
    fixed("lattice", _cmd_lattice, "abs/min/max and order contracts",
          ("--json",), 2)
    multi("smooth", _cmd_smooth, "smooth approximation report",
          _GRID + ("--json",))
    fixed("zerodiv", _cmd_zerodiv, "zero-divisor construction",
          _GRID + ("--m-max", "--json"), 1)
    fixed("split", _cmd_split, "annihilator split for rs = 0",
          _GRID + ("--m-max", "--json"), 2)
    fixed("charset", _cmd_charset, "characteristic set for rs = 0",
          ("--json",), 2)
    multi("idem", _cmd_idem, "idempotent classification", ("--json",))
    pi = command("ideal", _cmd_ideal, "ideal algebra operations",
                 ("--root-cap", "--json"))
    pi.add_argument("op", choices=["membership", "reduce", "intersect",
                                   "power", "radical", "isradical"])
    pi.add_argument("args", nargs="+")
    multi("eval-grid", _cmd_eval_grid, "eps/value columns", _GRID)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    as_json = getattr(args, "json", False)  # eval-grid prints columns
    try:
        doc = args.run(args)
    except ParseError as e:
        err = {"schema_version": SCHEMA_VERSION, "error": "parse",
               "message": str(e), "line": e.line, "column": e.column,
               "expected": list(e.expected)}
        print(_render(err, as_json))
        return 1
    except (PreconditionError, TierError) as e:
        err = {"schema_version": SCHEMA_VERSION, "error": "precondition",
               "message": str(e)}
        print(_render(err, as_json))
        return 2
    except (DomainError, SearchExhausted, GnumError) as e:
        err = {"schema_version": SCHEMA_VERSION, "error": "domain",
               "message": str(e)}
        print(_render(err, as_json))
        return 2
    if doc is None:
        return 0
    out = {"schema_version": SCHEMA_VERSION, "command": args.command}
    out.update(doc)
    out["numeric_precision"] = {"float": "ieee754-binary64",
                                "printed": "shortest-roundtrip-repr"}
    out["config"] = _config(args)
    print(_render(out, as_json))
    return 3 if _has_unknown(out) else 0


if __name__ == "__main__":
    sys.exit(main())
