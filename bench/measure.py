"""Pure bookkeeping of the benchmark: percentiles, failure and Unknown
accounting against the stored references, and the per-layer table.
Imports nothing from gnum, so the driver process stays free of it."""

from __future__ import annotations

import json
import math
from collections import Counter

# Tail percentile per workload: the highest of CANDIDATE_PERCENTILES that
# leaves at least ten operations beyond it at the fewest operations a
# 30-second run reached on a 2-core sandbox (see README.md).
TAIL_PERCENTILE = {"sweep": 99.0, "witnesses": 97.0, "cli": 75.0}
EVAL_POINTS = 100           # grid of the evaluation probe
CANDIDATE_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 85.0,
                         80.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def highest_tail_percentile(n: int, beyond: int = 10):
    """Highest candidate percentile with at least `beyond` of n samples
    above it; None when n is too small for any."""
    for p in CANDIDATE_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= beyond:
            return p
    return None


# --------------------------------------------------------------------------
# correctness accounting
# --------------------------------------------------------------------------

UNKNOWN = "unknown"


def unknown_tolerant_diff(ref, got, path="$"):
    """Paths where two CLI documents differ, skipping any value or
    verdict object that is Unknown on either side: gaining (or losing)
    coverage is tracked by unknown_share, not as a changed document."""
    def unknown(x):
        return x == UNKNOWN or (isinstance(x, dict) and
                                x.get("verdict") == UNKNOWN)
    if unknown(ref) or unknown(got):
        return []
    if isinstance(ref, dict) and isinstance(got, dict):
        out = []
        for k in sorted(set(ref) | set(got)):
            if k not in ref or k not in got:
                out.append(f"{path}.{k}")
            else:
                out += unknown_tolerant_diff(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [path]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += unknown_tolerant_diff(a, b, f"{path}[{i}]")
        return out
    return [] if ref == got else [path]


def cli_document(text: str):
    """The comparable part of a CLI output: the JSON document without
    `config`, or the raw text for commands that print columns."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict):
        doc.pop("config", None)
    return doc


def cli_outcome(cid, code, text):
    """(verdict, kind, problem, output) of one CLI command from its exit
    code; the document is judged against the reference later."""
    verdict = {0: "decided", 3: UNKNOWN}.get(code, f"exit{code}")
    problem = None if code in (0, 3) else f"cli.{cid}:exit{code}"
    return verdict, "", problem, text


def rejected_replays(doc, path="$"):
    """Paths of replay results inside a CLI document that say a decided
    claim or a construction failed its check."""
    out = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            p = f"{path}.{k}"
            if k == "replay" and isinstance(v, dict) and \
                    v.get("passed") is False:
                out.append(p)
            elif (k.startswith("replay_") or k in ("passed", "schedule_ok")) \
                    and v is False:
                out.append(p)
            else:
                out += rejected_replays(v, p)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out += rejected_replays(v, f"{path}[{i}]")
    return out


def judge(record, ref):
    """(failure key or None, expected, is_unknown) for one operation
    record [id, seconds, verdict, kind, problem, output].

    A failure is an exception or a rejected check (the record's problem),
    a True/False flip against the reference, a changed CLI document, or a
    missing reference.  It is expected when the reference records the
    same problem: a known baseline defect, still counted in failed_share
    but not a wrong output.  Unknown <-> decided is never a failure."""
    op_id, _, verdict, _, problem, output = record
    unknown = verdict == UNKNOWN
    if ref is None:
        return problem or "reference:missing", False, unknown
    known = ref["problem"]
    if problem:
        return problem, problem == known, unknown
    if output is not None:                       # a CLI command
        doc = cli_document(output)
        rejected = rejected_replays(doc)
        if rejected:
            key = f"{op_id}:replay-rejected"
            return key, key == known, unknown
        if unknown_tolerant_diff(ref["output"], doc):
            return "reference:document-changed", False, unknown
        return None, False, unknown
    if not unknown and ref["verdict"] not in (UNKNOWN, verdict):
        return "reference:verdict-flipped", False, unknown
    return None, False, unknown


def account(records, refs):
    """Counts over the records: attempted, failures (known and new),
    unknown, and the failure breakdown by key."""
    failures, new = Counter(), Counter()
    unknown = 0
    for rec in records:
        key, expected, unk = judge(rec, refs.get(rec[0]))
        unknown += unk
        if key:
            failures[key] += 1
            if not expected:
                new[key] += 1
    return {"attempted": len(records), "failed": sum(failures.values()),
            "new_failed": sum(new.values()), "unknown": unknown,
            "failures": dict(sorted(failures.items())),
            "new_failures": dict(sorted(new.items()))}


def reference_entry(record):
    """What --update-refs stores for one operation: its verdict and
    witness kind (or CLI document), and the problem it shows today."""
    op_id, _, verdict, kind, problem, output = record
    if output is not None:
        key = problem
        if key is None and rejected_replays(cli_document(output)):
            key = f"{op_id}:replay-rejected"
        return {"output": cli_document(output), "problem": key}
    return {"verdict": verdict, "kind": kind, "problem": problem}


# --------------------------------------------------------------------------
# per-layer metrics of the traced run
# --------------------------------------------------------------------------

# span name -> (metric prefix, unit, scale applied to self seconds per call)
LAYER_SPANS = {
    "cli.main": ("cli.main", "ms", 1e3),
    "dsl.parse": ("dsl.parse", "us", 1e6),
    "dsl.print_net": ("dsl.print_net", "us", 1e6),
    "nets.eval_net": ("nets.eval_net", "us", 1e6),
    "harness.eval_grid": ("harness.eval_grid", "us_per_point", None),
    "asymptotics.is_moderate": ("asymptotics.is_moderate", "ms", 1e3),
    "asymptotics.is_negligible": ("asymptotics.is_negligible", "ms", 1e3),
    "asymptotics.is_strictly_nonzero": ("asymptotics.is_strictly_nonzero",
                                        "ms", 1e3),
    "asymptotics.valuation": ("asymptotics.valuation", "ms", 1e3),
    "asymptotics.leq": ("asymptotics.leq", "ms", 1e3),
    "asymptotics.gn_equal": ("asymptotics.gn_equal", "ms", 1e3),
    "harness.verify_decision.moderate": ("harness.verify_decision.moderate",
                                         "ms", 1e3),
    "harness.verify_decision.negligible": (
        "harness.verify_decision.negligible", "ms", 1e3),
    "harness.verify_decision.strictly_nonzero": (
        "harness.verify_decision.strictly_nonzero", "ms", 1e3),
    "harness.verify_decision.leq": ("harness.verify_decision.leq", "ms", 1e3),
    "harness.verify_decision.gn_equal": ("harness.verify_decision.gn_equal",
                                         "ms", 1e3),
    "harness.estimate_valuation": ("harness.estimate_valuation", "ms", 1e3),
    "profiles.info": ("profiles.info", "ms", 1e3),
    "profiles.rat": ("profiles.rat", "ms", 1e3),
    "smoothing.smooth_approximate": ("smoothing.smooth_approximate", "ms",
                                     1e3),
    "smoothing.refute_continuous_representative": (
        "smoothing.refute_continuous_representative", "ms", 1e3),
    "constructions.construct_zero_divisor": (
        "constructions.construct_zero_divisor", "ms", 1e3),
    "constructions.annihilator_split": ("constructions.annihilator_split",
                                        "ms", 1e3),
    "constructions.characteristic_set": ("constructions.characteristic_set",
                                         "ms", 1e3),
    "constructions.gelfand_witnesses": ("constructions.gelfand_witnesses",
                                        "ms", 1e3),
    "constructions.idempotent_classify": (
        "constructions.idempotent_classify", "ms", 1e3),
    "lattice.abs_factor": ("lattice.abs_factor", "ms", 1e3),
    "ideals.membership": ("ideals.membership", "ms", 1e3),
    "ideals.intersect_principal": ("ideals.intersect_principal", "ms", 1e3),
    "ideals.power_membership": ("ideals.power_membership", "ms", 1e3),
    "ideals.is_radical_principal": ("ideals.is_radical_principal", "ms", 1e3),
}

# per-layer metrics that are not span timings: name -> unit
EXTRA_LAYER_METRICS = {
    "import.gnum_s": "s",
    "import.cli_s": "s",
    "profiles.info.hit_ratio": "ratio",
    "profiles.rat.hit_ratio": "ratio",
    "constructions.witness_nodes": "nodes",
    "smoothing.blend_nodes": "nodes",
    "src.loc": "lines",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer_names():
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    out = []
    for prefix, unit, _ in LAYER_SPANS.values():
        out += [(f"{prefix}_{unit}", unit), (f"{prefix}.calls", "count"),
                (f"{prefix}.errors", "count")]
    return out + list(EXTRA_LAYER_METRICS.items())


def layer_metrics(own, cover, eval_points: int):
    """Span totals {name: [calls, errors, self seconds]} -> metrics.  A
    layer the workload itself did not call is taken from the coverage
    pass (`cover`), so every workload reports every layer."""
    out = {}
    for span, (prefix, unit, scale) in LAYER_SPANS.items():
        row = own.get(span) or cover.get(span) or [0, 0, 0.0]
        calls, errors, self_s = row
        if scale is None:                     # per grid point
            scale = 1e6 / eval_points
        out[f"{prefix}_{unit}"] = self_s / calls * scale if calls else 0.0
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.errors"] = errors
    return out


def merge_totals(totals_list):
    out = {}
    for totals in totals_list:
        for name, (calls, errors, self_s) in totals.items():
            row = out.setdefault(name, [0, 0, 0.0])
            row[0] += calls
            row[1] += errors
            row[2] += self_s
    return out
