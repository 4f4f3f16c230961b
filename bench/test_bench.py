"""Self-test of the benchmark's own bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
from tracing import Tracer  # noqa: E402


def rec(op_id, verdict="true", problem=None, output=None, kind="k"):
    return [op_id, 0.001, verdict, kind, problem, output]


def ref(verdict="true", problem=None, kind="k"):
    return {"verdict": verdict, "kind": kind, "problem": problem}


# -- percentiles --------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(xs, 50) == 3.0
    assert measure.percentile(xs, 0) == 1.0
    assert measure.percentile(xs, 100) == 5.0
    assert measure.percentile(xs, 90) == 4.6
    assert measure.percentile([7.0], 99) == 7.0


def test_tail_percentile_leaves_ten_beyond():
    assert measure.highest_tail_percentile(10000) == 99.9
    assert measure.highest_tail_percentile(1000) == 99.0
    assert measure.highest_tail_percentile(999) == 98.0
    assert measure.highest_tail_percentile(435) == 97.0
    assert measure.highest_tail_percentile(100) == 90.0
    assert measure.highest_tail_percentile(50) == 80.0
    assert measure.highest_tail_percentile(19) is None
    for p in measure.TAIL_PERCENTILE.values():
        assert p in measure.CANDIDATE_PERCENTILES


# -- failure and Unknown accounting -------------------------------------------

def test_shares_count_failures_and_unknowns_over_attempts():
    refs = {"a": ref(), "b": ref("unknown"), "c": ref("false"),
            "d": ref(problem="profiles.info:RecursionError"), "e": ref()}
    records = [rec("a"), rec("b", "unknown"),
               rec("c", "error", "asymptotics.leq:TypeError"),
               rec("d", "error", "profiles.info:RecursionError"),
               rec("e", "true", "harness.verify_decision.moderate:"
                               "replay-rejected")]
    acc = measure.account(records, refs)
    assert acc["attempted"] == 5
    assert acc["unknown"] == 1
    assert acc["failed"] == 3                  # c, d (known), e
    assert acc["new_failed"] == 2              # d is recorded in the refs
    assert acc["failures"]["profiles.info:RecursionError"] == 1
    assert "profiles.info:RecursionError" not in acc["new_failures"]


def test_reference_flip_is_a_failure_but_coverage_change_is_not():
    refs = {"x": ref("true"), "y": ref("unknown"), "z": ref("true")}
    flip = measure.judge(rec("x", "false"), refs["x"])
    assert flip == ("reference:verdict-flipped", False, False)
    gained = measure.judge(rec("y", "false"), refs["y"])
    assert gained == (None, False, False)
    lost = measure.judge(rec("z", "unknown"), refs["z"])
    assert lost == (None, False, True)
    assert measure.judge(rec("w"), None)[0] == "reference:missing"


def test_cli_document_changes_and_rejected_replays():
    doc = {"schema_version": "1", "command": "classify",
           "results": [{"moderate": {"verdict": "true",
                                     "replay": {"passed": True}},
                        "valuation": "Valuation(-2)"}],
           "config": {"seed": 0}}
    text = json.dumps(doc)
    entry = measure.reference_entry(rec("cli.c", "decided", output=text))
    assert "config" not in entry["output"] and entry["problem"] is None
    assert measure.judge(rec("cli.c", "decided", output=text), entry)[0] \
        is None

    changed = json.loads(text)
    changed["results"][0]["valuation"] = "Valuation(-1)"
    assert measure.judge(rec("cli.c", output=json.dumps(changed)),
                         entry)[0] == "reference:document-changed"

    unknown = json.loads(text)
    unknown["results"][0]["moderate"] = {"verdict": "unknown"}
    unknown["results"][0]["valuation"] = "unknown"
    assert measure.judge(rec("cli.c", "unknown", output=json.dumps(unknown)),
                         entry) == (None, False, True)

    rejected = json.loads(text)
    rejected["results"][0]["moderate"]["replay"]["passed"] = False
    key, expected, _ = measure.judge(
        rec("cli.c", output=json.dumps(rejected)), entry)
    assert key == "cli.c:replay-rejected" and not expected


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        measure.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "failed_share",
        "unknown_share", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(
        measure.TAIL_PERCENTILE)


# -- tracing ------------------------------------------------------------------

def test_self_time_excludes_child_spans_and_errors_are_counted():
    tr = Tracer(True)

    def inner():
        time.sleep(0.02)

    def outer():
        tr.call("inner", inner)
        time.sleep(0.01)

    def boom():
        raise ValueError("x")

    tr.call("outer", outer)
    try:
        tr.call("boom", boom)
    except ValueError:
        pass
    totals = tr.layer_totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 1
    outer_self, inner_self = totals["outer"][2], totals["inner"][2]
    assert 0.009 <= outer_self < inner_self and inner_self >= 0.019
    assert totals["boom"][:2] == [1, 1]
    assert Tracer(False).call("noop", lambda: 3) == 3


def test_layer_metrics_fall_back_to_coverage_pass():
    own = {"asymptotics.leq": [4, 1, 0.008]}
    cover = {"asymptotics.leq": [1, 0, 1.0], "cli.main": [2, 0, 0.1]}
    m = measure.layer_metrics(own, cover, eval_points=100)
    assert m["asymptotics.leq_ms"] == 2.0
    assert m["asymptotics.leq.errors"] == 1
    assert m["cli.main_ms"] == 50.0 and m["cli.main.calls"] == 2
    assert m["dsl.parse.calls"] == 0


# -- the child's exception boundary, against a stub workload ------------------

def test_child_counts_exceptions_by_type_at_the_boundary():
    import child
    from corpus import Op

    def raises(tr):
        return tr.call("stub", lambda: [][1])

    def unknown(tr):
        return "unknown", "", None, None
    records = child._run_ops([Op("r", "g", raises), Op("u", "g", unknown)],
                             Tracer(False))
    assert records[0][4] == "bench:IndexError"
    assert records[1][2] == "unknown"
    acc = measure.account(records, {"r": ref(), "u": ref()})
    assert (acc["failed"], acc["unknown"], acc["attempted"]) == (1, 1, 2)
