"""One fresh interpreter of the benchmark: `setup` times import and input
generation; `pass` runs one workload's operations once, in the order its
seed gives, and prints one JSON line.

    python bench/child.py setup <workload>
    python bench/child.py pass <workload> <seed> <trace 0|1> [spans-path]

gnum must be importable (the driver sets PYTHONPATH to the checkout's
src).  Exceptions are caught per operation at this boundary and counted
by the gnum function they escaped from and their type.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

_now = time.perf_counter


def _setup(workload: str) -> dict:
    t0 = _now()
    import gnum
    t1 = _now()
    import gnum.cli  # noqa: F401
    t2 = _now()
    import corpus
    corpus.BUILDERS[workload]()
    t3 = _now()
    out = {"import_gnum_s": t1 - t0, "import_cli_s": t2 - t1,
           "setup_s": t3 - t0, "gnum_file": gnum.__file__}
    if workload == "cli":
        out["commands"] = corpus.cli_commands()
    return out


def _failing_layer(exc: BaseException) -> str:
    """The outermost gnum function the exception escaped from."""
    import gnum
    pkg = os.path.dirname(gnum.__file__)
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if os.path.dirname(code.co_filename) == pkg:
            mod = os.path.splitext(os.path.basename(code.co_filename))[0]
            return f"{mod}.{code.co_name}"
        tb = tb.tb_next
    return "bench"


def _run_ops(ops, tr, clock=None):
    """Run each operation at this boundary; with a clock, the recorded
    times are scaled to the reference host speed (calibrate.py)."""
    records = []
    for op in ops:
        tr.begin_op(op.id)
        t0 = _now()
        try:
            verdict, kind, problem, output = op.fn(tr)
        except Exception as exc:  # counted, never fatal
            verdict, kind, output = "error", "", None
            problem = f"{_failing_layer(exc)}:{type(exc).__name__}"
        seconds = _now() - t0
        records.append([op.id, seconds, verdict, kind, problem, output])
        if clock is not None:
            clock.add(seconds)
    if clock is not None:
        for rec, scaled in zip(records, clock.finish()):
            rec[1] = scaled
    return records


def _eval_probe(wl, tr, corpus, n_nets: int = 20, n_points: int = 25):
    """Scalar and grid evaluation over the workload's own input nets."""
    pts = [float(e) for e in corpus.EVAL_GRID.points()][::4][:n_points]
    for net in wl.nets[:n_nets]:
        for e in pts:
            try:
                tr.call("nets.eval_net", corpus.eval_net, net, e)
            except Exception:
                pass            # counted in nets.eval_net.errors
        try:
            tr.call("harness.eval_grid", corpus.H.eval_grid, net,
                    corpus.EVAL_GRID)
        except Exception:
            pass


def _hit_ratio(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    total = ci.hits + ci.misses
    return ci.hits / total if total else None


def _scaled(totals, scale):
    """Layer self times at the reference host speed of the pass."""
    return {k: [calls, errors, secs * scale]
            for k, (calls, errors, secs) in totals.items()}


def _pass(workload: str, seed: int, trace: bool, spans_path) -> dict:
    import corpus
    from tracing import Tracer
    from calibrate import Clock
    wl = corpus.BUILDERS[workload]()
    tr = Tracer(trace)
    clock = Clock()
    records = _run_ops(wl.ordered(seed), tr, clock)
    raw_s = sum(t for _, t in clock.raw)
    out = {"wall_s": sum(r[1] for r in records), "raw_wall_s": raw_s,
           "records": records}
    if trace:
        out["hit_ratio"] = {"info": _hit_ratio(corpus.P.info),
                            "rat": _hit_ratio(corpus.P.rat)}
        _eval_probe(wl, tr, corpus)
        scale = out["wall_s"] / raw_s if raw_s else 1.0
        out["layers"] = _scaled(tr.layer_totals(), scale)
        # the other workloads' operations, one per group, so that every
        # layer has a figure; only used for layers this workload skipped
        cover = Tracer(True)
        for other, build in corpus.BUILDERS.items():
            if other != workload:
                _run_ops(build().one_per_group(), cover)
        out["cover_layers"] = _scaled(cover.layer_totals(), scale)
        out["counters"] = {k: sum(v) / len(v) for k, v in
                           {**cover.counters, **tr.counters}.items()}
        if spans_path:
            tr.dump(spans_path)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main(argv) -> int:
    if argv[0] == "setup":
        out = _setup(argv[1])
    else:
        out = _pass(argv[1], int(argv[2]), argv[3] == "1",
                    argv[4] if len(argv) > 4 else None)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
