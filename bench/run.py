"""The gnum benchmark: one workload per call, every measurement in fresh
interpreters started one at a time from this process.

    python3 bench/run.py --workload sweep|witnesses|cli --seed N \
        --seconds S --trace 0|1 [--update-refs]

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it
is a detail object (failure breakdown, tail percentile, sample count).
`--update-refs` rewrites refs/<workload>.json from one pass and exits;
it is the only way the references change.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
from calibrate import REFERENCE_SPAWN_S, Clock, factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOADS = ("sweep", "witnesses", "cli")
SETUP_PROBES = 5            # fresh interpreters timed for setup_s
CHILD_TIMEOUT_S = 170

_now = time.perf_counter


class BenchError(Exception):
    pass


def _env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "GNUM_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _alarm(signum, frame):
    raise TimeoutError("child process timed out")


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion: (exit code, stdout, stderr, seconds, peak
    RSS in KiB).  Output goes to temporary files inside the checkout, and
    the child is reaped with wait4 to read its own resource usage."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = _now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                                cwd=ROOT)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(timeout)
        try:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
        except BaseException as exc:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            if isinstance(exc, TimeoutError):
                raise BenchError(f"timed out: {argv[:4]}") from exc
            raise
        seconds = _now() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, usage.ru_maxrss)


def child(*args):
    code, out, err, _, _ = spawn([sys.executable, str(HERE / "child.py"),
                                  *map(str, args)])
    if code != 0:
        raise BenchError(f"child {args[:3]} exited {code}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def spawn_calibrate():
    """Seconds a fresh interpreter takes to run the calibration task."""
    code, _, err, seconds, _ = spawn([sys.executable,
                                      str(HERE / "calibrate.py")])
    if code != 0:
        raise BenchError(f"calibration exited {code}:\n{err[-2000:]}")
    return seconds


def setup_probes(workload):
    """Fresh interpreters that import gnum and build the inputs, each
    scaled by fresh-interpreter calibrations around it (so the probe
    itself imports nothing before gnum)."""
    probes = []
    for _ in range(SETUP_PROBES):
        before = spawn_calibrate()
        p = child("setup", workload)
        f = factor(before, spawn_calibrate(), REFERENCE_SPAWN_S)
        for key in ("import_gnum_s", "import_cli_s", "setup_s"):
            p[key] *= f
        if not Path(p["gnum_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"gnum imported from {p['gnum_file']}, "
                             f"not from {SRC}")
        probes.append(p)
    return probes


def cli_pass(commands, seed):
    """Each command as its own `python -m gnum.cli` child, one at a time."""
    order = list(commands)
    random.Random(f"gnum-bench|{seed}").shuffle(order)
    records, rss = [], 0
    # a command takes longer than the in-process interval; calibrating
    # after every one would halve the commands measured in a run
    clock = Clock(spawn_calibrate, REFERENCE_SPAWN_S, every_s=0.5)
    for cid, argv, _ in order:
        code, out, _, seconds, maxrss = spawn(
            [sys.executable, "-m", "gnum.cli", *argv])
        clock.add(seconds)
        rss = max(rss, maxrss)
        records.append([f"cli.{cid}", seconds,
                        *measure.cli_outcome(cid, code, out)])
    for rec, scaled in zip(records, clock.finish()):
        rec[1] = scaled
    return records, rss, sum(t for _, t in clock.raw)


def run_passes(workload, seed, seconds, mode, commands=None, count=None):
    """`count` passes, or as many as fit in `seconds` (at least one),
    judging from the mean pass so far.  mode "e2e": cli commands as their
    own processes, other workloads in an untraced child; "plain"/"traced":
    a child running the operations in process, without or with spans."""
    passes, t0 = [], _now()
    while True:
        if mode == "e2e" and workload == "cli":
            records, rss, raw_s = cli_pass(commands, seed)
            passes.append({"records": records, "rss_kb": rss,
                           "wall_s": sum(r[1] for r in records),
                           "raw_wall_s": raw_s})
        else:
            traced = mode == "traced"
            spans = OUT / f"spans-{workload}-{seed}.jsonl" if traced else ""
            passes.append(child("pass", workload, seed, int(traced), spans))
        if count is not None:
            if len(passes) >= count:
                return passes
        elif fits_no_more(_now() - t0, len(passes), seconds):
            return passes


def fits_no_more(elapsed, done, seconds):
    """Would one more pass, as long as the mean so far, end after
    `seconds`?"""
    return elapsed + elapsed / done > seconds


def load_refs(workload):
    path = HERE / "refs" / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def end_to_end(workload, probes, passes):
    records = [r for p in passes for r in p["records"]]
    lat_ms = [r[1] * 1e3 for r in records]
    acc = measure.account(records, load_refs(workload))
    n = acc["attempted"]
    tail = measure.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        # median over passes, so a slow spell on a shared host moves it less
        "ops_per_s": (statistics.median(
            len(p["records"]) / sum(r[1] for r in p["records"])
            for p in passes), "1/s"),
        "op_p50_ms": (measure.percentile(lat_ms, 50.0), "ms"),
        "op_tail_ms": (measure.percentile(lat_ms, tail), "ms"),
        "failed_share": (acc["failed"] / n, "share"),
        "unknown_share": (acc["unknown"] / n, "share"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }
    detail = {"workload": workload, "passes": len(passes), "samples": n,
              "host_scale": statistics.median(p["wall_s"] / p["raw_wall_s"]
                                              for p in passes),
              "tail_percentile": tail,
              "beyond_tail": round(n * (100 - tail) / 100.0, 1),
              "unknown": acc["unknown"], "failures": acc["failures"],
              "new_failures": acc["new_failures"]}
    return acc, metrics, detail


def src_loc():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "gnum").rglob("*.py")))


def per_layer(workload, seed, seconds, probes):
    """Untraced and traced passes of the same operations, alternating
    (in-process for cli); the difference of their median wall times is
    the tracing overhead."""
    commands = probes[0].get("commands")
    plain, traced, t0 = [], [], _now()
    while not plain or not fits_no_more(_now() - t0, len(plain), seconds):
        plain += run_passes(workload, seed, 0, "plain", commands, count=1)
        traced += run_passes(workload, seed, 0, "traced", commands, count=1)
    own = measure.merge_totals(p["layers"] for p in traced)
    cover = measure.merge_totals(p["cover_layers"] for p in traced)
    m = measure.layer_metrics(own, cover, measure.EVAL_POINTS)
    units = dict(measure.per_layer_names())
    plain_s = statistics.median(p["wall_s"] for p in plain)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    m["import.gnum_s"] = statistics.median(p["import_gnum_s"] for p in probes)
    m["import.cli_s"] = statistics.median(p["import_cli_s"] for p in probes)
    for fn in ("info", "rat"):
        ratios = [p["hit_ratio"][fn] for p in traced]
        if all(r is not None for r in ratios):
            m[f"profiles.{fn}.hit_ratio"] = statistics.mean(ratios)
    counters = [p["counters"] for p in traced]
    for name in ("constructions.witness_nodes", "smoothing.blend_nodes"):
        vals = [c[name] for c in counters if name in c]
        if vals:
            m[name] = statistics.mean(vals)
    m["src.loc"] = src_loc()
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    records = [r for p in plain + traced for r in p["records"]]
    acc = measure.account(records, load_refs(workload))
    detail = {"workload": workload, "untraced_passes": len(plain),
              "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
              "absent": sorted(set(units) - set(m)),
              "failures": acc["failures"], "new_failures": acc["new_failures"]}
    return acc, {k: (v, units[k]) for k, v in m.items()}, detail


def update_refs(workload, seed, probes):
    passes = run_passes(workload, seed, 0, "e2e", probes[0].get("commands"),
                        count=1)
    refs = {r[0]: measure.reference_entry(r)
            for r in sorted(passes[0]["records"], key=lambda r: r[0])}
    path = HERE / "refs" / f"{workload}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(refs)} references to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-refs", action="store_true",
                    help="rewrite refs/<workload>.json from one pass")
    args = ap.parse_args(argv)
    if not (SRC / "gnum" / "__init__.py").is_file():
        print(f"no gnum sources under {SRC}", file=sys.stderr)
        return 2
    try:
        probes = setup_probes(args.workload)
        if args.update_refs:
            update_refs(args.workload, args.seed, probes)
            return 0
        if args.trace:
            acc, metrics, detail = per_layer(args.workload, args.seed,
                                             args.seconds, probes)
        else:
            passes = run_passes(args.workload, args.seed, args.seconds,
                                "e2e", probes[0].get("commands"))
            acc, metrics, detail = end_to_end(args.workload, probes, passes)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": acc["new_failed"] == 0,
        "attempted": acc["attempted"], "failed": acc["new_failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
