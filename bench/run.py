"""Run one regulus benchmark workload and print its metrics.

    python3 bench/run.py --workload {detect,search,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/`, and
scratch files go to `.bench_work/`.  The run sets up the workload's op list
several times (the median is `setup_s`), then repeats passes over it, one op
at a time, for about S seconds, and checks every answer against
`reference.py`.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes (the difference of their
median walls is the tracing overhead), then runs the per-layer probes.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import Fail, Wrong  # noqa: E402

SETUPS = 7
TAIL_OPS = 10  # ops beyond the tail percentile


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_pass(wl, ops, tracer=None) -> dict:
    """One pass over the op list: time each op, then check every answer."""
    results = []
    lat = []
    wl.begin_pass()
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                res = op.call()
            else:
                tracer.op = i
                with tracer.span(wl.op_span):
                    res = op.call()
            err = None
        except Exception as exc:  # a crash in the program is a failed op
            res, err = None, f"{type(exc).__name__}: {exc}"[:200]
        lat.append(perf_counter() - t0)
        results.append((res, err))
    wall = perf_counter() - start
    if tracer is not None:
        tracer.remove()
    failures = []
    wrong = 0
    nodes = 0
    for op, (res, err) in zip(ops, results):
        if err is None:
            try:
                wl.check(op, res)
                nodes += wl.nodes(res)
            except Wrong as exc:
                err, wrong = f"wrong: {exc}", wrong + 1
            except Fail as exc:
                err = str(exc)
            except (LookupError, ValueError, OSError) as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{op.label}: {err}")
    lat.sort()
    return {"wall": wall, "lat": lat, "nodes": nodes, "failures": failures, "wrong": wrong}


def run_passes(wl, ops, seconds: float, tracer=None) -> list[dict]:
    """Passes until about `seconds` of pass time is used; with a tracer,
    untraced and traced passes alternate (at least one of each)."""
    passes = []
    used = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = run_pass(wl, ops, tracer if traced else None)
        p["traced"] = traced
        passes.append(p)
        used += p["wall"]
        enough = tracer is None or len(passes) >= 2
        if enough and used + used / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("detect", "search", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (workloads.SRC / "regulus" / "__init__.py").is_file():
        print(f"error: no regulus package under {workloads.SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = perf_counter()
        ops = wl.setup(args.seed)
        setups.append(perf_counter() - t0)
    if len(ops) <= TAIL_OPS:
        raise SystemExit("error: too few ops for a tail percentile")

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    passes = run_passes(wl, ops, args.seconds, tracer)
    plain = [p for p in passes if not p["traced"]]
    n_ops = len(ops)
    tail_pct = 100.0 * (n_ops - TAIL_OPS) / n_ops
    wrong = sum(p["wrong"] for p in passes)
    node_counts = sorted({p["nodes"] for p in passes})
    failures = sorted({f for p in passes for f in p["failures"]})
    attempted = n_ops * len(passes)
    failed = sum(len(p["failures"]) for p in passes)

    walls = [p["wall"] for p in plain]
    if tracer is None:
        metrics = {
            "wall_s": (median(walls), "s"),
            "op_p50_ms": (1e3 * median(median(p["lat"]) for p in plain), "ms"),
            "op_tail_ms": (1e3 * median(p["lat"][n_ops - TAIL_OPS - 1] for p in plain), "ms"),
            "nodes": (node_counts[0], "count"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import probes
        traced_walls = [p["wall"] for p in passes if p["traced"]]
        pass_spans = len(tracer.spans) // len(traced_walls)
        rg = wl.rg or workloads.fresh_regulus()
        tracer.install()
        try:
            metrics = probes.run_all(rg, tracer, args.seed)
        finally:
            tracer.remove()
        for name, secs in tracer.self_times().items():
            if name != "bench":
                metrics[f"{name}.self_s"] = (secs, "s")
        metrics["trace.overhead_s"] = (median(traced_walls) - median(walls), "s")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(workloads.ROOT),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(), "ops_per_pass": n_ops, "passes": len(passes),
        "tail_percentile": round(tail_pct, 2), "failed_ratio": failed / attempted,
        "pass_walls_s": [p["wall"] for p in passes], "setups_s": setups,
        "node_counts": node_counts, "failures": failures,
    }
    if tracer is not None:
        record["spans_per_traced_pass"] = pass_spans
    shutil.rmtree(workloads.WORK / args.workload, ignore_errors=True)
    try:
        workloads.WORK.rmdir()
    except OSError:
        pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0 and len(node_counts) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
