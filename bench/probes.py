"""Fixed per-layer probes for the traced run.

Each probe calls one layer's public functions on fixed, seeded inputs with
the tracer installed and reads its number off the spans.  The probes are the
same on every workload; `README.md` lists which end-to-end metric each one
should move, and on which workload.
"""

from __future__ import annotations

import io
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from statistics import median
from time import perf_counter

import reference as ref
from workloads import ROOT, WORK, cli_env, run_cli

REPEATS = 3
CLI_REPEATS = 5
LOOPS = 20
# ex(7,4,5) under a time budget: the search's first leaf is the complete
# 35-edge family, and its freeness re-check runs past the deadline.
OVERRUN = ((7, 4, 5), 200)


def _median_span(tracer, name: str, fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        mark = len(tracer.spans)
        fn()
        times.append(tracer.total(name, mark))
    return median(times)


def hypercore_regdetect(rg, tracer, rng: random.Random) -> dict:
    n = 30
    edges = [tuple(rng.sample(e, 4)) for e in combinations(range(n), 4)]
    rng.shuffle(edges)
    text = ref.write_hg(n, edges)
    m = len(edges)
    out = {}
    parse_s = _median_span(tracer, "hypercore.parse", lambda: rg.parse(text))
    out["hypercore.parse_s"] = (parse_s, "s")
    out["hypercore.parse_edges_per_s"] = (m / parse_s, "1/s")
    out["hypercore.construct_s"] = (_median_span(
        tracer, "hypercore.Hypergraph", lambda: rg.Hypergraph(n, edges)), "s")
    h = rg.Hypergraph(n, edges)
    out["hypercore.serialize_s"] = (_median_span(
        tracer, "hypercore.serialize", lambda: rg.serialize(h)), "s")

    def incidence():
        fresh = rg.Hypergraph(n, edges)
        with tracer.span("hypercore.vertex_incidence"):
            fresh.vertex_incidence
    out["hypercore.incidence_s"] = (
        _median_span(tracer, "hypercore.vertex_incidence", incidence), "s")
    one = rg.SolverBudget(max_nodes=1)
    out["regdetect.setup_ms"] = (1e3 * _median_span(
        tracer, "regdetect.find_regular", lambda: rg.find_regular(h, 2, one)), "ms")

    # Search-bound hosts: full star (free), example B above its threshold.
    star, _ = rg.full_star(16, 3)
    exb, _ = rg.example_b(9, 3, 2)
    nodes = []

    def solve():
        nodes.clear()
        nodes.append(rg.find_regular(star, 2).nodes)
        nodes.append(rg.find_regular(exb, 9).nodes)
    secs = _median_span(tracer, "regdetect.find_regular", solve)
    out["regdetect.nodes"] = (sum(nodes), "count")
    out["regdetect.search_us_per_node"] = (1e6 * secs / sum(nodes), "us")

    plus, _ = rg.star_plus(16, 3, 3)
    cert = rg.find_regular(plus, 3).certificate
    calls = 200
    out["regdetect.verify_ms"] = (1e3 / calls * _median_span(
        tracer, "regdetect.verify_certificate",
        lambda: [rg.verify_certificate(plus, cert) for _ in range(calls)]), "ms")
    return out


def extremal(rg, tracer) -> dict:
    out = {}
    mark = len(tracer.spans)
    reports = [rg.extremal_search(6, 3, 2), rg.extremal_search(7, 4, 3)]
    secs = tracer.total("extremal.extremal_search", mark)
    outer = sum(rep.nodes for rep in reports)
    out["extremal.search_s"] = (secs, "s")
    out["extremal.outer_nodes"] = (outer, "count")
    out["extremal.us_per_outer_node"] = (1e6 * secs / outer, "us")
    mark = len(tracer.spans)
    for rep in reports:
        rg.find_regular(rep.witness, rep.r)
    out["extremal.witness_recheck_s"] = (tracer.total("regdetect.find_regular", mark), "s")
    (n, k, r), millis = OVERRUN
    mark = len(tracer.spans)
    rg.extremal_search(n, k, r, budget=rg.SolverBudget(max_millis=millis))
    out["extremal.budget_overrun_ms"] = (
        1e3 * tracer.total("extremal.extremal_search", mark) - millis, "ms")
    return out


def gadgets_patterns(rg, tracer, rng: random.Random) -> dict:
    """Fixed sets of generator, verifier and finder calls, looped so that
    each number is milliseconds, not microseconds."""
    seeds = [rng.randrange(1 << 30) for _ in range(4)]
    built = []

    def generate():
        built.clear()
        rg.full_star(30, 4), rg.star_plus(30, 4, 2), rg.example_b(16, 3, 2)
        rg.gadget_h(10, 6), rg.gadget_h_prime(10, 5)
        built.extend(rg.bes_layer_star(n, 4, 3, s) for n, s in zip((12, 14, 16, 18), seeds))
    out = {"gadgets.generate_s": (_median_span(tracer, "gadgets.", generate), "s")}
    out["gadgets.verify_s"] = (_median_span(
        tracer, "gadgets.verify_bes_layer_star",
        lambda: [rg.verify_bes_layer_star(h, d) for _ in range(LOOPS) for h, d in built]), "s")
    star, _ = rg.full_star(20, 3)
    hkl, _ = rg.gadget_h(8, 4)
    hp, _ = rg.gadget_h_prime(8, 3)

    def find():
        for _ in range(LOOPS):
            rg.find_sunflower(star, 3), rg.find_same_union(star), rg.find_same_union(hkl)
            rg.find_gadget_copy(hp, 8, 3, prime=True)
    out["patterns.find_s"] = (_median_span(tracer, "patterns.", find), "s")
    return out


def cli(rg, tracer) -> dict:
    work = WORK / "probe"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tiny = work / "tiny.hg"
    tiny.write_text(ref.write_hg(6, [e for e in combinations(range(6), 3) if 0 in e]),
                    encoding="ascii")
    argv = ["detect", "--input", str(tiny), "--r", "2"]
    env = cli_env()

    def wall(fn) -> float:
        times = []
        for _ in range(CLI_REPEATS):
            t0 = perf_counter()
            proc = fn()
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr}")
        return median(times)

    def python(code):
        return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
    out = {"cli.startup_ms": (1e3 * wall(lambda: run_cli(argv, env)), "ms")}
    out["cli.import_ms"] = (1e3 * (wall(lambda: python("import regulus.cli"))
                                   - wall(lambda: python("pass"))), "ms")
    selfs = []
    for _ in range(CLI_REPEATS):
        mark = len(tracer.spans)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = rg.cli.run(list(argv))
        if code != 0:
            raise RuntimeError(f"in-process replay exited {code}")
        selfs.append(tracer.self_times(mark)["cli"])
    out["cli.self_ms"] = (1e3 * median(selfs), "ms")
    shutil.rmtree(work, ignore_errors=True)
    return out


def run_all(rg, tracer, seed: int) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    rng = random.Random(seed)
    out = {}
    out.update(hypercore_regdetect(rg, tracer, rng))
    out.update(extremal(rg, tracer))
    out.update(gadgets_patterns(rg, tracer, rng))
    out.update(cli(rg, tracer))
    return out
