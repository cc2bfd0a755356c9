"""The three workloads: `detect`, `search` and `cli`.

Each workload's `setup(seed)` builds a fixed op list from the seed (the same
seed gives the same list) and `check(op, result)` judges one result against
the independent references in `reference.py`.  An op is one library call
(`detect`, `search`) or one `regulus` subprocess (`cli`).

Why these three: `detect` loads the solver's propagation, undo and
subsumption check and bypasses parse and startup; `search` loads the
extremal outer loop and its tens of thousands of tiny solver builds (the
same solver used differently); `cli` loads interpreter start, imports, parse,
validation and solver setup on large masks and bypasses deep search.
"""

from __future__ import annotations

import importlib
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A budgeted search on a host of 1000+ edges; on hosts this wide the solver's
# per-edge recursion raises RecursionError, so the op fails until that is fixed.
WIDE = (25, 4, 2000)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    expect: Any
    data: dict = field(default_factory=dict)


class Fail(Exception):
    """The op did not produce an answer (exception, traceback, exit code)."""


class Wrong(Exception):
    """The op produced an answer and the answer is wrong."""


def fresh_regulus():
    """Import the package from source, dropping any earlier import, so that
    each set-up pays for the imports."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "regulus" or m.startswith("regulus.")]:
        del sys.modules[name]
    rg = importlib.import_module("regulus")
    importlib.import_module("regulus.cli")
    return rg


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, ...]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(perm[v] for v in e) for e in edges]


def _star(n: int, k: int) -> list[tuple[int, ...]]:
    return [(0, *rest) for rest in combinations(range(1, n), k - 1)]


# Planted configurations: every vertex of each lies in exactly r of its edges.
_PASCH = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))  # r = 2
_K4_3 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))  # r = 3


def _planted(rng: random.Random, n: int, m: int, config) -> list[tuple[int, ...]]:
    spots = rng.sample(range(n), 6)
    edges = {tuple(sorted(spots[v] for v in e)) for e in config}
    pool = list(combinations(range(n), 3))
    while len(edges) < m:
        edges.add(rng.choice(pool))
    return list(edges)


class Workload:
    op_span = "bench.op"  # span name of one op in a traced pass
    rg = None  # the imported package, for workloads that call it in-process

    def begin_pass(self) -> None:
        pass


# --------------------------------------------------------------------- detect

class Detect(Workload):
    """In-process `find_regular` over a seeded stream of hosts."""

    name = "detect"

    def setup(self, seed: int) -> list[Op]:
        rg = fresh_regulus()
        rng = random.Random(seed)
        ops: list[Op] = []

        def host(label, n, edges, r, expect, budget=None, relabel=True):
            if relabel:
                edges = _relabel(rng, n, edges)
            h = rg.Hypergraph(n, edges)
            b = None if budget is None else rg.SolverBudget(max_nodes=budget)
            ops.append(Op(label, lambda: rg.find_regular(h, r, b), expect,
                          {"h": h, "n": n, "edges": edges, "r": r}))

        # Relabelling moves the node count of most hosts a lot (up to 4x for
        # example B), so only hosts whose count it leaves alone (full stars)
        # or whose count is small are relabelled, and the seed-driven share
        # of `nodes` stays small.  The star counts put the median op among
        # the ten star(13,3) ops and the 11th-slowest op among the five
        # star(16,3) ops, so neither falls in a gap between two costs.
        # Free by construction: full stars (no r-regular subfamily for r >= 2).
        for (n, k), times in {(13, 3): 10, (14, 3): 4, (10, 4): 6, (16, 3): 5, (17, 3): 2,
                              (18, 3): 1, (11, 4): 1, (12, 4): 1}.items():
            h, _ = rg.full_star(n, k)
            for _ in range(times):
                host(f"star{n},{k}", n, h.edges, 2, "none")
        # Free by construction, and proved so by the structural verifier.
        for _ in range(10):
            h, desc = rg.bes_layer_star(8, 4, 3, rng.randrange(1 << 30))
            if rg.verify_bes_layer_star(h, desc) != (True, "ok"):
                raise RuntimeError("layered star failed its structural check")
            host("bes8", 8, h.edges, 3, "none", relabel=False)
        # Free above the threshold c * C(c(k-1), k-2) = 8 of the paper's
        # example B with c = 2, k = 3.
        for n in (8, 9):
            h, _ = rg.example_b(n, 3, 2)
            host(f"exb{n}", n, h.edges, 9, "none", relabel=False)
        # Containing an r-regular subfamily by construction.
        for n, k, r in ((9, 3, 3), (10, 3, 3), (11, 3, 3), (12, 3, 3), (7, 4, 2), (8, 4, 2)):
            h, _ = rg.star_plus(n, k, r)
            host(f"plus{n},{k}", n, h.edges, r, "found")
        for i in range(6):
            n = 10 + i % 3
            r, config = (2, _PASCH) if i % 2 == 0 else (3, _K4_3)
            host(f"planted{n},r{r}", n, _planted(rng, n, 30 + 5 * i, config), r, "found")
        n, k, budget = WIDE
        h, _ = rg.full_star(n, k)
        host(f"wide{n},{k}", n, h.edges, 2, "budget", budget)
        rng.shuffle(ops)
        self.rg = rg
        return ops

    def check(self, op: Op, res) -> None:
        status = res.status.name
        if op.expect == "found":
            if status != "FOUND":
                raise Wrong(f"{status}, expected FOUND")
            cert = res.certificate
            if "colex" not in op.data:
                op.data["colex"] = ref.colex(op.data["edges"])
            edges = op.data["colex"]
            why = ref.regular_ok(edges, op.data["r"], cert.edge_indices, cert.covered)
            if why is None and cert.r != op.data["r"]:
                why = "certificate r differs"
            if why is None and self.rg.verify_certificate(op.data["h"], cert) != (True, "ok"):
                why = "verify_certificate rejects it"
            if why:
                raise Wrong(f"certificate: {why}")
        elif op.expect == "none" and status != "NONE_EXISTS":
            raise Wrong(f"{status} on a free host")
        elif op.expect == "budget" and status not in ("BUDGET_EXHAUSTED", "NONE_EXISTS"):
            raise Wrong(f"{status} on a free host")

    @staticmethod
    def nodes(res) -> int:
        return res.nodes


# --------------------------------------------------------------------- search

# Every triple of ref.EX completes in at most a few seconds.  The cheap ones
# (under about 50 ms) run three times a pass so the tail percentile exists;
# ex(7,4,3), whose cost is half witness re-check, runs three times so that
# the 11th-slowest op of a pass is always one of its runs.
_HEAVY = ((6, 3, 2), (6, 3, 3), (6, 3, 4), (6, 3, 5), (7, 2, 2), (7, 2, 3),
          (7, 2, 4), (7, 5, 5)) + ((7, 4, 3),) * 3
_CHEAP = tuple(t for t in ref.EX if t not in _HEAVY)
# ex(7,3,2) does not complete in seconds; a node budget keeps stdout and the
# node count deterministic.
BUDGETED = ((7, 3, 2), 10_000)


class Search(Workload):
    """In-process `extremal_search` over a seeded order of (n, k, r)."""

    name = "search"

    def setup(self, seed: int) -> list[Op]:
        rg = fresh_regulus()
        ops: list[Op] = []

        def search(label, t, expect, budget=None, iso=False):
            b = None if budget is None else rg.SolverBudget(max_nodes=budget)
            ops.append(Op(label, lambda: rg.extremal_search(*t, budget=b, isomorph_reject=iso),
                          expect, {"t": t}))

        for t in _HEAVY + _CHEAP * 3:
            search("ex%d,%d,%d" % t, t, ref.EX[t][0])
        search("ex6,3,2-iso", (6, 3, 2), ref.EX[(6, 3, 2)][0], iso=True)
        t, budget = BUDGETED
        search("ex%d,%d,%d-budget" % t, t, None, budget=budget)
        random.Random(seed).shuffle(ops)
        self.rg = rg
        self.free_checked: set = set()
        return ops

    def check(self, op: Op, rep) -> None:
        n, k, r = op.data["t"]
        edges = [tuple(e) for e in rep.witness.edges]
        if (rep.n, rep.k, rep.r) != (n, k, r):
            raise Wrong("report is for another triple")
        if op.expect is not None:
            if not rep.complete:
                raise Wrong("incomplete without a budget")
            if rep.optimum != op.expect:
                raise Wrong(f"ex{op.data['t']} = {rep.optimum}, expected {op.expect}")
        if len(edges) != rep.optimum or len(set(edges)) != len(edges):
            raise Wrong("witness size differs from the optimum")
        if any(len(e) != k or not all(0 <= v < n for v in e) for e in edges):
            raise Wrong("witness edge is not a k-subset of [0, n)")
        key = (r, tuple(edges))
        if key not in self.free_checked:
            if not ref.is_free(edges, n, r):
                raise Wrong("witness has an r-regular subfamily")
            self.free_checked.add(key)

    @staticmethod
    def nodes(rep) -> int:
        return rep.nodes


# ------------------------------------------------------------------------ cli

_TRACEBACK = "Traceback (most recent call last)"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REGULUS_MAX_MILLIS", None)
    return env


def run_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "regulus.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


class Cli(Workload):
    """`python -m regulus.cli` subprocesses, one at a time."""

    name = "cli"
    op_span = "cli.invocation"

    def setup(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        work = WORK / "cli"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = cli_env()
        self.files: dict[str, tuple[int, list]] = {}  # host files read back, by path

        def path(name: str) -> str:
            return str(work / name)

        def out(name: str) -> str:
            return f"{{out}}/{name}"

        def write(name: str, n: int, edges) -> None:
            edges = [tuple(rng.sample(e, len(e))) for e in edges]
            rng.shuffle(edges)
            Path(path(name)).write_text(ref.write_hg(n, edges), encoding="ascii")

        # Inputs the ops only read: large hosts that resolve in a few nodes
        # (four of 12,650 edges, one of 91,390), the wide host, a tampered
        # certificate.  The eight ops on the 12,650-edge hosts cost about the
        # same, and the 11th-slowest op of a pass falls among them.
        for i in range(4):
            write(f"mid{i}.hg", 25, _relabel(rng, 25, combinations(range(25), 4)))
        write("big.hg", 40, _relabel(rng, 40, combinations(range(40), 4)))
        n, k, budget = WIDE
        write("wide.hg", n, _relabel(rng, n, _star(n, k)))
        Path(path("tampered.cert")).write_text("3 1\n0\n%s\n" % " ".join(
            map(str, sorted(rng.sample(range(9), 3)))), encoding="ascii")

        def op(label, argv, exits, check=None, **data):
            """`exits`: the accepted exit codes (0 for a budgeted search that
            completes within its budget, 3 when the budget runs out)."""
            exits = exits if isinstance(exits, tuple) else (exits,)
            return Op(label, lambda: run_cli([self.resolve(a) for a in argv], env),
                      exits, dict(data, check=check))

        groups: list[list[Op]] = []
        for n in (10, 11, 12):
            hg = out(f"star{n}.hg")
            groups.append([
                op("generate star", ["generate", "--kind", "star", "--n", str(n), "--k", "3",
                                     "--out", hg], 0, "file", file=hg, m=comb(n - 1, 2)),
                op("detect star", ["detect", "--input", hg, "--r", "2", "--format", "csv"],
                   0, "none"),
                op("find sunflower", ["find", "--pattern", "sunflower", "--input", hg,
                                      "--p", "3"], 0, "sunflower", file=hg, p=3),
            ])
        for n in (9, 10, 11):
            hg, cert = out(f"plus{n}.hg"), out(f"plus{n}.cert")
            group = [
                op("generate star-plus", ["generate", "--kind", "star-plus", "--n", str(n),
                                          "--k", "3", "--r", "3", "--out", hg],
                   0, "file", file=hg, m=comb(n - 1, 2) + 1),
                op("detect --certificate", ["detect", "--input", hg, "--r", "3", "--format",
                                            "csv", "--certificate", cert],
                   0, "found", file=hg, cert=cert, r=3),
                op("verify", ["verify", "--input", hg, "--certificate", cert], 0, "ok"),
            ]
            if n == 9:
                group.append(op("verify tampered", ["verify", "--input", hg, "--certificate",
                                                    path("tampered.cert")], 1, "fail"))
            groups.append(group)
        for kind, k, l, m in (("hkl", 4, 2, 8), ("hkl-prime", 4, 1, 8)):
            hg = out(f"{kind}.hg")
            groups.append([
                op(f"generate {kind}", ["generate", "--kind", kind, "--k", str(k), "--l", str(l),
                                        "--out", hg], 0, "file", file=hg, m=m),
                op("find same-union", ["find", "--pattern", "same-union", "--input", hg],
                   0, "same-union", file=hg),
            ])
        for n in (8, 9):
            hg = out(f"exb{n}.hg")
            groups.append([
                op("generate example-b", ["generate", "--kind", "example-b", "--n", str(n),
                                          "--k", "3", "--c", "2", "--out", hg],
                   0, "file", file=hg, m=2 * comb(n - 2, 2)),
                op("detect example-b", ["detect", "--input", hg, "--r", "9", "--format", "csv"],
                   0, "none"),
            ])
        hg = out("bes9.hg")
        groups.append([
            op("generate bes-layer-star", ["generate", "--kind", "bes-layer-star", "--n", "9",
                                           "--k", "4", "--r", "3", "--out", hg], 0, "file",
               file=hg, m=None),
            op("detect bes-layer-star", ["detect", "--input", hg, "--r", "3", "--format", "csv"],
               0, "none"),
        ])
        for name, r in [(f"mid{i}", r) for i in range(4) for r in (2, 4)] + [("big", 4)]:
            hg, cert = path(f"{name}.hg"), out(f"{name}-{r}.cert")
            groups.append([op(f"detect {name}", ["detect", "--input", hg, "--r", str(r),
                                                 "--format", "csv", "--certificate", cert],
                              0, "found", file=hg, cert=cert, r=r)])
        (n, k, r), nodes = BUDGETED
        witness = out("witness.hg")
        groups.append([
            op("search budgeted", ["search", "--n", str(n), "--k", str(k), "--r", str(r),
                                   "--max-nodes", str(nodes), "--format", "csv", "--out", witness],
               (0, 3), "search", t=(n, k, r), file=witness, optimum=None),
            op("search ex5,3,2", ["search", "--n", "5", "--k", "3", "--r", "2", "--format", "csv"],
               0, "search", t=(5, 3, 2), optimum=ref.EX[(5, 3, 2)][0]),
            op("search ex6,4,2", ["search", "--n", "6", "--k", "4", "--r", "2", "--format", "csv"],
               0, "search", t=(6, 4, 2), optimum=ref.EX[(6, 4, 2)][0]),
        ])
        groups.append([op("usage error", ["detect", "--r", "2"], 2, "usage")])
        groups.append([op("generate without --n", ["generate", "--kind", "star", "--k", "3",
                                                    "--out", out("x.hg")], 2, "usage")])
        n, k, budget = WIDE
        groups.append([op("detect wide", ["detect", "--input", path("wide.hg"), "--r", "2",
                                          "--max-nodes", str(budget), "--format", "csv"],
                          (0, 3), "budget")])
        rng.shuffle(groups)
        self.work, self.passes = work, 0
        return [o for g in groups for o in g]

    def begin_pass(self) -> None:
        """Give each pass a fresh output directory: overwriting files that
        an earlier pass wrote costs more, once they have reached the disk."""
        self.passes += 1
        self.out = str(self.work / f"out{self.passes}")
        os.mkdir(self.out)

    def resolve(self, arg: str) -> str:
        return arg.replace("{out}", self.out)

    def _host(self, file: str) -> tuple[int, list]:
        file = self.resolve(file)
        if file not in self.files:
            self.files[file] = ref.read_hg(Path(file).read_text(encoding="ascii"))
        return self.files[file]

    def check(self, op: Op, proc) -> None:
        if _TRACEBACK in proc.stderr:
            raise Fail("traceback: " + proc.stderr.strip().splitlines()[-1])
        if proc.returncode not in op.expect:
            raise Fail(f"exit {proc.returncode}, expected {' or '.join(map(str, op.expect))}")
        d, out = op.data, proc.stdout.split()
        kind = d["check"]
        if kind == "file":
            n, edges = self._host(d["file"])
            if d["m"] is not None and len(edges) != d["m"]:
                raise Wrong(f"{len(edges)} edges written, expected {d['m']}")
        elif kind in ("none", "found", "budget"):
            status = out[1].split(",")[0] if len(out) > 1 else "missing"
            want = {"none": ("none",), "found": ("found",), "budget": ("budget", "none")}[kind]
            if status not in want:
                raise Wrong(f"status {status}, expected {want[0]}")
            if kind == "found":
                n, edges = self._host(d["file"])
                lines = Path(self.resolve(d["cert"])).read_text(encoding="ascii").splitlines()
                r, _m = map(int, lines[0].split())
                indices = [int(t) for t in lines[1].split()]
                covered = [int(t) for t in lines[2].split()]
                why = "certificate r differs" if r != d["r"] else ref.regular_ok(
                    edges, r, indices, covered)
                if why:
                    raise Wrong(f"certificate: {why}")
        elif kind in ("ok", "fail"):
            if out[:1] != [kind.upper()]:
                raise Wrong(f"verify printed {proc.stdout.strip()!r}")
        elif kind == "sunflower":
            n, edges = self._host(d["file"])
            fields = dict(t.split("=") for t in out[1:])
            petals = [edges[int(i)] for i in fields["petals"].split(",")]
            core = {int(v) for v in fields["core"].split(",")} if fields["core"] else set()
            if out[0] != "SUNFLOWER" or len(petals) != d["p"] or any(
                    set(a) & set(b) != core for a, b in combinations(petals, 2)):
                raise Wrong("not a sunflower")
        elif kind == "same-union":
            n, edges = self._host(d["file"])
            fields = dict(t.split("=") for t in out[1:])
            a, b, c, e = (set(edges[int(fields[x])]) for x in "abcd")
            if out[0] != "SAME-UNION" or a & b or c & e or a | b != c | e or \
                    len({fields[x] for x in "abcd"}) != 4:
                raise Wrong("not two disjoint pairs with the same union")
        elif kind == "search":
            row = dict(zip(out[0].split(","), out[1].split(","))) if len(out) > 1 else {}
            n, k, r = d["t"]
            if (row.get("n"), row.get("k"), row.get("r")) != (str(n), str(k), str(r)):
                raise Wrong("search printed another triple")
            optimum = int(row["optimum"])
            if d["optimum"] is not None and (optimum != d["optimum"] or row["complete"] != "1"):
                raise Wrong(f"ex{d['t']} = {optimum}, expected {d['optimum']}")
            if d["optimum"] is None:
                _, edges = self._host(d["file"])
                if len(edges) != optimum or not ref.is_free(edges, n, r):
                    raise Wrong("search witness is not a free family of the optimum size")

    @staticmethod
    def nodes(proc) -> int:
        rows = proc.stdout.split()
        if len(rows) == 2 and "nodes" in rows[0].split(","):
            row = dict(zip(rows[0].split(","), rows[1].split(",")))
            return int(row["nodes"])
        return 0


WORKLOADS = {w.name: w for w in (Detect, Search, Cli)}
