"""Self-check of the benchmark's own judging.

    python3 bench/selfcheck.py

Feeds known-bad answers through the same pass and check code the benchmark
uses and requires each to be counted as a failed op: a tampered
certificate, a wrong ex value, a non-zero exit code, and a crash.  It also
re-derives every expected ex value in `reference.EX` that a subset scan can
reach, without the package under test.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from workloads import Op  # noqa: E402


def counted_failed(wl, label, call, expect, data, wrong: bool) -> bool:
    p = run_pass(wl, [Op(label, call, expect, data)])
    return len(p["failures"]) == 1 and p["wrong"] == int(wrong)


def main() -> int:
    results = []

    detect = workloads.Detect()
    found = next(op for op in detect.setup(0) if op.expect == "found")
    good = found.call()
    cert = good.certificate
    tampered = dataclasses.replace(
        good, certificate=dataclasses.replace(cert, edge_indices=cert.edge_indices[1:]))
    results.append(("genuine certificate passes",
                    not run_pass(detect, [found])["failures"]))
    results.append(("tampered certificate is a failed op",
                    counted_failed(detect, "tampered", lambda: tampered, "found",
                                   found.data, wrong=True)))

    def crash():
        raise RecursionError("maximum recursion depth exceeded")
    results.append(("exception is a failed op",
                    counted_failed(detect, "crash", crash, "none", found.data, wrong=False)))

    search = workloads.Search()
    op = next(o for o in search.setup(0) if o.data["t"] == (5, 3, 2))
    rep = op.call()
    results.append(("ex(5,3,2) = 10 passes", not run_pass(search, [op])["failures"]))
    results.append(("wrong ex value is a failed op",
                    counted_failed(search, "wrong ex", lambda: dataclasses.replace(rep, optimum=7),
                                   op.expect, op.data, wrong=True)))

    cli = workloads.Cli()
    ops = cli.setup(0)
    usage = next(o for o in ops if o.data["check"] == "usage")
    results.append(("usage error exiting 2 passes", not run_pass(cli, [usage])["failures"]))
    missing = ["detect", "--input", str(workloads.WORK / "cli" / "absent.hg"), "--r", "2"]
    env = workloads.cli_env()
    results.append(("non-zero exit is a failed op",
                    counted_failed(cli, "missing input", lambda: workloads.run_cli(missing, env),
                                   (0,), {"check": "none"}, wrong=False)))

    for (n, k, r), (value, _why) in sorted(ref.EX.items()):
        if comb(n, k) <= 21:
            results.append((f"ex({n},{k},{r}) = {value} by subset scan",
                            ref.ex_by_scan(n, k, r) == value))

    shutil.rmtree(workloads.WORK, ignore_errors=True)
    for name, ok in results:
        print(("ok    " if ok else "FAIL  ") + name)
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
