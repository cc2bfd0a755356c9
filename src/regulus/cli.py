"""Command-line entry point.

Thin adapters over the library: generate, detect, verify, find, search,
wedges, classify, and table.  Results go to stdout and are byte-identical
across runs for identical argv (given node budgets, not wall-clock ones);
timings and diagnostics go to stderr.

Exit codes: 0 success; 1 negative answer (NONE with --expect-found, or a
failed verification); 2 usage or input errors; 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import GuardError, ParseError
from .extremal import CLAIMS, claim_table, classify_3sets, count_wedges, extremal_search
from .gadgets import (
    VARIANT_R_EQ_K,
    VARIANT_R_EQ_K_PLUS_1,
    bes_layer_star,
    example_a,
    example_b,
    full_star,
    gadget_h,
    gadget_h_prime,
    star_plus,
)
from .hypercore import read_hypergraph, write_hypergraph
from .patterns import find_gadget_copy, find_same_union, find_sunflower
from .regdetect import (
    SolverBudget,
    SolveStatus,
    find_regular,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv"), default="text")

    parser = argparse.ArgumentParser(prog="regulus")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, parents=(common,)):
        # No abbreviations: `table --n` must not quietly mean `--n-max`.
        p = sub.add_parser(name, parents=list(parents), help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    g = command("generate", _cmd_generate, "write a named construction", parents=())
    g.add_argument("--kind", required=True, choices=_GENERATORS)
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--r", type=int)
    g.add_argument("--l", type=int)
    g.add_argument("--c", type=int)
    g.add_argument("--variant", choices=(VARIANT_R_EQ_K, VARIANT_R_EQ_K_PLUS_1))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    d = command("detect", _cmd_detect, "search for an r-regular subgraph")
    d.add_argument("--input", required=True)
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--max-nodes", type=int)
    d.add_argument("--max-millis", type=int)
    d.add_argument("--certificate")
    d.add_argument("--expect-found", action="store_true")

    vf = command("verify", _cmd_verify, "check a certificate against a hypergraph")
    vf.add_argument("--input", required=True)
    vf.add_argument("--certificate", required=True)

    f = command("find", _cmd_find, "find a structural pattern")
    f.add_argument("--pattern", required=True, choices=("sunflower", "same-union", "gadget"))
    f.add_argument("--input", required=True)
    f.add_argument("--p", type=int)
    f.add_argument("--k", type=int)
    f.add_argument("--l", type=int)
    f.add_argument("--prime", action="store_true")
    f.add_argument("--out")
    f.add_argument("--expect-found", action="store_true")

    s = command("search", _cmd_search, "exhaustive extremal edge-count search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--max-nodes", type=int)
    s.add_argument("--max-millis", type=int)
    s.add_argument("--isomorph-reject", action="store_true")
    s.add_argument("--out")

    w = command("wedges", _cmd_wedges, "count wedges at a vertex")
    w.add_argument("--input", required=True)
    w.add_argument("--v", type=int, required=True)
    w.add_argument("--r", type=int, required=True)

    c = command("classify", _cmd_classify, "good/bad 3-sets at a vertex")
    c.add_argument("--input", required=True)
    c.add_argument("--v", type=int, required=True)

    t = command("table", _cmd_table, "desk-scale claim tables")
    t.add_argument("--claim", required=True, choices=CLAIMS)
    t.add_argument("--k", type=int, default=3)
    t.add_argument("--r", type=int, default=2)
    t.add_argument("--c", type=int, default=2)
    t.add_argument("--n-max", type=int)
    return parser


def _budget(args: argparse.Namespace) -> SolverBudget | None:
    if args.max_nodes is None and args.max_millis is None:
        return None
    return SolverBudget(max_nodes=args.max_nodes, max_millis=args.max_millis)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = name.replace("_", "-")
            raise ValueError(f"--{flag} is required for this invocation")


def _write_descriptor(path: Path, desc) -> None:
    lines = [f"kind {desc.kind.value}"]
    for key in sorted(desc.params):
        lines.append(f"param {key} {desc.params[key]}")
    if desc.center is not None:
        lines.append(f"center {desc.center}")
    for part in desc.stationary_parts:
        lines.append("part " + " ".join(str(v) for v in part))
    for u, v in desc.dynamic_pairs:
        lines.append(f"pair {u} {v}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


# Each kind's construction and the options it takes, in parameter order.
_GENERATORS = {
    "star": (full_star, "n", "k"),
    "star-plus": (star_plus, "n", "k", "r"),
    "hkl": (gadget_h, "k", "l"),
    "hkl-prime": (gadget_h_prime, "k", "l"),
    "example-a": (example_a, "n", "k", "variant"),
    "example-b": (example_b, "n", "k", "c"),
    "bes-layer-star": (bes_layer_star, "n", "k", "r", "seed"),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    make, *names = _GENERATORS[args.kind]
    _require(args, *names)
    h, desc = make(*(getattr(args, name) for name in names))
    # Only the gadgets, which live on 2k vertices, can differ from --n; they
    # check k and l themselves before --n is held against 2k.
    if args.n is not None and args.n != h.n:
        raise ValueError(f"this gadget lives on 2k = {h.n} vertices, got --n {args.n}")
    write_hypergraph(h, args.out)
    _write_descriptor(Path(args.out).with_suffix(".desc"), desc)
    print(f"wrote {args.out} ({h.n} vertices, {len(h.edges)} edges)")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.input)
    res = find_regular(h, args.r, _budget(args))
    cert = res.certificate
    size = len(cert.edge_indices) if cert else 0
    if args.format == "csv":
        print("status,edges,nodes")
        print(f"{res.status.value},{size},{res.nodes}")
    else:
        print({SolveStatus.FOUND: f"FOUND {size} edges",
               SolveStatus.BUDGET_EXHAUSTED: f"BUDGET EXHAUSTED after {res.nodes} nodes",
               SolveStatus.NONE_EXISTS: "NONE (proved)"}[res.status])
    if cert and args.certificate:
        Path(args.certificate).write_text(serialize_certificate(cert), encoding="ascii")
    return {SolveStatus.FOUND: 0, SolveStatus.BUDGET_EXHAUSTED: 3,
            SolveStatus.NONE_EXISTS: 1 if args.expect_found else 0}[res.status]


def _cmd_verify(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.input)
    cert = parse_certificate(Path(args.certificate).read_text(encoding="ascii"))
    ok, reason = verify_certificate(h, cert)
    if args.format == "csv":
        print("result,reason")
        print("ok," if ok else f"fail,{reason}")
    else:
        print("OK" if ok else f"FAIL {reason}")
    return 0 if ok else 1


def _cmd_find(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.input)
    if args.pattern == "sunflower":
        _require(args, "p")
        s = find_sunflower(h, args.p)
        line = None if s is None else (
            f"SUNFLOWER petals={','.join(map(str, s.petals))}"
            f" core={','.join(map(str, s.core))}"
        )
    elif args.pattern == "same-union":
        q = find_same_union(h)
        line = None if q is None else f"SAME-UNION a={q.a} b={q.b} c={q.c} d={q.d}"
    else:
        _require(args, "k", "l")
        copy = find_gadget_copy(h, args.k, args.l, prime=args.prime)
        if copy is None:
            line = None
        else:
            parts = "|".join(",".join(map(str, part)) for part in copy.stationary_parts)
            pairs = "|".join(f"{u},{v}" for u, v in copy.dynamic_pairs)
            edges = ",".join(map(str, copy.edge_indices))
            line = (f"GADGET k={copy.k} l={copy.l} prime={int(copy.prime)}"
                    f" parts={parts} pairs={pairs} edges={edges}")
    out = line if line is not None else "NONE"
    print(out)
    if args.out:
        Path(args.out).write_text(out + "\n", encoding="ascii")
    if line is None:
        return 1 if args.expect_found else 0
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    rep = extremal_search(args.n, args.k, args.r, budget=_budget(args),
                          isomorph_reject=args.isomorph_reject)
    if args.format == "csv":
        print("n,k,r,optimum,complete,nodes")
        print(f"{rep.n},{rep.k},{rep.r},{rep.optimum},{int(rep.complete)},{rep.nodes}")
    else:
        print(f"n {rep.n}")
        print(f"k {rep.k}")
        print(f"r {rep.r}")
        print(f"optimum {rep.optimum}")
        print(f"complete {'yes' if rep.complete else 'no'}")
        print(f"nodes {rep.nodes}")
        witness = ";".join(",".join(map(str, e)) for e in rep.witness.edges)
        print(f"witness {witness}" if witness else "witness")
    print(f"elapsed_ms {rep.elapsed_ms:.1f}", file=sys.stderr)
    if args.out:
        write_hypergraph(rep.witness, args.out)
    return 0 if rep.complete else 3


def _cmd_wedges(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.input)
    w = count_wedges(h, args.v, args.r)
    if args.format == "csv":
        print("edge,count")
        for i in sorted(w.per_edge):
            print(f"{i},{w.per_edge[i]}")
        print(f"total,{w.total}")
    else:
        print(f"v {w.v}")
        print(f"r {w.r}")
        print(f"k {w.k}")
        print(f"k_prime {w.k_prime}")
        print(f"lambda {w.total}")
        for i in sorted(w.per_edge):
            print(f"edge {i} {w.per_edge[i]}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.input)
    part = classify_3sets(h, args.v)
    if args.format == "csv":
        print("a,b,c,bad")
        flagged = {t: 0 for t in part.good}
        flagged.update({t: 1 for t in part.bad})
        for t in sorted(flagged):
            print(f"{t[0]},{t[1]},{t[2]},{flagged[t]}")
    else:
        print(f"v {part.v}")
        print(f"good {len(part.good)}")
        print(f"bad {len(part.bad)}")
        for t in part.bad:
            print(f"bad-set {t[0]} {t[1]} {t[2]}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_max is None:
        raise ValueError("--n-max is required for this claim")
    header, rows = claim_table(args.claim, args.n_max, args.k, args.r, args.c)
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        cells = [tuple(str(x) for x in row) for row in rows]
        widths = [max(len(header[i]), *(len(c[i]) for c in cells)) if cells else len(header[i])
                  for i in range(len(header))]
        print("  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip())
        for c in cells:
            print("  ".join(c[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ParseError, GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
