"""Property-based tests: the solver against both oracles, the text
formats' parsers on drawn input, and the command line on drawn argv and
files."""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_regular, regular_subset
from regulus.cli import run
from regulus.errors import ParseError
from regulus.extremal import CLAIMS
from regulus.gadgets import bes_layer_star, full_star
from regulus.hypercore import Hypergraph, parse, serialize
from regulus.regdetect import (
    SolverBudget,
    SolveStatus,
    _sizes_fit,
    find_regular,
    parse_certificate,
    verify_certificate,
)


@st.composite
def hosts(draw) -> Hypergraph:
    """At most 12 distinct edges on all but at most two of n vertices, so
    the last vertices may be isolated.  The edges have one size or a mix of
    sizes 2 to 4, and about one host in eight has the empty edge `()`."""
    n = 9 - draw(st.integers(0, 9))
    used = n - draw(st.integers(0, min(2, n)))
    sizes = draw(st.sets(st.integers(2, 4), min_size=1))
    pool = [e for k in sorted(sizes) for e in combinations(range(used), k)]
    empty = draw(st.sampled_from((False,) * 7 + (True,)))
    top = min(12 - empty, len(pool))
    m = top - draw(st.integers(0, top))
    edges = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m, unique=True)) if m else []
    return Hypergraph(n, edges + [()] * empty)


@settings(max_examples=300)
@given(hosts(), st.integers(2, 4), st.integers(1, 40))
def test_find_regular_agrees_with_the_oracles(h, r, max_nodes):
    # {()} is a regular subgraph (every vertex it covers, none, has degree
    # r); regular_subset only counts subsets that cover some vertex.
    exists = () in h.edges or regular_subset(h.edges, h.n, r) is not None
    oracle = brute_force_regular(h, r)
    assert (oracle is not None) == exists
    if oracle is not None:
        assert verify_certificate(h, oracle) == (True, "ok")

    full = find_regular(h, r)
    assert full.status is (SolveStatus.FOUND if exists else SolveStatus.NONE_EXISTS)
    if exists:
        assert verify_certificate(h, full.certificate) == (True, "ok")

    # A budgeted run either stops on exactly its node budget or is the
    # unbudgeted run: same status, certificate and node count.
    budget = SolverBudget(max_nodes=max_nodes)
    budgeted = find_regular(h, r, budget)
    if budgeted.status is SolveStatus.BUDGET_EXHAUSTED:
        assert (budgeted.nodes, budgeted.certificate) == (max_nodes, None)
    else:
        assert budgeted == full

    assert find_regular(h, r) == full
    assert find_regular(h, r, budget) == budgeted


# Full stars and layered stars, the hosts where the dominance rule fires:
# a star's center lies on every edge of each other vertex.
STARS = [(n, 2) for n in range(3, 13)] + [(n, 3) for n in range(4, 9)] + [(5, 4), (6, 4), (7, 4)]
LAYERED = [(5, 3, 4), (6, 3, 4), (7, 3, 4), (6, 3, 5), (7, 3, 5), (6, 4, 3), (7, 4, 3)]


@st.composite
def starred_hosts(draw) -> Hypergraph:
    """A full star or a layered star, with its vertices relabelled, plus 0
    to 4 extra edges of its size that it lacks; at most 25 edges."""
    if draw(st.booleans()):
        n, k = draw(st.sampled_from(STARS))
        base = full_star(n, k)[0]
    else:
        n, k, r = draw(st.sampled_from(LAYERED))
        base = bes_layer_star(n, k, r, draw(st.integers(0, 3)))[0]
    have = set(base.edges)
    pool = [e for e in combinations(range(n), k) if e not in have]
    extra = draw(st.lists(st.sampled_from(pool), max_size=min(4, 25 - len(have)), unique=True))
    perm = draw(st.permutations(range(n)))
    return Hypergraph(n, [[perm[v] for v in e] for e in base.edges + tuple(extra)])


@settings(max_examples=150)
@given(starred_hosts(), st.integers(2, 4))
def test_find_regular_agrees_with_the_oracle_on_stars(h, r):
    oracle = brute_force_regular(h, r)
    res = find_regular(h, r)
    assert res.status is (SolveStatus.NONE_EXISTS if oracle is None else SolveStatus.FOUND)
    if oracle is not None:
        assert verify_certificate(h, res.certificate) == (True, "ok")


@st.composite
def uniform_hosts(draw) -> Hypergraph:
    """At most 25 distinct k-sets, 1 <= k <= 4, on n <= 8 vertices.  With r
    from 2 to 5 the sizes fit some hosts and not others: 1-sets never fit,
    and at k = 4, r = 3 a host needs 8 vertices and 6 edges."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    pool = list(combinations(range(n), k))
    top = min(25, len(pool))
    m = top - draw(st.integers(0, top))
    return Hypergraph(n, draw(st.permutations(pool))[:m])


@settings(max_examples=200)
@given(uniform_hosts(), st.integers(2, 5))
def test_size_count_agrees_with_the_oracle(h, r):
    oracle = brute_force_regular(h, r)
    res = find_regular(h, r)
    assert res.status is (SolveStatus.NONE_EXISTS if oracle is None else SolveStatus.FOUND)
    if h.edges and not _sizes_fit(h.n, len(h.edges[0]), r, len(h.edges)):
        assert oracle is None
        assert res.nodes == 0


@settings(max_examples=200)
@given(hosts().filter(lambda h: () not in h.edges))
def test_serialize_parse_roundtrip(h):
    assert parse(serialize(h)) == h


# Ids of 2^64 and more, whose masks no host can hold, among small ones; the
# junk is signs, separators, a comment mark, a non-ASCII digit and a literal
# over Python's int-parsing limit.
INTS = ("0", "1", "2", str(2**64), str(2**65), str(10**20))
JUNK = ("-1", "+2", "1_0", "x", "1.5", "#", "", "\u0663", "9" * 4400)


@st.composite
def texts(draw, tokens: tuple[str, ...], header: bool) -> str:
    """Lines of tokens; with `header`, first an "n m" line with an integer n
    and the count of the lines after it, so that parsing gets past it."""
    line = st.lists(st.sampled_from(tokens), min_size=1, max_size=4).map(" ".join)
    body = draw(st.lists(line, max_size=4))
    if header:
        body.insert(0, f"{draw(st.sampled_from(INTS))} {len(body)}")
    return draw(st.sampled_from(("\n", "\r\n"))).join(body)


@settings(max_examples=300)
@given(st.one_of(texts(INTS, header=True), texts(INTS + JUNK, header=False),
                 st.text(max_size=30)))
@example("100000000000000000000 1\n99999999999999999999\n")
def test_parsers_raise_only_parse_error(text):
    for parser in (parse, parse_certificate):
        try:
            parser(text)
        except ParseError:
            pass


# Option values stay small: n and --n-max <= 6, k and r <= 4 for generate,
# so that every drawn command, search included, ends in well under a second.
# Half of the numbers are drawn from -1 up, so some are out of range.
def small(lo: int, hi: int) -> st.SearchStrategy[int]:
    return st.integers(lo, hi) | st.integers(-1, hi)


FORMAT = st.sampled_from(("text", "csv") * 3 + ("xml",))
# Paths are relative to a fresh working directory: mostly the drawn input
# files, else a file that a command writes, a missing file or a directory.
PATH = st.sampled_from(("in.hg",) * 6 + ("in.cert", "out.hg", "missing.hg", "."))
CERT = st.sampled_from(("in.cert",) * 6 + ("in.hg", "out.cert", "missing.cert", "."))
# Per command, the options it is always given (all that some run of it
# reads, for generate) and the others, with value strategies (None for a
# switch).
OPTIONS = {
    "generate": ({"--kind": st.sampled_from(("star", "star-plus", "hkl", "hkl-prime", "example-a",
                                             "example-b", "bes-layer-star", "c64")),
                  "--n": small(1, 6), "--k": small(1, 4), "--r": small(2, 4), "--l": small(0, 4),
                  "--c": small(2, 4), "--variant": st.sampled_from(("r-eq-k", "r-eq-k-plus-1")),
                  "--out": PATH},
                 {"--seed": small(0, 6)}),
    "detect": ({"--input": PATH, "--r": small(2, 6)},
               {"--max-nodes": small(1, 1000), "--max-millis": small(1, 50),
                "--certificate": CERT, "--expect-found": None, "--format": FORMAT}),
    "verify": ({"--input": PATH, "--certificate": CERT}, {"--format": FORMAT}),
    "find": ({"--pattern": st.sampled_from(("sunflower", "same-union", "gadget")), "--input": PATH,
              "--p": small(2, 6), "--k": small(1, 4), "--l": small(0, 3)},
             {"--prime": None, "--out": PATH, "--expect-found": None, "--format": FORMAT}),
    "search": ({"--n": small(1, 6), "--k": small(1, 4), "--r": small(2, 6)},
               {"--max-nodes": small(1, 1000), "--max-millis": small(1, 50),
                "--isomorph-reject": None, "--out": PATH, "--format": FORMAT}),
    "wedges": ({"--input": PATH, "--v": small(0, 6), "--r": small(1, 4)}, {"--format": FORMAT}),
    "classify": ({"--input": PATH, "--v": small(0, 6)}, {"--format": FORMAT}),
    "table": ({"--claim": st.sampled_from(CLAIMS * 2 + ("sunflower-bounds",)),
               "--n-max": small(1, 6)},
              {"--k": small(1, 4), "--r": small(2, 4), "--c": small(2, 4), "--format": FORMAT}),
}
# Stray tokens, none with a path separator, so a stray --out stays put.
STRAY = st.one_of(st.sampled_from(("--help", "--", "-1", "--n-max=3", "frobnicate")),
                  st.text(st.characters(exclude_characters="/\\\x00"), max_size=6))


@st.composite
def argvs(draw) -> list[str]:
    """A command with its required options and some others, with drawn
    values, in any order and possibly repeated; now and then one required
    option is dropped or a stray token or two is put anywhere."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    options = {**required, **optional}
    flags = list(required) + draw(st.lists(st.sampled_from(sorted(options)), max_size=4))
    if draw(st.integers(0, 7)) == 0:
        flags.pop(draw(st.integers(0, len(required) - 1)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(str(draw(options[flag])))
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(STRAY))
    return argv


def host_text(h: Hypergraph) -> str:
    return f"{h.n} {len(h.edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in h.edges)


HOST = st.one_of(hosts().map(host_text),
                 st.sampled_from((host_text(full_star(6, 3)[0]), host_text(full_star(7, 5)[0]))))
CERTIFICATE = st.builds("{} {}\n{}\n{}\n".format, small(2, 4), small(0, 5),
                        st.lists(st.integers(-1, 12), max_size=5).map(lambda xs: " ".join(map(str, xs))),
                        st.lists(st.integers(-1, 9), max_size=5).map(lambda xs: " ".join(map(str, xs))))
GARBAGE = st.one_of(texts(INTS + JUNK, header=True), st.text(max_size=40))


def encoded(text: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    return text.map(lambda t: t.encode("utf-8", "surrogatepass"))


@settings(max_examples=500)
@given(argvs(),
       st.one_of(encoded(HOST), encoded(HOST), encoded(GARBAGE), st.binary(max_size=40)),
       st.one_of(encoded(CERTIFICATE), encoded(GARBAGE), st.binary(max_size=40)))
@example(["detect", "--input", "in.hg", "--r", "2"], "\u00e9".encode(), b"")
def test_cli_exits_with_a_known_code(argv, hg, cert):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in.hg").write_bytes(hg)
        Path(tmp, "in.cert").write_bytes(cert)
        home = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            os.chdir(home)
    assert code in (0, 1, 2, 3)
