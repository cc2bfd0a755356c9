"""Core hypergraph model and elementary operations.

Vertices are dense integers 0..n-1.  An edge is a set of vertices, stored
as a strictly ascending tuple together with an integer bitmask.  Python
ints are arbitrary precision, so one mask representation covers every n.

Colexicographic order is the universal tie-breaker: for vertex sets it
coincides with ascending order of the bitmasks, so canonical edge storage
is simply "sorted by mask".  All operations are deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable

from .errors import ParseError

# The largest vertex count a Hypergraph accepts.  A vertex v costs a
# (v+1)-bit mask, so without a cap one huge id in an input file would
# allocate gigabytes or overflow; 2^20 keeps every mask under 128 KiB.
MAX_VERTICES = 1 << 20


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask encoding of a vertex set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Ascending vertex tuple encoded by a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _incidence(n: int, sets: Collection[Iterable[int]]) -> tuple[int, ...]:
    """Per-vertex bitmask over the indices of `sets`, a sequence of vertex
    collections in [0, n): bit i of entry v is set iff sets[i] contains v."""
    # One little-endian byte row per vertex: setting a bit in place
    # is O(1), where `inc[v] |= bit` copies a growing int.
    rows = [bytearray((len(sets) + 7) >> 3) for _ in range(n)]
    for i, e in enumerate(sets):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in e:
            rows[v][byte] |= bit
    return tuple(int.from_bytes(row, "little") for row in rows)


def _first_fit(masks: Iterable[int], target: int | None = None) -> list[int]:
    """Positions of a first-fit matching of `masks` in the order given,
    stopping once it holds `target` sets."""
    used = 0
    out: list[int] = []
    for i, m in enumerate(masks):
        if len(out) == target:
            break
        if m & used == 0:
            out.append(i)
            used |= m
    return out


class _EdgeError(ValueError):
    """A malformed edge.  `positions` index the offending edges in input
    order: one edge, or for a duplicate its first occurrence and the repeat."""

    def __init__(self, message: str, *positions: int):
        super().__init__(message)
        self.positions = positions


class Hypergraph:
    """Immutable hypergraph with canonical (colex) edge storage.

    Invariants:
      * 0 <= n <= MAX_VERTICES, and every vertex id lies in [0, n);
      * each edge is a strictly ascending vertex tuple;
      * edges are distinct and listed in colex order (ascending masks).

    The constructor normalizes arbitrary vertex order within an edge; a
    repeated vertex inside an edge or a repeated edge is an error, never
    silently dropped.
    """

    __slots__ = ("_n", "_edges", "_masks", "_mask_index", "_incidence")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count must be at most {MAX_VERTICES}")
        normalized: list[tuple[int, ...]] = []
        first: dict[int, int] = {}  # edge mask -> position of its first occurrence
        for i, edge in enumerate(edges):
            vs = tuple(edge)
            mask = 0
            for v in vs:
                if not isinstance(v, int) or v < 0 or v >= n:
                    raise _EdgeError(f"vertex {v!r} out of range for n={n}", i)
                mask |= 1 << v
            svs = tuple(sorted(vs))
            if mask.bit_count() != len(vs):
                a = next(a for a, b in zip(svs, svs[1:]) if a == b)
                raise _EdgeError(f"repeated vertex {a} within edge {vs!r}", i)
            if mask in first:
                raise _EdgeError(f"duplicate edge {svs!r}", first[mask], i)
            first[mask] = i
            normalized.append(svs)
        self._n = n
        self._masks = tuple(sorted(first))
        self._edges = tuple(normalized[first[m]] for m in self._masks)
        self._mask_index: dict[int, int] | None = None
        self._incidence: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self._edges

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def uniformity(self) -> int | None:
        """Common edge size, or None if edges have mixed sizes or there are none."""
        sizes = {len(e) for e in self._edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    @property
    def mask_index(self) -> dict[int, int]:
        """Edge mask -> edge index."""
        if self._mask_index is None:
            self._mask_index = {m: i for i, m in enumerate(self._masks)}
        return self._mask_index

    @property
    def vertex_incidence(self) -> tuple[int, ...]:
        """Per-vertex bitmask over edge indices (bit i set iff edge i contains v)."""
        if self._incidence is None:
            self._incidence = _incidence(self._n, self._edges)
        return self._incidence

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return mask_of(vertices) in self.mask_index

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._n == other._n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self._n, self._masks))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self._n}, m={len(self._edges)})"


def parse(text: str) -> Hypergraph:
    """Parse the plain-text hypergraph format.

    First content line: "n m".  Then m lines, one edge each, vertices
    separated by spaces.  Blank lines and lines starting with '#' are
    ignored.  Vertex order within a line does not matter; repeated vertices
    within a line and repeated edges across lines are errors.  The
    Hypergraph constructor finds them; parse adds the line number (both line
    numbers for a repeated edge, its first occurrence first).
    """
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((lineno, stripped))
    if not content:
        raise ParseError("empty input: missing header line")
    header_no, header = content[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"line {header_no}: malformed header {header!r}, expected 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {header_no}: malformed header {header!r}, expected 'n m'") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {header_no}: malformed header {header!r}, counts must be nonnegative")
    if n > MAX_VERTICES:
        raise ParseError(f"line {header_no}: vertex count {fields[0]} is above the limit {MAX_VERTICES}")
    body = content[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")

    def edges():
        # Lazy, so that the first bad line in input order is the one reported.
        for lineno, line in body:
            try:
                edge = tuple(map(int, line.split()))
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
            yield edge

    try:
        return Hypergraph(n, edges())
    except _EdgeError as exc:
        lines = [body[p][0] for p in exc.positions]
        if len(lines) == 2:
            raise ParseError(f"duplicate edge (lines {lines[0]} and {lines[1]})") from None
        raise ParseError(f"line {lines[0]}: {exc}") from None


def serialize(h: Hypergraph) -> str:
    """Canonical text form: header, then edges in colex order, ascending within a line."""
    for e in h.edges:
        if not e:
            raise ValueError("the empty edge is not representable in the text format")
    lines = [f"{h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def write_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(h))


def degree_vector(h: Hypergraph, edge_indices: Iterable[int]) -> list[int]:
    """Per-vertex cover counts of a set of edge indices.  Length n; sums to
    the total size of the selected edges."""
    degs = [0] * h.n
    m = len(h.edges)
    for i in set(edge_indices):
        if not isinstance(i, int) or i < 0 or i >= m:
            raise ValueError(f"edge index {i!r} out of range for m={m}")
        for v in h.edges[i]:
            degs[v] += 1
    return degs


def complete_uniform(n: int, k: int) -> Hypergraph:
    """All k-subsets of [0, n)."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Hypergraph(n, combinations(range(n), k))
