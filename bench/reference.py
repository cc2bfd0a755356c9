"""Answers the benchmark checks against, computed without the package under test.

Nothing here imports `regulus`.  Edges are plain vertex tuples; canonical
edge order (colex) is re-derived from first principles, so a certificate's
edge indices can be checked against the benchmark's own copy of a host.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# Expected ex(n, k, r): the most edges of an n-vertex k-uniform family with no
# r-regular subfamily.  Provenance codes:
#   count   - no (|V|, |R|) with k|R| = r|V|, |V| <= n and |R| <= C(|V|, k)
#             exists, so every family is free and ex = C(n, k);
#   forest  - k = 2, r = 2: a 2-regular subgraph is a union of cycles, so the
#             free graphs are the forests and ex = n - 1;
#   scan    - independent subset-closure scan, `ex_by_scan` below;
#   tests   - also pinned by the repository's test suite (ex(6,3,2) = 11);
#             ex(n <= 5) is cross-checked there by
#             tests/oracles.extremal_by_enumeration.
# ex(5,3,2) is 10, not the pattern value 7: a 2-regular 3-uniform family
# covers a multiple of 3 vertices with twice as many edge slots, so it needs
# at least 6 vertices (the "count" argument above).
EX = {
    (5, 2, 2): (4, "forest, scan"),
    (5, 2, 3): (8, "scan"),
    (5, 3, 2): (10, "count, scan"),
    (5, 3, 3): (6, "scan"),
    (6, 2, 2): (5, "forest, scan"),
    (6, 2, 3): (10, "scan"),
    (6, 2, 4): (12, "scan"),
    (6, 2, 5): (14, "scan: K6 is the only 5-regular graph on 6 vertices"),
    (6, 3, 2): (11, "scan, tests"),
    (6, 3, 3): (10, "scan"),
    (6, 3, 4): (13, "scan"),
    (6, 3, 5): (14, "scan"),
    (6, 4, 2): (10, "scan"),
    (6, 4, 3): (15, "count, scan"),
    (6, 4, 4): (10, "scan"),
    (6, 4, 5): (15, "count, scan"),
    (6, 4, 6): (12, "scan"),
    (7, 2, 2): (6, "forest, scan"),
    (7, 2, 3): (13, "scan"),
    (7, 2, 4): (16, "scan"),
    (7, 4, 3): (35, "count"),
    (7, 5, 5): (15, "scan"),
}


def mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << v
    return m


def colex(edges) -> list[tuple[int, ...]]:
    """Edges as sorted tuples in colex order (ascending vertex-set masks)."""
    return sorted((tuple(sorted(e)) for e in edges), key=mask)


def read_hg(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """The plain-text host format: header "n m", then one edge per line."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = [tuple(int(t) for t in ln) for ln in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, colex(edges)


def write_hg(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def regular_ok(edges, r: int, indices, covered) -> str | None:
    """Degree recount of a claimed r-regular subfamily; None if it holds,
    else the reason it fails."""
    if not indices:
        return "empty"
    if len(set(indices)) != len(indices) or any(not 0 <= i < len(edges) for i in indices):
        return "bad index"
    deg: dict[int, int] = {}
    for i in indices:
        for v in edges[i]:
            deg[v] = deg.get(v, 0) + 1
    if any(d != r for d in deg.values()):
        return "degree not r"
    if sorted(deg) != sorted(covered):
        return "covered set differs"
    return None


def _regular_possible(n: int, k: int, r: int) -> bool:
    return any(
        (r * v) % k == 0 and 1 <= r * v // k <= comb(v, k)
        for v in range(k, n + 1)
    )


def _regular_subfamilies(edges, n: int, r: int):
    """Yield, as bitmasks over `edges`, the subfamilies in which every
    vertex has degree 0 or r: a Gray-code walk over all 2^m - 1 of them."""
    deg = [0] * n
    bad = 0  # vertices whose degree is neither 0 nor r
    chosen = 0
    for step in range(1, 1 << len(edges)):
        i = (step & -step).bit_length() - 1
        sign = -1 if chosen >> i & 1 else 1
        chosen ^= 1 << i
        for v in edges[i]:
            before = deg[v]
            deg[v] = before + sign
            bad += (deg[v] not in (0, r)) - (before not in (0, r))
        if bad == 0:
            yield chosen


def is_free(edges, n: int, r: int) -> bool:
    """True iff no nonempty subfamily is r-regular: the counting argument for
    uniform families, else a scan over all subfamilies (at most 22 edges)."""
    sizes = {len(e) for e in edges}
    if len(sizes) == 1 and not _regular_possible(n, sizes.pop(), r):
        return True
    if len(edges) > 22:
        raise ValueError(f"subset scan limited to 22 edges, got {len(edges)}")
    return next(_regular_subfamilies(edges, n, r), None) is None


def ex_by_scan(n: int, k: int, r: int) -> int:
    """ex(n, k, r) by scanning every subfamily of the complete k-uniform
    family: mark the r-regular ones, close the marks upward over supersets,
    and return the size of the largest unmarked family."""
    u = comb(n, k)
    marked = 0
    for chosen in _regular_subfamilies(colex(combinations(range(n), k)), n, r):
        marked |= 1 << chosen
    nbytes = max(1, (1 << u) // 8)
    for b in range(u):
        # Bit F of `keep` is set iff bit b of F is clear; shifting those
        # marks by 2^b marks F + {b}.
        if b < 3:
            pattern = bytes([(0x55, 0x33, 0x0F)[b]]) * nbytes
        else:
            half = 1 << (b - 3)
            pattern = (b"\xff" * half + b"\x00" * half) * (nbytes // (2 * half))
        keep = int.from_bytes(pattern, "little") & ((1 << (1 << u)) - 1)
        marked |= (marked & keep) << (1 << b)
    free = format(marked, "b").zfill(1 << u)[::-1]
    best, pos = 0, free.find("0")
    while pos != -1:
        best = max(best, pos.bit_count())
        pos = free.find("0", pos + 1)
    return best
