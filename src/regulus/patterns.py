"""Finders and verifiers for structural patterns inside hypergraphs.

Covers sunflowers (greedy recursion plus guarded exhaustive fallback),
disjoint edge pairs with equal unions, embedded copies of the two-part /
four-part selection gadgets, and hitting families for equipartitions, sized
by an exact set cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import GuardError
from .gadgets import _selection_edges
from .hypercore import Hypergraph, _first_fit, _incidence, mask_of, vertices_of


@dataclass(frozen=True)
class Sunflower:
    """Edges whose pairwise intersections all equal one common core."""

    petals: tuple[int, ...]
    core: tuple[int, ...]


@dataclass(frozen=True)
class SameUnionQuad:
    """Edge indices with a ∩ b = c ∩ d = ∅, a ∪ b = c ∪ d, {a,b} != {c,d}."""

    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class EmbeddedCopy:
    """A selection gadget realized inside a host hypergraph.

    `stationary_parts` and `dynamic_pairs` are in host vertex ids; the host
    edges realizing the template are listed selection-major then part-major,
    the same enumeration order the generators use."""

    k: int
    l: int
    prime: bool
    stationary_parts: tuple[tuple[int, ...], ...]
    dynamic_pairs: tuple[tuple[int, int], ...]
    edge_indices: tuple[int, ...]

    @property
    def vertex_map(self) -> tuple[int, ...]:
        """The 2k template vertices (first two parts, then the pairs)."""
        flat_pairs = tuple(v for pr in self.dynamic_pairs for v in pr)
        return self.stationary_parts[0] + self.stationary_parts[1] + flat_pairs


def _greedy_masks(masks: list[int], p: int) -> tuple[tuple[int, ...], int] | None:
    """Erdős–Rado recursion on raw edge masks; returns (petals, core mask)."""
    matching = _first_fit(masks, p)
    if len(matching) == p:
        return tuple(matching), 0
    # matching too small: recurse on the link of a globally max-degree vertex
    deg: dict[int, int] = {}
    for msk in masks:
        for v in vertices_of(msk):
            deg[v] = deg.get(v, 0) + 1
    if not deg:
        return None
    best_v = min(deg, key=lambda v: (-deg[v], v))
    bit = 1 << best_v
    sub_idx = [i for i, msk in enumerate(masks) if msk & bit]
    found = _greedy_masks([masks[i] ^ bit for i in sub_idx], p)
    if found is None:
        return None
    petals, core = found
    return tuple(sub_idx[j] for j in petals), core | bit


def greedy_sunflower(h: Hypergraph, p: int) -> Sunflower | None:
    """Greedy search: a colex first-fit matching of size p wins outright;
    otherwise recurse on the link of the highest-degree vertex (ties to the
    lowest id) and re-attach it to the core.  May miss sunflowers in small
    families; guaranteed to succeed on k-uniform families larger than
    (p-1)^k * k!."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    found = _greedy_masks(list(h.edge_masks), p)
    if found is None:
        return None
    petals, core = found
    return Sunflower(petals=petals, core=vertices_of(core))


def find_sunflower(h: Hypergraph, p: int, guard: int = 10**7) -> Sunflower | None:
    """Greedy search first; on greedy failure fall back to exhaustive
    enumeration of p-subsets of edges (None then certifies absence).
    Raises GuardError when the fallback would exceed `guard` subsets."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    s = greedy_sunflower(h, p)
    if s is not None:
        return s
    masks = h.edge_masks
    m = len(masks)
    if m < p:
        return None
    if comb(m, p) > guard:
        raise GuardError(f"exhaustive fallback C({m},{p}) exceeds guard {guard}")
    for combo in combinations(range(m), p):
        inter = masks[combo[0]]
        for i in combo[1:]:
            inter &= masks[i]
        if all(masks[i] & masks[j] == inter for i, j in combinations(combo, 2)):
            return Sunflower(petals=combo, core=vertices_of(inter))
    return None


def verify_sunflower(h: Hypergraph, s: Sunflower) -> tuple[bool, str]:
    m = len(h.edges)
    if len(s.petals) < 2:
        return False, "need at least 2 petals"
    if len(set(s.petals)) != len(s.petals):
        return False, "repeated petal"
    if any(not (0 <= i < m) for i in s.petals):
        return False, "petal index out of range"
    core = mask_of(s.core)
    for i, j in combinations(s.petals, 2):
        if h.edge_masks[i] & h.edge_masks[j] != core:
            return False, f"petals {i},{j} do not intersect in the core"
    return True, "ok"


def sunflower_free_family(k: int, p: int) -> Hypergraph:
    """The transversal product family attaining the greedy lower bound:
    k disjoint groups of p-1 vertices; edges pick one vertex per group,
    (p-1)^k edges total, and no p of them form a sunflower."""
    if k < 1 or p < 2:
        raise ValueError(f"need k >= 1 and p >= 2, got k={k}, p={p}")
    groups = [range(i * (p - 1), (i + 1) * (p - 1)) for i in range(k)]
    edges: list[tuple[int, ...]] = [()]
    for g in groups:
        edges = [e + (v,) for e in edges for v in g]
    return Hypergraph(k * (p - 1), edges)


def _same_union_masks(masks: list[int]) -> tuple[int, int, int, int] | None:
    seen: dict[int, tuple[int, int]] = {}
    for j in range(len(masks)):
        mj = masks[j]
        for i in range(j):
            if masks[i] & mj:
                continue
            u = masks[i] | mj
            if u in seen:
                a, b = seen[u]
                return a, b, i, j
            seen[u] = (i, j)
    return None


def find_same_union(h: Hypergraph) -> SameUnionQuad | None:
    """Scan disjoint edge pairs in colex pair order, hashing by union;
    the first collision yields the quad (all four indices are necessarily
    distinct).  None means no two disjoint pairs share a union."""
    found = _same_union_masks(list(h.edge_masks))
    if found is None:
        return None
    return SameUnionQuad(*found)


def verify_same_union(h: Hypergraph, q: SameUnionQuad) -> tuple[bool, str]:
    ids = (q.a, q.b, q.c, q.d)
    m = len(h.edges)
    if any(not (0 <= i < m) for i in ids):
        return False, "edge index out of range"
    if len(set(ids)) != 4:
        return False, "indices not distinct"
    ma, mb, mc, md = (h.edge_masks[i] for i in ids)
    if ma & mb or mc & md:
        return False, "pair not disjoint"
    if ma | mb != mc | md:
        return False, "unions differ"
    return True, "ok"


def _pair_candidates(n: int, masks: list[int], need: int):
    """All vertex pairs whose link intersection has >= need edges, in
    decreasing-size order (ties by vertex pair), each with the intersection's
    edge masks.  Per-vertex bitmaps over the distinct (k-1)-subedges make the
    pair counting one AND + popcount per pair."""
    # Each (k-1)-subedge f -> the vertices v with f + v an edge.  Two f may
    # share that vertex list, so these rows are not a Hypergraph's edges.
    links: dict[int, list[int]] = {}
    for msk in masks:
        for v in vertices_of(msk):
            links.setdefault(msk ^ (1 << v), []).append(v)
    fmasks = list(links)
    bits = _incidence(n, links.values())
    verts = [v for v in range(n) if bits[v]]
    ranked = []
    for ai in range(len(verts)):
        for bi in range(ai + 1, len(verts)):
            x, y = verts[ai], verts[bi]
            common = bits[x] & bits[y]
            c = common.bit_count()
            if c >= need:
                ranked.append((-c, x, y, common))
    ranked.sort(key=lambda t: t[:3])
    for _, x, y, common in ranked:
        yield x, y, sorted(fmasks[i] for i in vertices_of(common))


def _copy_search(masks: list[int], k: int, l: int, prime: bool, n: int):
    """Returns (stationary parts, dynamic pairs) of a gadget copy, or None.

    Complete: any copy's last dynamic pair (x, y) leaves a lower-order copy
    inside the link intersection of x and y, and every pair with enough
    intersection edges is tried."""
    if l == 0:
        if prime:
            quad = _same_union_masks(masks)
            if quad is None:
                return None
            return tuple(vertices_of(masks[i]) for i in quad), []
        for j in range(len(masks)):
            for i in range(j):
                if masks[i] & masks[j] == 0:
                    return (vertices_of(masks[i]), vertices_of(masks[j])), []
        return None
    need_here = 1 << (l + (2 if prime else 1))
    if len(masks) < need_here:
        return None
    for x, y, inter in _pair_candidates(n, masks, need_here >> 1):
        sub = _copy_search(inter, k - 1, l - 1, prime, n)
        if sub is not None:
            parts, pairs = sub
            return parts, pairs + [(x, y)]
    return None


def find_gadget_copy(h: Hypergraph, k: int, l: int, prime: bool = False) -> EmbeddedCopy | None:
    """Search the host for a copy of the two-part (or, with prime, the
    four-part) selection gadget: stationary parts of size k-l plus l
    dynamic pairs, one edge per (part, pair-selection).

    Recursive: at l = 0 find a disjoint pair (or a same-union quad); at
    l >= 1 try vertex pairs (x, y) by decreasing link-intersection size and
    recurse on the intersection, attaching (x, y) as the last dynamic pair.
    None certifies absence."""
    if l < 0 or k <= l:
        raise ValueError(f"need k > l >= 0, got k={k}, l={l}")
    if prime and k - l < 2:
        raise ValueError(f"four distinct parts need k - l >= 2, got k={k}, l={l}")
    if len(h.edges) == 0:
        return None
    if h.uniformity != k:
        raise ValueError(f"host must be {k}-uniform")
    found = _copy_search(list(h.edge_masks), k, l, prime, h.n)
    if found is None:
        return None
    parts, pairs = found
    idx = h.mask_index
    indices = tuple(idx[mask_of(e)] for e in _selection_edges(parts, pairs))
    return EmbeddedCopy(
        k=k,
        l=l,
        prime=prime,
        stationary_parts=parts,
        dynamic_pairs=tuple(pairs),
        edge_indices=indices,
    )


def verify_embedded_copy(h: Hypergraph, c: EmbeddedCopy) -> tuple[bool, str]:
    """Re-derive every template edge from the parts and pairs and check it
    is the recorded host edge; also re-check the part/pair shape axioms."""
    nparts = 4 if c.prime else 2
    if len(c.stationary_parts) != nparts:
        return False, f"expected {nparts} stationary parts"
    if len(c.dynamic_pairs) != c.l:
        return False, f"expected {c.l} dynamic pairs"
    if any(len(part) != c.k - c.l for part in c.stationary_parts):
        return False, "stationary part has wrong size"
    a, b = (mask_of(p) for p in c.stationary_parts[:2])
    if a & b:
        return False, "first two parts intersect"
    pair_bits = 0
    for u, v in c.dynamic_pairs:
        pm = mask_of((u, v))
        if pm.bit_count() != 2 or pm & (a | b | pair_bits):
            return False, "dynamic pair vertices collide"
        pair_bits |= pm
    if c.prime:
        cm, dm = (mask_of(p) for p in c.stationary_parts[2:])
        if cm & dm:
            return False, "last two parts intersect"
        if cm | dm != a | b:
            return False, "part unions differ"
        if len({mask_of(p) for p in c.stationary_parts}) != 4:
            return False, "parts not distinct"
    idx = h.mask_index
    expect = []
    for e in _selection_edges(c.stationary_parts, list(c.dynamic_pairs)):
        i = idx.get(mask_of(e))
        if i is None:
            return False, f"template edge {e} missing from host"
        expect.append(i)
    if tuple(expect) != c.edge_indices:
        return False, "edge indices do not match the template enumeration"
    return True, "ok"


def equipartitions(k: int, r: int):
    """All partitions of [0,k) into r parts of size k/r, in the canonical
    order where the smallest unassigned element always starts the next part."""
    if r < 1 or k < 1:
        raise ValueError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if k % r:
        raise ValueError(f"r must divide k, got k={k}, r={r}")
    if k > 12:
        raise GuardError(f"equipartition enumeration is limited to k <= 12, got k={k}")
    kp = k // r

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for others in combinations(rest, kp - 1):
            part = (first, *others)
            left = tuple(v for v in rest if v not in others)
            for tail in rec(left):
                yield (part,) + tail

    yield from rec(tuple(range(k)))


def check_equipartition_hitting(k: int, r: int, family) -> bool:
    """True iff every r-equipartition of [0,k) has at least one part in
    `family` (an iterable of k/r-subsets of [0,k))."""
    kp = k // r if r >= 1 and k % r == 0 else None
    parts = set()
    for s in family:
        t = tuple(sorted(s))
        if len(set(t)) != len(t) or any(not (0 <= v < k) for v in t):
            raise ValueError(f"family member {s} is not a subset of [0,{k})")
        if kp is not None and len(t) != kp:
            raise ValueError(f"family member {s} does not have size {kp}")
        parts.add(t)
    return all(any(p in parts for p in eq) for eq in equipartitions(k, r))


def min_set_cover(num_elements: int, sets: list[int]) -> tuple[int, tuple[int, ...]]:
    """Exact minimum set cover over bitmask sets; branch on the lowest
    uncovered element, bound by remaining/max-set-size.  Returns the size and
    the first optimal selection found (ascending indices)."""
    full = (1 << num_elements) - 1
    if full == 0:
        return 0, ()
    union = 0
    for s in sets:
        union |= s
    if union & full != full:
        raise ValueError("the sets do not cover all elements")
    containing: list[list[int]] = [[] for _ in range(num_elements)]
    for i, s in enumerate(sets):
        for e in vertices_of(s & full):
            containing[e].append(i)
    max_size = max((s & full).bit_count() for s in sets)

    # greedy upper bound seeds the incumbent
    covered, greedy = 0, []
    while covered != full:
        best_i = min(
            range(len(sets)),
            key=lambda i: (-(sets[i] & ~covered & full).bit_count(), i),
        )
        greedy.append(best_i)
        covered |= sets[best_i]
    best_size = len(greedy)
    best_sets = tuple(sorted(greedy))

    chosen: list[int] = []

    def dfs(covered: int) -> None:
        nonlocal best_size, best_sets
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sets = tuple(sorted(chosen))
            return
        uncov = (~covered & full).bit_count()
        if len(chosen) + -(-uncov // max_size) >= best_size:
            return
        e = ((~covered & full) & -(~covered & full)).bit_length() - 1
        for i in containing[e]:
            chosen.append(i)
            dfs(covered | sets[i])
            chosen.pop()

    dfs(0)
    return best_size, best_sets


def min_equipartition_hitting_size(k: int, r: int) -> int:
    """Exact minimum size of a family of k/r-subsets hitting every
    r-equipartition of [0,k), via branch-and-bound set cover over the
    (subset, equipartition) incidence."""
    if k > 8:
        raise GuardError(f"exact minimum is limited to k <= 8, got k={k}")
    eqs = list(equipartitions(k, r))
    subsets = list(combinations(range(k), k // r))
    part_at = {s: i for i, s in enumerate(subsets)}
    cover = [0] * len(subsets)
    for ei, eq in enumerate(eqs):
        for p in eq:
            cover[part_at[p]] |= 1 << ei
    size, _chosen = min_set_cover(len(eqs), cover)
    return size
