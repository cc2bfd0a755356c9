"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: plain loops over itertools
enumerations, frozensets instead of bitmasks, no pruning.  Slow but
obviously correct, and sharing no code with the package under test.  The
one vectorized oracle, brute_force_regular, scans subsets with numpy (the
tests' only use of it) and returns the package's Certificate type, so that
its answer compares with the solver's directly.  The sunflower_free_family
fixture likewise builds a Hypergraph.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from regulus.errors import GuardError
from regulus.hypercore import Hypergraph
from regulus.regdetect import Certificate


def brute_force_regular(h, r):
    """First r-regular subgraph of h in ascending subset-mask order, as a
    Certificate, or None: every nonempty edge subset is scanned, with the
    degree vectors of the subsets of the low 18 edges tabulated once.
    Guarded to 25 edges."""
    import numpy as np

    if not isinstance(r, int) or r < 2:
        raise ValueError(f"r must be an integer >= 2, got {r!r}")
    m = len(h.edges)
    if m > 25:
        raise GuardError(f"brute_force_regular is limited to 25 edges, got {m}")
    if m == 0:
        return None
    n = h.n
    inc = np.zeros((m, n), dtype=np.uint8)
    for i, e in enumerate(h.edges):
        for v in e:
            inc[i, v] = 1
    low_bits = min(m, 18)
    table = np.zeros((1 << low_bits, n), dtype=np.uint8)
    for i in range(low_bits):
        table[1 << i: 2 << i] = table[: 1 << i] + inc[i]
    for high in range(1 << (m - low_bits)):
        base = np.zeros(n, dtype=np.uint8)
        for j in range(m - low_bits):
            if (high >> j) & 1:
                base += inc[low_bits + j]
        degs = table + base
        ok = ((degs == 0) | (degs == r)).all(axis=1)
        if high == 0:
            ok[0] = False
        hits = np.flatnonzero(ok)
        if hits.size:
            subset = (high << low_bits) | int(hits[0])
            indices = tuple(i for i in range(m) if (subset >> i) & 1)
            covered = sorted({v for i in indices for v in h.edges[i]})
            return Certificate(r=r, edge_indices=indices, covered=tuple(covered))
    return None


def regular_subset(edges, n, r):
    """First nonempty edge subset (smallest size, then lexicographic index
    order) covering every touched vertex exactly r times; None if absent."""
    m = len(edges)
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            degs = [0] * n
            for i in combo:
                for v in edges[i]:
                    degs[v] += 1
            if any(degs) and all(d in (0, r) for d in degs):
                return combo
    return None


def wedge_total(edges, n, v, r):
    """Wedge count at v by materializing the non-edge k-sets through v and
    running the double loop over (edge avoiding v) x (non-edge through v)."""
    k = len(edges[0])
    kp = k // r
    edge_sets = {frozenset(e) for e in edges}
    h_star = [frozenset(e) for e in edges if v not in e]
    h_tilde = [frozenset(f) for f in combinations(range(n), k)
               if v in f and frozenset(f) not in edge_sets]
    total = 0
    for e in h_star:
        for f in h_tilde:
            if len(e & f) == k - kp:
                total += 1
    return total


def extremal_by_enumeration(n, k, r):
    """Max size of a k-uniform family on [0, n) with no r-regular subset,
    by scanning every subfamily of the complete family.  Tiny n only."""
    universe = list(combinations(range(n), k))
    best = 0
    for pick in range(1 << len(universe)):
        chosen = [universe[i] for i in range(len(universe)) if (pick >> i) & 1]
        if len(chosen) <= best:
            continue
        if regular_subset(chosen, n, r) is None:
            best = len(chosen)
    return best


def extremal_tree(n, k, r):
    """The outer trees of an include-first DFS for ex(n, k, r), without
    memos, one level m = k, ..., n at a time: level m runs over the k-sets
    of [m] in colex order, with the star on vertex 0 of [m] as the first
    incumbent, and each inclusion decided by regular_subset.  A level is
    not searched when no r-regular family's sizes fit it (k * s == r * x
    for no x <= m and s <= C(x, k)): its best is all k-sets of [m], in 0
    nodes.  A node is pruned when its chosen count plus the slots left
    cannot beat the incumbent, or when the alive count plus E minus the
    largest a_v cannot, where E = ex(m - 1, k, r) comes from
    extremal_by_enumeration and a_v counts the chosen or undecided k-sets
    avoiding v: F - v is free on m - 1 vertices, and v adds at most the
    other alive slots.  Returns
    (optimum, nodes summed over the levels, witness edges of level n in
    colex order).  Tiny n only."""
    nodes = 0

    def colex(m):
        return sorted(combinations(range(m), k), key=lambda e: sum(1 << v for v in e))

    def level(m):
        nonlocal best, nodes
        universe = colex(m)
        total = len(universe)
        best = [e for e in universe if e[0] == 0]
        below = extremal_by_enumeration(m - 1, k, r) if m > k else None

        def visit(slot, chosen):
            nonlocal best, nodes
            nodes += 1
            if slot == total:
                if len(chosen) > len(best):
                    best = chosen
                return
            if len(chosen) + total - slot <= len(best):
                return
            if below is not None:
                alive = chosen + universe[slot:]
                avoiding = [sum(v not in e for e in alive) for v in range(m)]
                if len(alive) + below - max(avoiding) <= len(best):
                    return
            family = chosen + [universe[slot]]
            if regular_subset(family, n, r) is None:
                visit(slot + 1, family)
            visit(slot + 1, chosen)

        visit(0, [])

    best = []
    for m in range(k, n + 1):
        fits = any(k * s == r * x for x in range(k, m + 1) for s in range(1, comb(x, k) + 1))
        if fits:
            level(m)
        else:
            best = colex(m)
    return len(best), nodes, best


def sunflower_exists(edges, p):
    """Exhaustive p-sunflower test over all p-subsets of edges."""
    sets = [frozenset(e) for e in edges]
    for combo in combinations(range(len(sets)), p):
        core = sets[combo[0]]
        for i in combo[1:]:
            core = core & sets[i]
        if all(sets[i] & sets[j] == core for i, j in combinations(combo, 2)):
            return True
    return False


def max_matching_size(edges):
    """Exact maximum matching by exhaustive subset scan (small m only)."""
    m = len(edges)
    sets = [frozenset(e) for e in edges]
    for size in range(m, 0, -1):
        for combo in combinations(range(m), size):
            if all(sets[i].isdisjoint(sets[j]) for i, j in combinations(combo, 2)):
                return size
    return 0


def complement_pairing(edges, n):
    """Pair every edge index with the index of its vertex-set complement.

    Returns the pair list, or None when some complement is missing; each
    pair is two disjoint edges covering all n vertices."""
    pos = {frozenset(e): i for i, e in enumerate(edges)}
    full = frozenset(range(n))
    pairs = []
    done = set()
    for i, e in enumerate(edges):
        if i in done:
            continue
        j = pos.get(full - frozenset(e))
        if j is None or j == i:
            return None
        pairs.append((i, j))
        done.add(i)
        done.add(j)
    return pairs


def sunflower_free_family(k, p):
    """The transversal product family: k disjoint groups of p - 1 vertices,
    one edge per choice of a vertex from each group, (p - 1)^k edges and no
    p of them a sunflower: a family on which find_sunflower has to prove
    absence by its exhaustive fallback."""
    groups = [range(i * (p - 1), (i + 1) * (p - 1)) for i in range(k)]
    edges = [()]
    for g in groups:
        edges = [e + (v,) for e in edges for v in g]
    return Hypergraph(k * (p - 1), edges)
