"""Exhaustive extremal-value search, the claim tables built on it, wedge
counting, and related checks.

extremal_search computes ex(n, k, r): the maximum number of edges of an
n-vertex k-uniform hypergraph with no r-regular subgraph, by include-first
depth-first search over the complete k-set universe in colex order, pruning
with an incremental solver call (adding an edge to a regular-free set can
only create regular subgraphs through that edge), a remaining-slots bound,
and a vertex-deletion bound at the best single vertex from ex(n - 1, k, r),
which the same call finds first, level by level.
A subfamily of a free family is free, so whether F + e is free is monotone
in F; each candidate edge remembers every family found free with it and
every regular subfamily found through it, indexed by slot so that a lookup
is one AND or OR per slot, and a solve runs only when neither decides the
inclusion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .errors import GuardError
from .gadgets import example_b, example_b_free_threshold, full_star
from .hypercore import Hypergraph, mask_of, vertices_of
from .regdetect import SolverBudget, SolveStatus, find_regular
from .regdetect import _check_r, _limits, _search, _sizes_fit, _spent


# The largest k-set universe C(n, k) that extremal_search accepts.
MAX_UNIVERSE = 64


def _check_universe(n: int, k: int) -> None:
    if comb(n, k) > MAX_UNIVERSE:
        raise GuardError(f"universe C({n},{k}) exceeds the {MAX_UNIVERSE}-edge guard")


@dataclass(frozen=True)
class SearchReport:
    n: int
    k: int
    r: int
    optimum: int
    witness: Hypergraph
    complete: bool
    nodes: int
    elapsed_ms: float


@dataclass(frozen=True)
class WedgeCount:
    """Wedges at center v: pairs (e, f) with e an edge avoiding v, f a
    non-edge k-set through v, and |e n f| = k - k/r."""

    v: int
    r: int
    k: int
    k_prime: int
    total: int
    per_edge: dict[int, int]


@dataclass(frozen=True)
class ThreeSetPartition:
    """3-sets T split by how many non-edges pass through T + {v}: T is bad
    iff 8 * d(T) >= C(n-k-4, k-4), with d counted over non-edges."""

    v: int
    good: tuple[tuple[int, int, int], ...]
    bad: tuple[tuple[int, int, int], ...]


def _comb0(a: int, b: int) -> int:
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def extremal_search(
    n: int,
    k: int,
    r: int,
    budget: SolverBudget | None = None,
    isomorph_reject: bool = False,
) -> SearchReport:
    """Exact ex(n, k, r) over the full C(n, k) universe (guarded to 64
    candidate edges), found level by level: ex(m, k, r) for m = k, ..., n,
    each level bounding the next.  In colex order the k-sets of [m] are the
    first C(m, k) slots of the universe, so level m is an include-first DFS
    over that prefix.  Its incumbent starts at the full star on vertex 0 of
    [m], C(m-1, k-1) edges, which is free for every r >= 2: an r-regular S
    in it gives the center degree |S| = r, so every covered vertex lies in
    all r edges and they coincide.

    Vertex-deletion bound.  A level m where the count k|S| = r|V(S)| leaves
    no room for an r-regular S among the C(m, k) k-sets has ex = C(m, k),
    its whole prefix, and visits no node, builds no permutation table and
    asks no budget: a triple the count settles is complete in 0 nodes.
    Every other level below n runs to the end and passes its optimum E =
    ex(m, k, r) up.  Level m + 1 then prunes a node when |alive| + E - max
    over v of a_v is <= best, with alive the chosen or undecided slots and
    a_v those of them that avoid v; one popcount pass gives every a_v.
    Proof: F - v is a free family on m vertices, so |F - v| <= E, and v
    lies in at most |alive| - a_v edges of F, so |F| = |F - v| + deg_F(v)
    <= |alive| + E - a_v for every v.  The bound is only taken where it can
    prune more than the remaining-slots count |alive|: it is lower by max
    a_v - E, and a_v <= C(m, k).  An included child has its parent's alive
    set and inherits its value; an excluded child computes its own.

    nodes counts the outer nodes of every level.  With a budget the search
    may stop early with complete=False.  The budget follows the solver's
    rule across the whole chain: a node budget N visits at most N outer
    nodes in all (nodes is then N), and max_millis is one deadline, checked
    at every outer node and inside every inner solve, whose running out also
    ends the search.  Stopped at level n, the search returns the best family
    seen there (a leaf larger than the star, or the star); stopped below n,
    the star on vertex 0 of [n].  The witness's freeness re-check runs once,
    at the top, and always to the end.

    Including edge e in a free family F is decided by the true verdict on
    F + e, reached by the first of four checks that decides it.  F + e is
    free if F is a subset of free_with[e], the last family found free with
    e (it starts empty: one edge alone is free for r >= 2).  F + e is not free if
    some certificate found through e, minus e, is a subset of F: bit j of
    reg_in[e][t] says that the j-th such certificate holds slot t, so
    OR-ing reg_in[e][t] over the certificates' slots outside F leaves
    exactly the bits of the certificates inside F clear.  F + e is free if
    some family found free with e holds F: free_in[e][t] is indexed the
    same way, and the AND of free_in[e][t] over the slots t of F keeps the
    bits of the families that hold all of F.  Otherwise an inner solve with
    e forced decides, and its answer is stored.  Verdicts on families hold
    at every level, so all levels share the memos.  The memos skip solves
    without changing any decision, so the tree, the witness and the node
    count do not depend on them.

    With isomorph_reject, a state (slot, chosen) of level m with slot < 8 is
    pruned when an isomorphic one was visited at that level: its key is the
    least pair of slot masks (chosen, excluded) over the permutations of
    [m], each applied as the slot permutation it induces."""
    _check_r(r)
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    _check_universe(n, k)
    if isomorph_reject and n > 7:
        raise GuardError("isomorph rejection is limited to n <= 7")

    universe = Hypergraph(n, combinations(range(n), k))
    edges, inc = universe.edges, universe.vertex_incidence
    total = len(edges)
    start = time.perf_counter()
    max_nodes, deadline = _limits(budget)

    # Families are bitmasks over universe slots.  Per candidate slot e:
    # free_with[e] is the last family found free with e; bit j of
    # free_in[e][t] says that the j-th family found free with e holds slot
    # t, and bit j of reg_in[e][t] that the j-th certificate found through
    # e (minus e) does; reg_union[e] is the union of those certificates.
    free_with = [0] * total
    free_in = [[0] * total for _ in range(total)]
    free_count = [0] * total
    reg_in = [[0] * total for _ in range(total)]
    reg_count = [0] * total
    reg_union = [0] * total
    nodes = 0
    complete = True
    slot_perms: list = []

    def canon(chosen: int, slot: int):
        cs = vertices_of(chosen)
        xs = vertices_of(~chosen & ((1 << slot) - 1))
        return slot, min((sum(b[s] for s in cs), sum(b[s] for s in xs)) for b in slot_perms)

    # below is ex(m - 1, k, r) from the complete level under level m; at
    # the first level it is C(m - 1, k) = 0, and the bound is never taken.
    best = below = 0
    for m in range(k, n + 1):
        size = comb(m, k)
        prefix = (1 << size) - 1
        if not _sizes_fit(m, k, r, size):
            best, below = prefix, size
            continue
        best = inc[0] & prefix  # the star on vertex 0 of [m]
        # The bound is count - (max_v a_v - below) with a_v <= C(m - 1, k), so
        # it can prune only where count exceeds the incumbent by at most reach.
        reach = comb(m - 1, k) - below
        avoid = [prefix & ~inc[v] for v in range(m)]
        if isomorph_reject:
            seen_states: set = set()
            # Each permutation of [m] as the images of the slots canon reads.
            slot_perms = list(dict.fromkeys(
                tuple(1 << universe.mask_index[mask_of(pi[v] for v in e)]
                      for e in edges[:min(8, size)])
                for pi in permutations(range(m))))
        # Include-first DFS over (slot, chosen, bound) frames, the bound None
        # until taken; a node's excluded child is pushed below its included
        # one, so it is visited after the whole included subtree.
        stack: list[tuple[int, int, int | None]] = [(0, 0, None)]
        while stack:
            if _spent(nodes, max_nodes, deadline):
                complete = False
                break
            nodes += 1
            slot, chosen, bound = stack.pop()
            if slot == size:
                if chosen.bit_count() > best.bit_count():
                    best = chosen
                continue
            incumbent = best.bit_count()
            count = chosen.bit_count() + size - slot
            if count <= incumbent:
                continue
            if count - incumbent <= reach:
                if bound is None:
                    alive = chosen | prefix >> slot << slot
                    bound = count + below - max(map(int.bit_count, map(alive.__and__, avoid)))
                if bound <= incumbent:
                    continue
            if isomorph_reject and slot < 8:
                key = canon(chosen, slot)
                if key in seen_states:
                    continue
                seen_states.add(key)
            stack.append((slot + 1, chosen, None))
            bit = 1 << slot
            family = chosen | bit
            if chosen & ~free_with[slot] == 0:
                stack.append((slot + 1, family, bound))
                continue
            # A certificate lies inside chosen iff none of its slots is outside.
            count = reg_count[slot]
            if count:
                row, full, hit = reg_in[slot], (1 << count) - 1, 0
                mask = reg_union[slot] & ~chosen
                while mask:
                    low = mask & -mask
                    hit |= row[low.bit_length() - 1]
                    if hit == full:
                        break
                    mask ^= low
                if hit != full:
                    continue
            # A stored free family holds chosen iff it holds each of its slots.
            count = free_count[slot]
            if count:
                row, hit = free_in[slot], (1 << count) - 1
                mask = chosen
                while mask:
                    low = mask & -mask
                    hit &= row[low.bit_length() - 1]
                    if not hit:
                        break
                    mask ^= low
                if hit:
                    stack.append((slot + 1, family, bound))
                    continue
            res = _search(edges, inc, family, r, None, deadline, slot)
            if res.status is SolveStatus.BUDGET_EXHAUSTED:
                complete = False
                break
            if res.status is SolveStatus.FOUND:
                cert = mask_of(res.certificate.edge_indices) & ~bit
                row, j = reg_in[slot], 1 << reg_count[slot]
                for t in vertices_of(cert):
                    row[t] |= j
                reg_count[slot] += 1
                reg_union[slot] |= cert
            else:
                free_with[slot] = chosen
                row, j = free_in[slot], 1 << free_count[slot]
                for t in vertices_of(chosen):
                    row[t] |= j
                free_count[slot] += 1
                stack.append((slot + 1, family, bound))
        if not complete:
            if m < n:
                best = inc[0]  # the star on vertex 0 of [n]
            break
        below = best.bit_count()

    witness = Hypergraph(n, [edges[s] for s in vertices_of(best)])
    check = find_regular(witness, r)
    if check.status is not SolveStatus.NONE_EXISTS:
        raise AssertionError("search witness failed its freeness re-verification")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return SearchReport(
        n=n, k=k, r=r, optimum=best.bit_count(), witness=witness,
        complete=complete, nodes=nodes, elapsed_ms=elapsed_ms,
    )


CLAIMS = ("mv-conjecture", "star-extremal", "example-b")


def claim_table(claim: str, n_max: int, k: int = 3, r: int = 2,
                c: int = 2) -> tuple[tuple[str, ...], list[tuple]]:
    """Header and rows of one desk-scale claim table for n up to n_max;
    every row names its method (exhaustive | solver)."""
    if claim == "mv-conjecture":
        _check_universe(n_max, k)
        header = ("n", "k", "r", "conjectured", "optimum", "match", "method")
        rows = []
        for n in range(k + 1, n_max + 1):
            rep = extremal_search(n, k, r)
            conj = comb(n - 1, k - 1) + (n - 1) // k
            rows.append((n, k, r, conj, rep.optimum,
                         int(rep.optimum == conj), "exhaustive"))
        return header, rows
    if claim == "star-extremal":
        header = ("n", "k", "r", "edges", "free", "method")
        rows = []
        for n in range(k + 1, n_max + 1):
            h, _ = full_star(n, k)
            res = find_regular(h, r)
            rows.append((n, k, r, len(h.edges),
                         int(res.status is SolveStatus.NONE_EXISTS), "solver"))
        return header, rows
    if claim == "example-b":
        r = example_b_free_threshold(k, c) + 1
        header = ("n", "k", "c", "edges", "r", "free", "method")
        rows = []
        for n in range(c + k - 1, n_max + 1):
            h, _ = example_b(n, k, c)
            res = find_regular(h, r)
            rows.append((n, k, c, len(h.edges), r,
                         int(res.status is SolveStatus.NONE_EXISTS), "solver"))
        return header, rows
    raise ValueError(f"unknown claim {claim!r}")


def count_wedges(h: Hypergraph, v: int, r: int) -> WedgeCount:
    """Exact wedge count at v.  The non-edge side is never materialized: for
    each edge e avoiding v, wedge partners are exactly (e - D) + S + {v} over
    k/r-subsets D of e and (k/r - 1)-sets S outside e + {v}, minus those that
    are edges; (D, S) <-> f is a bijection, so each wedge is counted once."""
    _check_r(r)
    k = h.uniformity
    if k is None:
        raise ValueError("a nonempty uniform hypergraph is required")
    if k % r:
        raise ValueError(f"r must divide k, got k={k}, r={r}")
    if not (0 <= v < h.n):
        raise ValueError(f"vertex {v} out of range")
    kp = k // r
    idx = h.mask_index
    vbit = 1 << v
    per_edge: dict[int, int] = {}
    total = 0
    for i, (e, me) in enumerate(zip(h.edges, h.edge_masks)):
        if me & vbit:
            continue
        pool = [u for u in range(h.n) if u != v and not (me >> u) & 1]
        s_masks = [mask_of(s) for s in combinations(pool, kp - 1)]
        cnt = 0
        for d in combinations(e, kp):
            base = (me ^ mask_of(d)) | vbit
            for sm in s_masks:
                if base | sm not in idx:
                    cnt += 1
        per_edge[i] = cnt
        total += cnt
    return WedgeCount(v=v, r=r, k=k, k_prime=kp, total=total, per_edge=per_edge)


def classify_3sets(h: Hypergraph, v: int) -> ThreeSetPartition:
    """Partition the 3-sets of V - {v} by the exact integer comparison
    8 * d(T + {v}) >= C(n-k-4, k-4), where d counts non-edge k-sets through
    T + {v} as C(n-4, k-4) minus the edge count (no floating point)."""
    k = h.uniformity
    if k is None or k < 5:
        raise ValueError("a k-uniform hypergraph with k >= 5 is required")
    if not (0 <= v < h.n):
        raise ValueError(f"vertex {v} out of range")
    n = h.n
    inc = h.vertex_incidence
    through_all = _comb0(n - 4, k - 4)
    rhs = _comb0(n - k - 4, k - 4)
    good, bad = [], []
    others = [u for u in range(n) if u != v]
    for t in combinations(others, 3):
        d_edges = (inc[v] & inc[t[0]] & inc[t[1]] & inc[t[2]]).bit_count()
        d_non = through_all - d_edges
        (bad if 8 * d_non >= rhs else good).append(t)
    return ThreeSetPartition(v=v, good=tuple(good), bad=tuple(bad))
