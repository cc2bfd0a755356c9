"""Exact detection of r-regular subgraphs, with verifiable certificates.

An r-regular subgraph of H is a nonempty set S of distinct edges such that
every vertex covered by S is covered exactly r times (and vertices outside
the covered set are untouched).  Such an S with k-sets for edges has
k|S| = r|V(S)|, and find_regular first asks this count of a k-uniform host
(_sizes_fit): when no pair of sizes fits the host, it is free and nothing
is searched.  Otherwise find_regular runs _search, a propagating
DFS over edges in colex order whose whole state is two edge masks held in
locals, `open` (the undecided edges) and `chosen` (the included ones): a
vertex's degree and undecided edges are its incidence mask ANDed with
them, a backtrack restores the two masks, and closing a vertex excludes
all of its undecided edges with one mask update.  A dominance rule prunes
and excludes: when every undecided edge of an active vertex u passes
through w, w gains whatever u gains, so w must not outrank u in degree,
and at equal degrees w takes no edge that avoids u (see _propagate).  It
proves a full star free in O(m) nodes.  NONE_EXISTS is reported only when
absence is proved: by the size count or by a complete search.

One budget rule serves this search and extremal_search: a node budget N
visits at most N nodes and reports exactly N when it runs out, and
max_millis is a time.monotonic() deadline checked before every node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .errors import ParseError
from .hypercore import Hypergraph, degree_vector, vertices_of


class SolveStatus(Enum):
    FOUND = "found"
    NONE_EXISTS = "none"
    BUDGET_EXHAUSTED = "budget"


@dataclass(frozen=True)
class Certificate:
    """A concrete r-regular subgraph: edge indices plus the covered vertices."""

    r: int
    edge_indices: tuple[int, ...]
    covered: tuple[int, ...]


@dataclass(frozen=True)
class SolverBudget:
    """Caps on the search; None means unbounded."""

    max_nodes: int | None = None
    max_millis: float | None = None

    def __post_init__(self):
        # `_spent` tests nodes == max_nodes, so a fractional cap would never
        # fire, and a NaN deadline is never passed: both are refused.
        nodes, millis = self.max_nodes, self.max_millis
        if nodes is not None and (isinstance(nodes, bool) or not isinstance(nodes, int)
                                  or nodes < 1):
            raise ValueError(f"max_nodes must be an integer >= 1, got {nodes!r}")
        if millis is not None and (isinstance(millis, bool) or not isinstance(millis, (int, float))
                                   or not millis > 0):
            raise ValueError(f"max_millis must be a number > 0, got {millis!r}")


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    certificate: Certificate | None
    nodes: int


def _check_r(r) -> None:
    """The one contract on r everywhere: an integer >= 2 (at r = 1 every
    single edge would be a regular subgraph)."""
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"r must be an integer >= 2, got {r!r}")


def _limits(budget: SolverBudget | None) -> tuple[int | None, float | None]:
    """A budget as (max_nodes, time.monotonic() deadline from now)."""
    if budget is None:
        return None, None
    if budget.max_millis is None:
        return budget.max_nodes, None
    return budget.max_nodes, time.monotonic() + budget.max_millis / 1000.0


def _spent(nodes: int, max_nodes: int | None, deadline: float | None) -> bool:
    """The budget rule of both searches, asked before every node: a node is
    visited only while fewer than max_nodes have been and the deadline has
    not passed, so a node budget N visits at most N nodes."""
    return nodes == max_nodes or (deadline is not None and time.monotonic() > deadline)


def _sizes_fit(n: int, k: int, r: int, m: int) -> bool:
    """Whether the sizes of an r-regular subgraph with k-sets (k >= 1) for
    edges fit n vertices and m edges.  Such an S has k|S| = r|V(S)|, so with
    g = gcd(k, r), |V(S)| = (k/g)j and |S| = (r/g)j for some j >= 1, and
    |V(S)| <= n, |S| <= m and |S| <= C(|V(S)|, k).  As C(x, k)/x =
    C(x-1, k-1)/k does not fall as x grows, if some j fits then so does the
    largest j the first two bounds allow, and only that one is tried."""
    g = gcd(k, r)
    a, b = k // g, r // g
    j = min(n // a, m // b)
    if j < 1 or a * j < k:
        return False
    x, t = a * j, b * j
    # C(x, i) rises for i up to the nearer of k and x - k, and C(x, k)
    # equals C(x, x - k), so the count stops once it reaches t: within
    # about log2(t) steps, where C(x, k) itself can have 10^5 digits.
    c = 1
    for i in range(min(k, x - k)):
        if c >= t:
            break
        c = c * (x - i) // (i + 1)
    return c >= t


def _propagate(edges, inc, r: int, open: int, chosen: int, pending: list):
    """Propagate from the vertices in `pending` (a stack) to the fixpoint.

    With degree d = (inc[v] & chosen).bit_count() and undecided edges
    inc[v] & open, a vertex is untouched (d == 0), active (1 <= d < r),
    closed at r (d == r) or closed at 0 (d == 0 and fewer than r undecided
    edges).  Closing a vertex excludes all of its undecided edges at once;
    an active vertex with no slack includes all of its undecided edges.

    An active vertex v with slack, of degree dv and undecided edges u,
    asks the dominance rule of each w that lies on all of u; such a w lies
    on the lowest edge of u, so only that edge's vertices are tried, each
    with one test u & ~inc[w] == 0.  With dw the degree of w: dv < dw is a
    conflict, and dv == dw excludes every undecided edge of w that avoids
    v.  Proof: in any completion S, v ends at degree r, so w is covered too
    (v gains r - dv >= 1 edges of u, all through w) and ends at r.  So
    |S & u| = r - dv and |S & uw| = r - dw, with uw = inc[w] & open.  As u
    lies inside uw, dv < dw is impossible and dv == dw forces
    S & uw = S & u.  Only popped vertices ask, so a pair is missed when w
    gained degree and v was left alone; the rule then prunes less, never
    wrongly.

    Every vertex a change touches is pushed.  Returns the new (open,
    chosen), or None on a conflict: an active vertex that can no longer
    reach r, an edge to include through a vertex already at r, or a
    dominated vertex of lower degree."""
    n = len(inc)
    dominated = 0
    while True:
        if pending:
            v = pending.pop()
            x = inc[v]
            dv = (x & chosen).bit_count()
            u = x & open
            rem = u.bit_count()
            if 1 <= dv < r:
                need = r - dv
                if rem < need:
                    return None
                if rem == need:
                    for e in vertices_of(u):
                        for w in edges[e]:
                            if (inc[w] & chosen).bit_count() >= r:
                                return None
                        open ^= 1 << e
                        chosen |= 1 << e
                        pending.extend(edges[e])
                    continue
                for w in edges[(u & -u).bit_length() - 1]:
                    y = inc[w]
                    if w != v and not u & ~y:
                        dw = (y & chosen).bit_count()
                        if dw > dv:
                            return None
                        if dw == dv:
                            dominated |= y & open & ~u
                continue
            if dv == 0 and rem >= r:
                continue
            # Closed, at r or at 0: u is excluded below.
        elif dominated:
            # The dominance rule's exclusions wait until the other rules run
            # dry and then go in one mask update (on a star, each vertex of
            # an included edge excludes most of the edges).  One that was
            # included in the meantime leaves no completion.
            if dominated & chosen:
                return None
            u = dominated & open
            rem = u.bit_count()
            dominated = 0
        else:
            return open, chosen
        if u:
            # Walking u's edges costs a step per edge and per vertex of it,
            # scanning every vertex a step per vertex; below n/4 edges the
            # walk is the cheaper one.
            vs = (range(n) if 4 * rem >= n
                  else dict.fromkeys(w for e in vertices_of(u) for w in edges[e]))
            open ^= u
            pending.extend(w for w in vs if inc[w] & u)


def _search(edges, inc, family: int, r: int, max_nodes: int | None,
            deadline: float | None, forced: int | None = None) -> SolveResult:
    """Include-first DFS over the undecided edges in index order, as a loop
    over a stack with one (include, open, chosen) frame per decision on the
    current path.  A node is one decision; `_spent` is asked before each.
    Something chosen and no active vertex is FOUND; the test stops at the
    first active vertex.  `forced` pre-includes one edge (used
    by the extremal module, where the rest of the family is already known
    free), which can complete a subgraph before any node.

    The search runs in its caller's edge numbering: a mask's bit i stands
    for edges[i].  `inc` is the caller's per-vertex incidence, which is only
    read, and `family` is the mask of the edges to search, a subset of the
    edges `inc` covers plus any edge with no vertices, which keeps its bit
    this way."""
    pending = list(range(len(inc)))
    chosen = 0
    if forced is not None:
        chosen = 1 << forced
        pending.extend(edges[forced])
    state = _propagate(edges, inc, r, family ^ chosen, chosen, pending)
    nodes = 0
    stack: list[tuple[bool, int, int]] = []
    include = True
    while True:
        if state is not None:
            open, chosen = state
            if chosen and not any(1 <= (x & chosen).bit_count() < r for x in inc):
                found = vertices_of(chosen)
                covered = tuple(sorted({v for e in found for v in edges[e]}))
                return SolveResult(SolveStatus.FOUND, Certificate(r, found, covered), nodes)
        if state is None or not open:
            # Backtrack to the deepest decision whose exclude branch is still open.
            while stack:
                include, open, chosen = stack.pop()
                if include:
                    include = False
                    break
            else:
                return SolveResult(SolveStatus.NONE_EXISTS, None, nodes)
        # Every edge below the lowest undecided one is decided, so that edge
        # is the next in index order.  Both branches close it in `open`.
        if _spent(nodes, max_nodes, deadline):
            return SolveResult(SolveStatus.BUDGET_EXHAUSTED, None, nodes)
        nodes += 1
        stack.append((include, open, chosen))
        low = open & -open
        state = _propagate(edges, inc, r, open ^ low, chosen | low if include else chosen,
                           list(edges[low.bit_length() - 1]))
        include = True


def find_regular(h: Hypergraph, r: int, budget: SolverBudget | None = None) -> SolveResult:
    """Exact search for an r-regular subgraph.

    FOUND comes with a certificate (the first solution in search order:
    include-first DFS over edges in colex order).  NONE_EXISTS is reported
    only when absence is proved: by the size count or by a complete search.
    A k-uniform host (k >= 1) whose sizes admit no r-regular subgraph
    (_sizes_fit) answers NONE_EXISTS in 0 nodes, under any budget.
    BUDGET_EXHAUSTED reports the node count reached: exactly max_nodes when
    the node budget ran out.  Reruns with the same node budget are
    identical.  The max_millis clock starts after the set-up, when the
    search does.
    """
    _check_r(r)
    edges, m = h.edges, len(h.edges)
    # The count runs with the first edge's size, and only when it fires is
    # the host checked to be uniform, a pass over all the edges.  A first
    # edge `()` skips it: {()} is itself regular.
    if m and edges[0] and not _sizes_fit(h.n, len(edges[0]), r, m) and h.uniformity:
        return SolveResult(SolveStatus.NONE_EXISTS, None, 0)
    return _search(edges, h.vertex_incidence, (1 << m) - 1, r, *_limits(budget))


def verify_certificate(h: Hypergraph, cert: Certificate) -> tuple[bool, str]:
    """Recompute the degree vector of the certificate's edges and check it.

    Returns (True, "ok") or (False, reason) with reason one of:
    "bad-r" (r is not an integer >= 2), "empty", "bad-index", "bad-degree",
    "covered-mismatch".
    """
    try:
        _check_r(cert.r)
    except ValueError:
        return False, "bad-r"
    if not cert.edge_indices:
        return False, "empty"
    m = len(h.edges)
    seen = set()
    for i in cert.edge_indices:
        if not isinstance(i, int) or i < 0 or i >= m or i in seen:
            return False, "bad-index"
        seen.add(i)
    degs = degree_vector(h, cert.edge_indices)
    for v in cert.covered:
        if not isinstance(v, int) or v < 0 or v >= h.n or degs[v] != cert.r:
            return False, "bad-degree"
    if tuple(v for v, d in enumerate(degs) if d) != tuple(sorted(cert.covered)):
        return False, "covered-mismatch"
    return True, "ok"


def serialize_certificate(cert: Certificate) -> str:
    """Three lines: "r m", the edge indices, the covered vertices."""
    lines = [
        f"{cert.r} {len(cert.edge_indices)}",
        " ".join(str(i) for i in cert.edge_indices),
        " ".join(str(v) for v in cert.covered),
    ]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate; only blank lines may follow the third."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise ParseError("certificate needs three lines: header, edges, covered")
    for lineno, extra in enumerate(lines[3:], 4):
        if extra.strip():
            raise ParseError(f"line {lineno}: unexpected content after the covered vertices")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"malformed certificate header {lines[0]!r}")
    try:
        r, m = int(head[0]), int(head[1])
        indices = tuple(int(t) for t in lines[1].split())
        covered = tuple(int(t) for t in lines[2].split())
    except ValueError:
        raise ParseError("non-integer field in certificate") from None
    try:
        _check_r(r)
    except ValueError as exc:
        raise ParseError(f"certificate {exc}") from None
    if m < 0:
        raise ParseError(f"malformed certificate header {lines[0]!r}, edge count must be nonnegative")
    if len(indices) != m:
        raise ParseError(f"certificate header says {m} edges, found {len(indices)}")
    return Certificate(r=r, edge_indices=indices, covered=covered)
