from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb, gcd

import pytest

from oracles import brute_force_regular, regular_subset
from regulus.errors import ParseError
from regulus.extremal import extremal_search
from regulus.gadgets import bes_layer_star, example_b, full_star, gadget_h, star_plus
from regulus.hypercore import Hypergraph, complete_uniform, degree_vector, vertices_of
from regulus.regdetect import (
    Certificate,
    SolveResult,
    SolverBudget,
    SolveStatus,
    _sizes_fit,
    find_regular,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)

FANO = Hypergraph(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6),
                      (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)])


def random_instance(rng, n_max=10, m_max=20, ks=(2, 3, 4)):
    k = rng.choice(ks)
    n = rng.randint(k + 1, n_max)
    pool = list(combinations(range(n), k))
    m = rng.randint(1, min(m_max, len(pool)))
    return Hypergraph(n, rng.sample(pool, m))


def test_fano_is_3_regular():
    res = find_regular(FANO, 3)
    assert res.status is SolveStatus.FOUND
    assert res.certificate.edge_indices == tuple(range(7))
    assert res.certificate.covered == tuple(range(7))
    assert verify_certificate(FANO, res.certificate) == (True, "ok")


def test_two_overlapping_edges_have_nothing():
    h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    assert find_regular(h, 2).status is SolveStatus.NONE_EXISTS
    assert brute_force_regular(h, 2) is None


def test_single_edge_never_regular():
    h = Hypergraph(3, [(0, 1, 2)])
    for r in (2, 3):
        assert find_regular(h, r).status is SolveStatus.NONE_EXISTS
        assert brute_force_regular(h, r) is None


def test_empty_hypergraph():
    assert find_regular(Hypergraph(4), 2).status is SolveStatus.NONE_EXISTS
    assert brute_force_regular(Hypergraph(4), 2) is None


def test_r_must_be_at_least_two():
    h = Hypergraph(3, [(0, 1, 2)])
    for bad in (0, 1, -2, 2.0):
        for call in (lambda: find_regular(h, bad),
                     lambda: extremal_search(4, 3, bad), lambda: star_plus(8, 3, bad),
                     lambda: bes_layer_star(9, 4, bad, 0)):
            with pytest.raises(ValueError, match=f"r must be an integer >= 2, got {bad!r}"):
                call()


def test_non_uniform_input_is_accepted():
    h = Hypergraph(4, [(0, 1), (0, 1, 2)])
    assert find_regular(h, 2).status is SolveStatus.NONE_EXISTS
    # a graph triangle is 2-regular
    g = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
    res = find_regular(g, 2)
    assert res.status is SolveStatus.FOUND
    assert verify_certificate(g, res.certificate) == (True, "ok")


def test_empty_edge_is_searched():
    # `()` lies in no vertex's incidence mask; the solver still searches
    # it because its caller hands over the whole edge family, and {()} is
    # the first regular subgraph in search order, as the oracle's.
    for h in (Hypergraph(3, [()]), Hypergraph(4, [(), (0, 1, 2), (1, 2, 3)]),
              Hypergraph(3, [(), (0, 1), (0, 2), (1, 2)]), Hypergraph(0, [()])):
        for r in (2, 3):
            res = find_regular(h, r)
            cert = brute_force_regular(h, r)
            assert res.status is SolveStatus.FOUND
            assert res.certificate == cert
            assert cert.edge_indices == (0,) and cert.covered == ()
            assert verify_certificate(h, res.certificate) == (True, "ok")


def test_agrees_with_oracle_on_random_instances():
    # Uniform hosts, then hosts mixing 2-, 3- and 4-edges whose last
    # vertices may lie in no edge.  Under a 5-node budget a run may stop
    # early, but NONE_EXISTS still needs the oracle to find nothing.
    rng = random.Random(2024)
    five = SolverBudget(max_nodes=5)
    for i in range(300):
        if i < 150:
            h = random_instance(rng, n_max=8, m_max=12)
        else:
            n = rng.randint(4, 9)
            used = n - rng.randint(0, 2)
            pool = [e for k in (2, 3, 4) for e in combinations(range(used), k)]
            h = Hypergraph(n, rng.sample(pool, rng.randint(1, min(12, len(pool)))))
        r = rng.choice((2, 3))
        want = regular_subset(h.edges, h.n, r)
        got = find_regular(h, r)
        assert got.status is (SolveStatus.NONE_EXISTS if want is None else SolveStatus.FOUND)
        budgeted = find_regular(h, r, five)
        for res in (got, budgeted):
            if res.status is SolveStatus.FOUND:
                assert verify_certificate(h, res.certificate) == (True, "ok")
            elif res.status is SolveStatus.NONE_EXISTS:
                assert want is None


def test_monotonicity_under_edge_addition():
    rng = random.Random(77)
    found = 0
    for _ in range(120):
        h = random_instance(rng, n_max=8, m_max=14, ks=(2, 3))
        r = 2
        if find_regular(h, r).status is not SolveStatus.FOUND:
            continue
        found += 1
        pool = [e for e in combinations(range(h.n), 3) if not h.has_edge(e)]
        extra = rng.sample(pool, min(3, len(pool)))
        bigger = Hypergraph(h.n, list(h.edges) + extra)
        assert find_regular(bigger, r).status is SolveStatus.FOUND
    assert found >= 20


def test_determinism_with_node_budget():
    h = complete_uniform(7, 3)
    budget = SolverBudget(max_nodes=50)
    a = find_regular(h, 2, budget)
    b = find_regular(h, 2, budget)
    assert a == b
    full_a = find_regular(h, 2)
    full_b = find_regular(h, 2)
    assert full_a == full_b
    assert full_a.certificate == full_b.certificate


def test_budget_exhaustion_is_distinct():
    h, _ = full_star(9, 4)
    res = find_regular(h, 2, SolverBudget(max_nodes=3))
    assert res.status is SolveStatus.BUDGET_EXHAUSTED
    assert res.certificate is None
    assert res.nodes == 3
    # same cap, same cut point
    assert res == find_regular(h, 2, SolverBudget(max_nodes=3))


def test_search_order_is_pinned():
    # First certificates in include-first colex order, the same since the
    # recursive search, and node counts.
    # The last six are hosts where one closure excludes many edges at once
    # (a star center, a vertex of a complete host), so those counts also
    # pin that propagation reaches the same fixpoint whatever its order.
    # The free hosts' counts pin the dominance rule: a star at r = 2 fails
    # each include at depth 1, so it is proved free in about 2m nodes.
    cu25 = complete_uniform(25, 4)
    cases = [
        (FANO, 3, None, SolveStatus.FOUND, 1, tuple(range(7))),
        (complete_uniform(7, 3), 2, None, SolveStatus.FOUND, 8, (0, 1, 18, 19)),
        (star_plus(9, 3, 3)[0], 3, None, SolveStatus.FOUND, 3, (0, 1, 2, 3)),
        (complete_uniform(7, 3), 2, 50, SolveStatus.FOUND, 8, (0, 1, 18, 19)),
        (full_star(10, 3)[0], 2, None, SolveStatus.NONE_EXISTS, 56, None),
        (cu25, 2, None, SolveStatus.FOUND, 18,
         (0, 1, 34, 125, 329, 714, 1364, 2379, 3875, 5984, 10624, 10625)),
        (cu25, 4, None, SolveStatus.FOUND, 5, (0, 1, 2, 3, 4)),
        (example_b(9, 3, 2)[0], 9, None, SolveStatus.NONE_EXISTS, 25668, None),
        (full_star(16, 3)[0], 2, None, SolveStatus.NONE_EXISTS, 182, None),
        (bes_layer_star(8, 4, 3, 0)[0], 3, None, SolveStatus.NONE_EXISTS, 1618, None),
        (full_star(25, 4)[0], 2, None, SolveStatus.NONE_EXISTS, 4004, None),
    ]
    for h, r, max_nodes, status, nodes, edge_indices in cases:
        res = find_regular(h, r, SolverBudget(max_nodes=max_nodes))
        assert (res.status, res.nodes) == (status, nodes), (h, r)
        if edge_indices is not None:
            assert res.certificate.edge_indices == edge_indices, (h, r)
    assert extremal_search(5, 3, 2).nodes == 0


def test_size_count_proves_absence_before_any_node():
    # At k = 4, r = 3, j = 1 needs 3 edges on 4 vertices, which have one
    # 4-set, and j = 2 needs 8 vertices: C(7,4) is free at r = 3 by
    # counting alone, under any budget, while {()} is still regular.
    h = complete_uniform(7, 4)
    for budget in (None, SolverBudget(max_nodes=1)):
        assert find_regular(h, 3, budget) == SolveResult(SolveStatus.NONE_EXISTS, None, 0)
    res = find_regular(Hypergraph(3, [()]), 3)
    assert (res.status, res.nodes, res.certificate.edge_indices) == (SolveStatus.FOUND, 1, (0,))
    # The first edge's size fails the count (2 edges on 3 vertices), but
    # the host is not uniform, so the search runs and finds the triangle.
    mixed = Hypergraph(5, [(0, 1, 2), (2, 3), (2, 4), (3, 4)])
    res = find_regular(mixed, 2)
    assert res.status is SolveStatus.FOUND and res.certificate.edge_indices == (1, 2, 3)


def test_size_count_tries_only_the_largest_multiple():
    # Some j >= 1 puts (k/g)j vertices and (r/g)j edges within the bounds
    # iff the largest j allowed by n and m does.
    for n in range(0, 13):
        for k in range(1, 7):
            for r in range(2, 8):
                for m in range(0, 40):
                    a, b = k // gcd(k, r), r // gcd(k, r)
                    naive = any(b * j <= min(m, comb(a * j, k))
                                for j in range(1, n // a + 1))
                    assert _sizes_fit(n, k, r, m) == naive, (n, k, r, m)


def test_wide_host_ends_on_its_node_budget():
    # 1081 edges, more than the interpreter's default recursion limit
    res = find_regular(full_star(48, 3)[0], 2, SolverBudget(max_nodes=2000))
    assert res.status is SolveStatus.BUDGET_EXHAUSTED
    assert res.nodes == 2000


def test_sparse_closures_walk_their_edges():
    # Most vertices of this host have degree 0 or 1, so at r = 2 the root
    # closes them one after another until no edge is left.  Each closure
    # excludes a few edges; taking the touched vertices from those edges,
    # not from a scan of all 20,000, keeps the root propagation well under
    # a second (a scan at every closure took 48.6 s).
    rng = random.Random(3)
    pool = set()
    while len(pool) < 12000:
        pool.add(tuple(sorted(rng.sample(range(20000), 3))))
    h = Hypergraph(20000, sorted(pool))
    h.vertex_incidence
    start = time.monotonic()
    res = find_regular(h, 2)
    assert time.monotonic() - start < 5.0
    assert (res.status, res.nodes) == (SolveStatus.NONE_EXISTS, 0)


def test_deadline_is_checked_at_every_node():
    # Example B above its threshold is free and takes the search seconds
    # (a full star, proved free in about 2m nodes, ends near 50 ms).
    h, _ = example_b(10, 3, 2)
    start = time.monotonic()
    res = find_regular(h, 9, SolverBudget(max_millis=50))
    assert res.status is SolveStatus.BUDGET_EXHAUSTED
    assert time.monotonic() - start < 1.0


def test_budget_validation():
    # A fractional node cap or a NaN deadline would never fire, and the
    # search would run unbounded.
    for bad in (0, -3, 2.5, True, float("nan"), "10"):
        with pytest.raises(ValueError, match="max_nodes"):
            SolverBudget(max_nodes=bad)
    for bad in (0, -1.5, True, float("nan"), "10"):
        with pytest.raises(ValueError, match="max_millis"):
            SolverBudget(max_millis=bad)
    assert SolverBudget(max_nodes=1, max_millis=0.5).max_nodes == 1
    assert SolverBudget(max_millis=float("inf")).max_millis == float("inf")


def test_gadget_contains_regular_subgraph_when_pairs_suffice():
    # 2^l edge-disjoint double-matchings supply every r <= 2^l
    for k, l, r in ((3, 1, 2), (3, 2, 2), (3, 2, 3), (3, 2, 4), (4, 2, 4)):
        h, _ = gadget_h(k, l)
        res = find_regular(h, r)
        assert res.status is SolveStatus.FOUND, (k, l, r)
        assert verify_certificate(h, res.certificate) == (True, "ok")
        if len(h.edges) <= 25:
            assert brute_force_regular(h, r) is not None


def test_even_r_certificate_covers_all_gadget_vertices():
    h, _ = gadget_h(4, 2)
    res = find_regular(h, 2)
    assert res.status is SolveStatus.FOUND
    assert res.certificate.covered == tuple(range(8))


def test_verify_rejects_tampered_certificates():
    h, _ = star_plus(8, 3, 3)
    cert = find_regular(h, 3).certificate
    assert verify_certificate(h, cert) == (True, "ok")

    dropped = Certificate(r=3, edge_indices=cert.edge_indices[1:], covered=cert.covered)
    assert verify_certificate(h, dropped) == (False, "bad-degree")

    empty = Certificate(r=3, edge_indices=(), covered=())
    assert verify_certificate(h, empty) == (False, "empty")

    bad_idx = Certificate(r=3, edge_indices=(0, 999), covered=cert.covered)
    assert verify_certificate(h, bad_idx) == (False, "bad-index")

    repeated = Certificate(r=3, edge_indices=(cert.edge_indices[0],) * 2, covered=cert.covered)
    assert verify_certificate(h, repeated) == (False, "bad-index")

    shrunk = Certificate(r=3, edge_indices=cert.edge_indices, covered=cert.covered[1:])
    assert verify_certificate(h, shrunk) == (False, "covered-mismatch")

    wrong_r = Certificate(r=2, edge_indices=cert.edge_indices, covered=cert.covered)
    assert verify_certificate(h, wrong_r) == (False, "bad-degree")

    one_edge = Certificate(r=1, edge_indices=(0,), covered=(0, 1, 2))
    assert verify_certificate(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]), one_edge) == (False, "bad-r")
    for r in (0, -3, 2.0):
        bad_r = Certificate(r=r, edge_indices=cert.edge_indices, covered=cert.covered)
        assert verify_certificate(h, bad_r) == (False, "bad-r")


def test_certificate_serialization_roundtrip():
    cert = Certificate(r=3, edge_indices=(0, 2, 5, 9), covered=(0, 1, 2, 3, 4))
    text = serialize_certificate(cert)
    assert text == "3 4\n0 2 5 9\n0 1 2 3 4\n"
    assert parse_certificate(text) == cert


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        parse_certificate("3 4\n0 1 2 3\n")
    with pytest.raises(ParseError):
        parse_certificate("nope\n0\n0 1\n")
    with pytest.raises(ParseError):
        parse_certificate("3 2\n0\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_certificate("3 1\n0 x\n0 1 2\n")
    with pytest.raises(ParseError, match="line 4: unexpected content"):
        parse_certificate("1 1\n0\n0 1 2\nextra junk\n")
    with pytest.raises(ParseError, match="line 5: unexpected content"):
        parse_certificate("3 1\n0\n0 1 2\n\nextra junk\n")
    for r in (1, 0, -3):
        with pytest.raises(ParseError, match=f"r must be an integer >= 2, got {r}"):
            parse_certificate(f"{r} 1\n0\n0 1 2\n")
    with pytest.raises(ParseError, match="edge count must be nonnegative"):
        parse_certificate("3 -1\n\n\n")
    assert parse_certificate("3 1\n0\n0 1 2\n\n") == Certificate(3, (0,), (0, 1, 2))


def test_found_certificates_have_consistent_covered_set():
    rng = random.Random(9)
    for _ in range(50):
        h = random_instance(rng, n_max=8, m_max=12, ks=(2, 3))
        res = find_regular(h, 2)
        if res.status is not SolveStatus.FOUND:
            continue
        cert = res.certificate
        degs = degree_vector(h, cert.edge_indices)
        cov = 0
        for i in cert.edge_indices:
            cov |= h.edge_masks[i]
        assert vertices_of(cov) == cert.covered
        assert all(degs[v] == 2 for v in cert.covered)
        assert sum(degs) == 2 * len(cert.covered)
