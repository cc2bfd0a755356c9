from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

import pytest

from oracles import extremal_by_enumeration, extremal_tree, wedge_total
from regulus import extremal
from regulus.errors import GuardError
from regulus.gadgets import full_star, star_plus
from regulus.hypercore import Hypergraph, complete_uniform
from regulus.regdetect import SolverBudget, SolveStatus, _sizes_fit, find_regular
from regulus.extremal import (
    CLAIMS,
    claim_table,
    classify_3sets,
    count_wedges,
    extremal_search,
)

def test_smallest_case_is_whole_universe():
    rep = extremal_search(4, 3, 2)
    assert rep.complete
    assert rep.optimum == 4
    assert rep.witness == complete_uniform(4, 3)
    assert rep.optimum == extremal_by_enumeration(4, 3, 2)


def test_five_vertices_admit_every_triple():
    # a 2-regular 3-uniform subgraph satisfies 3m = 2w, so m is even and
    # w = 3m/2 >= 6 vertices; no 5-vertex host can contain one, hence the
    # optimum is the full C(5,3) = 10
    rep = extremal_search(5, 3, 2)
    assert rep.complete
    assert rep.optimum == 10
    assert rep.optimum == extremal_by_enumeration(5, 3, 2)


def test_six_vertices_match_star_plus_matching_pattern():
    # first size where 2-regular subgraphs exist at all; the optimum equals
    # C(5,2) + floor(5/3) = 11 (full star plus one disjoint edge)
    rep = extremal_search(6, 3, 2)
    assert rep.complete
    assert rep.optimum == comb(5, 2) + (6 - 1) // 3 == 11
    assert rep.nodes == 71393
    assert rep.witness.edges == (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4),
        (1, 2, 4), (0, 3, 4), (1, 3, 4), (2, 3, 4), (0, 1, 5))


def test_outer_tree_is_pinned():
    # the outer tree follows from the true freeness verdicts alone, so how
    # a verdict is reached must not move these counts or witnesses; nodes
    # sum over the levels, and ex(6,3,4) has no level below 6 to bound it
    reps = {t: extremal_search(*t) for t in ((6, 3, 3), (6, 3, 4), (7, 2, 3))}
    assert {t: (rep.complete, rep.nodes) for t, rep in reps.items()} == {
        (6, 3, 3): (True, 32470), (6, 3, 4): (True, 86875), (7, 2, 3): (True, 8722)}
    # ex(6,3,3) = C(5,2), first reached at the star on vertex 0
    assert reps[(6, 3, 3)].witness == full_star(6, 3)[0]
    iso = extremal_search(6, 3, 2, isomorph_reject=True)
    assert (iso.optimum, iso.complete, iso.nodes) == (11, True, 11722)
    cut = extremal_search(7, 3, 2, budget=SolverBudget(max_nodes=10000))
    assert (cut.optimum, cut.complete, cut.nodes) == (15, False, 10000)


def test_isomorph_tree_is_pinned():
    # isomorph rejection prunes a state whose class was seen; how the key
    # of a class is encoded must not move these counts
    reps = {t: extremal_search(*t, isomorph_reject=True)
            for t in ((6, 3, 3), (6, 3, 4), (6, 4, 4), (5, 3, 3))}
    assert {t: (rep.complete, rep.nodes) for t, rep in reps.items()} == {
        (6, 3, 3): (True, 4201), (6, 3, 4): (True, 15057), (6, 4, 4): (True, 276),
        (5, 3, 3): (True, 62)}
    cut = extremal_search(7, 3, 3, budget=SolverBudget(max_nodes=20000), isomorph_reject=True)
    assert (cut.optimum, cut.complete, cut.nodes) == (15, False, 20000)


def test_levels_share_one_budget():
    # ex(7,2,3) searches levels 4-7 (12 + 22 + 3,191 + 5,497 nodes); a
    # budget spent inside a level below 7 answers the star on vertex 0 of [7]
    assert [extremal_search(m, 2, 3).nodes for m in (4, 5, 6, 7)] == [12, 34, 3225, 8722]
    star = full_star(7, 2)[0]
    for budget in (10, 1000):
        rep = extremal_search(7, 2, 3, budget=SolverBudget(max_nodes=budget))
        assert (rep.optimum, rep.complete, rep.nodes) == (6, False, budget)
        assert rep.witness == star
        assert find_regular(rep.witness, 3).status is SolveStatus.NONE_EXISTS
    rep = extremal_search(7, 2, 3, budget=SolverBudget(max_nodes=5000))
    assert (rep.optimum, rep.complete, rep.nodes) == (13, False, 5000)


def test_matches_tree_oracle():
    # the whole outer tree, not only its optimum: the memos may skip solves
    # but never change an inclusion, so nodes and witness match a DFS that
    # decides every inclusion by subset scan and takes each level's bounds
    # from an ex(m - 1) found by enumeration; below n = 6 the vertex-deletion
    # bound moves ex(4,2,2), ex(5,2,2), ex(5,2,3) and ex(5,3,3), and it cuts
    # ex(6,2,2), ex(6,2,3) and ex(6,4,4) by 36-72%
    small = [(n, k, r) for n in range(1, 6) for k in range(1, n + 1) for r in (2, 3, 4, 5)]
    for n, k, r in small + [(6, 2, 2), (6, 2, 3), (6, 4, 4)]:
        optimum, nodes, witness = extremal_tree(n, k, r)
        rep = extremal_search(n, k, r)
        assert rep.complete, (n, k, r)
        assert (rep.optimum, rep.nodes, list(rep.witness.edges)) == (
            optimum, nodes, witness), (n, k, r)


def test_optimum_at_least_full_star():
    for n, k, r in ((5, 3, 2), (6, 3, 3), (5, 4, 2), (6, 5, 4)):
        rep = extremal_search(n, k, r)
        assert rep.optimum >= comb(n - 1, k - 1)


def test_witness_is_free_and_sized():
    rep = extremal_search(5, 3, 2)
    assert len(rep.witness.edges) == rep.optimum
    assert find_regular(rep.witness, 2).status is SolveStatus.NONE_EXISTS


def test_isomorph_rejection_preserves_optimum():
    plain = extremal_search(5, 3, 2)
    pruned = extremal_search(5, 3, 2, isomorph_reject=True)
    assert pruned.optimum == plain.optimum
    assert pruned.complete
    assert pruned.nodes <= plain.nodes


def test_isomorph_rejection_vertex_guard():
    with pytest.raises(GuardError):
        extremal_search(8, 3, 2, isomorph_reject=True)


def test_universe_guard():
    with pytest.raises(GuardError):
        extremal_search(9, 4, 2)


def test_k_above_n_has_an_empty_universe():
    rep = extremal_search(3, 5, 2)
    assert (rep.optimum, rep.complete, rep.nodes) == (0, True, 0)
    assert rep.witness == Hypergraph(3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        extremal_search(4, 3, 1)
    with pytest.raises(ValueError):
        extremal_search(0, 3, 2)


def test_budget_interrupts_search():
    rep = extremal_search(6, 3, 2, budget=SolverBudget(max_nodes=20))
    assert not rep.complete
    assert rep.nodes == 20
    assert find_regular(rep.witness, 2).status is SolveStatus.NONE_EXISTS
    again = extremal_search(6, 3, 2, budget=SolverBudget(max_nodes=20))
    assert again.optimum == rep.optimum
    assert again.nodes == rep.nodes
    # no leaf within 20 nodes: the answer is the seeded star on vertex 0
    assert rep.optimum == comb(5, 2)
    assert rep.witness == full_star(6, 3)[0]


def test_deadline_reaches_the_inner_solves():
    # at r = 6 the inner solves dominate: the deadline must stop them too,
    # and a solve cut short must not let its edge in as free
    start = time.monotonic()
    rep = extremal_search(7, 4, 6, budget=SolverBudget(max_millis=100))
    assert time.monotonic() - start < 2.0
    assert not rep.complete
    assert rep.optimum >= comb(6, 3)
    assert find_regular(rep.witness, 6).status is SolveStatus.NONE_EXISTS


def test_size_count_decides_every_inclusion(monkeypatch):
    # An r-regular S among the 4-sets of 7 vertices has 4|S| = 3|V(S)|:
    # 3 edges on 4 vertices, or 8 vertices.  Neither fits, so every family
    # is free: the answer is all 35 4-sets, in 0 nodes and no inner solve.
    calls = []
    solve = extremal._search

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(extremal, "_search", counted)
    rep = extremal_search(7, 4, 3)
    assert (rep.optimum, rep.complete, rep.nodes) == (35, True, 0)
    assert rep.witness == complete_uniform(7, 4)
    assert calls == []
    # where the sizes fit, the solves run through the counted name
    extremal_search(5, 3, 3)
    assert calls


def test_count_settled_triples_take_no_node(monkeypatch):
    # Where the size count leaves no room for an r-regular family among all
    # C(n, k) k-sets, every level is settled by it: the answer is the whole
    # universe, complete in 0 nodes under any budget, with no inner solve
    # and no permutation table.
    calls = []
    monkeypatch.setattr(extremal, "_search", lambda *args: calls.append(args))
    monkeypatch.setattr(extremal, "permutations", lambda *args: calls.append(args))
    settled = [(n, k, r) for n in range(1, 8) for k in range(1, n + 1) for r in range(2, 7)
               if comb(n, k) <= 35 and not _sizes_fit(n, k, r, comb(n, k))]
    for n, k, r in settled:
        for budget in (None, SolverBudget(max_nodes=1)):
            for iso in (False, True):
                rep = extremal_search(n, k, r, budget, isomorph_reject=iso)
                assert (rep.optimum, rep.complete, rep.nodes) == (comb(n, k), True, 0), (
                    n, k, r, budget, iso)
                assert rep.witness == complete_uniform(n, k)
    assert calls == []


def test_deletion_bounds_hold_on_every_alive_set():
    # the vertex-deletion bound, recomputed here, against the largest free
    # family inside every set A of k-sets of [m], with E = ex(m - 1): |F| =
    # |F - v| + deg_F(v) <= E + |A| - a_v, with a_v the sets of A avoiding v
    for m, k, r in ((m, k, r) for m in (4, 5) for k in (2, 3) for r in (2, 3, 4)):
        sets = list(combinations(range(m), k))
        size = len(sets)
        below = extremal_by_enumeration(m - 1, k, r)
        free = [True] * (1 << size)
        largest = [0] * (1 << size)
        for family in range(1, 1 << size):
            members = [i for i in range(size) if family >> i & 1]
            degrees = [sum(v in sets[i] for i in members) for v in range(m)]
            regular = all(d in (0, r) for d in degrees)
            free[family] = not regular and all(free[family ^ 1 << i] for i in members)
            largest[family] = len(members) if free[family] else max(
                largest[family ^ 1 << i] for i in members)
            avoiding = [sum(v not in sets[i] for i in members) for v in range(m)]
            bound = len(members) + below - max(avoiding)
            assert largest[family] <= bound, (m, k, r, members)


def test_matches_enumeration_oracle():
    # complete: the oracle's value; under a node budget: between the seeded
    # star and the oracle's value, with a witness that re-checks free
    triples = [(n, k, r) for n in range(3, 6) for k in range(2, n) for r in (2, 3, 4, 5)]
    for n, k, r in triples + [(6, 5, 2), (6, 5, 4)]:
        want = extremal_by_enumeration(n, k, r)
        for iso in (False, True):
            rep = extremal_search(n, k, r, isomorph_reject=iso)
            assert (rep.complete, rep.optimum) == (True, want), (n, k, r, iso)
            for cap in (1, 5, 25):
                cut = extremal_search(n, k, r, SolverBudget(max_nodes=cap), isomorph_reject=iso)
                assert comb(n - 1, k - 1) <= cut.optimum <= want, (n, k, r, iso, cap)
                assert len(cut.witness.edges) == cut.optimum
                assert find_regular(cut.witness, r).status is SolveStatus.NONE_EXISTS


def test_claim_table_rejects_unknown_claim():
    assert "nonsense" not in CLAIMS
    with pytest.raises(ValueError, match="unknown claim 'nonsense'"):
        claim_table("nonsense", 5)


def test_wedges_zero_at_star_center():
    h, _ = full_star(8, 3)
    w = count_wedges(h, 0, 3)
    assert w.total == 0 and w.per_edge == {}


def test_wedges_zero_when_no_missing_sets():
    # the star side of star-plus is complete at the center, so no k-set
    # through the center is a non-edge and the count collapses to zero
    h, _ = star_plus(8, 3, 3)
    w = count_wedges(h, 0, 3)
    assert w.total == 0
    assert list(w.per_edge.values()) == [0]
    assert w.total == wedge_total(h.edges, h.n, 0, 3)


def test_wedges_on_dented_star():
    star, _ = full_star(8, 3)
    pruned = [e for e in star.edges if e not in ((0, 1, 2), (0, 3, 4))]
    h = Hypergraph(8, pruned + [(1, 2, 3)])
    w = count_wedges(h, 0, 3)
    assert w.total == wedge_total(h.edges, h.n, 0, 3)
    assert w.total == sum(w.per_edge.values())
    assert w.k_prime == 1


def test_wedges_match_oracle_on_random_instances():
    rng = random.Random(29)
    for _ in range(60):
        k, r = rng.choice(((3, 3), (4, 2), (4, 4), (2, 2)))
        n = rng.randint(k + 2, 9)
        pool = list(combinations(range(n), k))
        h = Hypergraph(n, rng.sample(pool, rng.randint(1, min(15, len(pool)))))
        v = rng.randrange(n)
        w = count_wedges(h, v, r)
        assert w.total == wedge_total(h.edges, h.n, v, r)
        assert w.total == sum(w.per_edge.values())
        assert set(w.per_edge) == {i for i, e in enumerate(h.edges) if v not in e}


def test_wedges_parameter_validation():
    h, _ = full_star(8, 3)
    with pytest.raises(ValueError):
        count_wedges(h, 0, 2)  # r does not divide k
    with pytest.raises(ValueError):
        count_wedges(h, 8, 3)
    with pytest.raises(ValueError):
        count_wedges(Hypergraph(4, [(0, 1), (0, 1, 2)]), 0, 2)


def test_classify_full_star_all_good():
    h, _ = full_star(12, 5)
    part = classify_3sets(h, 0)
    assert part.bad == ()
    assert len(part.good) == comb(11, 3)


def test_classify_partition_is_exact():
    rng = random.Random(43)
    h = Hypergraph(11, rng.sample(list(combinations(range(11), 5)), 40))
    part = classify_3sets(h, 2)
    everything = set(combinations([u for u in range(11) if u != 2], 3))
    assert set(part.good) | set(part.bad) == everything
    assert not set(part.good) & set(part.bad)


def test_classify_detects_the_dented_triple():
    # remove all edges through {1,2,3} + center from a (20,5)-star: that
    # 3-set collects C(16,1) = 16 missing 5-sets (8*16 >= C(11,1)), while
    # any other 3-set collects at most one (8*1 < 11)
    star, _ = full_star(20, 5)
    t0 = (1, 2, 3)
    kept = [e for e in star.edges if not set(t0) <= set(e)]
    part = classify_3sets(Hypergraph(20, kept), 0)
    assert part.bad == (t0,)


def test_classify_parameter_validation():
    with pytest.raises(ValueError):
        classify_3sets(complete_uniform(8, 3), 0)  # k < 5
    h, _ = full_star(12, 5)
    with pytest.raises(ValueError):
        classify_3sets(h, 12)
