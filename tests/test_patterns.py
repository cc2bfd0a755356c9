from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations
from math import comb, factorial

import pytest

from oracles import min_cover_by_scan, min_hitting_by_scan, sunflower_exists
from regulus.errors import GuardError
from regulus.gadgets import full_star, gadget_h, gadget_h_prime
from regulus.hypercore import Hypergraph, complete_uniform
from regulus.patterns import (
    EmbeddedCopy,
    SameUnionQuad,
    Sunflower,
    check_equipartition_hitting,
    equipartitions,
    find_gadget_copy,
    find_same_union,
    find_sunflower,
    greedy_sunflower,
    min_equipartition_hitting_size,
    min_set_cover,
    sunflower_free_family,
    verify_embedded_copy,
    verify_same_union,
    verify_sunflower,
)
from regulus.regdetect import SolveStatus, find_regular


def test_disjoint_edges_form_sunflower_with_empty_core():
    h = Hypergraph(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    s = find_sunflower(h, 3)
    assert s is not None
    assert s.core == ()
    assert verify_sunflower(h, s) == (True, "ok")


def test_common_pair_core():
    h = Hypergraph(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)])
    s = find_sunflower(h, 3)
    assert s is not None
    assert s.core == (0, 1)
    assert verify_sunflower(h, s) == (True, "ok")


def test_sunflower_p_below_two_rejected():
    h = Hypergraph(3, [(0, 1, 2)])
    for fn in (find_sunflower, greedy_sunflower):
        with pytest.raises(ValueError):
            fn(h, 1)


def test_sunflower_free_family_two_three():
    h = sunflower_free_family(2, 3)
    assert set(h.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_sunflower_free_family_singletons():
    assert sunflower_free_family(1, 4).edges == ((0,), (1,), (2,))


def test_sunflower_free_family_has_no_sunflower():
    for k in (1, 2, 3):
        for p in (2, 3):
            h = sunflower_free_family(k, p)
            assert len(h.edges) == (p - 1) ** k
            assert find_sunflower(h, p) is None
            assert not sunflower_exists(h.edges, p)


def test_greedy_succeeds_above_threshold():
    # any k-uniform family larger than (p-1)^k * k! yields a greedy hit
    rng = random.Random(13)
    p = 3
    for k in (1, 2, 3):
        size = (p - 1) ** k * factorial(k) + 1
        n = k * (p - 1) + 2
        pool = list(combinations(range(n), k))
        assert size <= len(pool)
        for _ in range(100):
            h = Hypergraph(n, rng.sample(pool, size))
            assert greedy_sunflower(h, p) is not None


def test_exhaustive_fallback_guard():
    h = sunflower_free_family(3, 3)
    assert greedy_sunflower(h, 3) is None
    with pytest.raises(GuardError):
        find_sunflower(h, 3, guard=10)


def test_fallback_finds_what_greedy_misses():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(4, 8)
        pool = list(combinations(range(n), 3))
        h = Hypergraph(n, rng.sample(pool, rng.randint(3, min(9, len(pool)))))
        got = find_sunflower(h, 3)
        assert (got is not None) == sunflower_exists(h.edges, 3)
        if got is not None:
            assert verify_sunflower(h, got) == (True, "ok")


def test_verify_sunflower_rejects_bad_witnesses():
    h = Hypergraph(6, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert verify_sunflower(h, Sunflower(petals=(0,), core=()))[0] is False
    assert verify_sunflower(h, Sunflower(petals=(0, 0), core=(0, 1)))[0] is False
    assert verify_sunflower(h, Sunflower(petals=(0, 9), core=(0, 1)))[0] is False
    assert verify_sunflower(h, Sunflower(petals=(0, 2), core=(0, 1)))[0] is False
    assert verify_sunflower(h, Sunflower(petals=(0, 1), core=(0, 1))) == (True, "ok")


def test_same_union_on_four_part_gadget():
    h, _ = gadget_h_prime(3, 0)
    q = find_same_union(h)
    assert q == SameUnionQuad(a=1, b=2, c=0, d=3)
    assert verify_same_union(h, q) == (True, "ok")


def test_same_union_none_on_star():
    h, _ = full_star(8, 3)
    assert find_same_union(h) is None


def test_verify_same_union_rejects_bad_quads():
    h, _ = gadget_h_prime(3, 0)
    assert verify_same_union(h, SameUnionQuad(0, 3, 1, 1))[0] is False
    assert verify_same_union(h, SameUnionQuad(0, 1, 2, 3))[0] is False
    assert verify_same_union(h, SameUnionQuad(0, 3, 9, 2))[0] is False


def test_verify_same_union_rejects_differing_unions():
    h = Hypergraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert verify_same_union(h, SameUnionQuad(0, 1, 2, 3)) == (False, "unions differ")


def test_same_union_quads_always_verify():
    rng = random.Random(53)
    hits = 0
    for _ in range(120):
        n = rng.randint(6, 9)
        pool = list(combinations(range(n), 3))
        h = Hypergraph(n, rng.sample(pool, rng.randint(6, min(30, len(pool)))))
        q = find_same_union(h)
        if q is not None:
            hits += 1
            assert verify_same_union(h, q) == (True, "ok")
    assert hits >= 10


def test_gadget_copy_identity_hosts():
    for k, l in ((3, 1), (4, 2), (3, 2)):
        h, _ = gadget_h(k, l)
        copy = find_gadget_copy(h, k, l)
        assert copy is not None
        assert verify_embedded_copy(h, copy) == (True, "ok")
        # the host is exactly one copy, so every edge is used
        assert sorted(copy.edge_indices) == list(range(len(h.edges)))
        assert len(copy.vertex_map) == 2 * k
        assert len(set(copy.vertex_map)) == 2 * k


def test_gadget_copy_prime_identity_hosts():
    for k, l in ((3, 0), (4, 1)):
        h, _ = gadget_h_prime(k, l)
        copy = find_gadget_copy(h, k, l, prime=True)
        assert copy is not None
        assert copy.prime
        assert verify_embedded_copy(h, copy) == (True, "ok")
        assert sorted(copy.edge_indices) == list(range(len(h.edges)))


def test_gadget_copy_none_on_star():
    h, _ = full_star(7, 3)
    assert find_gadget_copy(h, 3, 0) is None
    assert find_gadget_copy(h, 3, 1) is None


def test_gadget_copy_base_case_disjoint_pair():
    h = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 1, 3)])
    copy = find_gadget_copy(h, 3, 0)
    assert copy is not None
    assert verify_embedded_copy(h, copy) == (True, "ok")


def test_gadget_copy_parameter_validation():
    h = complete_uniform(6, 3)
    with pytest.raises(ValueError):
        find_gadget_copy(h, 3, 3)
    with pytest.raises(ValueError):
        find_gadget_copy(h, 3, -1)
    with pytest.raises(ValueError):
        find_gadget_copy(h, 3, 2, prime=True)
    with pytest.raises(ValueError):
        find_gadget_copy(h, 4, 1)  # host is 3-uniform


def test_gadget_copy_dense_graph_host():
    # 2 * 70^(2 - 1/2) = 1172 <= C(70,2), so the density premise is live
    rng = random.Random(70)
    n, k, l = 70, 2, 1
    threshold = int(2 * n ** (k - 2.0 ** -l)) + 1
    pool = list(combinations(range(n), k))
    assert threshold <= len(pool)
    h = Hypergraph(n, rng.sample(pool, threshold))
    copy = find_gadget_copy(h, k, l)
    assert copy is not None
    assert verify_embedded_copy(h, copy) == (True, "ok")


def test_gadget_copy_dense_triple_host():
    # at n = 150, k = 3, l = 1 the bound 2n^2.5 first drops below C(n,3)
    rng = random.Random(150)
    n, k, l = 150, 3, 1
    threshold = int(2 * n ** (k - 2.0 ** -l)) + 1
    pool = list(combinations(range(n), k))
    assert threshold <= len(pool)
    h = Hypergraph(n, rng.sample(pool, threshold))
    copy = find_gadget_copy(h, k, l)
    assert copy is not None
    assert verify_embedded_copy(h, copy) == (True, "ok")


def test_found_copy_with_enough_pairs_implies_regular_subgraph():
    rng = random.Random(61)
    hits = 0
    for _ in range(40):
        n = rng.randint(8, 11)
        pool = list(combinations(range(n), 3))
        h = Hypergraph(n, rng.sample(pool, rng.randint(20, min(45, len(pool)))))
        copy = find_gadget_copy(h, 3, 1)
        if copy is None:
            continue
        hits += 1
        assert find_regular(h, 2).status is SolveStatus.FOUND
    assert hits >= 10


def test_verify_embedded_copy_rejects_tampering():
    h, _ = gadget_h(3, 1)
    copy = find_gadget_copy(h, 3, 1)
    swapped = EmbeddedCopy(k=3, l=1, prime=copy.prime,
                           stationary_parts=(copy.stationary_parts[0],) * 2,
                           dynamic_pairs=copy.dynamic_pairs,
                           edge_indices=copy.edge_indices)
    assert verify_embedded_copy(h, swapped)[0] is False
    reordered = EmbeddedCopy(k=3, l=1, prime=copy.prime,
                             stationary_parts=copy.stationary_parts,
                             dynamic_pairs=copy.dynamic_pairs,
                             edge_indices=copy.edge_indices[::-1])
    assert verify_embedded_copy(h, reordered)[0] is False
    wrong_l = EmbeddedCopy(k=3, l=0, prime=copy.prime,
                           stationary_parts=copy.stationary_parts,
                           dynamic_pairs=copy.dynamic_pairs,
                           edge_indices=copy.edge_indices)
    assert verify_embedded_copy(h, wrong_l)[0] is False


def test_verify_embedded_copy_names_each_broken_shape():
    h, _ = gadget_h(3, 1)
    copy = find_gadget_copy(h, 3, 1)
    for tampered, reason in (
        (replace(copy, stationary_parts=((0,), (2, 3))), "stationary part has wrong size"),
        (replace(copy, dynamic_pairs=((4, 4),)), "dynamic pair vertices collide"),
        (replace(copy, dynamic_pairs=((3, 5),)), "dynamic pair vertices collide"),
        (replace(copy, stationary_parts=((0, 1), (2, 4)), dynamic_pairs=((3, 5),)),
         "template edge (0, 1, 3) missing from host"),
    ):
        assert verify_embedded_copy(h, tampered) == (False, reason)
    hp, _ = gadget_h_prime(4, 1)
    copy = find_gadget_copy(hp, 4, 1, prime=True)
    p0, p1, p2, _p3 = copy.stationary_parts
    for parts, reason in (
        ((p0, p1), "expected 4 stationary parts"),
        ((p0, p1, p2, p2), "last two parts intersect"),
        ((p0, p1, p2, (0, 4, 5)), "part unions differ"),
        ((p0, p1, p0, p1), "parts not distinct"),
    ):
        assert verify_embedded_copy(hp, replace(copy, stationary_parts=parts)) == (False, reason)


def test_equipartition_counts():
    assert len(list(equipartitions(4, 2))) == 3
    assert len(list(equipartitions(6, 2))) == 10
    assert len(list(equipartitions(6, 3))) == 15
    assert len(list(equipartitions(6, 6))) == 1
    assert len(list(equipartitions(8, 2))) == 35
    # k! / ((k/r)!^r * r!)
    for k, r in ((4, 2), (6, 2), (6, 3), (8, 4)):
        kp = k // r
        want = factorial(k) // (factorial(kp) ** r * factorial(r))
        assert len(list(equipartitions(k, r))) == want


def test_equipartition_canonical_order():
    for eq in equipartitions(6, 3):
        seen = set()
        for part in eq:
            assert part[0] == min(set(range(6)) - seen)
            seen |= set(part)


def test_equipartition_validation():
    with pytest.raises(ValueError):
        list(equipartitions(5, 2))
    with pytest.raises(ValueError):
        list(equipartitions(0, 1))
    with pytest.raises(GuardError):
        list(equipartitions(14, 2))


def test_hitting_family_examples():
    assert check_equipartition_hitting(4, 2, [(0, 1), (0, 2), (0, 3)])
    assert not check_equipartition_hitting(4, 2, [])
    assert check_equipartition_hitting(6, 3, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])


def test_hitting_family_member_validation():
    with pytest.raises(ValueError):
        check_equipartition_hitting(4, 2, [(0, 4)])
    with pytest.raises(ValueError):
        check_equipartition_hitting(4, 2, [(0, 0)])
    with pytest.raises(ValueError):
        check_equipartition_hitting(4, 2, [(0, 1, 2)])


def test_no_two_subsets_hit_all_equipartitions_of_four():
    # minimum hitting size is 3, so every 2-subset family fails
    pairs = list(combinations(range(4), 2))
    for fam in combinations(pairs, 2):
        assert not check_equipartition_hitting(4, 2, fam)


def test_min_hitting_sizes():
    assert min_equipartition_hitting_size(4, 2) == 3
    assert min_equipartition_hitting_size(6, 2) == 10
    assert min_equipartition_hitting_size(6, 3) == 5
    assert min_equipartition_hitting_size(8, 2) == 35
    assert min_equipartition_hitting_size(8, 4) == 7
    assert min_equipartition_hitting_size(2, 2) == 1


def test_min_hitting_matches_raw_scan():
    for k, r in ((2, 2), (4, 2), (4, 4), (6, 2), (6, 3), (6, 6)):
        assert min_equipartition_hitting_size(k, r) == min_hitting_by_scan(k, r)


def test_min_hitting_lower_bound_over_all_divisors():
    for k in range(2, 9):
        for r in range(2, k + 1):
            if k % r:
                continue
            kp = k // r
            assert r * min_equipartition_hitting_size(k, r) >= comb(k, kp)


def test_min_hitting_guard():
    with pytest.raises(GuardError):
        min_equipartition_hitting_size(10, 2)


def test_min_set_cover_small():
    # elements 0..3; sets {0,1}, {2}, {3}, {1,2,3}
    size, chosen = min_set_cover(4, [0b0011, 0b0100, 0b1000, 0b1110])
    assert size == 2
    assert chosen == (0, 3)


def test_min_set_cover_requires_coverage():
    with pytest.raises(ValueError):
        min_set_cover(3, [0b011])


def test_min_set_cover_matches_scan():
    rng = random.Random(17)
    for _ in range(60):
        ne = rng.randint(1, 8)
        sets = [rng.randint(1, (1 << ne) - 1) for _ in range(rng.randint(1, 9))]
        want = min_cover_by_scan(ne, sets)
        if want is None:
            with pytest.raises(ValueError):
                min_set_cover(ne, sets)
        else:
            size, chosen = min_set_cover(ne, sets)
            assert size == want
            union = 0
            for i in chosen:
                union |= sets[i]
            assert union == (1 << ne) - 1
