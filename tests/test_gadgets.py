from __future__ import annotations

from dataclasses import replace
from math import comb

import pytest

from oracles import complement_pairing, max_matching_size
from regulus.errors import GuardError
from regulus.gadgets import (
    VARIANT_R_EQ_K,
    VARIANT_R_EQ_K_PLUS_1,
    GadgetKind,
    bes_free,
    bes_layer_star,
    example_a,
    example_b,
    example_b_free_threshold,
    full_star,
    gadget_h,
    gadget_h_prime,
    star_plus,
    star_plus_certificate,
    verify_bes_free,
    verify_bes_layer_star,
)
from regulus.hypercore import Hypergraph, serialize
from regulus.regdetect import SolveStatus, find_regular, verify_certificate


def test_full_star_small():
    h, desc = full_star(4, 3)
    assert h.edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3))
    assert desc.kind is GadgetKind.STAR
    assert desc.center == 0


def test_full_star_edge_counts():
    assert len(full_star(10, 4)[0].edges) == comb(9, 3)
    for k in (1, 2, 5):
        assert len(full_star(k + 1, k)[0].edges) == k


def test_full_star_all_edges_through_center():
    h, _ = full_star(7, 3)
    assert all(e[0] == 0 for e in h.edges)


def test_full_star_rejects_small_n():
    with pytest.raises(ValueError):
        full_star(3, 3)


def test_star_plus_counts_and_extra_edge():
    h, desc = star_plus(8, 3, 3)
    assert len(h.edges) == comb(7, 2) + 1 == 22
    assert h.has_edge((1, 2, 3))
    assert desc.stationary_parts == ((1, 2, 3),)
    assert len(star_plus(10, 4, 4)[0].edges) == 85


def test_star_plus_minimal_n_is_found():
    # n = k + k/r + 1 = 5 already admits the witness
    for n in (5, 7):
        h, _ = star_plus(n, 3, 3)
        assert find_regular(h, 3).status is SolveStatus.FOUND


def test_star_plus_preconditions():
    with pytest.raises(ValueError):
        star_plus(8, 3, 2)  # r does not divide k
    with pytest.raises(ValueError):
        star_plus(4, 3, 3)  # below k + k/r + 1
    with pytest.raises(ValueError):
        star_plus(8, 3, 1)


def test_star_plus_analytic_certificate():
    for n, k, r in ((8, 3, 3), (5, 3, 3), (10, 4, 2), (10, 4, 4), (9, 6, 3)):
        h, _ = star_plus(n, k, r)
        cert = star_plus_certificate(h, r)
        assert len(cert.edge_indices) == r + 1
        assert verify_certificate(h, cert) == (True, "ok")


def test_star_plus_certificate_rejects_wrong_host():
    h, _ = full_star(8, 3)
    with pytest.raises(ValueError):
        star_plus_certificate(h, 3)


def test_star_plus_certificate_names_each_refusal():
    for h, r, reason in (
        (star_plus(8, 3, 3)[0], 2, "certificate needs a k-uniform host with r | k"),
        (full_star(8, 3)[0], 3, "host lacks the canonical extra edge {1..k}"),
        (Hypergraph(5, [(1, 2, 3, 4)]), 2, "host too small for the analytic witness"),
        (Hypergraph(6, [(1, 2, 3, 4)]), 2, "witness edge (0, 3, 4, 5) missing from host"),
    ):
        with pytest.raises(ValueError) as exc:
            star_plus_certificate(h, r)
        assert str(exc.value) == reason


def test_gadget_h_layout():
    h, desc = gadget_h(3, 1)
    assert h.n == 6
    assert len(h.edges) == 4
    assert desc.stationary_parts == ((0, 1), (2, 3))
    assert desc.dynamic_pairs == ((4, 5),)
    assert set(h.edges) == {(0, 1, 4), (2, 3, 4), (0, 1, 5), (2, 3, 5)}


def test_gadget_h_edge_counts():
    for k in range(1, 7):
        for l in range(k):
            h, desc = gadget_h(k, l)
            assert h.n == 2 * k
            assert len(h.edges) == 2 ** (l + 1)
            assert h.uniformity == k
            assert all(len(p) == k - l for p in desc.stationary_parts)


def test_gadget_h_zero_is_perfect_matching():
    h, _ = gadget_h(4, 0)
    assert h.edges == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_gadget_h_preconditions():
    with pytest.raises(ValueError):
        gadget_h(3, 3)
    with pytest.raises(ValueError):
        gadget_h(2, -1)


def test_gadget_h_prime_counts():
    h, desc = gadget_h_prime(4, 1)
    assert h.n == 8
    assert len(h.edges) == 2 ** (1 + 2) == 8
    a, b, c, d = desc.stationary_parts
    assert set(a) | set(b) == set(c) | set(d)
    assert set(a) & set(b) == set() == set(c) & set(d)
    assert len({a, b, c, d}) == 4


def test_gadget_h_prime_smallest_is_same_union_quad():
    h, desc = gadget_h_prime(3, 0)
    assert h.n == 6
    assert len(h.edges) == 4
    assert desc.stationary_parts == ((0, 1, 2), (3, 4, 5), (0, 4, 5), (1, 2, 3))


def test_gadget_h_prime_preconditions():
    with pytest.raises(ValueError):
        gadget_h_prime(3, 2)  # parts would have size 1, no four distinct parts


def test_gadgets_are_complement_closed():
    for k in range(1, 7):
        for l in range(k):
            h, _ = gadget_h(k, l)
            assert complement_pairing(h.edges, h.n) is not None
        for l in range(k - 1):
            hp, _ = gadget_h_prime(k, l)
            assert complement_pairing(hp.edges, hp.n) is not None


def test_gadget_double_matching_decomposition_counts():
    for k, l in ((3, 1), (4, 2), (5, 3), (6, 5)):
        h, _ = gadget_h(k, l)
        pairs = complement_pairing(h.edges, h.n)
        assert len(pairs) == 2 ** l
    for k, l in ((3, 1), (4, 2), (6, 4)):
        h, _ = gadget_h_prime(k, l)
        pairs = complement_pairing(h.edges, h.n)
        assert len(pairs) == 2 ** (l + 1)


def test_gadget_h_prime_found_at_r_four():
    h, _ = gadget_h_prime(4, 1)
    assert find_regular(h, 4).status is SolveStatus.FOUND


def test_example_a_swap_variant():
    h, desc = example_a(6, 3, VARIANT_R_EQ_K)
    assert len(h.edges) == comb(5, 2)
    assert h.has_edge((1, 2, 3))
    assert not h.has_edge((0, 1, 2))
    assert desc.kind is GadgetKind.EXAMPLE_A_R_EQ_K
    assert find_regular(h, 3).status is SolveStatus.NONE_EXISTS


def test_example_a_add_variant():
    h, desc = example_a(6, 3, VARIANT_R_EQ_K_PLUS_1)
    assert len(h.edges) == comb(5, 2) + 1
    assert desc.kind is GadgetKind.EXAMPLE_A_R_EQ_K_PLUS_1
    assert find_regular(h, 4).status is SolveStatus.NONE_EXISTS
    # with the removed edge restored this is exactly star-plus, so r = k hits
    assert find_regular(h, 3).status is SolveStatus.FOUND


def test_example_a_preconditions():
    with pytest.raises(ValueError):
        example_a(4, 3, VARIANT_R_EQ_K)
    with pytest.raises(ValueError):
        example_a(6, 3, "bogus")
    for k in (0, -1):
        for variant in (VARIANT_R_EQ_K, VARIANT_R_EQ_K_PLUS_1):
            with pytest.raises(ValueError, match=f"k >= 1, got k={k}"):
                example_a(5, k, variant)


def test_example_b_counts_and_transversal():
    h, desc = example_b(7, 3, 2)
    assert len(h.edges) == 2 * comb(5, 2) == 20
    assert desc.stationary_parts == ((0, 1),)
    assert all(len(set(e) & {0, 1}) == 1 for e in h.edges)


def test_example_b_verdicts():
    h, _ = example_b(7, 3, 2)
    assert example_b_free_threshold(3, 2) == 8
    assert find_regular(h, 9).status is SolveStatus.NONE_EXISTS
    assert find_regular(h, 2).status is SolveStatus.FOUND


def test_example_b_preconditions():
    with pytest.raises(ValueError):
        example_b(7, 3, 1)
    with pytest.raises(ValueError):
        example_b(3, 3, 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k >= 1, got k={k}"):
            example_b(5, k, 2)
    with pytest.raises(ValueError, match="c >= 2, got c=1"):
        example_b_free_threshold(3, 1)


def test_example_b_threshold_needs_k_at_least_2():
    # the bound counts (k-2)-sets, so k = 1 has none to count
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match=f"k >= 2, got k={k}"):
            example_b_free_threshold(k, 2)


def test_bes_free_on_graphs_is_maximal_matching():
    # no 2 edges on <= 3 vertices means all edges pairwise disjoint
    for n, seed in ((8, 0), (9, 3), (10, 11)):
        w = bes_free(n, 2, 3, 2, seed)
        edges = w.hypergraph.edges
        assert w.verified
        assert max_matching_size(edges) == len(edges) == n // 2


def test_bes_free_small_steiner_like():
    w = bes_free(7, 3, 6, 3, seed=1)
    assert w.verified
    assert verify_bes_free(w.hypergraph, 6, 3)
    assert w.a == 6 and w.b == 3 and w.seed == 1


def test_bes_free_is_deterministic_per_seed():
    a = bes_free(9, 3, 6, 3, seed=4)
    b = bes_free(9, 3, 6, 3, seed=4)
    assert serialize(a.hypergraph) == serialize(b.hypergraph)


def test_bes_free_preconditions():
    with pytest.raises(ValueError):
        bes_free(8, 3, 3, 2, 0)  # needs a > k
    with pytest.raises(ValueError):
        bes_free(8, 3, 6, 1, 0)


def test_verify_bes_free_guard():
    h = Hypergraph(30, [(i, i + 1, i + 2) for i in range(28)])
    with pytest.raises(GuardError):
        verify_bes_free(h, 6, 3, guard=10)


def test_verify_bes_free_detects_violations():
    h = Hypergraph(6, [(0, 1, 2), (0, 1, 3)])
    assert not verify_bes_free(h, 4, 2)
    assert verify_bes_free(h, 3, 2)


def test_layer_star_construction():
    h, desc = bes_layer_star(9, 4, 3, seed=0)
    p = desc.params
    assert (p["d"], p["k_prime"], p["r_prime"]) == (1, 4, 3)
    star_edges = [e for e in h.edges if 0 in e]
    layer_edges = [e for e in h.edges if 0 not in e]
    assert len(star_edges) == comb(8, 3)
    assert all(1 in e for e in layer_edges)
    assert len(h.edges) == comb(8, 3) + len(layer_edges)


def test_layer_star_structural_verifier():
    h, desc = bes_layer_star(9, 4, 3, seed=0)
    assert verify_bes_layer_star(h, desc) == (True, "ok")


def test_layer_star_is_free():
    h, _ = bes_layer_star(9, 4, 3, seed=0)
    assert find_regular(h, 3).status is SolveStatus.NONE_EXISTS


def test_layer_star_parameter_errors():
    with pytest.raises(ValueError, match="r' = r/gcd"):
        bes_layer_star(10, 4, 4, 0)  # d=4 makes r' = 1
    with pytest.raises(ValueError, match="r' = r/gcd"):
        bes_layer_star(14, 6, 4, 0)  # d=2 makes r' = 2
    with pytest.raises(ValueError):
        bes_layer_star(9, 2, 3, 0)  # k too small
    with pytest.raises(ValueError):
        bes_layer_star(5, 4, 3, 0)  # n too small


def test_layer_star_verifier_rejects_tampering():
    h, desc = bes_layer_star(9, 4, 3, seed=0)
    missing_star = Hypergraph(9, [e for e in h.edges if e != (0, 1, 2, 3)])
    ok, reason = verify_bes_layer_star(missing_star, desc)
    assert not ok and "full star" in reason

    stray = Hypergraph(9, list(h.edges) + [(2, 3, 4, 5)])
    ok, reason = verify_bes_layer_star(stray, desc)
    assert not ok and "avoids both" in reason

    bad_params = type(desc)(kind=desc.kind, params={**desc.params, "r_prime": 2},
                            center=desc.center, stationary_parts=desc.stationary_parts)
    ok, reason = verify_bes_layer_star(h, bad_params)
    assert not ok


def test_layer_star_verifier_names_each_broken_premise():
    h, desc = bes_layer_star(9, 4, 3, seed=0)
    star, _ = full_star(9, 4)
    # three layer edges {2,3,v} + y span 5 <= 2k - 2 vertices
    dense_layer = Hypergraph(9, list(star.edges) + [(1, 2, 3, v) for v in (4, 5, 6)])
    no_d = {key: val for key, val in desc.params.items() if key != "d"}
    for host, params, reason in (
        (h, no_d, "missing param 'd'"),
        (h, {**desc.params, "n": 10}, "host does not match params"),
        (h, {**desc.params, "r": 2, "d": 2, "k_prime": 2, "r_prime": 1},
         "divisibility preconditions violated"),
        (dense_layer, desc.params, "3 layer edges span at most 6 vertices"),
    ):
        assert verify_bes_layer_star(host, replace(desc, params=params)) == (False, reason)


def test_descriptor_parts_disjoint_from_pairs():
    for k, l in ((4, 1), (5, 2), (6, 3)):
        h, desc = gadget_h(k, l)
        used = set()
        for part in desc.stationary_parts:
            assert not used & set(part)
            used |= set(part)
        for u, v in desc.dynamic_pairs:
            assert u not in used and v not in used and u != v
            used |= {u, v}
        assert used <= set(range(h.n))
