from __future__ import annotations

import random
from itertools import combinations
from math import ceil, comb

import pytest

from oracles import max_matching_size
from regulus.errors import ParseError
from regulus.gadgets import full_star, gadget_h
from regulus.hypercore import (
    MAX_VERTICES,
    Hypergraph,
    _first_fit,
    complete_uniform,
    degree_vector,
    mask_of,
    parse,
    read_hypergraph,
    serialize,
    vertices_of,
    write_hypergraph,
)


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
    assert mask_of(()) == 0
    assert vertices_of(0) == ()
    rng = random.Random(7)
    for _ in range(200):
        vs = tuple(sorted(rng.sample(range(40), rng.randint(0, 10))))
        assert vertices_of(mask_of(vs)) == vs


def test_edges_stored_in_colex_order():
    h = Hypergraph(5, [(2, 3, 4), (0, 1, 2), (4, 1, 0)])
    assert h.edges == ((0, 1, 2), (0, 1, 4), (2, 3, 4))
    assert list(h.edge_masks) == sorted(h.edge_masks)
    assert h.mask_index == {m: i for i, m in enumerate(h.edge_masks)}


def test_hypergraph_normalizes_vertex_order_within_edge():
    assert Hypergraph(4, [(3, 0, 1)]).edges == ((0, 1, 3),)


def test_hypergraph_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 1, 2)])
    with pytest.raises(ValueError):
        Hypergraph(4, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(-1)


def test_uniformity():
    assert Hypergraph(5, [(0, 1), (2, 3)]).uniformity == 2
    assert Hypergraph(5, [(0, 1), (2, 3, 4)]).uniformity is None
    assert Hypergraph(5).uniformity is None


def test_vertex_incidence_matches_edges():
    # C(9,4) has 126 edges: more than 64, and not a multiple of 8
    for h in (complete_uniform(6, 3), complete_uniform(9, 4)):
        for v in range(h.n):
            members = [i for i, e in enumerate(h.edges) if v in e]
            assert vertices_of(h.vertex_incidence[v]) == tuple(members)


def test_parse_basic():
    h = parse("4 2\n0 1 2\n1 2 3\n")
    assert h.n == 4
    assert h.edges == ((0, 1, 2), (1, 2, 3))


def test_parse_empty_edge_list():
    h = parse("3 0\n")
    assert h.n == 3
    assert h.edges == ()


def test_parse_ignores_comments_and_blanks():
    h = parse("# header comment\n\n4 1\n\n# edge next\n0 1 2\n")
    assert h.edges == ((0, 1, 2),)


def test_parse_duplicate_edge_reports_both_lines():
    with pytest.raises(ParseError, match=r"lines 2 and 3"):
        parse("4 2\n0 1 2\n2 1 0\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse("not a header\n")
    with pytest.raises(ParseError, match="line 2"):
        parse("4 1\n0 x 2\n")
    with pytest.raises(ParseError, match="line 2: vertex 9"):
        parse("4 1\n0 1 9\n")
    with pytest.raises(ParseError, match="line 2: repeated vertex 1"):
        parse("4 1\n1 1 2\n")
    with pytest.raises(ParseError, match="expected 2 edge lines"):
        parse("4 2\n0 1 2\n")
    with pytest.raises(ParseError, match="empty input"):
        parse("# nothing\n")


def test_vertex_count_is_capped():
    # Ids of 2^63 and more: below that, a constructor without the cap would
    # try to allocate a (v+1)-bit mask of up to a gigabyte before failing.
    assert Hypergraph(MAX_VERTICES).n == MAX_VERTICES >= 20_000
    for n in (MAX_VERTICES + 1, 2**64):
        with pytest.raises(ValueError, match=f"vertex count must be at most {MAX_VERTICES}"):
            Hypergraph(n, [(2**63,)])
    with pytest.raises(ParseError, match="line 1: vertex count 100000000000000000000 is above"):
        parse("100000000000000000000 1\n99999999999999999999\n")


@pytest.mark.parametrize("n, edges, message, parse_message", [
    (4, [(0, 1, 2), (1, 2, 9)],
     "vertex 9 out of range for n=4", "line 3: vertex 9 out of range for n=4"),
    (4, [(0, 1, 2), (3, 1, 3)],
     "repeated vertex 3 within edge (3, 1, 3)", "line 3: repeated vertex 3 within edge (3, 1, 3)"),
    (4, [(0, 1, 2), (1, 2, 3), (2, 1, 0), (1, 0, 2)],
     "duplicate edge (0, 1, 2)", "duplicate edge (lines 2 and 4)"),
], ids=["out-of-range", "repeated-vertex", "edge-three-times"])
def test_parse_and_constructor_report_the_same_edge_error(n, edges, message, parse_message):
    with pytest.raises(ValueError) as direct:
        Hypergraph(n, edges)
    assert str(direct.value) == message
    text = f"{n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)
    with pytest.raises(ParseError) as parsed:
        parse(text)
    assert str(parsed.value) == parse_message


def test_serialize_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 12)
        k = rng.randint(1, min(4, n))
        pool = list(combinations(range(n), k))
        edges = rng.sample(pool, rng.randint(0, min(12, len(pool))))
        h = Hypergraph(n, edges)
        assert parse(serialize(h)) == h


def test_serialize_rejects_empty_edge():
    with pytest.raises(ValueError):
        serialize(Hypergraph(3, [()]))


def test_file_roundtrip(tmp_path):
    h = complete_uniform(5, 2)
    path = tmp_path / "h.hg"
    write_hypergraph(h, str(path))
    assert read_hypergraph(str(path)) == h


def test_degree_vector_star():
    h, _ = full_star(4, 3)
    assert degree_vector(h, range(3)) == [3, 2, 2, 2]
    assert degree_vector(h, ()) == [0, 0, 0, 0]


def test_degree_vector_gadget_all_edges():
    # every vertex of the 8-edge two-part gadget lies in half the edges
    h, _ = gadget_h(3, 2)
    assert len(h.edges) == 8
    assert degree_vector(h, range(8)) == [4] * 6


def test_degree_vector_rejects_bad_index():
    h, _ = full_star(4, 3)
    with pytest.raises(ValueError):
        degree_vector(h, [5])


def test_greedy_matching_single_edge():
    assert _first_fit(Hypergraph(3, [(0, 1, 2)]).edge_masks) == [0]


def test_greedy_matching_colex_trace():
    h = complete_uniform(9, 3)
    got = _first_fit(h.edge_masks, target=3)
    assert [h.edges[i] for i in got] == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


def test_greedy_matching_is_maximal():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 11)
        pool = list(combinations(range(n), 3))
        h = Hypergraph(n, rng.sample(pool, rng.randint(1, len(pool))))
        chosen = _first_fit(h.edge_masks)
        used = 0
        for i in chosen:
            assert h.edge_masks[i] & used == 0
            used |= h.edge_masks[i]
        assert all(m & used for m in h.edge_masks)


def test_greedy_matching_size_from_edge_count():
    # any 3-uniform family with >= t*C(n-1,2) edges, t > 1, has a greedy
    # matching of size >= max(2, ceil(t/3))
    rng = random.Random(31)
    for _ in range(30):
        t = rng.randint(2, 4)
        n = rng.randint(3 * t + 1, 14)
        pool = list(combinations(range(n), 3))
        m = t * comb(n - 1, 2)
        assert m <= len(pool)
        h = Hypergraph(n, rng.sample(pool, m))
        assert len(_first_fit(h.edge_masks)) >= max(2, ceil(t / 3))


def test_matching_free_edge_bound():
    # a 3-uniform family with no 2 disjoint edges has at most
    # C(n,3) - C(n-1,3) = C(n-1,2) edges; the triple star attains it
    for n in range(5, 8):
        star, _ = full_star(n, 3)
        assert max_matching_size(star.edges) == 1
        assert len(star.edges) == comb(n, 3) - comb(n - 1, 3)
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        n = rng.randint(5, 9)
        pool = [e for e in combinations(range(n), 3) if rng.random() < 0.12]
        if not pool:
            continue
        if max_matching_size(pool) < 2:
            checked += 1
            assert len(pool) <= comb(n, 3) - comb(n - 1, 3)
    assert checked >= 20


def test_complete_uniform_counts():
    assert len(complete_uniform(6, 3).edges) == 20
    assert complete_uniform(4, 0).edges == ((),)
    with pytest.raises(ValueError):
        complete_uniform(3, 4)
