"""End-to-end acceptance checks.

One test per shipped guarantee, with the stated runtime caps asserted via
wall-clock measurement.  Tolerances are zero everywhere except runtime.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb, factorial

from oracles import (
    brute_force_regular,
    complement_pairing,
    min_hitting_by_scan,
    sunflower_exists,
    wedge_total,
)

from regulus.extremal import count_wedges, extremal_search
from regulus.gadgets import (
    bes_layer_star,
    example_a,
    example_b,
    full_star,
    gadget_h,
    gadget_h_prime,
    star_plus,
    star_plus_certificate,
    verify_bes_layer_star,
)
from regulus.hypercore import Hypergraph
from regulus.patterns import (
    find_same_union,
    find_sunflower,
    greedy_sunflower,
    min_equipartition_hitting_size,
    sunflower_free_family,
)
from regulus.regdetect import (
    SolveStatus,
    find_regular,
    verify_certificate,
)


def test_solver_matches_subset_oracle_on_random_instances():
    start = time.perf_counter()
    rng = random.Random(11)
    found = 0
    for i in range(500):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k + 1, 10)
        pool = list(combinations(range(n), k))
        m = rng.randint(1, min(20, len(pool)))
        h = Hypergraph(n, rng.sample(pool, m))
        r = rng.choice((2, 3, 4))
        res = find_regular(h, r)
        oracle_cert = brute_force_regular(h, r)
        assert (res.status is SolveStatus.FOUND) == (oracle_cert is not None), i
        if res.status is SolveStatus.FOUND:
            ok, reason = verify_certificate(h, res.certificate)
            assert ok, (i, reason)
            found += 1
        else:
            assert res.status is SolveStatus.NONE_EXISTS, i
    assert found > 0
    assert time.perf_counter() - start < 60.0


def test_full_stars_never_contain_regular_subgraphs():
    start = time.perf_counter()
    for k in range(1, 6):
        for n in range(k + 1, 11):
            h, _ = full_star(n, k)
            for r in (2, 3, 4):
                res = find_regular(h, r)
                assert res.status is SolveStatus.NONE_EXISTS, (n, k, r)
    assert time.perf_counter() - start < 120.0


def test_star_plus_always_contains_short_regular_witness():
    start = time.perf_counter()
    checked = 0
    for k in range(2, 7):
        for r in range(2, k + 1):
            if k % r:
                continue
            for n in range(k + k // r + 1, 11):
                h, _ = star_plus(n, k, r)
                assert find_regular(h, r).status is SolveStatus.FOUND, (n, k, r)
                cert = star_plus_certificate(h, r)
                assert len(cert.edge_indices) == r + 1
                ok, reason = verify_certificate(h, cert)
                assert ok, (n, k, r, reason)
                checked += 1
    assert checked == 32
    assert time.perf_counter() - start < 60.0


def test_gadget_families_split_into_complement_pairs():
    for k in range(2, 7):
        for l in range(0, k):
            h, _ = gadget_h(k, l)
            assert len(h.edges) == 2 ** (l + 1), (k, l)
            pairs = complement_pairing(h.edges, h.n)
            assert pairs is not None and len(pairs) == 2 ** l, (k, l)
        for l in range(0, k - 1):
            hp, _ = gadget_h_prime(k, l)
            assert len(hp.edges) == 2 ** (l + 2), (k, l)
            pairs = complement_pairing(hp.edges, hp.n)
            assert pairs is not None and len(pairs) == 2 ** (l + 1), (k, l)


def test_worked_example_verdicts():
    start = time.perf_counter()
    ha, _ = example_a(6, 3, "r-eq-k")
    assert find_regular(ha, 3).status is SolveStatus.NONE_EXISTS
    hb, _ = example_a(6, 3, "r-eq-k-plus-1")
    assert find_regular(hb, 4).status is SolveStatus.NONE_EXISTS
    hc, _ = example_b(7, 3, 2)
    assert find_regular(hc, 9).status is SolveStatus.NONE_EXISTS
    assert find_regular(hc, 2).status is SolveStatus.FOUND
    assert time.perf_counter() - start < 600.0


def test_layered_star_is_structurally_verified_free():
    h, desc = bes_layer_star(9, 4, 3, seed=0)
    ok, reason = verify_bes_layer_star(h, desc)
    assert ok, reason
    assert find_regular(h, 3).status is SolveStatus.NONE_EXISTS


def test_small_extremal_values():
    start = time.perf_counter()
    rep4 = extremal_search(4, 3, 2)
    assert rep4.complete
    assert rep4.optimum == 4
    rep5 = extremal_search(5, 3, 2)
    assert rep5.complete
    assert time.perf_counter() - start < 300.0
    assert rep5.optimum == comb(5, 3), (
        f"exhaustive search over every 3-uniform family on 5 vertices completed "
        f"with optimum {rep5.optimum}, not C(5,3) = 10.  A 2-regular 3-uniform "
        f"subgraph with m edges covers 3m/2 vertices, so m is even; m = 2 would "
        f"need two distinct triples on the same 3 vertices, so m >= 4 and at "
        f"least 6 vertices are covered.  No 5-vertex family contains one, hence "
        f"all C(5,3) = 10 triples form a free family."
    )


def test_sunflower_family_bounds():
    for k in range(1, 4):
        for p in (2, 3):
            fam = sunflower_free_family(k, p)
            assert len(fam.edges) == (p - 1) ** k
            assert find_sunflower(fam, p) is None, (k, p)
            assert not sunflower_exists(fam.edges, p), (k, p)
    p = 3
    for k in range(1, 4):
        size = (p - 1) ** k * factorial(k) + 1
        n = k * (p - 1) + 2
        pool = list(combinations(range(n), k))
        assert len(pool) >= size, (k, size)
        for seed in range(100):
            rng = random.Random(seed)
            fam = Hypergraph(n, rng.sample(pool, size))
            assert greedy_sunflower(fam, p) is not None, (k, seed)


def test_equipartition_hitting_sizes_are_tight():
    for k, r, expected in ((4, 2, 3), (6, 2, 10), (6, 3, 5)):
        size = min_equipartition_hitting_size(k, r)
        assert r * size >= comb(k, k // r), (k, r)
        assert size == expected, (k, r, size)
        assert min_hitting_by_scan(k, r) == expected, (k, r)


def test_wedge_counts_on_regular_free_instances():
    rng = random.Random(101)
    shapes = ((3, 3), (4, 2), (4, 4))
    free = 0
    while free < 200:
        k, r = shapes[rng.randrange(3)]
        n = rng.randint(k + 2, 12)
        pool = list(combinations(range(n), k))
        m = rng.randint(2, min(18, len(pool)))
        h = Hypergraph(n, rng.sample(pool, m))
        if find_regular(h, r).status is not SolveStatus.NONE_EXISTS:
            continue
        free += 1
        k_prime = k // r
        for v in range(n):
            w = count_wedges(h, v, r)
            assert w.total == wedge_total(h.edges, n, v, r), (free, v)
            off_center = len(w.per_edge)
            floor = comb(k, k_prime) * comb(n - k - 1, k_prime - 1) * off_center
            assert r * w.total >= floor, (free, v, w.total, floor)
    assert free == 200


def test_same_union_found_in_every_dense_triple_family():
    pool = list(combinations(range(9), 3))
    for seed in range(100):
        rng = random.Random(seed)
        h = Hypergraph(9, rng.sample(pool, 49))
        assert find_same_union(h) is not None, seed


def test_cli_output_is_byte_identical_across_reruns(tmp_path):
    d = str(tmp_path)
    invocations = [
        ["generate", "--kind", "star", "--n", "6", "--k", "3",
         "--out", f"{d}/star.hg"],
        ["generate", "--kind", "star", "--n", "12", "--k", "5",
         "--out", f"{d}/star125.hg"],
        ["generate", "--kind", "star-plus", "--n", "8", "--k", "3", "--r", "3",
         "--out", f"{d}/plus.hg"],
        ["generate", "--kind", "hkl", "--k", "3", "--l", "1",
         "--out", f"{d}/h31.hg"],
        ["generate", "--kind", "hkl-prime", "--k", "3", "--l", "0",
         "--out", f"{d}/hp30.hg"],
        ["generate", "--kind", "example-a", "--n", "6", "--k", "3",
         "--variant", "r-eq-k", "--out", f"{d}/ea.hg"],
        ["generate", "--kind", "example-b", "--n", "7", "--k", "3", "--c", "2",
         "--out", f"{d}/eb.hg"],
        ["generate", "--kind", "bes-layer-star", "--n", "9", "--k", "4", "--r", "3",
         "--seed", "0", "--out", f"{d}/c64.hg"],
        ["detect", "--input", f"{d}/star.hg", "--r", "2"],
        ["detect", "--input", f"{d}/star.hg", "--r", "2", "--format", "csv"],
        ["detect", "--input", f"{d}/hp30.hg", "--r", "2",
         "--certificate", f"{d}/hp30.cert"],
        ["detect", "--input", f"{d}/plus.hg", "--r", "3", "--max-nodes", "2"],
        ["detect", "--input", f"{d}/ea.hg", "--r", "3"],
        ["detect", "--input", f"{d}/eb.hg", "--r", "2", "--expect-found"],
        ["verify", "--input", f"{d}/hp30.hg", "--certificate", f"{d}/hp30.cert"],
        ["verify", "--input", f"{d}/hp30.hg", "--certificate", f"{d}/hp30.cert",
         "--format", "csv"],
        ["find", "--pattern", "sunflower", "--input", f"{d}/star.hg", "--p", "3"],
        ["find", "--pattern", "same-union", "--input", f"{d}/hp30.hg"],
        ["find", "--pattern", "gadget", "--input", f"{d}/h31.hg",
         "--k", "3", "--l", "1", "--out", f"{d}/h31.found"],
        ["search", "--n", "5", "--k", "3", "--r", "2"],
        ["search", "--n", "5", "--k", "3", "--r", "2", "--format", "csv",
         "--out", f"{d}/w532.hg"],
        ["wedges", "--input", f"{d}/plus.hg", "--v", "0", "--r", "3"],
        ["wedges", "--input", f"{d}/plus.hg", "--v", "0", "--r", "3",
         "--format", "csv"],
        ["classify", "--input", f"{d}/star125.hg", "--v", "0"],
        ["classify", "--input", f"{d}/star125.hg", "--v", "0", "--format", "csv"],
        ["table", "--claim", "mv-conjecture", "--k", "3", "--n-max", "5",
         "--format", "csv"],
        ["table", "--claim", "star-extremal", "--k", "3", "--r", "2",
         "--n-max", "6"],
        ["table", "--claim", "example-b", "--k", "3", "--c", "2", "--n-max", "6",
         "--format", "csv"],
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def snapshot():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    for argv in invocations:
        cmd = [sys.executable, "-m", "regulus.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, env=env, cwd=d)
        files = snapshot()
        second = subprocess.run(cmd, capture_output=True, env=env, cwd=d)
        assert second.stdout == first.stdout, argv
        assert second.returncode == first.returncode, argv
        assert snapshot() == files, argv
