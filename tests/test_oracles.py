"""Checks of the test oracles themselves: the vectorized subset scan
against the naive one, and its guards."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from oracles import brute_force_regular, regular_subset
from regulus.errors import GuardError
from regulus.hypercore import Hypergraph, complete_uniform
from regulus.regdetect import verify_certificate


def test_brute_force_matches_naive_scan():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k + 1, 7)
        pool = list(combinations(range(n), k))
        h = Hypergraph(n, rng.sample(pool, rng.randint(1, min(10, len(pool)))))
        r = rng.choice((2, 3))
        cert = brute_force_regular(h, r)
        want = regular_subset(h.edges, h.n, r)
        assert (cert is None) == (want is None)
        if cert is not None:
            assert verify_certificate(h, cert) == (True, "ok")


def test_brute_force_guard():
    h = complete_uniform(8, 3)
    assert len(h.edges) > 25
    with pytest.raises(GuardError):
        brute_force_regular(h, 2)
    for bad in (0, 1, -2, 2.0):
        with pytest.raises(ValueError, match=f"r must be an integer >= 2, got {bad!r}"):
            brute_force_regular(Hypergraph(3, [(0, 1, 2)]), bad)
