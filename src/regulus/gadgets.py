"""Deterministic generators for structured hypergraph families.

Every generator returns (Hypergraph, GadgetDescriptor); identical arguments
give byte-identical serializations.  Canonical layout conventions: stars are
centered at vertex 0, the extra edge of star_plus is {1..k}, the two special
vertices of the layered star are x=0 and y=1, and the gadget families
H(k,l) / H'(k,l) put their stationary parts first and their dynamic vertex
pairs last, consecutively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from math import comb, gcd

from .errors import GuardError
from .hypercore import Hypergraph, mask_of, vertices_of
from .regdetect import Certificate, _check_r


class GadgetKind(str, Enum):
    STAR = "star"
    STAR_PLUS = "star-plus"
    HKL = "hkl"
    HKL_PRIME = "hkl-prime"
    EXAMPLE_A_R_EQ_K = "example-a-r-eq-k"
    EXAMPLE_A_R_EQ_K_PLUS_1 = "example-a-r-eq-k-plus-1"
    EXAMPLE_B = "example-b"
    BES_LAYER_STAR = "bes-layer-star"


@dataclass(frozen=True)
class GadgetDescriptor:
    """Structure record emitted next to each generated hypergraph."""

    kind: GadgetKind
    params: dict[str, int] = field(default_factory=dict)
    center: int | None = None
    stationary_parts: tuple[tuple[int, ...], ...] = ()
    dynamic_pairs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class BesFreeWitness:
    """Greedy family in which no b edges span at most a vertices.

    `verified` records whether the exhaustive post-check over all b-subsets
    ran (it is skipped above the guard; the incremental construction check
    still holds either way)."""

    hypergraph: Hypergraph
    a: int
    b: int
    seed: int
    verified: bool


VARIANT_R_EQ_K = "r-eq-k"
VARIANT_R_EQ_K_PLUS_1 = "r-eq-k-plus-1"


def _star_edges(n: int, k: int) -> list[tuple[int, ...]]:
    return [(0, *rest) for rest in combinations(range(1, n), k - 1)]


def full_star(n: int, k: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """All k-sets through vertex 0: C(n-1, k-1) edges, never any r-regular
    subgraph for r >= 2."""
    if not (n > k >= 1):
        raise ValueError(f"full_star needs n > k >= 1, got n={n}, k={k}")
    h = Hypergraph(n, _star_edges(n, k))
    desc = GadgetDescriptor(kind=GadgetKind.STAR, params={"n": n, "k": k}, center=0)
    return h, desc


def star_plus(n: int, k: int, r: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """Full star plus the colex-least k-set avoiding the center.

    Needs r | k and n >= k + k/r + 1, which leaves room for the witness of
    an r-regular subgraph with r+1 edges through the extra edge."""
    _check_r(r)
    if k % r != 0:
        raise ValueError(f"star_plus needs r | k, got k={k}, r={r}")
    if n < k + k // r + 1:
        raise ValueError(f"star_plus needs n >= k + k/r + 1 = {k + k // r + 1}, got n={n}")
    extra = tuple(range(1, k + 1))
    h = Hypergraph(n, _star_edges(n, k) + [extra])
    desc = GadgetDescriptor(
        kind=GadgetKind.STAR_PLUS,
        params={"n": n, "k": k, "r": r},
        center=0,
        stationary_parts=(extra,),
    )
    return h, desc


def star_plus_certificate(h: Hypergraph, r: int) -> Certificate:
    """Analytic witness for star_plus: the extra edge e = {1..k} plus, for
    each block e_j of the consecutive equipartition of e into r parts, the
    star edge (e - e_j) + g + {0} with g the colex-least spare (k/r - 1)-set."""
    k = h.uniformity
    if k is None or k % r != 0:
        raise ValueError("certificate needs a k-uniform host with r | k")
    kp = k // r
    extra = tuple(range(1, k + 1))
    if not h.has_edge(extra):
        raise ValueError("host lacks the canonical extra edge {1..k}")
    g = tuple(range(k + 1, k + kp))
    if g and g[-1] >= h.n:
        raise ValueError("host too small for the analytic witness")
    sets = [extra]
    for j in range(r):
        block = set(extra[j * kp: (j + 1) * kp])
        sets.append(tuple(sorted((set(extra) - block) | set(g) | {0})))
    idx = h.mask_index
    indices = []
    for s in sets:
        m = mask_of(s)
        if m not in idx:
            raise ValueError(f"witness edge {s} missing from host")
        indices.append(idx[m])
    covered = tuple(sorted({0, *extra, *g}))
    return Certificate(r=r, edge_indices=tuple(sorted(indices)), covered=covered)


def _hkl_layout(k: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, int]]]:
    s = k - l
    part_a = tuple(range(s))
    part_b = tuple(range(s, 2 * s))
    pairs = [(2 * s + 2 * i, 2 * s + 2 * i + 1) for i in range(l)]
    return part_a, part_b, pairs


def _selection_edges(parts: tuple[tuple[int, ...], ...], pairs: list[tuple[int, int]]):
    """Edges z + one vertex per pair, enumerated selection-major then part-major."""
    edges = []
    for sel in range(1 << len(pairs)):
        chosen = tuple(pairs[i][(sel >> i) & 1] for i in range(len(pairs)))
        for z in parts:
            edges.append(tuple(sorted(z + chosen)))
    return edges


def gadget_h(k: int, l: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """The 2-part family on 2k vertices: two disjoint stationary (k-l)-sets
    and l dynamic pairs; one edge per (part, pair-selection), 2^(l+1) total."""
    if not (k > l >= 0):
        raise ValueError(f"gadget_h needs k > l >= 0, got k={k}, l={l}")
    part_a, part_b, pairs = _hkl_layout(k, l)
    h = Hypergraph(2 * k, _selection_edges((part_a, part_b), pairs))
    desc = GadgetDescriptor(
        kind=GadgetKind.HKL,
        params={"n": 2 * k, "k": k, "l": l},
        stationary_parts=(part_a, part_b),
        dynamic_pairs=tuple(pairs),
    )
    return h, desc


def gadget_h_prime(k: int, l: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """Four-part variant: stationary parts A, B plus the crossed pair C, D
    (first half of A with second half of B, and the rest), 2^(l+2) edges."""
    if not (k - 2 >= l >= 0):
        raise ValueError(f"gadget_h_prime needs k - l >= 2 and l >= 0, got k={k}, l={l}")
    part_a, part_b, pairs = _hkl_layout(k, l)
    half = (k - l) // 2
    part_c = tuple(sorted(part_a[:half] + part_b[half:]))
    part_d = tuple(sorted(part_a[half:] + part_b[:half]))
    h = Hypergraph(2 * k, _selection_edges((part_a, part_b, part_c, part_d), pairs))
    desc = GadgetDescriptor(
        kind=GadgetKind.HKL_PRIME,
        params={"n": 2 * k, "k": k, "l": l},
        stationary_parts=(part_a, part_b, part_c, part_d),
        dynamic_pairs=tuple(pairs),
    )
    return h, desc


def example_a(n: int, k: int, variant: str) -> tuple[Hypergraph, GadgetDescriptor]:
    """Star surgery: add the colex-least k-set e avoiding the center; in the
    r-eq-k variant also remove the star edge e' = {0..k-1} (|e n e'| = k-1).

    The result has no r-regular subgraph at r = k (swap variant) or at
    r = k + 1 (add-only variant)."""
    if k < 1:
        raise ValueError(f"example_a needs k >= 1, got k={k}")
    if n < k + 2:
        raise ValueError(f"example_a needs n >= k + 2, got n={n}, k={k}")
    extra = tuple(range(1, k + 1))
    edges = _star_edges(n, k)
    if variant == VARIANT_R_EQ_K:
        removed = tuple(range(k))
        edges = [e for e in edges if e != removed]
        kind = GadgetKind.EXAMPLE_A_R_EQ_K
    elif variant == VARIANT_R_EQ_K_PLUS_1:
        kind = GadgetKind.EXAMPLE_A_R_EQ_K_PLUS_1
    else:
        raise ValueError(f"unknown example_a variant {variant!r}")
    edges.append(extra)
    h = Hypergraph(n, edges)
    desc = GadgetDescriptor(
        kind=kind, params={"n": n, "k": k}, center=0, stationary_parts=(extra,)
    )
    return h, desc


def example_b(n: int, k: int, c: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """Transversal family: every edge meets the set {0..c-1} in exactly one
    vertex; c * C(n-c, k-1) edges.  Free of r-regular subgraphs for every
    r > c * C(c(k-1), k-2)."""
    if k < 1:
        raise ValueError(f"example_b needs k >= 1, got k={k}")
    if c < 2:
        raise ValueError(f"example_b needs c >= 2, got c={c}")
    if n < c + k - 1:
        raise ValueError(f"example_b needs n >= c + k - 1, got n={n}, k={k}, c={c}")
    edges = []
    for x in range(c):
        for rest in combinations(range(c, n), k - 1):
            edges.append(tuple(sorted((x,) + rest)))
    h = Hypergraph(n, edges)
    desc = GadgetDescriptor(
        kind=GadgetKind.EXAMPLE_B,
        params={"n": n, "k": k, "c": c},
        stationary_parts=(tuple(range(c)),),
    )
    return h, desc


def example_b_free_threshold(k: int, c: int) -> int:
    """Largest edge degree bound: no r-regular subgraph exists for any
    r strictly above this value.  Needs k >= 2 (the bound counts
    (k-2)-sets) and c >= 2, as example_b does."""
    if k < 2:
        raise ValueError(f"example_b_free_threshold needs k >= 2, got k={k}")
    if c < 2:
        raise ValueError(f"example_b_free_threshold needs c >= 2, got c={c}")
    return c * comb(c * (k - 1), k - 2)


def verify_bes_free(h: Hypergraph, a: int, b: int, guard: int = 10**7) -> bool:
    """Exhaustively confirm that no b edges span at most a vertices."""
    m = len(h.edges)
    if b > m:
        return True
    if comb(m, b) > guard:
        raise GuardError(f"C({m},{b}) exceeds the exhaustive guard")
    for combo in combinations(range(m), b):
        u = 0
        for i in combo:
            u |= h.edge_masks[i]
        if u.bit_count() <= a:
            return False
    return True


def bes_free(n: int, k: int, a: int, b: int, seed: int) -> BesFreeWitness:
    """Greedy maximal k-uniform family on [0,n) in which no b edges span at
    most a vertices, built over a seeded shuffle of the colex candidate list.

    Candidates are accepted iff every (b-1)-subset of the accepted edges
    together with the candidate spans more than a vertices, so the invariant
    holds incrementally; a final exhaustive re-check runs below the guard."""
    if not a > k:
        raise ValueError(f"bes_free needs a > k, got a={a}, k={k}")
    if not b > 1:
        raise ValueError(f"bes_free needs b > 1, got b={b}")
    candidates = [mask_of(c) for c in combinations(range(n), k)]
    candidates.sort()
    rng = random.Random(seed)
    rng.shuffle(candidates)
    chosen: list[int] = []
    for cand in candidates:
        good = True
        for sub in combinations(chosen, b - 1):
            u = cand
            for msk in sub:
                u |= msk
            if u.bit_count() <= a:
                good = False
                break
        if good:
            chosen.append(cand)
    h = Hypergraph(n, [vertices_of(msk) for msk in chosen])
    verified = False
    if len(chosen) < b or comb(len(chosen), b) <= 200_000:
        verified = verify_bes_free(h, a, b)
        if not verified:
            raise AssertionError("greedy construction violated its own invariant")
    return BesFreeWitness(hypergraph=h, a=a, b=b, seed=seed, verified=verified)


def bes_layer_star(n: int, k: int, r: int, seed: int) -> tuple[Hypergraph, GadgetDescriptor]:
    """Full k-star at x=0 plus a layer through y=1: e + {y} for every edge e
    of a greedy (k-1)-uniform family on the remaining vertices in which no
    r' edges span at most 2k-2 vertices, where r' = r / gcd(k, r).

    Needs r' >= 3; the layered hypergraph then has C(n-1, k-1) + |layer|
    edges and no r-regular subgraph (see verify_bes_layer_star)."""
    if k < 3:
        raise ValueError(f"bes_layer_star needs k >= 3, got k={k}")
    _check_r(r)
    if n < k + 2:
        raise ValueError(f"bes_layer_star needs n >= k + 2, got n={n}")
    d = gcd(k, r)
    k_prime, r_prime = k // d, r // d
    if r_prime < 3:
        raise ValueError(f"derived r' = r/gcd(k,r) = {r_prime} must be >= 3")
    layer = bes_free(n - 2, k - 1, 2 * k - 2, r_prime, seed)
    edges = _star_edges(n, k)
    for e in layer.hypergraph.edges:
        edges.append(tuple(sorted((1,) + tuple(v + 2 for v in e))))
    h = Hypergraph(n, edges)
    desc = GadgetDescriptor(
        kind=GadgetKind.BES_LAYER_STAR,
        params={
            "n": n, "k": k, "r": r, "d": d,
            "k_prime": k_prime, "r_prime": r_prime, "seed": seed,
        },
        center=0,
        stationary_parts=((0,), (1,)),
    )
    return h, desc


def verify_bes_layer_star(h: Hypergraph, desc: GadgetDescriptor) -> tuple[bool, str]:
    """Structural proof that a layered star has no r-regular subgraph.

    Checks, with x=0 and y=1: (1) parameters are consistent, with
    gcd(k', r') = 1 and r' >= 3; (2) the edges through x form the full
    star and every other edge contains y but not x; (3) no r' edges of the
    layer span at most 2k-2 vertices (exhaustive).

    These imply freeness: any r-regular R would cover x or y (sub-stars are
    never regular), so exactly r of its edges pass through x; counting
    incidences, k|R| = r|V(R)| forces the layer part m = |R| - r to satisfy
    r' | m and 1 <= m <= r, hence m >= r' and |V(R)| = k + k'm/r' <= 2k;
    stripping y from r' layer edges of R then exhibits r' layer edges on at
    most 2k-2 vertices, contradicting (3)."""
    p = desc.params
    try:
        n, k, r = p["n"], p["k"], p["r"]
        d, k_prime, r_prime = p["d"], p["k_prime"], p["r_prime"]
    except KeyError as exc:
        return False, f"missing param {exc}"
    if h.n != n or h.uniformity != k:
        return False, "host does not match params"
    if d != gcd(k, r) or k_prime * d != k or r_prime * d != r:
        return False, "inconsistent derived params"
    if gcd(k_prime, r_prime) != 1 or r_prime < 3:
        return False, "divisibility preconditions violated"
    star = 0
    layer_edges = []
    for e, msk in zip(h.edges, h.edge_masks):
        if msk & 1:
            star += 1
        elif msk & 2:
            layer_edges.append(tuple(v for v in e if v != 1))
        else:
            return False, f"edge {e} avoids both x and y"
    if star != comb(n - 1, k - 1):
        return False, "star part is not the full star at x"
    layer = Hypergraph(n, layer_edges)
    if not verify_bes_free(layer, 2 * k - 2, r_prime):
        return False, f"{r_prime} layer edges span at most {2 * k - 2} vertices"
    return True, "ok"
