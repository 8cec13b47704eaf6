"""Brute-force ground truth for the single-vertex recoloring graph.

The recoloring graph on q colors has one node per proper coloring and an
edge between colorings at Hamming distance exactly 1. Everything here is
exhaustive and budgeted: enumeration refuses outright when q**n exceeds its
budget, and the all-pairs diameter sweep refuses when the largest component
is too big to BFS from every node.

Colorings are encoded as mixed-radix integers: digit v-1 is the color of
vertex v minus one. The enumerator builds each code digit by digit as it
assigns vertices, so no coloring is materialised on the way.

Components need no search. The colorings that differ only at vertex v share
the code with digit v-1 erased, and any two of them are one recoloring
apart, so each such group is a clique and the components are the union over
v of these groupings. ``gamma_stats`` finds them with n grouping passes of
union-find over the enumerated codes: per coloring and vertex, one dict
lookup and at most one union, where a BFS would probe all n*(q-1) neighbors
of every coloring. The diameter sweep and ``gamma_distance`` do need BFS.
Both filter the neighbor list of ``_neighbors`` against their own set: the
sweep once per node, into adjacency lists that every source then walks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InstanceTooLargeError, ValidationError
from .hypergraph import Coloring, Hypergraph, is_proper

__all__ = ["GammaStats", "enumerate_proper", "gamma_stats", "gamma_distance"]

DEFAULT_BUDGET = 10 ** 7
DEFAULT_DIAMETER_BUDGET = 10 ** 8


@dataclass(frozen=True)
class GammaStats:
    """Census of the recoloring graph for one (H, q)."""

    num_colorings: int
    num_components: int
    component_sizes: tuple[int, ...]  # ascending
    diameter: Optional[int]  # None when skipped or when there are no colorings
    connected: bool


def _check_budget(H: Hypergraph, q: int, budget: int) -> None:
    if q < 1:
        raise ValidationError(f"q must be positive, got {q}")
    if budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    # for q >= 2, q**n >= 2**n > budget once n exceeds the budget's bit
    # length, so a huge power is refused without being computed
    if (q >= 2 and H.n > budget.bit_length()) or q ** H.n > budget:
        raise InstanceTooLargeError(
            f"q**n = {q}**{H.n} exceeds the enumeration budget {budget}")


def _finishing_edges(H: Hypergraph) -> list[list[tuple[int, ...]]]:
    # for each vertex v, the other members of every edge whose maximum is v;
    # checking these as v is assigned prunes every improper prefix exactly once
    fin: list[list[tuple[int, ...]]] = [[] for _ in range(H.n + 1)]
    for e in H.edges:
        fin[e[-1]].append(e[:-1])
    return fin


def _proper_codes(H: Hypergraph, q: int) -> Iterator[int]:
    """Yield the codes of the proper colorings, in lexicographic order of
    the colorings (vertex 1 first)."""
    n = H.n
    fin = _finishing_edges(H)
    pows = [q ** i for i in range(n)]
    assign = [0] * (n + 1)
    part = [0] * (n + 1)  # part[v]: code of the colors of vertices 1..v
    v = 1
    while v >= 1:
        c = assign[v] + 1
        if c > q:
            assign[v] = 0
            v -= 1
            continue
        assign[v] = c
        ok = True
        for others in fin[v]:
            mono = True
            for u in others:
                if assign[u] != c:
                    mono = False
                    break
            if mono:
                ok = False
                break
        if not ok:
            continue
        code = part[v - 1] + (c - 1) * pows[v - 1]
        if v == n:
            yield code
        else:
            part[v] = code
            v += 1


def enumerate_proper(H: Hypergraph, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Coloring]:
    """All proper q-colorings in lexicographic order (budgeted backtracking).

    Refuses when called; the colorings themselves are produced lazily.
    """
    _check_budget(H, q, budget)
    # decode by table: the colors of the low and of the high half of a code
    low, high = ([tuple(x // q ** i % q + 1 for i in range(d)) for x in range(q ** d)]
                 for d in (H.n // 2, H.n - H.n // 2))
    split = len(low)
    return (Coloring(low[code % split] + high[code // split])
            for code in _proper_codes(H, q))


def _neighbors(code: int, pows: list[int], q: int) -> list[int]:
    """The n*(q-1) codes one recoloring away from ``code``."""
    out: list[int] = []
    for p in pows:
        base = code - code // p % q * p
        out.extend(range(base, code, p))
        out.extend(range(code + p, base + q * p, p))
    return out


def _component_roots(codes: list[int], pows: list[int], q: int) -> list[int]:
    """Union-find over the digit-erased groups: entry j is the least index
    of the component holding codes[j]."""
    parent = list(range(len(codes)))  # invariant: parent[j] <= j
    for p in pows:
        first: dict[int, int] = {}
        for j, code in enumerate(codes):
            a = first.setdefault(code - code // p % q * p, j)
            if a == j:
                continue
            while parent[a] != a:  # find with path halving
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = j
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    # parents point to smaller indices, so one ascending sweep finds roots
    for j in range(len(parent)):
        parent[j] = parent[parent[j]]
    return parent


def gamma_stats(H: Hypergraph, q: int, budget: int = DEFAULT_BUDGET,
                compute_diameter: bool = True,
                diameter_budget: int = DEFAULT_DIAMETER_BUDGET) -> GammaStats:
    """Count proper colorings, split them into components, optionally sweep
    the largest component for its diameter.

    The diameter sweep runs BFS from every node of the largest component and
    refuses (InstanceTooLargeError) when |C|**2 * n * (q-1) would exceed
    diameter_budget. Pass compute_diameter=False to skip it; a negative
    diameter_budget is refused even then.
    """
    if diameter_budget < 0:
        raise ValidationError(
            f"diameter budget must be nonnegative, got {diameter_budget}")
    _check_budget(H, q, budget)
    n = H.n
    pows = [q ** i for i in range(n)]
    codes = list(_proper_codes(H, q))
    roots = _component_roots(codes, pows, q)
    size = Counter(roots)  # keyed by least index, inserted in ascending order
    diameter: Optional[int] = None
    if compute_diameter and codes:
        largest = max(size, key=size.__getitem__)  # the first of the largest
        work = size[largest] * size[largest] * n * (q - 1)
        if work > diameter_budget:
            raise InstanceTooLargeError(
                f"diameter sweep needs ~{work} probes, over the budget {diameter_budget}")
        diameter = _diameter_of(
            [code for code, r in zip(codes, roots) if r == largest], pows, q)
    return GammaStats(
        num_colorings=len(codes),
        num_components=len(size),
        component_sizes=tuple(sorted(size.values())),
        diameter=diameter,
        connected=len(size) <= 1,
    )


def _diameter_of(comp: list[int], pows: list[int], q: int) -> int:
    """Largest eccentricity over the codes of one component, by BFS from
    each over adjacency lists built once."""
    local = {code: i for i, code in enumerate(comp)}
    adj = [[local[nb] for nb in _neighbors(code, pows, q) if nb in local]
           for code in comp]
    diameter = 0
    for src in range(len(comp)):
        seen = bytearray(len(comp))
        seen[src] = 1
        frontier = [src]
        far = -1
        while frontier:
            far += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt
        diameter = max(diameter, far)
    return diameter


def gamma_distance(H: Hypergraph, q: int, sigma: Coloring, tau: Coloring,
                   budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Exact recoloring distance between two proper colorings, or None if
    they sit in different components."""
    _check_budget(H, q, budget)
    for name, col in (("sigma", sigma), ("tau", tau)):
        if len(col) != H.n:
            raise ValidationError(f"{name} has wrong length")
        if any(c > q for c in col.colors):
            raise ValidationError(f"{name} uses colors above q={q}")
        if not is_proper(H, col):
            raise ValidationError(f"{name} is not proper")
    pows = [q ** i for i in range(H.n)]
    unseen = set(_proper_codes(H, q))
    src, dst = (sum((c - 1) * p for c, p in zip(col.colors, pows))
                for col in (sigma, tau))
    if src == dst:
        return 0
    unseen.discard(src)
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt: list[int] = []
        for code in frontier:
            hits = unseen.intersection(_neighbors(code, pows, q))
            if dst in hits:
                return d
            unseen -= hits
            nxt.extend(hits)
        frontier = nxt
    return None
