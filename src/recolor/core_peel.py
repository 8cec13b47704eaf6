"""Core peeling and first-fit coloring of coreless vertex sets.

The degree of a vertex inside a set counts only edges entirely contained in
that set (the induced-subgraph convention). The beta-core of a set is its
unique maximal subset in which every vertex has inside-degree at least beta;
it is empty exactly when repeatedly deleting low-degree vertices consumes
the whole set.

When the core is empty, reversing the removal order gives a sequence
v_1, ..., v_r in which every v_i lies in at most beta-1 edges contained in
the prefix {v_1..v_i}. Coloring along that order, first-fit over a palette
of size beta always succeeds: a color is blocked for v only when some edge
through v has all its other vertices already identically colored, and the
prefix property caps the number of such edges at beta-1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import SpareColorError, ValidationError, VertexRangeError
from .hypergraph import Hypergraph, _check_vertex, _excerpt

__all__ = ["PeelResult", "beta_core", "blocked_colors"]


@dataclass(frozen=True)
class PeelResult:
    """Outcome of peeling: the surviving core and the reversed removal order."""

    core: frozenset[int]
    order: tuple[int, ...]


def _active_set(H: Hypergraph, active: Optional[Iterable[int]]) -> frozenset[int]:
    if active is None:
        return frozenset(range(1, H.n + 1))
    act = frozenset(active)
    if act and {*map(type, act)} == {int} and min(act) >= 1 and max(act) <= H.n:
        return act
    # slow path: int subclasses other than bool pass, anything else is named
    for v in act:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= H.n:
            raise VertexRangeError(f"active vertex {_excerpt(v)} outside 1..{H.n}")
    return act


def beta_core(H: Hypergraph, beta: int, active: Optional[Iterable[int]] = None) -> PeelResult:
    """Peel ``active`` down to its beta-core.

    Ties are broken by removing the smallest eligible vertex id, but the core
    itself does not depend on the tie-breaking. ``order`` lists the removed
    vertices in reverse removal order, which certifies the prefix property
    above restricted to the peeled vertices.
    """
    if beta < 1:
        raise ValidationError(f"beta must be at least 1, got {_excerpt(beta)}")
    act = _active_set(H, active)
    k = H.k
    edges = H.edges
    inc = H.incidence
    alive = [False] * (H.n + 1)
    # live member count per edge, from the incidence lists of ``act`` so
    # the cost is O(region edges); an edge contributes to inside-degrees only
    # while all k of its vertices are alive
    live = [0] * H.m
    deg = [0] * (H.n + 1)
    for v in act:
        alive[v] = True
        for ei in inc[v - 1]:
            c = live[ei] + 1
            live[ei] = c
            if c == k:
                for u in edges[ei]:
                    deg[u] += 1
    # a vertex enters the heap once: here if its degree is below beta, or
    # later when its degree drops to beta - 1, so no entry is ever stale
    heap = [v for v in act if deg[v] < beta]
    heapq.heapify(heap)
    removal = []
    while heap:
        v = heapq.heappop(heap)
        alive[v] = False
        removal.append(v)
        for ei in inc[v - 1]:
            if live[ei] == k:
                # this edge just lost its first vertex
                for u in edges[ei]:
                    if alive[u]:
                        du = deg[u] - 1
                        deg[u] = du
                        if du == beta - 1:
                            heapq.heappush(heap, u)
            live[ei] -= 1
    return PeelResult(core=act.difference(removal), order=tuple(reversed(removal)))


def blocked_colors(H: Hypergraph, v: int, partial_coloring: Mapping[int, int]) -> set[int]:
    """Colors c that would complete a monochromatic edge at v.

    A color is blocked exactly when some edge through v has every other
    vertex present in the partial coloring with color c. Vertices missing
    from the mapping are uncolored and never block.
    """
    _check_vertex(v, H.n)
    if v in partial_coloring:
        raise ValidationError(f"vertex {v} is already colored")
    blocked = set()
    get = partial_coloring.get
    for ei in H.incidence[v - 1]:
        e = H.edges[ei]
        common = None
        full = True
        for u in e:
            if u == v:
                continue
            c = get(u)
            if c is None or (common is not None and c != common):
                full = False
                break
            common = c
        if full and common is not None:
            blocked.add(common)
    return blocked


def _first_fit_along(H: Hypergraph, order: Sequence[int],
                     palette: Sequence[int]) -> dict[int, int]:
    """Assign each vertex of ``order`` the first palette color not blocked
    by the vertices colored before it."""
    assignment: dict[int, int] = {}
    pal = list(palette)
    for v in order:
        blocked = blocked_colors(H, v, assignment)
        for c in pal:
            if c not in blocked:
                assignment[v] = c
                break
        else:
            raise SpareColorError(
                f"all {len(pal)} palette colors blocked at vertex {v}; "
                "peel order invariant violated")
    return assignment
