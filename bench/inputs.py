"""Seeded input generators for the benchmark.

The benchmark draws its own instances here, with nothing but
``random.Random``, so a later change to the library's samplers cannot change
what the benchmark measures. Hypergraphs are plain edge lists (sorted
k-tuples on vertices 1..n) and colorings are tuples of colors, ready to be
written in the library's text format or handed to its constructors.
"""

from __future__ import annotations

import random
from collections import deque


def random_edges(rng: random.Random, n: int, m: int, k: int) -> list:
    """m distinct uniformly random k-subsets of 1..n, each as a sorted tuple."""
    pool = range(1, n + 1)
    seen = set()
    out = []
    while len(out) < m:
        e = tuple(sorted(rng.sample(pool, k)))
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def incidence(n: int, edges: list) -> list:
    """inc[v] lists the edges through vertex v (index 0 unused)."""
    inc = [[] for _ in range(n + 1)]
    for e in edges:
        for v in e:
            inc[v].append(e)
    return inc


def _blocked(inc_v, v: int, col: list) -> set:
    # colors that would make an edge through v monochromatic, given the
    # colors already assigned (0 = uncolored)
    out = set()
    for e in inc_v:
        common = 0
        for u in e:
            if u == v:
                continue
            c = col[u]
            if c == 0 or (common and c != common):
                common = -1
                break
            common = c
        if common > 0:
            out.add(common)
    return out


def random_proper_coloring(rng: random.Random, n: int, edges: list, q: int,
                           avoid: tuple = None, tries: int = 100) -> tuple:
    """A proper q-coloring: vertices in shuffled order, each taking a random
    color that completes no monochromatic edge and, when ``avoid`` is a
    coloring, differs from it."""
    inc = incidence(n, edges)
    palette = range(1, q + 1)
    for _ in range(tries):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        col = [0] * (n + 1)
        for v in order:
            blocked = _blocked(inc[v], v, col)
            if avoid is not None:
                blocked.add(avoid[v - 1])
            choices = [c for c in palette if c not in blocked]
            if not choices:
                break
            col[v] = rng.choice(choices)
        else:
            return tuple(col[1:])
    raise RuntimeError(f"no proper {q}-coloring in {tries} tries")


def peel_order(n: int, edges: list, beta: int):
    """Reverse removal order of a beta-core peel, or None if a core remains.

    Along the returned order every vertex lies in at most beta-1 edges of the
    prefix that ends with it, so first-fit over beta colors never gets stuck.
    """
    inc = incidence(n, edges)
    deg = [len(inc[v]) for v in range(n + 1)]
    alive = {e: True for e in edges}
    removed = [False] * (n + 1)
    queue = deque(v for v in range(1, n + 1) if deg[v] < beta)
    queued = [False] * (n + 1)
    for v in queue:
        queued[v] = True
    order = []
    while queue:
        v = queue.popleft()
        removed[v] = True
        order.append(v)
        for e in inc[v]:
            if alive[e]:
                alive[e] = False
                for u in e:
                    if not removed[u]:
                        deg[u] -= 1
                        if deg[u] < beta and not queued[u]:
                            queued[u] = True
                            queue.append(u)
    if len(order) < n:
        return None
    order.reverse()
    return order


def first_fit(n: int, edges: list, order: list, palette: list) -> tuple:
    """Color along ``order`` with the first palette color left unblocked."""
    inc = incidence(n, edges)
    col = [0] * (n + 1)
    for v in order:
        blocked = _blocked(inc[v], v, col)
        col[v] = next(c for c in palette if c not in blocked)
    return tuple(col[1:])


def hypergraph_text(n: int, k: int, edges: list) -> str:
    """The library's hypergraph file format: header 'n k m', one edge a line."""
    lines = [f"{n} {k} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(edges))
    return "\n".join(lines) + "\n"


def coloring_text(colors: tuple) -> str:
    return " ".join(map(str, colors)) + "\n"
