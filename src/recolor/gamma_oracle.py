"""Brute-force ground truth for the single-vertex recoloring graph.

The recoloring graph on q colors has one node per proper coloring and an
edge between colorings at Hamming distance exactly 1. Everything here is
exhaustive and budgeted: enumeration refuses outright when q**n exceeds its
budget, and the diameter sweep refuses when the largest component is too
big to BFS from every node.

Colorings are encoded as mixed-radix integers: digit v-1 is the color of
vertex v minus one. The enumerator builds each code digit by digit as it
assigns vertices, so no coloring is materialised on the way.

The census works up to renaming the colors. A permutation of the q colors
maps proper colorings to proper colorings and neighbors to neighbors, so
S_q acts on the graph by automorphisms. Each orbit has one representative
whose colors first appear in the order 1, 2, 3, ... along the vertices (a
restricted growth string); the enumerator yields only these, and one that
uses j colors stands for q!/(q-j)! colorings.

Components need no search. The colorings that differ only at vertex v form
a clique. Erasing digit v from each representative and renaming what is
left canonically groups the representatives whose orbits meet one such
clique, and the renamings give, per link, a color permutation that carries
one representative into the other's component: union-find labelled with
these permutations finds the components of the quotient by S_q. Each also
has a stabilizer, the permutations that map one of its components to
itself, generated by the closed cycles of links, by each representative's
permutations of its unused colors, and, when some color is unused, by the
swap of a color used at one vertex only with an unused one (a single
recoloring). A quotient component of W colorings whose stabilizer has
order s splits into q!/s components of W*s/q! colorings each.

Eccentricity is invariant under S_q too, so the diameter sweep starts a BFS
only from the representatives of the first largest quotient component,
renamed into one of its components, over adjacency lists built once for
that component.

``gamma_distance`` is a bidirectional A* search guided by the Hamming
distance; its docstring gives the argument that the answer is exact.
The query enumerates nothing. It and the diameter sweep take their
neighbors from ``_proper_neighbors``, which generates only proper ones by
checking the edges through the recolored vertex. The q**n budget still
gates both calls, as a bound on the codes a search may reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import factorial, inf
from typing import Iterator, Optional

from .errors import InstanceTooLargeError, ValidationError
from .hypergraph import (Coloring, Hypergraph, _check_int, _check_palette,
                         _excerpt, is_proper)

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
    _check_int(q, "q")
    if q < 1:
        raise ValidationError(f"q must be positive, got {_excerpt(q)}")
    _check_int(budget, "budget")
    if budget < 0:
        raise ValidationError(
            f"budget must be nonnegative, got {_excerpt(budget)}")
    # for q >= 2, q**n >= 2**n > budget once n exceeds the budget's bit
    # length, so a huge power is refused without being computed
    if (q >= 2 and H.n > budget.bit_length()) or q ** H.n > budget:
        raise InstanceTooLargeError(
            f"q**n = {_excerpt(q)}**{H.n} exceeds the enumeration budget "
            f"{_excerpt(budget)}",
            keyword="budget")


def _edges_through(H: Hypergraph) -> list[list[tuple[int, ...]]]:
    """For each digit position i, the digit positions of the other members
    of every edge through vertex i + 1."""
    through: list[list[tuple[int, ...]]] = [[] for _ in range(H.n)]
    for e in H.edges:
        pos = tuple([v - 1 for v in e])
        for j, i in enumerate(pos):
            through[i].append(pos[:j] + pos[j + 1:])
    return through


def _proper_codes(H: Hypergraph, q: int, canonical: bool = False) -> Iterator[int]:
    """Yield the codes of the proper colorings, in lexicographic order of
    the colorings (vertex 1 first). With ``canonical``, only those whose
    colors first appear in the order 1, 2, 3, ...: one per orbit of S_q."""
    n = H.n
    # fin[i]: the other positions of every edge whose last position is i.
    # Edges are sorted, so each rest is ascending and r[-1] < i says all of
    # it comes before i; checking these as digit i is set prunes every
    # improper prefix exactly once
    fin = [[r for r in rests if r[-1] < i]
           for i, rests in enumerate(_edges_through(H))]
    pows = [q ** i for i in range(n)]
    digits = [-1] * n
    part = [0] * n  # part[i]: code of the digits before position i
    # cap[i]: how many digits position i may take; canonically one more
    # than the digits used before it, so it grows only when i opens a new one
    cap = [q] * n
    cap[0] = 1 if canonical else q
    i = 0
    while i >= 0:
        c = digits[i] + 1
        if c == cap[i]:
            digits[i] = -1
            i -= 1
            continue
        digits[i] = c
        for rest in fin[i]:
            for u in rest:
                if digits[u] != c:
                    break
            else:
                break  # the edge would go monochromatic
        else:
            code = part[i] + c * pows[i]
            if i == n - 1:
                yield code
            else:
                part[i + 1] = code
                cap[i + 1] = cap[i] + (c + 1 == cap[i] < q)
                i += 1


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


def _proper_neighbors(code: int, through: list[list[tuple[int, ...]]],
                      pows: list[int], q: int) -> list[int]:
    """The proper codes one recoloring away from the proper ``code``.

    Recoloring vertex i + 1 to x makes an edge through it monochromatic
    exactly when the edge's other members all have color x, so only the
    edges through the recolored vertex are checked.
    """
    digits = [code // p % q for p in pows]
    out: list[int] = []
    for p, c, rests in zip(pows, digits, through):
        blocked = 1 << c
        for rest in rests:
            x = digits[rest[0]]
            for u in rest:
                if digits[u] != x:
                    break
            else:
                blocked |= 1 << x
        base = code - c * p
        for x in range(q):
            if not blocked >> x & 1:
                out.append(base + x * p)
    return out


def _orbit_census(H: Hypergraph, q: int) -> list[tuple[int, int, list[int], list]]:
    """The components of the recoloring graph up to color permutation.

    One entry per component of the quotient by S_q, in order of its least
    representative: (the size of the components its orbits hold, how many
    there are, the codes of its representatives, and for each the color
    permutation that maps it into one and the same of those components).
    """
    n = H.n
    reps = list(_proper_codes(H, q, canonical=True))
    fact = factorial(q)
    weight = [fact // factorial(q - j) for j in range(min(n, q) + 1)]
    pows = [q ** i for i in range(n)]
    digits = [[code // p % q for p in pows] for code in reps]
    ident = tuple(range(q))
    if q > n:
        # every coloring leaves a color free, and a vertex may always take
        # one (it is then alone in its color): each coloring reaches an
        # injective one, and the injective ones reach each other, so the
        # graph is connected and its stabilizer is all of S_q
        return [(sum(weight[max(d) + 1] for d in digits), 1, reps,
                 [ident] * len(reps))]

    def compose(a, b):  # a after b
        if a is ident:
            return b
        if b is ident:
            return a
        return tuple(map(a.__getitem__, b))

    def inverse(a):
        if a is ident:
            return a
        inv = [0] * q
        for i, x in enumerate(a):
            inv[x] = i
        return tuple(inv)

    def closure(gens):
        group = {ident}
        frontier = [ident]
        while frontier and len(group) < fact:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = compose(a, g)
                    if b not in group:
                        group.add(b)
                        nxt.append(b)
            frontier = nxt
        return group

    def swap(a, b):
        t = list(range(q))
        t[a], t[b] = b, a
        return tuple(t)

    # rot[c][t]: (sig, pi) for a color c that opens at the erased vertex
    # and comes back after t newer colors opened (or never, t = colors
    # after it). sig renames the erased string canonically: c+1..c+t move
    # down one and c goes to c+t; pi = sig^-1 renames it back.
    rot = [[None] * (q - c) for c in range(q)]
    for c in range(q):
        for t in range(1, q - c):
            sig = list(range(q))
            sig[c + 1:c + t + 1] = range(c, c + t)
            sig[c] = c + t
            rot[c][t] = (tuple(sig), inverse(tuple(sig)))

    # Group-labelled union-find over the representatives. label[x] maps
    # representative x into the component of its parent's representative
    # (roots keep the identity); gens[root] generates the root's stabilizer,
    # the permutations that map its component to itself, group[root] is
    # its closure when taken, and both are None once it is all of S_q.
    R = len(reps)
    parent = list(range(R))
    label = [ident] * R
    members = [1] * R
    gens: list = [None] * R
    group: list = [None] * R

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = ident
        for y in reversed(path):  # compress, composing labels from the root
            acc = compose(acc, label[y])
            label[y] = acc
            parent[y] = x
        return x

    def add(root, h):
        # extend root's stabilizer by h, closing it anew only when h is new
        T = gens[root]
        if T is None or h is ident:
            return
        G = group[root]
        if G is None:
            G = closure(T)
        if h not in G:
            T.append(h)
            G = closure(T)
        if len(G) == fact:
            gens[root] = group[root] = None
        else:
            group[root] = G

    def union(x, rx, y, ry, g):
        # g maps representative x into the component of representative y;
        # rx and ry are their roots, found just before
        link = compose(compose(label[y], g), inverse(label[x]))
        if rx == ry:  # a closed cycle of links
            add(rx, link)
            return
        if members[rx] > members[ry]:
            rx, ry, link = ry, rx, inverse(link)
        parent[rx] = ry
        label[rx] = link
        members[ry] += members[rx]
        if gens[rx] is None:
            gens[ry] = group[ry] = None
        elif gens[ry] is not None:
            back = inverse(link)
            for h in gens[rx]:
                add(ry, compose(compose(link, h), back))
        gens[rx] = group[rx] = None

    groups: list[dict] = [{} for _ in range(n)]
    for b, code in enumerate(reps):
        d = digits[b]
        # per color: where it first appears, the sum of pows over its
        # vertices, and how many newer colors open before it comes back
        first = [n] * q
        mass = [0] * (q + 1)
        later = [-1] * q
        top = 0
        for i, c in enumerate(d):
            mass[c + 1] += pows[i]
            if c == top:
                first[c] = i
                top += 1
            elif later[c] < 0:
                later[c] = top - 1 - c
        j = top
        once = [c for c in range(j) if later[c] < 0]
        for c in once:
            later[c] = j - 1 - c
        for c in range(j):
            mass[c + 1] += mass[c]  # now mass[c]: the sum over colors below c
        # Sym(unused colors) fixes the representative, and a color used at
        # one vertex only swaps with an unused one by recoloring that vertex
        free = once + list(range(j, q)) if j < q else []
        gens[b] = [swap(u, w) for u, w in zip(free, free[1:])]
        for i, c in enumerate(d):
            key = code - c * pows[i]
            t = later[c]
            if first[c] == i and t > 0:
                # c opens here: erased, its later vertices take color c+t
                # and c+1..c+t move down one
                sig, pi = rot[c][t]
                key += t * (mass[c + 1] - mass[c] - pows[i]) \
                    - (mass[c + t + 1] - mass[c + 1])
            else:
                sig = pi = ident
            hit = groups[i].get(key)
            if hit is None:
                groups[i][key] = (b, pi)
                continue
            a, pa = hit
            rb, ra = find(b), find(a)
            if ra != rb or gens[ra] is not None:
                union(b, rb, a, ra, compose(pa, sig))

    classes: dict[int, list] = {}
    for b in range(R):
        entry = classes.setdefault(find(b), [0, [], []])
        entry[0] += weight[max(digits[b]) + 1]
        entry[1].append(reps[b])
        entry[2].append(label[b])
    census = []
    for r, (w, codes, perms) in classes.items():
        order = fact if gens[r] is None else len(group[r] or closure(gens[r]))
        census.append((w * order // fact, fact // order, codes, perms))
    return census


def gamma_stats(H: Hypergraph, q: int, budget: int = DEFAULT_BUDGET,
                compute_diameter: bool = True,
                diameter_budget: int = DEFAULT_DIAMETER_BUDGET) -> GammaStats:
    """Count proper colorings, split them into components, optionally sweep
    the largest component for its diameter.

    The diameter sweep is budgeted as a BFS from every node of the largest
    component and refuses (InstanceTooLargeError) when |C|**2 * n * (q-1)
    would exceed diameter_budget. Pass compute_diameter=False to skip it; a
    negative diameter_budget is refused even then.
    """
    _check_int(diameter_budget, "diameter budget")
    if diameter_budget < 0:
        raise ValidationError(
            f"diameter budget must be nonnegative, got {_excerpt(diameter_budget)}")
    _check_budget(H, q, budget)
    n = H.n
    census = _orbit_census(H, q)
    sizes = [size for size, count, _, _ in census for _ in range(count)]
    diameter: Optional[int] = None
    if compute_diameter and census:
        # the first of the largest, as census runs in order of least code
        size, _, codes, perms = max(census, key=lambda e: e[0])
        work = size * size * n * (q - 1)
        if work > diameter_budget:
            raise InstanceTooLargeError(
                f"diameter sweep needs ~{work} probes, over the diameter "
                f"budget {diameter_budget}", keyword="diameter_budget")
        # eccentricity is invariant under S_q, so the representatives,
        # renamed into one component, are the only sources needed
        pows = [q ** i for i in range(n)]
        sources = [sum(perm[code // p % q] * p for p in pows)
                   for code, perm in zip(codes, perms)]
        diameter = _diameter_of(sources, _edges_through(H), pows, q)
    return GammaStats(
        num_colorings=sum(sizes),
        num_components=len(sizes),
        component_sizes=tuple(sorted(sizes)),
        diameter=diameter,
        connected=len(sizes) <= 1,
    )


def _diameter_of(sources: list[int], through: list[list[tuple[int, ...]]],
                 pows: list[int], q: int) -> int:
    """Largest eccentricity over sources that share one component, by BFS
    from each over the component's adjacency lists, built once."""
    comp = [sources[0]]
    local = {sources[0]: 0}
    adj = []
    for code in comp:  # grows as the component is found
        row = []
        for nb in _proper_neighbors(code, through, pows, q):
            if nb not in local:
                local[nb] = len(comp)
                comp.append(nb)
            row.append(local[nb])
        adj.append(row)
    diameter = 0
    for src in sources:
        seen = bytearray(len(comp))
        seen[local[src]] = 1
        frontier = [local[src]]
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
    they sit in different components.

    A bidirectional A* search guided by the Hamming distance h, a lower
    bound on the distance since one move recolors one vertex. The search
    from sigma ranks a coloring x by its depth plus h(x, tau), the search
    from tau ranks y by its depth plus h(y, sigma), and each step expands
    the best-ranked coloring of the side with the smaller open heap, deeper
    first on equal ranks. mu, the shortest path closed by a coloring both
    sides have reached, is returned once it is at most the larger of the
    two least open ranks. h changes by at most 1 per move, so until a
    shortest path is found each side holds one of its colorings at its
    exact depth, ranked at most the distance: mu is then exact. A side that
    reaches the other end ranks it at its depth there, at least mu, which
    stops the search before the side can run dry, so a side runs dry only
    when its component is exhausted without a meeting, and the answer is
    then None. A pair at
    distance h expands about h colorings; the search widens as the
    distance exceeds h.

    Nothing is enumerated: each expanded coloring's proper neighbors are
    generated directly, by checking the edges through the recolored
    vertex, and each neighbor's bound follows from its parent's in O(1),
    since they differ in one digit. The q**n budget is checked first all
    the same, as it bounds what the searches may hold.
    """
    _check_budget(H, q, budget)
    for name, col in (("sigma", sigma), ("tau", tau)):
        _check_palette(col, q, name)
        if not is_proper(H, col):
            raise ValidationError(f"{name} is not proper")
    pows = [q ** i for i in range(H.n)]
    src, dst = (sum((c - 1) * p for c, p in zip(col.colors, pows))
                for col in (sigma, tau))
    if src == dst:
        return 0
    through = _edges_through(H)
    # a neighbor differs from its parent by d = (x - c) * p in one digit,
    # and |d| lies in [p, (q - 1) * p], so d alone names the digit
    place: dict[int, tuple[int, int]] = {}
    for i, p in enumerate(pows):
        for step in range(1, q):
            place[step * p] = place[-step * p] = (p, i)
    # each side's goal digits: the search from sigma aims at tau
    aims = ([c - 1 for c in tau.colors], [c - 1 for c in sigma.colors])
    h = sum(a != b for a, b in zip(sigma.colors, tau.colors))
    depths = ({src: 0}, {dst: 0})
    heaps = ([(h, 0, src)], [(h, 0, dst)])  # (rank, -depth, code)
    best = inf
    while heaps[0] and heaps[1]:
        if best <= max(heaps[0][0][0], heaps[1][0][0]):
            return best
        side = len(heaps[1]) < len(heaps[0])
        heap, mine, theirs, aim = heaps[side], depths[side], depths[not side], aims[side]
        rank, depth, code = heappop(heap)
        depth = -depth
        if depth > mine[code]:
            continue  # superseded by a shorter route found since
        h = rank - depth
        depth += 1
        for nb in _proper_neighbors(code, through, pows, q):
            if mine.get(nb, depth + 1) <= depth:
                continue
            mine[nb] = depth
            p, i = place[nb - code]
            t = aim[i]
            heappush(heap, (depth + h + (nb // p % q != t) - (code // p % q != t),
                            -depth, nb))
            there = theirs.get(nb)
            if there is not None and depth + there < best:
                best = depth + there
    # a side ran dry, which the stopping rule forestalls once the sides meet
    return None
