"""Independent brute-force oracles and generators shared by the tests.

Everything here is deliberately naive: subset scans and definition-level
checks that cannot share a bug with the library's incremental algorithms.
"""

import itertools
import random
from collections import deque

from recolor import Coloring, Hypergraph, blocked_colors, generate_hnm, is_proper
from recolor.errors import SpareColorError, StepCapExceededError, ValidationError


def subsets(vertices):
    vs = sorted(vertices)
    for r in range(len(vs) + 1):
        yield from itertools.combinations(vs, r)


def edges_inside(H, S):
    S = set(S)
    return [e for e in H.edges if set(e) <= S]


def core_bruteforce(H, beta, active=None):
    """Union of every vertex set in which each member has >= beta edges
    fully inside the set. Definition-level, exponential."""
    act = set(range(1, H.n + 1)) if active is None else set(active)
    best = set()
    for S in subsets(act):
        Sset = set(S)
        ok = True
        for v in S:
            deg = sum(1 for e in H.edges if v in e and set(e) <= Sset)
            if deg < beta:
                ok = False
                break
        if ok:
            best |= Sset
    return frozenset(best)


def is_independent_bruteforce(H, S):
    S = set(S)
    return not any(set(e) <= S for e in H.edges)


def all_maximal_independent_sets(H, active=None):
    """Every maximal independent subset of ``active``, by full subset scan."""
    act = set(range(1, H.n + 1)) if active is None else set(active)
    out = []
    for S in subsets(act):
        Sset = set(S)
        if not is_independent_bruteforce(H, Sset):
            continue
        maximal = True
        for v in act - Sset:
            if is_independent_bruteforce(H, Sset | {v}):
                maximal = False
                break
        if maximal:
            out.append(frozenset(Sset))
    return out


def max_independent_bruteforce(H):
    best = 0
    best_set = frozenset()
    for S in subsets(range(1, H.n + 1)):
        if len(S) > best and is_independent_bruteforce(H, S):
            best = len(S)
            best_set = frozenset(S)
    return best, best_set


def colorable_bruteforce(H, alpha, beta, active=None):
    """(alpha, beta)-colorability by trying every maximally independent
    sequence; True iff no sequence leaves a residual with a beta-core."""
    act = frozenset(range(1, H.n + 1)) if active is None else frozenset(active)

    def rec(residual, depth):
        if depth == alpha:
            return not core_bruteforce(H, beta, residual)
        if not residual:
            return True
        for part in all_maximal_independent_sets(H, residual):
            if not rec(residual - part, depth + 1):
                return False
        return True

    return rec(act, 0)


def random_proper_coloring(H, q, rng, tries=2000):
    """Greedy proper coloring with randomized color choices and vertex order."""
    for _ in range(tries):
        order = list(range(1, H.n + 1))
        rng.shuffle(order)
        assignment = {}
        stuck = False
        for v in order:
            open_colors = [c for c in range(1, q + 1)
                           if c not in blocked_colors(H, v, assignment)]
            if not open_colors:
                stuck = True
                break
            assignment[v] = rng.choice(open_colors)
        if not stuck:
            col = Coloring(tuple(assignment[v] for v in range(1, H.n + 1)))
            assert is_proper(H, col)
            return col
    raise RuntimeError(f"no proper {q}-coloring found in {tries} greedy tries")


def random_instance(rng, n_range=(2, 8), k_max=3, m_max=12):
    from math import comb

    n = rng.randint(*n_range)
    k = rng.randint(2, min(k_max, n))
    m = rng.randint(0, min(m_max, comb(n, k)))
    return generate_hnm(n, m, k, rng.getrandbits(48))


# The level-by-level region rewriter as it stood before the incremental
# builder replaced it in recolor.reconfig: every level replays the whole move
# list against a fresh copy of the coloring, O(levels x moves). Kept verbatim
# as the differential oracle for recolor.reconfig._core_steps.
def core_steps_reference(H, edge_ok, order, chi, tau, spare_pool, cap, stats):
    """Rewrite the peel-ordered region ``order`` from chi to tau in place.

    Level i replays the moves built for the first i vertices of the order
    with vertex order[i] now live; any replayed move blocked by an edge
    through the new vertex gets a detour that parks the new vertex on a
    spare color first. Peeling guarantees a spare exists: at most beta-1
    live edges meet the new vertex inside the level, while the pool holds
    beta+1 colors none of which appear outside the region.
    """
    edges = H.edges
    inc = H.incidence
    rank = {v: i for i, v in enumerate(order)}
    pool = tuple(spare_pool)
    steps = []
    for i, vnew in enumerate(order):
        cur = chi[:]

        def mono_edge(w, c):
            # edge through w that goes fully monochromatic in c, ignoring
            # inactive edges and vertices deeper than level i
            for ei in inc[w - 1]:
                if not edge_ok[ei]:
                    continue
                for u in edges[ei]:
                    if u != w and (rank.get(u, -1) > i or cur[u] != c):
                        break
                else:
                    return ei
            return -1

        out = []
        detours = 0
        for w, c in steps:
            ei = mono_edge(w, c)
            if ei >= 0:
                if vnew not in edges[ei] or cur[vnew] != c:
                    raise ValidationError(
                        "replayed move blocked by an edge avoiding the newly "
                        "activated vertex; region preconditions are violated")
                spare = 0
                for s in pool:
                    if s != c and mono_edge(vnew, s) < 0:
                        spare = s
                        break
                if not spare:
                    raise SpareColorError(
                        f"no spare color for vertex {vnew} at level {i}")
                out.append((vnew, spare))
                cur[vnew] = spare
                detours += 1
            out.append((w, c))
            cur[w] = c
            if len(out) > cap:
                raise StepCapExceededError(
                    f"level {i} outgrew the step cap", cap=cap)
        if cur[vnew] != tau[vnew]:
            if mono_edge(vnew, tau[vnew]) >= 0:
                raise ValidationError(
                    f"target color of vertex {vnew} is blocked at its own "
                    "level; the target coloring is not proper here")
            out.append((vnew, tau[vnew]))
            cur[vnew] = tau[vnew]
        steps = out
        stats.detours_per_level.append(detours)
        stats.detour_moves += detours
    stats.core_moves += len(steps)
    return steps


# The recoloring-graph oracle as it stood before recolor.gamma_oracle moved
# to one enumerator, union-find components and a shared neighbor list: a
# digit-probing BFS per component, per diameter source and per distance
# query. The three BFS are kept verbatim as the differential oracle for
# gamma_stats and gamma_distance; the proper colorings come from a plain
# filter over every q-coloring, in the same lexicographic order.
def _encode(tup, pows):
    code = 0
    for i, c in enumerate(tup):
        code += (c - 1) * pows[i]
    return code


def _proper_index(H, q):
    """Codes of the proper colorings in lexicographic order, and their index."""
    pows = [q ** i for i in range(H.n)]
    codes = []
    index = {}
    for tup in itertools.product(range(1, q + 1), repeat=H.n):
        if is_proper(H, Coloring(tup)):
            code = _encode(tup, pows)
            index[code] = len(codes)
            codes.append(code)
    return pows, codes, index


def _component_of(start, index, codes, seen, n, q, pows):
    """BFS over coloring codes; returns the component as a list of node indices."""
    comp = [start]
    seen[start] = 1
    queue = deque([start])
    while queue:
        ci = queue.popleft()
        code = codes[ci]
        rem = code
        for i in range(n):
            digit = rem % q
            rem //= q
            base = code - digit * pows[i]
            for d in range(q):
                if d == digit:
                    continue
                ni = index.get(base + d * pows[i])
                if ni is not None and not seen[ni]:
                    seen[ni] = 1
                    comp.append(ni)
                    queue.append(ni)
    return comp


def _diameter_of(comp, codes, index, n, q, pows):
    local = {ci: i for i, ci in enumerate(comp)}
    diameter = 0
    for src in comp:
        dist = [-1] * len(comp)
        dist[local[src]] = 0
        queue = deque([src])
        far = 0
        while queue:
            ci = queue.popleft()
            dci = dist[local[ci]]
            code = codes[ci]
            rem = code
            for i in range(n):
                digit = rem % q
                rem //= q
                base = code - digit * pows[i]
                for d in range(q):
                    if d == digit:
                        continue
                    ni = index.get(base + d * pows[i])
                    if ni is not None:
                        li = local.get(ni)
                        if li is not None and dist[li] < 0:
                            dist[li] = dci + 1
                            far = dci + 1
                            queue.append(ni)
        diameter = max(diameter, far)
    return diameter


def gamma_stats_reference(H, q, compute_diameter=True):
    """(num_colorings, num_components, component_sizes, diameter, connected)
    by BFS; the diameter is taken on the first largest component found."""
    pows, codes, index = _proper_index(H, q)
    total = len(codes)
    seen = bytearray(total)
    components = []
    for start in range(total):
        if not seen[start]:
            components.append(_component_of(start, index, codes, seen, H.n, q, pows))
    diameter = None
    if compute_diameter and total > 0:
        largest = max(components, key=len)
        diameter = _diameter_of(largest, codes, index, H.n, q, pows)
    return (total, len(components), tuple(sorted(len(c) for c in components)),
            diameter, len(components) <= 1)


def gamma_distance_reference(H, q, sigma, tau):
    """Recoloring distance by BFS from sigma, or None when tau is unreachable."""
    n = H.n
    pows, codes, index = _proper_index(H, q)
    src = _encode(sigma.colors, pows)
    dst = _encode(tau.colors, pows)
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        code = queue.popleft()
        dcode = dist[code]
        rem = code
        for i in range(n):
            digit = rem % q
            rem //= q
            base = code - digit * pows[i]
            for d in range(q):
                if d == digit:
                    continue
                nxt = base + d * pows[i]
                if nxt in index and nxt not in dist:
                    if nxt == dst:
                        return dcode + 1
                    dist[nxt] = dcode + 1
                    queue.append(nxt)
    return None
