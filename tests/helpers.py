"""Independent brute-force oracles and generators shared by the tests.

Everything here is deliberately naive: subset scans and definition-level
checks that cannot share a bug with the library's incremental algorithms.
"""

import heapq
import itertools
import random
from bisect import bisect_left
from collections import Counter, deque
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence, Union

from recolor import (
    Coloring,
    Hypergraph,
    blocked_colors,
    coloring_to_text,
    generate_hnm,
    hypergraph_to_text,
    is_proper,
)
from recolor import gamma_oracle, reconfig
from recolor.core_peel import PeelResult, _active_set, beta_core
from recolor.gamma_oracle import _proper_codes
from recolor.errors import (
    InstanceTooLargeError,
    SpareColorError,
    StepCapExceededError,
    ValidationError,
)
from recolor.hypergraph import _MAX_VERTICES, _excerpt
from recolor.independence import ColorabilityWitness, MISequence
from recolor.seeding import derive_seed


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


# recolor.core_peel._first_fit_along as it stood before the region rewriter
# made the bridge's first-fit picks itself (a target of 0). Kept verbatim,
# but for its name, as the differential oracle of those picks.
def first_fit_along_reference(H: Hypergraph, order: Sequence[int],
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


def color_coreless(H, beta, active, palette):
    """First-fit color a coreless ``active`` set along its peel order."""
    peel = beta_core(H, beta, active)
    assert not peel.core, f"{len(peel.core)}-vertex {beta}-core present"
    return first_fit_along_reference(H, peel.order, palette)


def write_hypergraph(H, path):
    with open(path, "w") as fh:
        fh.write(hypergraph_to_text(H))


def write_coloring(coloring, path):
    with open(path, "w") as fh:
        fh.write(coloring_to_text(coloring))


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


# The region rewriter as it stood before its per-edge live levels and running
# color table: liveness by a per-level superset test against a set of placed
# vertices, moves in dicts of label and color lists, and one bisect for every
# color a test reads. Near-linear like its replacement, so it can check
# recolor.reconfig._core_steps at sizes where core_steps_reference is too slow.
def core_steps_bisect_reference(H, order, chi, tau, spare_pool, cap, stats):
    """Steps rewriting the peel-ordered region ``order`` from chi to tau.

    Level i replays the moves built for the first i vertices of the order
    with vnew = order[i] now live; any replayed move blocked by an edge
    through vnew gets a detour that parks vnew on a spare color first, and
    the level ends by painting vnew its target color. Peeling guarantees a
    spare exists: at most beta-1 live edges meet vnew inside the level,
    while the pool holds beta+1 colors none of which appear outside the
    region.

    Liveness: an edge through vnew is live at level i iff each of its
    members is placed (at or before vnew in the order) or sits off the
    order wearing a palette color: a spare, or the target of a vertex on
    the order. That is exact: every color a move is checked against is in
    the palette (detours take spares, final moves take targets), and a
    vertex off the order never moves, so no other edge can ever turn
    monochromatic. Edges through off-order vertices cannot all be dropped:
    ``path_core``'s outside wears colors up to alpha, which the targets may
    reuse.

    Invariant: every move was checked, when it was made, against every live
    edge through its own vertex, and a detour changes only vnew's color. An
    edge avoiding vnew is live at level i only if it was live at level i-1,
    and it sees the same colors at every replayed move as it did then, so it
    never blocks a replay. Level i therefore looks only at the moves of
    vertices that share a live edge with vnew, and only while vnew wears the
    move's color.

    Moves carry position labels that never need renumbering: the final move
    of level i is ``(i, R)`` with ``R = len(order)``, and a detour inserted
    at level j in front of the move ``P + (R,)`` is ``P + (j, R)``. Each
    vertex moves only at its own level, so its labels and colors form a list
    that grows at the end in path order, and "the color of u just before
    move t" is one bisect.

    Cost: level i is one pass over the edges through vnew. It keeps each
    live one as the list of vnew's co-members and gathers those vertices'
    moves; a vertex on two live edges lists its moves twice, and the walk
    over the sorted moves skips the repeat. Only the moves in the color vnew
    wears are bisected against the live edges, and the labels are sorted once
    at the end. A level thus touches the deg(vnew) edges through vnew and
    the moves of its co-members on the live ones, so the rewrite stays
    near-linear in the path length, where replaying every move at every
    level was O(levels x moves). Level i raises the step-cap error when the
    moves it replays plus its detours exceed the cap, where a full replay
    checking the cap after every move would. chi is not mutated.
    """
    edges = H.edges
    inc = H.incidence
    R = len(order)
    pool = tuple(spare_pool)
    palette = set(pool).union(tau[v] for v in order)
    near = set(chain.from_iterable([edges[ei] for v in order
                                    for ei in inc[v - 1]]))
    # the vertices a live edge may hold; vnew joins them at its level
    placed = {u for u in near.difference(order) if chi[u] in palette}
    labels = {v: [] for v in order}
    colors = {v: [] for v in order}
    end = (R,)                  # sorts after every label

    def color_at(u, t):
        lab = labels.get(u)
        if lab:
            j = bisect_left(lab, t)
            if j:
                return colors[u][j - 1]
        return chi[u]

    def mono(live, t, c):
        # a live edge through vnew whose other vertices wear c before t
        for e in live:
            for u in e:
                if color_at(u, t) != c:
                    break
            else:
                return True
        return False

    total = 0
    for i, vnew in enumerate(order):
        placed.add(vnew)
        # live edges through vnew, each as vnew's co-members, and the moves
        # of those co-members as (label, vertex, color)
        live = []
        cand = []
        for ei in inc[vnew - 1]:
            e = edges[ei]
            if placed.issuperset(e):
                e = list(e)
                e.remove(vnew)
                live.append(e)
                for u in e:
                    lab = labels.get(u)
                    if lab:
                        cand.extend(zip(lab, repeat(u), colors[u]))
        cand.sort()
        cv = chi[vnew]
        detours = 0
        prev = None
        for t, w, c in cand:
            # a vertex on two live edges lists its moves twice, and the
            # repeat sorts right after the first
            if c != cv or t == prev:
                continue
            prev = t
            for e in live:
                if w in e:
                    for u in e:
                        if u != w:
                            lab = labels.get(u)
                            j = bisect_left(lab, t) if lab else 0
                            if (colors[u][j - 1] if j else chi[u]) != c:
                                break
                    else:
                        break       # e goes monochromatic when w moves
            else:
                continue
            for s in pool:
                if s != c and not mono(live, t, s):
                    break
            else:
                # the old full replay checked the cap after every move, so
                # it fires first if the moves ahead of t already overflow
                pos = sum(bisect_left(lab, t) for lab in labels.values())
                pos -= detours
                if pos and pos + detours > cap:
                    raise StepCapExceededError(
                        f"level {i} outgrew the step cap", cap=cap)
                raise SpareColorError(
                    f"no spare color for vertex {vnew} at level {i}")
            labels[vnew].append(t[:-1] + (i, R))
            colors[vnew].append(s)
            cv = s
            detours += 1
        if total and total + detours > cap:
            raise StepCapExceededError(
                f"level {i} outgrew the step cap", cap=cap)
        total += detours
        if cv != tau[vnew]:
            if mono(live, end, tau[vnew]):
                raise ValidationError(
                    f"target color of vertex {vnew} is blocked at its own "
                    "level; the target coloring is not proper here")
            labels[vnew].append((i, R))
            colors[vnew].append(tau[vnew])
            total += 1
        stats.detours_per_level.append(detours)
        stats.detour_moves += detours
    moves = sorted((t, v, c) for v in order
                   for t, c in zip(labels[v], colors[v]))
    stats.core_moves += len(moves)
    return [(v, c) for _, v, c in moves]



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


# The meet-in-the-middle BFS recolor.gamma_oracle.gamma_distance ran before
# its bidirectional A*, kept verbatim as a second differential oracle and as
# the work baseline. It looks the neighbor kernel up on the module at each
# call, so a test that wraps gamma_oracle._proper_neighbors counts its
# expansions too.
def gamma_distance_mitm_reference(H, q, sigma, tau):
    """Recoloring distance by one BFS from each end, one whole level of the
    smaller frontier at a time, or None when the ends never meet."""
    pows = [q ** i for i in range(H.n)]
    src, dst = (sum((c - 1) * p for c, p in zip(col.colors, pows))
                for col in (sigma, tau))
    if src == dst:
        return 0
    through = gamma_oracle._edges_through(H)
    seen = [{src}, {dst}]
    frontiers = [[src], [dst]]
    d = 0
    while frontiers[0] and frontiers[1]:
        d += 1
        side = len(frontiers[1]) < len(frontiers[0])
        near, far = seen[side], seen[not side]
        nxt: list[int] = []
        for code in frontiers[side]:
            nbrs = gamma_oracle._proper_neighbors(code, through, pows, q)
            if not far.isdisjoint(nbrs):
                return d
            hits = set(nbrs)
            hits -= near
            near |= hits
            nxt.extend(hits)
        frontiers[side] = nxt
    return None


# The neighbor list recolor.gamma_oracle filtered against the set of every
# proper code before it generated proper neighbors directly. Kept verbatim as
# the differential oracle for recolor.gamma_oracle._proper_neighbors.
def _neighbors(code: int, pows: list[int], q: int) -> list[int]:
    """The n*(q-1) codes one recoloring away from ``code``."""
    out: list[int] = []
    for p in pows:
        base = code - code // p % q * p
        out.extend(range(base, code, p))
        out.extend(range(code + p, base + q * p, p))
    return out


def proper_neighbors_reference(proper, code, pows, q):
    """The codes one recoloring away from ``code`` that lie in ``proper``,
    sorted."""
    return sorted(nb for nb in _neighbors(code, pows, q) if nb in proper)


# The census kernel of recolor.gamma_oracle as it stood before it worked up
# to color permutation: union-find over every proper code, n grouping passes
# of digit-erased codes, and a diameter BFS from every node of the first
# largest component. Kept verbatim as the differential oracle for
# gamma_stats; the enumerator is the library's own, and the neighbor list is
# the one above.
def _component_roots(codes, pows, q):
    """Union-find over the digit-erased groups: entry j is the least index
    of the component holding codes[j]."""
    parent = list(range(len(codes)))  # invariant: parent[j] <= j
    for p in pows:
        first = {}
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


def _every_source_diameter(comp, pows, q):
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


def gamma_stats_union_find(H, q, compute_diameter=True):
    """(num_colorings, num_components, component_sizes, diameter, connected)
    by union-find over every proper coloring."""
    pows = [q ** i for i in range(H.n)]
    codes = list(_proper_codes(H, q))
    roots = _component_roots(codes, pows, q)
    size = Counter(roots)  # keyed by least index, inserted in ascending order
    diameter = None
    if compute_diameter and codes:
        largest = max(size, key=size.__getitem__)  # the first of the largest
        diameter = _every_source_diameter(
            [code for code, r in zip(codes, roots) if r == largest], pows, q)
    return (len(codes), len(size), tuple(sorted(size.values())), diameter,
            len(size) <= 1)


# recolor.reconfig.connect as it stood before it composed the phase builders
# itself: it went through the public path_to_good_greedy (twice) and
# path_between_good_greedy, each re-validating its inputs and assembling a
# RecolorPath of its own. Kept verbatim as the differential oracle for
# connect; only the step cap now reaches _validate_params, and steps are
# read as the (vertex, new_color) pairs that RecolorPath.steps now holds.
def _reversed_steps_reference(path):
    """The same walk backwards: each move undone with the color it clobbered."""
    cur = [0] + list(path.start.colors)
    olds = []
    for v, c in path.steps:
        olds.append(cur[v])
        cur[v] = c
    return [(v, old)
            for (v, _), old in zip(reversed(path.steps), reversed(olds))]


def connect_reference(H, chi1, chi2, q, alpha, beta,
                      step_cap=reconfig.DEFAULT_STEP_CAP):
    """Full path between two arbitrary proper colorings, the old way."""
    reconfig._validate_params(alpha, beta, q, step_cap)
    reconfig._colors_list(chi1, q)
    reconfig._colors_list(chi2, q)
    if not is_proper(H, chi1):
        raise ValidationError("first coloring is not proper")
    if not is_proper(H, chi2):
        raise ValidationError("second coloring is not proper")
    if chi1.colors == chi2.colors:
        return reconfig.RecolorPath(chi1, (), chi1, reconfig.PathStats())
    p1, shaped1 = reconfig.path_to_good_greedy(H, chi1, q, alpha, beta,
                                               step_cap)
    p2, shaped2 = reconfig.path_to_good_greedy(H, chi2, q, alpha, beta,
                                               step_cap)
    mid = reconfig.path_between_good_greedy(H, shaped1, shaped2, q, alpha,
                                            beta, step_cap)
    steps = list(p1.steps) + list(mid.steps)
    steps += _reversed_steps_reference(p2)
    if len(steps) > step_cap:
        raise StepCapExceededError("composed path outgrew the step cap",
                                   cap=step_cap)
    stats = reconfig.PathStats()
    stats.absorb(p1.stats)
    stats.absorb(mid.stats)
    stats.absorb(p2.stats)
    return reconfig._assemble(chi1, steps, stats, step_cap)


# recolor.core_peel.beta_core as it stood before its peel was shared and
# then folded back, kept verbatim as the differential oracle for beta_core.
def beta_core_reference(H, beta, active=None):
    """Peel ``active`` down to its beta-core, smallest eligible id first."""
    if beta < 1:
        raise ValidationError(f"beta must be at least 1, got {beta}")
    act = _active_set(H, active)
    is_active = [False] * (H.n + 1)
    for v in act:
        is_active[v] = True
    # live member count per edge; an edge contributes to inside-degrees only
    # while all k of its vertices are active
    live = [0] * H.m
    for idx, e in enumerate(H.edges):
        live[idx] = sum(1 for u in e if is_active[u])
    deg = [0] * (H.n + 1)
    for idx, e in enumerate(H.edges):
        if live[idx] == H.k:
            for u in e:
                deg[u] += 1
    heap = [v for v in sorted(act) if deg[v] < beta]
    heapq.heapify(heap)
    removed = [False] * (H.n + 1)
    removal = []
    while heap:
        v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        removal.append(v)
        for ei in H.incidence[v - 1]:
            if live[ei] == H.k:
                # this edge just lost its first vertex
                for u in H.edges[ei]:
                    if u != v and is_active[u] and not removed[u]:
                        deg[u] -= 1
                        if deg[u] == beta - 1:
                            heapq.heappush(heap, u)
            live[ei] -= 1
    core = frozenset(v for v in act if not removed[v])
    return PeelResult(core=core, order=tuple(reversed(removal)))


# recolor.reconfig.verify_path and recolor.cli._parse_trace as they stood
# before the replay kernel was inlined and the trace parser read each line
# with map(int, ...). Kept verbatim, but for the module prefix on
# PathVerdict, as differential oracles. edge_flags_reference is the edge
# filter the rewriter's callers once applied (edges inside the phase's
# active set); it feeds core_steps_reference in the regions differential.
def verify_path_reference(H, path, q):
    """Replay a path cold and report the first violation, if any."""
    cols = list(path.start.colors)
    if len(cols) != H.n:
        return reconfig.PathVerdict(False, None, None, "start-length-mismatch")
    if any(c > q for c in cols):
        return reconfig.PathVerdict(False, None, None,
                                    "start-color-out-of-range")
    if not is_proper(H, path.start):
        return reconfig.PathVerdict(False, None, None, "improper-start")
    cur = [0] + cols
    for idx, (v, c) in enumerate(path.steps):
        if not 1 <= v <= H.n:
            return reconfig.PathVerdict(False, None, idx,
                                        "vertex-out-of-range")
        if not 1 <= c <= q:
            return reconfig.PathVerdict(False, None, idx, "color-out-of-range")
        if cur[v] == c:
            return reconfig.PathVerdict(False, None, idx, "hamming-step")
        cur[v] = c
        for ei in H.incidence[v - 1]:
            if all(cur[u] == c for u in H.edges[ei]):
                return reconfig.PathVerdict(False, None, idx,
                                            "improper-intermediate")
    return reconfig.PathVerdict(True, Coloring(tuple(cur[1:])), None, None)


def parse_trace_reference(path_file):
    """(vertex, old_color, new_color) rows of a trace file, in order."""
    steps = []
    with open(path_file) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line == "index,vertex,old_color,new_color":
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 4:
                raise ValidationError(f"bad trace line {_excerpt(raw)}")
            try:
                idx, v, old, new = (int(x) for x in parts)
            except ValueError as exc:
                raise ValidationError(f"bad trace line {_excerpt(raw)}") from exc
            if idx != len(steps):
                raise ValidationError(
                    f"trace index {_excerpt(idx)} out of order "
                    f"(expected {len(steps)})")
            steps.append((v, old, new))
    return steps


# recolor.cli._trace_text as it stood before the trace was written in chunks
# through a color table: one f-string per move, then one join. Kept
# verbatim, but for its name and the header literal, as the byte oracle of
# recolor.cli._trace_chunks.
def trace_text_reference(path, fmt: str) -> str:
    sep = "," if fmt == "csv" else " "
    cur = [0] + list(path.start.colors)
    rows = ["index,vertex,old_color,new_color"] if fmt == "csv" else []
    for i, (v, c) in enumerate(path.steps):
        rows.append(f"{i}{sep}{v}{sep}{cur[v]}{sep}{c}")
        cur[v] = c
    return "\n".join(rows) + "\n" if rows else ""


# recolor.hypergraph.hypergraph_from_text as it stood before canonical edge
# lines were read in bulk: one int parse per line, then the checking
# constructor. Kept verbatim, but for its name, as the differential oracle.
def hypergraph_from_text_reference(text: str) -> Hypergraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValidationError("empty hypergraph text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValidationError(f"header must be 'n k m', got {_excerpt(lines[0])}")
    try:
        n, k, m = map(int, head)
    except ValueError as exc:
        raise ValidationError(f"non-integer header {_excerpt(lines[0])}") from exc
    if len(lines) - 1 != m:
        raise ValidationError(
            f"header promises {_excerpt(m)} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            edges.append(tuple(map(int, ln.split())))
        except ValueError as exc:
            raise ValidationError(f"bad edge line {_excerpt(ln)}") from exc
    return Hypergraph(n, k, edges)


def edge_flags_reference(H, active):
    """Per-edge booleans: does the edge sit entirely inside ``active``?"""
    act = [False] * (H.n + 1)
    for v in active:
        act[v] = True
    return [all(act[u] for u in e) for e in H.edges]


# recolor.independence.ExactCertifier and is_alpha_beta_colorable_exact as
# they stood before the class was folded into one function with per-call
# memo tables, together with the mask tables they were built on. Kept
# verbatim, but for the function's name, as a differential oracle.
def _mask_tables(H: Hypergraph, verts: list[int]):
    """Bitmasks over ``verts`` (vertex i of the list is bit i): each vertex's
    bit, the mask of every edge inside ``verts``, and per vertex the masks
    of the other members of its edges there."""
    bit = {v: 1 << i for i, v in enumerate(verts)}
    edge_masks: list[int] = []
    rest_masks: dict[int, list[int]] = {v: [] for v in verts}
    for e in H.edges:
        if all(u in bit for u in e):
            mask = 0
            for u in e:
                mask |= bit[u]
            edge_masks.append(mask)
            for u in e:
                rest_masks[u].append(mask & ~bit[u])
    return bit, edge_masks, rest_masks


class ExactCertifier:
    """Exhaustive (alpha, beta)-colorability search over one instance.

    Enumeration state (maximal independent sets per residual, residual cores,
    safe residual/level pairs) is cached, so one certifier can answer many
    (alpha, beta) queries on the same hypergraph cheaply. Residuals are
    bitmasks over the active vertices.
    """

    def __init__(self, H: Hypergraph, active: Optional[Iterable[int]] = None,
                 max_size: int = 12):
        act = sorted(_active_set(H, active))
        if len(act) > max_size:
            raise InstanceTooLargeError(
                f"{len(act)} active vertices exceed the exhaustive cap of {max_size}")
        self.H = H
        self._verts = act
        self._bit, self._edge_masks, self._rest_masks = _mask_tables(H, act)
        self._full = (1 << len(act)) - 1
        self._mis_cache: dict[int, tuple[int, ...]] = {}
        self._core_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._safe: set[tuple[int, int, int]] = set()

    def _to_set(self, mask: int) -> frozenset[int]:
        return frozenset(v for v in self._verts if mask & self._bit[v])

    def _maximal_independent_sets(self, mask: int) -> tuple[int, ...]:
        cached = self._mis_cache.get(mask)
        if cached is not None:
            return cached
        edge_masks = self._edge_masks
        out = []
        sub = mask
        while True:
            independent = True
            for em in edge_masks:
                if em & sub == em:
                    independent = False
                    break
            if independent:
                maximal = True
                outside = mask & ~sub
                for v in self._verts:
                    bv = self._bit[v]
                    if outside & bv:
                        blocked = False
                        for rest in self._rest_masks[v]:
                            if rest & ~sub == 0:
                                blocked = True
                                break
                        if not blocked:
                            maximal = False
                            break
                if maximal:
                    out.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        result = tuple(out)
        self._mis_cache[mask] = result
        return result

    def _residual_core(self, mask: int, beta: int) -> frozenset[int]:
        key = (mask, beta)
        cached = self._core_cache.get(key)
        if cached is None:
            cached = beta_core(self.H, beta, self._to_set(mask)).core
            self._core_cache[key] = cached
        return cached

    def search(self, alpha: int, beta: int) -> Optional[ColorabilityWitness]:
        """Return a witness sequence, or None when the instance is colorable."""
        if alpha < 0 or beta < 1:
            raise ValidationError(f"need alpha >= 0 and beta >= 1, got ({alpha}, {beta})")
        prefix: list[frozenset[int]] = []

        def dfs(mask: int, levels: int) -> Optional[ColorabilityWitness]:
            if levels == 0:
                core = self._residual_core(mask, beta)
                if core:
                    return ColorabilityWitness(
                        MISequence(tuple(prefix), self._to_set(mask)), core)
                return None
            if mask == 0:
                # only empty sets can follow; an empty residual has no core
                return None
            key = (mask, levels, beta)
            if key in self._safe:
                return None
            for sub in self._maximal_independent_sets(mask):
                prefix.append(self._to_set(sub))
                found = dfs(mask & ~sub, levels - 1)
                if found is not None:
                    return found
                prefix.pop()
            self._safe.add(key)
            return None

        return dfs(self._full, alpha)


def exact_certifier_reference(
        H: Hypergraph, alpha: int, beta: int,
        active: Optional[Iterable[int]] = None,
        max_size: int = 12) -> Union[bool, ColorabilityWitness]:
    """Exhaustively certify colorability.

    Returns True when colorable, otherwise the refuting ColorabilityWitness;
    compare against True (``result is True``) rather than truthiness.
    """
    witness = ExactCertifier(H, active, max_size).search(alpha, beta)
    return True if witness is None else witness


# The k-set sampler as it stood before recolor.hypergraph._distinct_k_sets
# replayed random.Random.sample's draws on getrandbits: one sample call per
# k-set, yielded in draw order. Kept as the differential oracle for it.
def distinct_k_sets_reference(rng, n, k, m):
    pool = range(1, n + 1)
    seen = set()
    while len(seen) < m:
        e = tuple(sorted(rng.sample(pool, k)))
        if e not in seen:
            seen.add(e)
            yield e


# recolor.independence.extend_to_mis and greedy_sequence as they stood
# before greedy_sequence drew its levels through the unchecked kernel
# _grow_mis: every level went through the public, checking extend_to_mis.
# Kept verbatim, but for their names and the strategy check inlined, as the
# differential oracle.
def extend_to_mis_reference(H: Hypergraph, active: Optional[Iterable[int]] = None,
                            seed_set: Iterable[int] = (),
                            strategy: str = "ascending",
                            rng_seed: Optional[int] = None) -> frozenset[int]:
    if strategy not in ("ascending", "random"):
        raise ValidationError(
            f"unknown strategy {_excerpt(strategy)}; use 'ascending' or 'random'")
    if strategy == "random" and rng_seed is None:
        raise ValidationError("the seeded-random strategy requires rng_seed")
    act = _active_set(H, active)
    inc = H.incidence
    full = H.k - 1
    chosen: set[int] = set()
    cnt = [0] * H.m  # chosen members per edge

    for v in sorted(set(seed_set)):
        if v not in act:
            raise ValidationError(f"seed vertex {_excerpt(v)} is not active")
        for ei in inc[v - 1]:
            if cnt[ei] == full:
                raise ValidationError(
                    "seed set is not independent inside the active set")
        for ei in inc[v - 1]:
            cnt[ei] += 1
        chosen.add(v)
    rest = sorted(act - chosen)
    if strategy == "random":
        random.Random(rng_seed).shuffle(rest)
    for v in rest:
        for ei in inc[v - 1]:
            if cnt[ei] == full:
                break           # v would complete an edge
        else:
            for ei in inc[v - 1]:
                cnt[ei] += 1
            chosen.add(v)
    return frozenset(chosen)


def greedy_sequence_reference(H: Hypergraph, t: int, strategy: str = "ascending",
                              rng_seed: Optional[int] = None,
                              active: Optional[Iterable[int]] = None) -> MISequence:
    if t < 0:
        raise ValidationError(
            f"sequence length must be nonnegative, got {_excerpt(t)}")
    if t > _MAX_VERTICES:
        raise InstanceTooLargeError(
            f"sequence length {_excerpt(t)} exceeds the limit of {_MAX_VERTICES}")
    if strategy not in ("ascending", "random"):
        raise ValidationError(
            f"unknown strategy {_excerpt(strategy)}; use 'ascending' or 'random'")
    if strategy == "random" and rng_seed is None:
        raise ValidationError("the seeded-random strategy requires rng_seed")
    residual = set(_active_set(H, active))
    sets = []
    for level in range(t):
        if not residual:
            sets.extend(itertools.repeat(frozenset(), t - level))
            break
        seed = derive_seed(rng_seed, level) if strategy == "random" else None
        part = extend_to_mis_reference(H, residual, (), strategy, seed)
        sets.append(part)
        residual -= part
    return MISequence(sets=tuple(sets), residual=frozenset(residual))
