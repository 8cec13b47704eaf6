"""Explicit recoloring paths between proper colorings.

A path is a sequence of single-vertex moves, each keeping the coloring
proper: ``RecolorPath.steps`` is a tuple of ``(vertex, new_color)`` int
pairs, the format every phase builder produces.
The builders here never search: every path comes out of a constructive
argument, so success is certified by construction and failure surfaces as
a structured exception (a colorability witness or a violated precondition).

Three builders layer on each other:

* ``path_core`` rewrites a coreless region, one peel level at a time.
* ``path_to_good_greedy`` walks any proper coloring into greedy shape.
* ``path_between_good_greedy`` joins two greedy-shaped colorings by
  freezing one color class per recursion level.

Each public builder validates once, then runs the unchecked phase builders;
``connect`` composes them into one path. ``verify_path`` re-checks any path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core_peel import _active_set, _first_fit_along, beta_core
from .errors import (
    NonemptyCoreError,
    NotColorableEvidence,
    SpareColorError,
    StepCapExceededError,
    ValidationError,
)
from .hypergraph import Coloring, Hypergraph, is_proper
from .independence import (
    ColorabilityWitness,
    MISequence,
    check_good_greedy,
    extend_to_mis,
)

__all__ = [
    "DEFAULT_STEP_CAP",
    "PathStats",
    "RecolorPath",
    "PathVerdict",
    "path_core",
    "path_to_good_greedy",
    "path_between_good_greedy",
    "connect",
    "verify_path",
]

DEFAULT_STEP_CAP = 10 ** 7


@dataclass
class PathStats:
    """Move counts by construction phase, accumulated while building."""

    inter_moves: int = 0
    core_moves: int = 0
    detour_moves: int = 0
    final_moves: int = 0
    final_depth: int = 0
    max_inter_recolors: int = 0
    detours_per_level: list = field(default_factory=list)

    def absorb(self, other: "PathStats") -> None:
        self.inter_moves += other.inter_moves
        self.core_moves += other.core_moves
        self.detour_moves += other.detour_moves
        self.final_moves += other.final_moves
        self.final_depth = max(self.final_depth, other.final_depth)
        self.max_inter_recolors = max(self.max_inter_recolors,
                                      other.max_inter_recolors)
        self.detours_per_level.extend(other.detours_per_level)


@dataclass(frozen=True)
class RecolorPath:
    start: Coloring
    steps: tuple                # (vertex, new_color) int pairs, in order
    end: Coloring
    stats: PathStats

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class PathVerdict:
    """Outcome of an independent replay of a path."""

    ok: bool
    end: Optional[Coloring]
    failure_index: Optional[int]
    reason: Optional[str]


def _validate_params(alpha: int, beta: int, q: int, cap: int) -> None:
    if alpha < 0 or beta < 1:
        raise ValidationError(f"need alpha >= 0 and beta >= 1, got ({alpha}, {beta})")
    if q < alpha + beta + 1:
        raise ValidationError(
            f"need q >= alpha + beta + 1 = {alpha + beta + 1}, got q={q}")
    if cap < 0:
        raise ValidationError(f"step cap must be nonnegative, got {cap}")


def _colors_list(H: Hypergraph, coloring: Coloring, q: int) -> list:
    """1-indexed mutable copy of a coloring, range-checked against q."""
    if len(coloring) != H.n:
        raise ValidationError("coloring length does not match the vertex count")
    if any(c > q for c in coloring.colors):
        raise ValidationError(f"coloring uses a color above q={q}")
    return [0] + list(coloring.colors)


def _edge_flags(H: Hypergraph, active: frozenset) -> list:
    """Per-edge booleans: does the edge sit entirely inside ``active``?"""
    act = [False] * (H.n + 1)
    for v in active:
        act[v] = True
    return [all(act[u] for u in e) for e in H.edges]


def _core_steps(H, edge_ok, order, chi, tau, spare_pool, cap, stats):
    """Steps rewriting the peel-ordered region ``order`` from chi to tau.

    Level i replays the moves built for the first i vertices of the order
    with vnew = order[i] now live; any replayed move blocked by an edge
    through vnew gets a detour that parks vnew on a spare color first, and
    the level ends by painting vnew its target color. Peeling guarantees a
    spare exists: at most beta-1 live edges meet vnew inside the level,
    while the pool holds beta+1 colors none of which appear outside the
    region.

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

    Cost: level i sorts the moves of vnew's live neighbors and bisects for
    the ones vnew meets; the labels are sorted once at the end. That is
    near-linear in the path length, where replaying every move at every
    level was O(levels x moves). Level i raises the step-cap error when the
    moves it replays plus its detours exceed the cap, where a full replay
    checking the cap after every move would. chi is not mutated.
    """
    edges = H.edges
    inc = H.incidence
    R = len(order)
    rank = {v: i for i, v in enumerate(order)}
    pool = tuple(spare_pool)
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

    total = 0
    for i, vnew in enumerate(order):
        # edges through vnew that are live at this level
        live = [edges[ei] for ei in inc[vnew - 1]
                if edge_ok[ei] and all(rank.get(u, -1) <= i for u in edges[ei])]

        def mono(t, c):
            # a live edge through vnew whose other vertices wear c before t
            return any(all(u == vnew or color_at(u, t) == c for u in e)
                       for e in live)

        nbrs = {u for e in live for u in e if u != vnew}
        cand = sorted((t, w, c) for w in nbrs if labels.get(w)
                      for t, c in zip(labels[w], colors[w]))
        cv = chi[vnew]
        detours = 0
        for t, w, c in cand:
            if c != cv:
                continue
            if not any(w in e and all(u in (w, vnew) or color_at(u, t) == c
                                      for u in e)
                       for e in live):
                continue
            for s in pool:
                if s != c and not mono(t, s):
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
            if mono(end, tau[vnew]):
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


def _inter_steps(H, active, chi, q, a, beta, floor, cap, stats):
    """Walk ``chi`` restricted to ``active`` into greedy shape above ``floor``.

    Builds a maximally independent classes on colors floor+1..floor+a,
    seeding each from chi's own class so no vertex moves more than once,
    then recolors the leftover onto at most beta colors along a peel order.
    Returns (steps, new colors). Raises NotColorableEvidence with the class
    sequence and core when the leftover cannot be peeled.
    """
    cur = chi[:]
    steps = []
    residual = set(active)
    classes = []
    recolors = 0
    for level in range(1, a + 1):
        color = floor + level
        if residual:
            seed = frozenset(v for v in residual if chi[v] == color)
            part = extend_to_mis(H, residual, seed_set=seed)
        else:
            part = frozenset()
        classes.append(part)
        for v in sorted(part):
            if cur[v] != color:
                steps.append((v, color))
                cur[v] = color
                recolors = max(recolors, 1)
        residual -= part
    stats.inter_moves += len(steps)
    stats.max_inter_recolors = max(stats.max_inter_recolors, recolors)
    if len(steps) > cap:
        raise StepCapExceededError("class phase outgrew the step cap", cap=cap)
    W = frozenset(residual)
    peel = beta_core(H, beta, W)
    if peel.core:
        raise NotColorableEvidence(ColorabilityWitness(
            MISequence(tuple(classes), W), frozenset(peel.core)))
    if W:
        wcolors = {cur[v] for v in W}
        if min(wcolors) <= floor + a or len(wcolors) > beta:
            # leftover colors are untidy: first-fit them onto the beta-block
            # just above the classes, walking there along the peel order
            target = _first_fit_along(
                H, peel.order, range(floor + a + 1, floor + a + beta + 1))
            tau = cur[:]
            for v, c in target.items():
                tau[v] = c
            edge_ok = _edge_flags(H, active)
            bridge = _core_steps(H, edge_ok, peel.order, cur, tau,
                                 range(floor + a + 1, floor + a + beta + 2),
                                 cap, stats)
            for v, c in bridge:
                steps.append((v, c))
                cur[v] = c
            if len(steps) > cap:
                raise StepCapExceededError(
                    "bridge phase outgrew the step cap", cap=cap)
    return steps, cur


def _final_steps(H, active, chi, tau, q, a, beta, floor, depth, cap, stats):
    """Steps from chi to tau on ``active``, both greedy-shaped above ``floor``.

    Peels one class per level: park chi's copy of color floor+1 on an unused
    color, paint tau's class floor+1 into place, then freeze that class and
    recurse on the rest with one fewer greedy level. The base case hands the
    (coreless, since tau is greedy-shaped) remainder to the region rewriter.
    """
    if all(chi[v] == tau[v] for v in active):
        return []
    stats.final_depth = max(stats.final_depth, depth)
    if a == 0:
        peel = beta_core(H, beta, active)
        if peel.core:
            raise ValidationError(
                "residual keeps a core; the endpoints were not greedy-shaped")
        edge_ok = _edge_flags(H, active)
        return _core_steps(H, edge_ok, peel.order, chi, tau,
                           range(floor + 1, floor + beta + 2), cap, stats)
    cls = floor + 1
    cur = chi[:]
    out = []
    tau_class = sorted(v for v in active if tau[v] == cls)
    chi_class = sorted(v for v in active if cur[v] == cls)
    if chi_class == tau_class:
        chi_class = []          # class already in place, park nothing
    if chi_class:
        used = {cur[v] for v in active}
        park = 0
        for cand in range(floor + 1, q + 1):
            if cand not in used:
                park = cand
                break
        if not park:
            # a+beta distinct colors live above floor at most, and
            # q - floor >= a + beta + 1, so this cannot trigger
            raise ValidationError("no unused color above the floor")
        for v in chi_class:
            out.append((v, park))
            cur[v] = park
    for v in tau_class:
        if cur[v] != cls:
            out.append((v, cls))
            cur[v] = cls
    stats.final_moves += len(out)
    if len(out) > cap:
        raise StepCapExceededError("class swap outgrew the step cap", cap=cap)
    sub_active = frozenset(active) - frozenset(tau_class)
    try:
        mid, shaped = _inter_steps(H, sub_active, cur, q, a - 1, beta,
                                   floor + 1, cap, stats)
        out.extend(mid)
        out.extend(_final_steps(H, sub_active, shaped, tau, q, a - 1, beta,
                                floor + 1, depth + 1, cap, stats))
    except NotColorableEvidence as exc:
        w = exc.witness
        lifted = ColorabilityWitness(
            MISequence((frozenset(tau_class),) + w.sequence.sets,
                       w.sequence.residual),
            w.core_vertices)
        raise NotColorableEvidence(lifted) from None
    if len(out) > cap:
        raise StepCapExceededError("recursion outgrew the step cap", cap=cap)
    return out


def _assemble(H, start, steps, stats):
    cur = [0] + list(start.colors)
    for v, c in steps:
        cur[v] = c
    return RecolorPath(start=start, steps=tuple(steps),
                       end=Coloring(tuple(cur[1:])), stats=stats)


def path_core(H: Hypergraph, region: Iterable[int], chi: Coloring,
              tau: Coloring, alpha: int, beta: int, q: int,
              step_cap: int = DEFAULT_STEP_CAP) -> RecolorPath:
    """Path from chi to tau when they differ only on a coreless region.

    Preconditions enforced: both colorings proper with colors in [q], equal
    off the region, colors off the region within 1..alpha, tau bringing at
    most beta colors onto the region beyond those used outside, and the
    region free of a beta-core. Needs q >= alpha + beta + 1.
    """
    _validate_params(alpha, beta, q, step_cap)
    W = frozenset(_active_set(H, region))
    chi_l = _colors_list(H, chi, q)
    tau_l = _colors_list(H, tau, q)
    if not is_proper(H, chi):
        raise ValidationError("start coloring is not proper")
    if not is_proper(H, tau):
        raise ValidationError("target coloring is not proper")
    outside_colors = set()
    for v in range(1, H.n + 1):
        if v in W:
            continue
        if chi_l[v] != tau_l[v]:
            raise ValidationError(
                f"colorings disagree at vertex {v} outside the region")
        if chi_l[v] > alpha:
            raise ValidationError(
                f"vertex {v} outside the region wears color {chi_l[v]} > alpha")
        outside_colors.add(chi_l[v])
    fresh = {tau_l[v] for v in W} - outside_colors
    if len(fresh) > beta:
        raise ValidationError(
            f"target brings {len(fresh)} new colors onto the region, "
            f"more than beta={beta}")
    peel = beta_core(H, beta, W)
    if peel.core:
        raise NonemptyCoreError(
            f"region keeps a {beta}-core of {len(peel.core)} vertices",
            core=peel.core)
    stats = PathStats()
    edge_ok = [True] * H.m
    steps = _core_steps(H, edge_ok, peel.order, chi_l, tau_l,
                        range(alpha + 1, alpha + beta + 2), step_cap, stats)
    return _assemble(H, chi, steps, stats)


def path_to_good_greedy(H: Hypergraph, chi: Coloring, q: int, alpha: int,
                        beta: int, step_cap: int = DEFAULT_STEP_CAP):
    """Walk a proper coloring into greedy shape; returns (path, end coloring).

    Raises NotColorableEvidence carrying the maximally independent class
    sequence and the stuck core when the instance is not (alpha, beta)-
    colorable along the constructed sequence.
    """
    _validate_params(alpha, beta, q, step_cap)
    chi_l = _colors_list(H, chi, q)
    if not is_proper(H, chi):
        raise ValidationError("start coloring is not proper")
    stats = PathStats()
    active = frozenset(range(1, H.n + 1))
    steps, _ = _inter_steps(H, active, chi_l, q, alpha, beta, 0,
                            step_cap, stats)
    path = _assemble(H, chi, steps, stats)
    return path, path.end


def path_between_good_greedy(H: Hypergraph, chi: Coloring, tau: Coloring,
                             q: int, alpha: int, beta: int,
                             step_cap: int = DEFAULT_STEP_CAP) -> RecolorPath:
    """Path between two greedy-shaped colorings of the same instance."""
    _validate_params(alpha, beta, q, step_cap)
    chi_l = _colors_list(H, chi, q)
    tau_l = _colors_list(H, tau, q)
    if not check_good_greedy(H, chi, alpha, beta):
        raise ValidationError("start coloring is not greedy-shaped")
    if not check_good_greedy(H, tau, alpha, beta):
        raise ValidationError("target coloring is not greedy-shaped")
    stats = PathStats()
    active = frozenset(range(1, H.n + 1))
    steps = _final_steps(H, active, chi_l, tau_l, q, alpha, beta, 0, 1,
                         step_cap, stats)
    return _assemble(H, chi, steps, stats)


def _reversed_steps(start: list, steps: list) -> list:
    """``steps`` run backwards to ``start``, each with the color it replaced."""
    cur = start[:]
    back = []
    for v, c in steps:
        back.append((v, cur[v]))
        cur[v] = c
    return back[::-1]


def connect(H: Hypergraph, chi1: Coloring, chi2: Coloring, q: int, alpha: int,
            beta: int, step_cap: int = DEFAULT_STEP_CAP) -> RecolorPath:
    """Full path between two arbitrary proper colorings.

    Route: chi1 -> greedy shape, greedy -> greedy, then the second walk
    reversed back down to chi2. Validates once, then composes the phase
    builders (their shapes are greedy by construction) into one path. Raises
    NotColorableEvidence if any stage exposes non-(alpha, beta)-colorability.
    """
    _validate_params(alpha, beta, q, step_cap)
    chi1_l = _colors_list(H, chi1, q)
    chi2_l = _colors_list(H, chi2, q)
    if not is_proper(H, chi1):
        raise ValidationError("first coloring is not proper")
    if not is_proper(H, chi2):
        raise ValidationError("second coloring is not proper")
    if chi1.colors == chi2.colors:
        return RecolorPath(chi1, (), chi1, PathStats())
    active = frozenset(range(1, H.n + 1))
    # stats in path order: the first walk and the middle share one, then p2's
    stats, stats2 = PathStats(), PathStats()
    steps, shaped1 = _inter_steps(H, active, chi1_l, q, alpha, beta, 0,
                                  step_cap, stats)
    steps2, shaped2 = _inter_steps(H, active, chi2_l, q, alpha, beta, 0,
                                   step_cap, stats2)
    steps += _final_steps(H, active, shaped1, shaped2, q, alpha, beta, 0, 1,
                          step_cap, stats)
    steps += _reversed_steps(chi2_l, steps2)
    if len(steps) > step_cap:
        raise StepCapExceededError("composed path outgrew the step cap",
                                   cap=step_cap)
    stats.absorb(stats2)
    return _assemble(H, chi1, steps, stats)


def verify_path(H: Hypergraph, path: RecolorPath, q: int) -> PathVerdict:
    """Replay a path cold and report the first violation, if any.

    Checks the start is proper in [q], every step changes exactly one vertex
    to a different in-range color, and properness holds after each move.
    """
    cols = list(path.start.colors)
    if len(cols) != H.n:
        return PathVerdict(False, None, None, "start-length-mismatch")
    if any(c > q for c in cols):
        return PathVerdict(False, None, None, "start-color-out-of-range")
    if not is_proper(H, path.start):
        return PathVerdict(False, None, None, "improper-start")
    cur = [0] + cols
    for idx, (v, c) in enumerate(path.steps):
        if not 1 <= v <= H.n:
            return PathVerdict(False, None, idx, "vertex-out-of-range")
        if not 1 <= c <= q:
            return PathVerdict(False, None, idx, "color-out-of-range")
        if cur[v] == c:
            return PathVerdict(False, None, idx, "hamming-step")
        cur[v] = c
        for ei in H.incidence[v - 1]:
            if all(cur[u] == c for u in H.edges[ei]):
                return PathVerdict(False, None, idx, "improper-intermediate")
    return PathVerdict(True, Coloring(tuple(cur[1:])), None, None)
