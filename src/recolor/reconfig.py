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
  freezing one color class per level.

Each public builder validates once, then runs the unchecked phase builders;
``connect`` composes them into one path. ``verify_path`` re-checks any path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Optional

from .core_peel import _active_set, beta_core
from .errors import (
    NonemptyCoreError,
    NotColorableEvidence,
    SpareColorError,
    StepCapExceededError,
    ValidationError,
)
from .hypergraph import (Coloring, Hypergraph, _check_alpha_beta, _check_int,
                         _check_palette, _excerpt, is_proper)
from .independence import (
    ColorabilityWitness,
    MISequence,
    _good_greedy_peel,
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
    detours_per_level: list = field(default_factory=list)

    def absorb(self, other: "PathStats") -> None:
        self.inter_moves += other.inter_moves
        self.core_moves += other.core_moves
        self.detour_moves += other.detour_moves
        self.final_moves += other.final_moves
        self.final_depth = max(self.final_depth, other.final_depth)
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
    _check_alpha_beta(alpha, beta)
    _check_int(q, "q")
    if q < alpha + beta + 1:
        raise ValidationError(
            f"need q >= alpha + beta + 1 = {_excerpt(alpha + beta + 1)}, "
            f"got q={_excerpt(q)}")
    if cap < 0:
        raise ValidationError(
            f"step cap must be nonnegative, got {_excerpt(cap)}")


def _colors_list(coloring: Coloring, q: int) -> list:
    """1-indexed mutable copy of a coloring, range-checked against q."""
    _check_palette(coloring, q, "coloring")
    return [0] + list(coloring.colors)


def _core_steps(H, order, chi, tau, spare_pool, cap, stats):
    """Steps rewriting the peel-ordered region ``order`` from chi to tau.

    Level i replays the moves built for the first i vertices of the order
    with vnew = order[i] now live; any replayed move blocked by an edge
    through vnew gets a detour that parks vnew on a spare color first, and
    the level ends by painting vnew its target color. Peeling guarantees a
    spare exists: at most beta-1 live edges meet vnew inside the level,
    while the pool holds beta+1 colors none of which appear outside the
    region.

    Liveness: an edge is live from the level of its last member on the
    order, provided each member off the order wears a palette color: a
    spare, or the target of a vertex on the order. That is exact: every
    color a move is checked against is in the palette (detours take spares,
    final moves take targets), and a vertex off the order never moves, so no
    other edge can ever turn monochromatic. Edges through off-order vertices
    cannot all be dropped: ``path_core``'s outside wears colors up to alpha,
    which the targets may reuse. Each edge keeps a count of the members not
    yet placed; the off-order ones in palette colors are placed before level
    0, and each vertex on the order at its own level. The edge goes live at
    the level where the count reaches zero; that level's vnew is its last
    member, so no other level takes it.

    First fit: at a target of 0, vnew takes, after the replayed moves, the
    first color of the pool less its top one that completes no live edge.
    That is the first-fit coloring of a peel order, as ``_inter_steps``'
    bridge wants it: there no vertex off the order wears a pool color, so
    the live edges through vnew are its edges inside the order's prefix,
    and each earlier vertex on the order wears its own pick in the table.
    An order that is no peel may block all of them: a spare-color error.

    Invariant: every move was checked, when it was made, against every live
    edge through its own vertex, and a detour changes only vnew's color. An
    edge avoiding vnew is live at level i only if it was live at level i-1,
    and it sees the same colors at every replayed move as it did then, so it
    never blocks a replay. Level i therefore looks only at the moves of
    vertices that share a live edge with vnew, and only while vnew wears the
    move's color.

    Moves carry position labels that never need renumbering: the final move
    of level i is ``(i, R)`` with ``R = len(order)``, and a detour inserted
    at level j in front of the move ``P + (R,)`` is ``P + (j, R)``. A move is
    kept as a ``(label, vertex, color)`` triple. Each vertex moves only at
    its own level, so its triples form one list, indexed by vertex id, that
    is in path order.

    Cost: level i counts down the edges through vnew and takes the ones that
    go live. It resets their members in one running color table (a copy of
    chi) to chi's colors, gathers their moves, sorts them by label and walks
    them in path order, applying each move to the table once its test is
    done. So every color a test reads is one table lookup: a move in the
    color vnew wears is checked against the live edges through its vertex,
    a spare against every live edge, and the target at the end against the
    table after the last move. A vertex on two live edges lists its moves
    twice, and the walk skips the repeat. The moves are sorted once more at
    the end. A level thus touches the deg(vnew) edges through vnew and the
    moves of its co-members on the live ones, so the rewrite stays
    near-linear in the path length, where replaying every move at every
    level was O(levels x moves). Level i raises the step-cap error when the
    moves it replays plus its detours exceed the cap, where a full replay
    checking the cap after every move would; only that count bisects the
    move lists. chi is not mutated.
    """
    edges = H.edges
    inc = H.incidence
    R = len(order)
    pool = tuple(spare_pool)
    fits = pool[:-1]            # the first-fit colors, for a target of 0
    palette = set(pool).union(tau[v] for v in order)
    # members each edge still waits for; the off-order ones that wear a
    # palette color are placed now (only a region short of V has any)
    left = [H.k] * len(edges)
    if R < H.n:
        near = set(chain.from_iterable([edges[ei] for v in order
                                        for ei in inc[v - 1]]))
        near.difference_update(order)
        for u in compress(near, map(palette.__contains__,
                                    map(chi.__getitem__, near))):
            for ei in inc[u - 1]:
                left[ei] -= 1
    moves = [()] * len(chi)     # per vertex, its triples in path order
    col = chi[:]                # the running color table

    def mono(live, c):
        # a live edge all of whose members wear c in the table, vnew's entry
        # holding the color it tries
        for e in live:
            for u in e:
                if col[u] != c:
                    break
            else:
                return True
        return False

    total = 0
    for i, vnew in enumerate(order):
        live = []
        cand = []
        for ei in inc[vnew - 1]:
            left[ei] -= 1
            if left[ei]:
                continue
            e = edges[ei]
            live.append(e)
            for u in e:
                col[u] = chi[u]
                cand += moves[u]
        cand.sort()
        # vnew's own entry follows its color, so the edge tests read it too
        cv = col[vnew] = chi[vnew]
        mine = []
        prev = None
        for t, w, c in cand:
            # a vertex on two live edges lists its moves twice, and the
            # repeat sorts right after the first
            if t == prev:
                continue
            prev = t
            if c == cv:
                for e in live:
                    if w in e:
                        for u in e:
                            if u != w and col[u] != c:
                                break
                        else:
                            break       # e goes monochromatic when w moves
                else:
                    col[w] = c
                    continue
                for s in pool:
                    col[vnew] = s
                    if s != c and not mono(live, s):
                        break
                else:
                    # the old full replay checked the cap after every move,
                    # so it fires first if the moves ahead of t already
                    # overflow
                    pos = sum(bisect_left(moves[v], (t,)) for v in order)
                    if pos and pos + len(mine) > cap:
                        raise StepCapExceededError(
                            f"level {i} outgrew the step cap", cap=cap)
                    raise SpareColorError(
                        f"no spare color for vertex {vnew} at level {i}")
                mine.append((t[:-1] + (i, R), vnew, s))
                cv = s
            col[w] = c
        detours = len(mine)
        if total and total + detours > cap:
            raise StepCapExceededError(
                f"level {i} outgrew the step cap", cap=cap)
        total += detours
        target = tau[vnew]
        if not target:
            for target in fits:
                col[vnew] = target
                if not mono(live, target):
                    break
            else:
                raise SpareColorError(
                    f"all {len(fits)} palette colors blocked at vertex "
                    f"{vnew}; peel order invariant violated")
        if cv != target:
            col[vnew] = target
            if mono(live, target):
                raise ValidationError(
                    f"target color of vertex {vnew} is blocked at its own "
                    "level; the target coloring is not proper here")
            mine.append(((i, R), vnew, target))
            total += 1
        if mine:
            moves[vnew] = mine
        stats.detours_per_level.append(detours)
        stats.detour_moves += detours
    out = sorted(chain.from_iterable(map(moves.__getitem__, order)))
    stats.core_moves += len(out)
    return [(v, c) for _, v, c in out]


def _inter_steps(H, active, chi, a, beta, floor, cap, stats, peel=None):
    """Walk ``chi`` restricted to ``active`` into greedy shape above ``floor``.

    Builds a maximally independent classes on colors floor+1..floor+a,
    seeding each from chi's own class so no vertex moves more than once
    and stopping once nothing is left, then rewrites the leftover along its
    peel order onto its first-fit coloring on the beta colors above the
    classes, which the region rewriter picks as it goes.
    Returns (steps, new colors, the leftover's peel); at a == 0 the leftover
    is ``active`` itself, and a caller that peeled it passes ``peel``.
    Raises NotColorableEvidence with the class sequence and core when the
    leftover cannot be peeled, and the step-cap error when the finished walk
    is longer than ``cap``.
    """
    cur = chi[:]
    steps = []
    residual = set(active)
    classes = []
    for level in range(1, a + 1):
        if not residual:
            break               # nothing left, so no core and no witness
        color = floor + level
        seed = frozenset(v for v in residual if chi[v] == color)
        part = extend_to_mis(H, residual, seed_set=seed)
        classes.append(part)
        for v in sorted(part):
            if cur[v] != color:
                steps.append((v, color))
                cur[v] = color
        residual -= part
    stats.inter_moves += len(steps)
    W = frozenset(residual)
    peel = beta_core(H, beta, W) if peel is None else peel
    if peel.core:
        raise NotColorableEvidence(ColorabilityWitness(
            MISequence(tuple(classes), W), frozenset(peel.core)))
    wcolors = {cur[v] for v in W}
    if wcolors and (min(wcolors) <= floor + a or len(wcolors) > beta):
        # leftover colors are untidy: walk them along the peel order onto the
        # beta-block just above the classes, the rewriter picking each
        # vertex's first-fit color there (a target of 0)
        bridge = _core_steps(H, peel.order, cur, [0] * len(cur),
                             range(floor + a + 1, floor + a + beta + 2),
                             cap, stats)
        for v, c in bridge:
            steps.append((v, c))
            cur[v] = c
    if len(steps) > cap:
        raise StepCapExceededError(
            "walk to greedy shape outgrew the step cap", cap=cap)
    return steps, cur, peel


def _final_steps(H, active, chi, tau, q, a, beta, cap, stats, peel):
    """Steps from chi to tau on ``active``, both greedy-shaped.

    Freezes one class per level: level cls parks chi's copy of color cls on
    an unused color, paints tau's class cls into place, takes that class out
    of ``active`` and walks the rest into greedy shape above cls. A witness
    from a walk is lifted by the classes frozen so far. After level a the
    rest is tau's leftover, coreless since tau is greedy-shaped, and the
    region rewriter takes it along ``peel``, the caller's peel of it.
    It checks no cap on its own moves: the caller's ``_assemble`` does.
    """
    cur = chi[:]
    out = []
    frozen = []
    try:
        for cls in range(1, a + 2):
            if all(cur[v] == tau[v] for v in active):
                return out
            stats.final_depth = max(stats.final_depth, cls)
            if cls > a:
                break
            tau_class = sorted(v for v in active if tau[v] == cls)
            chi_class = sorted(v for v in active if cur[v] == cls)
            moves = len(out)
            if chi_class and chi_class != tau_class:
                used = {cur[v] for v in active}
                # at most a - cls + 1 + beta distinct colors live at cls or
                # above, and q >= a + beta + 1, so one of cls..q is free
                park = next(c for c in range(cls, q + 1) if c not in used)
                for v in chi_class:
                    out.append((v, park))
                    cur[v] = park
            for v in tau_class:
                if cur[v] != cls:
                    out.append((v, cls))
                    cur[v] = cls
            stats.final_moves += len(out) - moves
            frozen.append(tau_class)
            active = active - frozenset(tau_class)
            mid, cur, _ = _inter_steps(H, active, cur, a - cls, beta, cls,
                                       cap, stats, peel if cls == a else None)
            out.extend(mid)
    except NotColorableEvidence as exc:
        w = exc.witness
        lifted = ColorabilityWitness(
            MISequence(tuple(map(frozenset, frozen)) + w.sequence.sets,
                       w.sequence.residual),
            w.core_vertices)
        raise NotColorableEvidence(lifted) from None
    out.extend(_core_steps(H, peel.order, cur, tau,
                           range(a + 1, a + beta + 2), cap, stats))
    return out


def _assemble(start, steps, stats, cap):
    if len(steps) > cap:
        raise StepCapExceededError("composed path outgrew the step cap",
                                   cap=cap)
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
    chi_l = _colors_list(chi, q)
    tau_l = _colors_list(tau, q)
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
                f"vertex {v} outside the region wears color "
                f"{_excerpt(chi_l[v])} > alpha")
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
    steps = _core_steps(H, peel.order, chi_l, tau_l,
                        range(alpha + 1, alpha + beta + 2), step_cap, stats)
    return _assemble(chi, steps, stats, step_cap)


def path_to_good_greedy(H: Hypergraph, chi: Coloring, q: int, alpha: int,
                        beta: int, step_cap: int = DEFAULT_STEP_CAP):
    """Walk a proper coloring into greedy shape; returns (path, end coloring).

    Raises NotColorableEvidence carrying the maximally independent class
    sequence and the stuck core when the instance is not (alpha, beta)-
    colorable along the constructed sequence.
    """
    _validate_params(alpha, beta, q, step_cap)
    chi_l = _colors_list(chi, q)
    if not is_proper(H, chi):
        raise ValidationError("start coloring is not proper")
    stats = PathStats()
    active = frozenset(range(1, H.n + 1))
    steps, _, _ = _inter_steps(H, active, chi_l, alpha, beta, 0, step_cap,
                               stats)
    path = _assemble(chi, steps, stats, step_cap)
    return path, path.end


def path_between_good_greedy(H: Hypergraph, chi: Coloring, tau: Coloring,
                             q: int, alpha: int, beta: int,
                             step_cap: int = DEFAULT_STEP_CAP) -> RecolorPath:
    """Path between two greedy-shaped colorings of the same instance."""
    _validate_params(alpha, beta, q, step_cap)
    chi_l = _colors_list(chi, q)
    tau_l = _colors_list(tau, q)
    if not check_good_greedy(H, chi, alpha, beta):
        raise ValidationError("start coloring is not greedy-shaped")
    # the target's check keeps its coreless leftover's peel for the join
    peel = _good_greedy_peel(H, tau, alpha, beta)
    if peel is None:
        raise ValidationError("target coloring is not greedy-shaped")
    stats = PathStats()
    active = frozenset(range(1, H.n + 1))
    steps = _final_steps(H, active, chi_l, tau_l, q, alpha, beta, step_cap,
                         stats, peel)
    return _assemble(chi, steps, stats, step_cap)


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
    chi1_l = _colors_list(chi1, q)
    chi2_l = _colors_list(chi2, q)
    if not is_proper(H, chi1):
        raise ValidationError("first coloring is not proper")
    if not is_proper(H, chi2):
        raise ValidationError("second coloring is not proper")
    if chi1.colors == chi2.colors:
        return RecolorPath(chi1, (), chi1, PathStats())
    active = frozenset(range(1, H.n + 1))
    # stats in path order: the first walk and the middle share one, then p2's
    stats, stats2 = PathStats(), PathStats()
    steps, shaped1, peel1 = _inter_steps(H, active, chi1_l, alpha, beta, 0,
                                         step_cap, stats)
    # at alpha = 0 both walks leave all of active, so they share one peel
    steps2, shaped2, peel2 = _inter_steps(H, active, chi2_l, alpha, beta, 0,
                                          step_cap, stats2,
                                          peel1 if alpha == 0 else None)
    # the second walk's leftover is the middle's bottom-level remainder
    steps += _final_steps(H, active, shaped1, shaped2, q, alpha, beta,
                          step_cap, stats, peel2)
    steps += _reversed_steps(chi2_l, steps2)
    stats.absorb(stats2)
    return _assemble(chi1, steps, stats, step_cap)


def verify_path(H: Hypergraph, path: RecolorPath, q: int) -> PathVerdict:
    """Replay a path cold and report the first violation, if any.

    Checks the start is proper in [q], every step changes exactly one vertex
    to a different in-range color, and properness holds after each move.
    """
    return _replay(H, path.start, path.steps, q)


def _replay(H, start, steps, q) -> PathVerdict:
    n = H.n
    cols = list(start.colors)
    if len(cols) != n:
        return PathVerdict(False, None, None, "start-length-mismatch")
    if any(c > q for c in cols):
        return PathVerdict(False, None, None, "start-color-out-of-range")
    if not is_proper(H, start):
        return PathVerdict(False, None, None, "improper-start")
    incidence = H.incidence
    edges = H.edges
    cur = [0] + cols
    for idx, (v, c) in enumerate(steps):
        if not 1 <= v <= n:
            return PathVerdict(False, None, idx, "vertex-out-of-range")
        if not 1 <= c <= q:
            return PathVerdict(False, None, idx, "color-out-of-range")
        if cur[v] == c:
            return PathVerdict(False, None, idx, "hamming-step")
        cur[v] = c
        for ei in incidence[v - 1]:
            for u in edges[ei]:
                if cur[u] != c:
                    break
            else:
                return PathVerdict(False, None, idx, "improper-intermediate")
    return PathVerdict(True, Coloring(tuple(cur[1:])), None, None)
