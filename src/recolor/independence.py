"""Maximal independent sets, greedy sequences, and colorability certification.

A set S is independent when no edge lies entirely inside it; it is maximal
inside an active set when every other active vertex would complete an edge.
A sequence V_1, ..., V_t is maximally independent when each V_j is a maximal
independent set of the residual left by its predecessors (empty sets are
permitted once the residual is exhausted).

An instance is (alpha, beta)-colorable when NO maximally independent
sequence of length alpha leaves a residual with a beta-core. The exact
search below enumerates every sequence, memoizing per call on the residual
(which is all the outcome depends on); the falsifier samples seeded-random
greedy sequences and can only ever refute. The exact search holds vertex
sets as bitmasks, with one test of whether a vertex would complete an edge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core_peel import PeelResult, _active_set, beta_core
from .errors import InstanceTooLargeError, ValidationError, VertexRangeError
from .hypergraph import (
    _MAX_VERTICES,
    Coloring,
    Hypergraph,
    _check_alpha_beta,
    _check_int,
    _excerpt,
    is_proper,
)
from .seeding import derive_seed

__all__ = [
    "MISequence",
    "ColorabilityWitness",
    "extend_to_mis",
    "greedy_sequence",
    "check_good_greedy",
    "is_alpha_beta_colorable_exact",
    "falsify_alpha_beta",
    "verify_witness",
]

# the most active vertices the exhaustive search takes by default
DEFAULT_EXACT_LIMIT = 12


@dataclass(frozen=True)
class MISequence:
    """A maximally independent sequence and the residual it leaves behind."""

    sets: tuple[frozenset[int], ...]
    residual: frozenset[int]


@dataclass(frozen=True)
class ColorabilityWitness:
    """A sequence whose residual retains a core, refuting colorability."""

    sequence: MISequence
    core_vertices: frozenset[int]


def _check_strategy(strategy: str, rng_seed: Optional[int]) -> None:
    """Refuse an unknown strategy, and the random one without an int seed."""
    if strategy not in ("ascending", "random"):
        raise ValidationError(
            f"unknown strategy {_excerpt(strategy)}; use 'ascending' or 'random'")
    if strategy != "random":
        return
    if rng_seed is None:
        raise ValidationError("the seeded-random strategy requires rng_seed")
    _check_int(rng_seed, "rng_seed")


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place exactly as ``rng.shuffle(x)`` does, on the same
    draws, leaving rng in the same state.

    ``random.Random.shuffle`` swaps each x[i], i from the top down to 1,
    with an x[j] for j drawn below i + 1 by ``_randbelow``: draws of
    ``(i + 1).bit_length()`` bits from ``getrandbits`` until one is at most
    i. That loop is replayed here without its two calls per item, and with
    one bit count per run of i whose i + 1 share a bit length.
    """
    getrandbits = rng.getrandbits
    top = len(x)  # i + 1 for the next i
    while top > 1:
        bits = top.bit_length()
        low = 1 << bits - 1  # the least i + 1 that takes ``bits`` bits
        for i in range(top - 1, low - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def _grow_mis(H: Hypergraph, seeds: Iterable[int], rest: Iterable[int],
              cnt: list[int]) -> frozenset[int]:
    """The seeds plus each vertex of ``rest``, in order, that completes no
    edge with those taken before it. ``cnt`` holds the seeds' members per
    edge, and is updated in place. Checks nothing: the seeds are distinct
    independent vertex ids, and ``rest`` holds distinct ids outside them."""
    inc = H.incidence
    full = H.k - 1
    chosen = set(seeds)
    for v in rest:
        for ei in inc[v - 1]:
            if cnt[ei] == full:
                break           # v would complete an edge
        else:
            for ei in inc[v - 1]:
                cnt[ei] += 1
            chosen.add(v)
    return frozenset(chosen)


def extend_to_mis(H: Hypergraph, active: Optional[Iterable[int]] = None,
                  seed_set: Iterable[int] = (), strategy: str = "ascending",
                  rng_seed: Optional[int] = None) -> frozenset[int]:
    """Grow an independent seed set to a maximal one inside ``active``.

    Candidates are scanned in ascending id order, or for the random
    strategy (rng_seed is then required) in the order
    ``random.Random(rng_seed).shuffle`` gives the sorted candidates, drawn
    through ``_shuffle``. The result always contains the seed set.
    """
    _check_strategy(strategy, rng_seed)
    act = _active_set(H, active)
    seeds = set(seed_set)
    for v in seeds:
        if not isinstance(v, int) or isinstance(v, bool):
            raise VertexRangeError(
                f"seed vertex {_excerpt(v)} is not an integer")
    inc = H.incidence
    full = H.k - 1
    cnt = [0] * H.m  # seeds per edge, so far in ascending order
    for v in sorted(seeds):
        if v not in act:
            raise ValidationError(f"seed vertex {_excerpt(v)} is not active")
        for ei in inc[v - 1]:
            if cnt[ei] == full:
                raise ValidationError(
                    "seed set is not independent inside the active set")
        for ei in inc[v - 1]:
            cnt[ei] += 1
    rest = sorted(act - seeds)
    if strategy == "random":
        _shuffle(random.Random(rng_seed), rest)
    return _grow_mis(H, seeds, rest, cnt)


def greedy_sequence(H: Hypergraph, t: int, strategy: str = "ascending",
                    rng_seed: Optional[int] = None,
                    active: Optional[Iterable[int]] = None) -> MISequence:
    """Draw t successive maximal independent sets, each from the residual.

    Per-level seeds are derived from rng_seed so the whole sequence is
    reproducible: the random strategy scans each level's sorted residual in
    the order ``random.Random(level_seed).shuffle`` gives it, drawn through
    ``_shuffle``. Trailing sets are empty once the residual runs out, so
    no instance needs more than n levels, and t past the vertex limit is
    refused. Each level is the one extend_to_mis would grow on the residual
    with that level's seed; the arguments are checked once, up front.
    """
    if not isinstance(t, int) or t < 0:
        raise ValidationError(
            f"sequence length must be nonnegative, got {_excerpt(t)}")
    if t > _MAX_VERTICES:
        raise InstanceTooLargeError(
            f"sequence length {_excerpt(t)} exceeds the limit of {_MAX_VERTICES}")
    _check_strategy(strategy, rng_seed)
    residual = set(_active_set(H, active))
    sets = []
    for level in range(t):
        if not residual:
            sets.extend(itertools.repeat(frozenset(), t - level))
            break
        rest = sorted(residual)
        if strategy == "random":
            _shuffle(random.Random(derive_seed(rng_seed, level)), rest)
        part = _grow_mis(H, (), rest, [0] * H.m)
        sets.append(part)
        residual -= part
    return MISequence(sets=tuple(sets), residual=frozenset(residual))


def _completes_edge(H: Hypergraph, u: int, S: frozenset[int] | set[int]) -> bool:
    # does S + u contain an edge through u?
    for ei in H.incidence[u - 1]:
        ok = True
        for w in H.edges[ei]:
            if w != u and w not in S:
                ok = False
                break
        if ok:
            return True
    return False


def _is_maximal(H: Hypergraph, S: frozenset[int] | set[int],
                residual: frozenset[int] | set[int]) -> bool:
    # maximality of S inside residual: every other vertex completes an edge
    return all(_completes_edge(H, u, S) for u in residual - S)


def check_good_greedy(H: Hypergraph, coloring: Coloring, alpha: int, beta: int) -> bool:
    """Does the coloring decompose into alpha greedy classes plus a tame rest?

    True iff the coloring is proper, color classes 1..alpha form a maximally
    independent sequence, and the residual (vertices colored above alpha)
    uses at most beta distinct colors and has no beta-core.
    """
    return _good_greedy_peel(H, coloring, alpha, beta) is not None


def _good_greedy_peel(H: Hypergraph, coloring: Coloring, alpha: int,
                      beta: int) -> Optional[PeelResult]:
    """``check_good_greedy``'s test, returning the coreless peel of the
    residual when it passes and None when it fails."""
    _check_alpha_beta(alpha, beta)
    if not is_proper(H, coloring):
        return None
    # is_proper checked the length, so read the colors unchecked
    cols = (0,) + coloring.colors
    rem = set(range(1, H.n + 1))
    for color in range(1, alpha + 1):
        if not rem:
            break
        cls = {v for v in rem if cols[v] == color}
        # independence is free (color class of a proper coloring); check maximality
        if not _is_maximal(H, cls, rem):
            return None
        rem -= cls
    residual_colors = {cols[v] for v in rem}
    if len(residual_colors) > beta:
        return None
    peel = beta_core(H, beta, rem)
    return None if peel.core else peel


def _mask_tables(H: Hypergraph, verts: list[int]) -> tuple[list[int], list[list[int]]]:
    """Bitmasks over ``verts`` (vertex i of the list is bit i): the mask of
    every edge inside ``verts``, and per list position the masks of the
    other members of that vertex's edges there."""
    pos = {v: i for i, v in enumerate(verts)}
    edge_masks: list[int] = []
    rest_masks: list[list[int]] = [[] for _ in verts]
    for e in H.edges:
        if all(u in pos for u in e):
            mask = 0
            for u in e:
                mask |= 1 << pos[u]
            edge_masks.append(mask)
            for u in e:
                rest_masks[pos[u]].append(mask & ~(1 << pos[u]))
    return edge_masks, rest_masks


def _blocked(rest_masks_of_v: list[int], chosen_mask: int) -> bool:
    # would v complete an edge whose other members are all chosen?
    for rest in rest_masks_of_v:
        if rest & chosen_mask == rest:
            return True
    return False


def is_alpha_beta_colorable_exact(
        H: Hypergraph, alpha: int, beta: int,
        active: Optional[Iterable[int]] = None,
        max_size: int = DEFAULT_EXACT_LIMIT) -> Union[bool, ColorabilityWitness]:
    """Exhaustively certify colorability.

    A depth-first search over every maximally independent sequence, on
    residuals held as bitmasks over the active vertices. Each call memoizes
    the maximal independent sets of every residual it expands and the
    (residual, levels) pairs already known to leave no core.

    Returns True when colorable, otherwise the refuting ColorabilityWitness;
    compare against True (``result is True``) rather than truthiness.
    """
    verts = sorted(_active_set(H, active))
    if len(verts) > max_size:
        raise InstanceTooLargeError(
            f"{len(verts)} active vertices exceed the exhaustive cap of "
            f"{_excerpt(max_size)}")
    _check_alpha_beta(alpha, beta)
    edge_masks, rest_masks = _mask_tables(H, verts)
    rests = [(1 << i, rv) for i, rv in enumerate(rest_masks)]
    mis_memo: dict[int, list[int]] = {}
    safe: set[tuple[int, int]] = set()
    prefix: list[int] = []

    def to_set(mask: int) -> frozenset[int]:
        return frozenset(v for i, v in enumerate(verts) if mask >> i & 1)

    def maximal_independent_sets(mask: int) -> list[int]:
        # every independent submask no outside vertex could join, from the
        # mask down to 0
        out = []
        sub = mask
        while True:
            for em in edge_masks:
                if em & sub == em:
                    break
            else:
                outside = mask & ~sub
                for bv, rv in rests:
                    if outside & bv and not _blocked(rv, sub):
                        break
                else:
                    out.append(sub)
            if sub == 0:
                return out
            sub = (sub - 1) & mask

    def dfs(mask: int, levels: int) -> Optional[ColorabilityWitness]:
        key = (mask, levels)
        if key in safe:
            return None
        if levels == 0:
            core = beta_core(H, beta, to_set(mask)).core
            if core:
                return ColorabilityWitness(
                    MISequence(tuple(map(to_set, prefix)), to_set(mask)), core)
        elif mask:
            subs = mis_memo.get(mask)
            if subs is None:
                subs = mis_memo[mask] = maximal_independent_sets(mask)
            for sub in subs:
                prefix.append(sub)
                found = dfs(mask & ~sub, levels - 1)
                if found is not None:
                    return found
                prefix.pop()
        # an empty residual is followed by empty sets only, and has no core
        safe.add(key)
        return None

    witness = dfs((1 << len(verts)) - 1, alpha)
    return True if witness is None else witness


def _check_falsifier_args(alpha: int, beta: int, trials: int) -> None:
    """Refuse a bad (alpha, beta), then a trial count below 1."""
    _check_alpha_beta(alpha, beta)
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {_excerpt(trials)}")


def falsify_alpha_beta(H: Hypergraph, alpha: int, beta: int, trials: int,
                       rng_seed: int,
                       active: Optional[Iterable[int]] = None) -> Optional[ColorabilityWitness]:
    """Hunt for a refuting sequence with seeded-random greedy draws.

    Returns the first witness found across ``trials`` attempts, or None.
    Finding nothing proves nothing; a returned witness is conclusive.
    With alpha at least the number of active vertices there is none to
    find: each level takes at least one vertex of a nonempty residual, so
    the residual is empty after alpha levels. None is then returned without
    a draw, once the arguments are checked.
    """
    act = _active_set(H, active)
    _check_falsifier_args(alpha, beta, trials)
    _check_strategy("random", rng_seed)
    if alpha >= len(act):
        return None
    for t in range(trials):
        seq = greedy_sequence(H, alpha, "random", derive_seed(rng_seed, t), act)
        core = beta_core(H, beta, seq.residual).core
        if core:
            return ColorabilityWitness(seq, core)
    return None


def verify_witness(H: Hypergraph, witness: ColorabilityWitness, alpha: int, beta: int,
                   active: Optional[Iterable[int]] = None) -> bool:
    """Independently re-check a witness: sequence shape, maximality, core."""
    act = _active_set(H, active)
    if len(witness.sequence.sets) != alpha:
        return False
    residual = set(act)
    for S in witness.sequence.sets:
        if not S <= residual:
            return False
        # no edge inside S, and S maximal in what is left
        if any(_completes_edge(H, u, S) for u in S) or not _is_maximal(H, S, residual):
            return False
        residual -= S
    if frozenset(residual) != witness.sequence.residual:
        return False
    core = beta_core(H, beta, residual).core
    return bool(core) and witness.core_vertices == core
