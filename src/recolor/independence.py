"""Maximal independent sets, greedy sequences, and colorability certification.

A set S is independent when no edge lies entirely inside it; it is maximal
inside an active set when every other active vertex would complete an edge.
A sequence V_1, ..., V_t is maximally independent when each V_j is a maximal
independent set of the residual left by its predecessors (empty sets are
permitted once the residual is exhausted).

An instance is (alpha, beta)-colorable when NO maximally independent
sequence of length alpha leaves a residual with a beta-core. The exact
certifier below enumerates every sequence (with memoization on the residual,
which is all the outcome depends on); the falsifier samples seeded-random
greedy sequences and can only ever refute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core_peel import _active_set, beta_core
from .errors import InstanceTooLargeError, ValidationError
from .hypergraph import Coloring, Hypergraph, is_proper
from .seeding import derive_seed

__all__ = [
    "MISequence",
    "ColorabilityWitness",
    "extend_to_mis",
    "greedy_sequence",
    "check_good_greedy",
    "ExactCertifier",
    "is_alpha_beta_colorable_exact",
    "falsify_alpha_beta",
    "verify_witness",
    "max_independent_set_exact",
]


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


_STRATEGIES = {
    "ascending": "ascending",
    "ascending-id": "ascending",
    "random": "random",
    "seeded-random": "random",
}


def _canon_strategy(strategy: str) -> str:
    try:
        return _STRATEGIES[strategy]
    except KeyError:
        raise ValidationError(
            f"unknown strategy {strategy!r}; use 'ascending' or 'random'") from None


def extend_to_mis(H: Hypergraph, active: Optional[Iterable[int]] = None,
                  seed_set: Iterable[int] = (), strategy: str = "ascending",
                  rng_seed: Optional[int] = None) -> frozenset[int]:
    """Grow an independent seed set to a maximal one inside ``active``.

    Candidates are scanned in ascending id order, or in a seeded shuffle for
    the random strategy (rng_seed is then required). The result always
    contains the seed set.
    """
    mode = _canon_strategy(strategy)
    act = _active_set(H, active)
    inc = H.incidence
    full = H.k - 1
    chosen: set[int] = set()
    cnt = [0] * H.m  # chosen members per edge

    for v in sorted(set(seed_set)):
        if v not in act:
            raise ValidationError(f"seed vertex {v} is not active")
        for ei in inc[v - 1]:
            if cnt[ei] == full:
                raise ValidationError(
                    "seed set is not independent inside the active set")
        for ei in inc[v - 1]:
            cnt[ei] += 1
        chosen.add(v)
    rest = sorted(act - chosen)
    if mode == "random":
        if rng_seed is None:
            raise ValidationError("the seeded-random strategy requires rng_seed")
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


def greedy_sequence(H: Hypergraph, t: int, strategy: str = "ascending",
                    rng_seed: Optional[int] = None,
                    active: Optional[Iterable[int]] = None) -> MISequence:
    """Draw t successive maximal independent sets, each from the residual.

    Per-level seeds are derived from rng_seed so the whole sequence is
    reproducible. Trailing sets are empty once the residual runs out.
    """
    if t < 0:
        raise ValidationError(f"sequence length must be nonnegative, got {t}")
    mode = _canon_strategy(strategy)
    if mode == "random" and rng_seed is None:
        raise ValidationError("the seeded-random strategy requires rng_seed")
    residual = set(_active_set(H, active))
    sets = []
    for level in range(t):
        if residual:
            seed = derive_seed(rng_seed, level) if mode == "random" else None
            part = extend_to_mis(H, residual, (), mode, seed)
        else:
            part = frozenset()
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


def _is_independent(H: Hypergraph, S: frozenset[int] | set[int]) -> bool:
    for e in H.edges:
        if all(v in S for v in e):
            return False
    return True


def check_good_greedy(H: Hypergraph, coloring: Coloring, alpha: int, beta: int) -> bool:
    """Does the coloring decompose into alpha greedy classes plus a tame rest?

    True iff the coloring is proper, color classes 1..alpha form a maximally
    independent sequence, and the residual (vertices colored above alpha)
    uses at most beta distinct colors and has no beta-core.
    """
    if alpha < 0 or beta < 1:
        raise ValidationError(f"need alpha >= 0 and beta >= 1, got ({alpha}, {beta})")
    if len(coloring) != H.n:
        raise ValidationError("coloring length does not match the vertex count")
    if not is_proper(H, coloring):
        return False
    rem = set(range(1, H.n + 1))
    for color in range(1, alpha + 1):
        cls = {v for v in rem if coloring[v] == color}
        # independence is free (color class of a proper coloring); check maximality
        if not _is_maximal(H, cls, rem):
            return False
        rem -= cls
    residual_colors = {coloring[v] for v in rem}
    if len(residual_colors) > beta:
        return False
    if beta_core(H, beta, rem).core:
        return False
    return True


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


def is_alpha_beta_colorable_exact(
        H: Hypergraph, alpha: int, beta: int,
        active: Optional[Iterable[int]] = None,
        max_size: int = 12) -> Union[bool, ColorabilityWitness]:
    """Exhaustively certify colorability.

    Returns True when colorable, otherwise the refuting ColorabilityWitness;
    compare against True (``result is True``) rather than truthiness.
    """
    witness = ExactCertifier(H, active, max_size).search(alpha, beta)
    return True if witness is None else witness


def falsify_alpha_beta(H: Hypergraph, alpha: int, beta: int, trials: int,
                       rng_seed: int,
                       active: Optional[Iterable[int]] = None) -> Optional[ColorabilityWitness]:
    """Hunt for a refuting sequence with seeded-random greedy draws.

    Returns the first witness found across ``trials`` attempts, or None.
    Finding nothing proves nothing; a returned witness is conclusive.
    """
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    for t in range(trials):
        seq = greedy_sequence(H, alpha, "random", derive_seed(rng_seed, t), active)
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
        if not _is_independent(H, S) or not _is_maximal(H, S, residual):
            return False
        residual -= S
    if frozenset(residual) != witness.sequence.residual:
        return False
    core = beta_core(H, beta, residual).core
    return bool(core) and witness.core_vertices == core


def max_independent_set_exact(H: Hypergraph, max_size: int = 30) -> tuple[int, frozenset[int]]:
    """Branch-and-bound maximum independent set; returns (size, one witness).

    The candidate list is filtered as the chosen set grows (a vertex whose
    addition would complete an edge can never rejoin), which keeps the
    |chosen| + |candidates| bound tight.
    """
    if H.n > max_size:
        raise InstanceTooLargeError(f"n={H.n} exceeds the exact cap of {max_size}")
    bit, _, rest_masks = _mask_tables(H, list(range(1, H.n + 1)))

    greedy = extend_to_mis(H)
    best_size = len(greedy)
    best_mask = 0
    for v in greedy:
        best_mask |= bit[v]

    def blocked(v: int, chosen_mask: int) -> bool:
        for rest in rest_masks[v]:
            if rest & ~chosen_mask == 0:
                return True
        return False

    def dfs(chosen_mask: int, size: int, cand: list[int]) -> None:
        nonlocal best_size, best_mask
        if size > best_size:
            best_size = size
            best_mask = chosen_mask
        if size + len(cand) <= best_size or not cand:
            return
        v = cand[0]
        with_v = chosen_mask | bit[v]
        filtered = [u for u in cand[1:] if not blocked(u, with_v)]
        dfs(with_v, size + 1, filtered)
        dfs(chosen_mask, size, cand[1:])

    dfs(0, 0, [v for v in range(1, H.n + 1) if not blocked(v, 0)])
    winner = frozenset(v for v in range(1, H.n + 1) if best_mask & bit[v])
    return best_size, winner
