"""k-uniform hypergraphs, proper colorings, random generators, and text I/O.

Vertices are the 1-based ids 1..n and colors are 1-based positive integers.
Edges are stored canonically: each edge is a sorted k-tuple of distinct
vertices, the edge list is sorted lexicographically, and duplicates are
rejected. Instances are immutable after construction, so they can be shared
freely between threads and reused as dictionary keys.

A coloring is proper when no edge is monochromatic, i.e. every edge sees at
least two distinct colors.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    EdgeArityError,
    InstanceTooLargeError,
    RepeatedVertexError,
    ValidationError,
    VertexRangeError,
)

__all__ = [
    "Coloring",
    "Hypergraph",
    "build",
    "generate_hnm",
    "generate_hnp",
    "is_proper",
    "hamming",
    "hypergraph_to_text",
    "hypergraph_from_text",
    "read_hypergraph",
    "coloring_to_text",
    "coloring_from_text",
    "read_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """A color per vertex; index with a 1-based vertex id."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if type(self.colors) is not tuple:
            # a list would be unhashable and unequal to its tuple form, and
            # an iterator would be drained by the scans below
            object.__setattr__(self, "colors", tuple(self.colors))
        # two C-level passes over the colors; the loop, run only when one
        # fails, words the first color that is not a positive int
        if (set(map(type, self.colors)) <= {int}
                and min(self.colors, default=1) >= 1):
            return
        for c in self.colors:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValidationError(
                    f"colors must be positive integers, got {_excerpt(c)}")

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, vertex: int) -> int:
        _check_vertex(vertex, len(self.colors))
        return self.colors[vertex - 1]

    def __iter__(self):
        return iter(self.colors)

    def replace(self, vertex: int, color: int) -> "Coloring":
        """New coloring with one vertex recolored."""
        _check_vertex(vertex, len(self.colors))
        lst = list(self.colors)
        lst[vertex - 1] = color
        return Coloring(tuple(lst))

    def used_colors(self) -> set[int]:
        return set(self.colors)


class Hypergraph:
    """Immutable k-uniform hypergraph on {1..n} with a per-vertex incidence index.

    ``edges`` is the canonical edge tuple; ``incidence[v-1]`` lists the indices
    of the edges containing vertex v.
    """

    __slots__ = ("n", "k", "edges", "incidence")

    def __init__(self, n: int, k: int, edges: Iterable[Sequence[int]]):
        _check_shape(n, k)
        canon = []
        seen = set()
        for raw in edges:
            e = tuple(raw)
            if len(e) != k:
                raise EdgeArityError(
                    f"edge {_excerpt(e)} has {len(e)} vertices, expected {k}")
            for v in e:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise VertexRangeError(f"vertex id {_excerpt(v)} is not an integer")
                if not 1 <= v <= n:
                    raise VertexRangeError(f"vertex {_excerpt(v)} outside "
                                           f"1..{n} in edge {_excerpt(e)}")
            se = tuple(sorted(e))
            if len(set(se)) != k:
                raise RepeatedVertexError(f"edge {_excerpt(e)} repeats a vertex")
            if se in seen:
                raise DuplicateEdgeError(f"duplicate edge {_excerpt(se)}")
            seen.add(se)
            canon.append(se)
        canon.sort()
        self._index(n, k, canon)

    @classmethod
    def _trusted(cls, n: int, k: int, canon: list[tuple[int, ...]]) -> "Hypergraph":
        """An instance on edges the caller made canonical: a sorted list of
        distinct sorted k-tuples of ints in 1..n. Skips every check."""
        H = cls.__new__(cls)
        H._index(n, k, canon)
        return H

    def _index(self, n: int, k: int, canon: list[tuple[int, ...]]) -> None:
        self.n = n
        self.k = k
        self.edges = tuple(canon)
        # edgeless vertices share (); the lists and tuples made here form
        # no cycles, so the cyclic collector pauses while they are built
        inc = [()] * (n + 1)  # slot 0 is never filled
        collecting = gc.isenabled()
        gc.disable()
        try:
            for idx, e in enumerate(self.edges):
                for v in e:
                    if inc[v]:
                        inc[v].append(idx)
                    else:
                        inc[v] = [idx]
            del inc[0]
            self.incidence = tuple(map(tuple, inc))
        finally:
            if collecting:
                gc.enable()

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        _check_vertex(v, self.n)
        return len(self.incidence[v - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, m={self.m})"


def build(n: int, k: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Validate and canonicalize an explicit edge list."""
    return Hypergraph(n, k, edges)


def _excerpt(value) -> str:
    """repr(value) for an error message, cut to at most 60 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"<int of {value.bit_length()} bits>"
    return text if len(text) <= 60 else text[:57] + "..."


def _check_vertex(v: int, n: int) -> None:
    """Refuse a vertex id outside 1..n."""
    if not 1 <= v <= n:
        raise VertexRangeError(f"vertex {_excerpt(v)} outside 1..{n}")


def _check_palette(coloring: Coloring, q: int, name: str) -> None:
    """Refuse a coloring, called ``name`` in the message, with a color above q."""
    if max(coloring.colors, default=0) > q:
        raise ValidationError(f"{name} uses a color above q={_excerpt(q)}")


def _check_shape(n: int, k: int, capped: bool = True) -> None:
    """Refuse an (n, k) that names no k-uniform instance: sizes that are
    not ints, k < 2 or n < k. ``capped`` adds the vertex cap, for callers
    that build the instance; formulas in n take any n."""
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValidationError("n and k must be integers")
    if k < 2:
        raise ValidationError(f"uniformity k must be at least 2, got {_excerpt(k)}")
    if n < k:
        raise ValidationError(f"need n >= k, got n={_excerpt(n)}, k={_excerpt(k)}")
    if capped and n > _MAX_VERTICES:
        raise InstanceTooLargeError(
            f"vertex count {_excerpt(n)} is too large to materialize "
            f"(limit {_MAX_VERTICES})")


def _comb_upto(n: int, k: int, bound: int) -> int | None:
    """C(n, k) if it is at most ``bound``, else None; the shape is checked.

    Multiplies out C(n, i) for i = 1, 2, ... up to min(k, n - k) and stops
    once one passes the bound: C(n, i) grows with i up to n/2, so C(n, k)
    is past it too. The work is a few multiplications when the bound is
    small next to C(n, k), however large n and k are.
    """
    c = 1
    for i in range(1, min(k, n - k) + 1):
        c = c * (n - i + 1) // i
        if c > bound:
            return None
    return c


def _check_edge_count(n: int, k: int, m: int) -> None:
    """Refuse an edge count m outside 0..C(n, k); the shape is checked."""
    if not isinstance(m, int):
        raise ValidationError("n, m and k must be integers")
    total = _comb_upto(n, k, m) if m >= 0 else None
    if m < 0 or total is not None and total < m:
        exact = "" if total is None else f"={_excerpt(total)}"
        raise ValidationError(
            f"m={_excerpt(m)} outside 0..C({_excerpt(n)},{_excerpt(k)}){exact}")


def _check_alpha_beta(alpha: int, beta: int) -> None:
    """Refuse greedy parameters with alpha < 0 or beta < 1."""
    if alpha < 0 or beta < 1:
        raise ValidationError("need alpha >= 0 and beta >= 1, got "
                              f"({_excerpt(alpha)}, {_excerpt(beta)})")


def generate_hnm(n: int, m: int, k: int, seed: int) -> Hypergraph:
    """Draw exactly m distinct uniformly random k-sets, deterministic per seed.

    Rejection sampling with a seen-set; fine as long as m is well below
    C(n, k), which is the sane regime for these instances anyway. Every
    limit is checked before the first draw, and the drawn edges, canonical
    by construction, are indexed without being validated again. The k-sets
    are those of one ``random.sample`` call each (see ``_distinct_k_sets``),
    so a seed names the same instance on every Python whose ``sample``
    draws alike.
    """
    _check_shape(n, k)
    _check_edge_count(n, k, m)
    if m > _MAX_MATERIALIZED_EDGES:
        raise InstanceTooLargeError(
            f"edge count {_excerpt(m)} is too large to materialize "
            f"(limit {_MAX_MATERIALIZED_EDGES})")
    return Hypergraph._trusted(
        n, k, _distinct_k_sets(random.Random(seed), n, k, m))


def _distinct_k_sets(rng: random.Random, n: int, k: int,
                     m: int) -> list[tuple[int, ...]]:
    """m distinct uniformly random k-subsets of 1..n, as a sorted list of
    sorted tuples, by rejection sampling.

    Each k-set comes from the draws ``rng.sample(range(1, n + 1), k)``
    makes. Above sample's small-population cutoff that is its set branch,
    replayed here straight on ``getrandbits``: draw ``n.bit_length()`` bits
    until the value is below n and not yet picked. At or below the cutoff,
    sample itself is called. So a seed gives the same k-sets as a loop of
    sample calls, without that call's per-edge overhead.
    """
    seen: set[tuple[int, ...]] = set()
    add = seen.add
    # random.Random.sample switches from its pool to its set branch here
    cutoff = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if n <= cutoff:
        pool = range(1, n + 1)
        while len(seen) < m:
            add(tuple(sorted(rng.sample(pool, k))))
        return sorted(seen)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    draws = range(k)
    while len(seen) < m:
        picked = []
        for _ in draws:
            # one past the value drawn, so the picks are the vertex ids
            j = getrandbits(bits) + 1
            while j > n or j in picked:
                j = getrandbits(bits) + 1
            picked.append(j)
        picked.sort()
        add(tuple(picked))
    return sorted(seen)


# Above this many potential edges, generate_hnp stops enumerating all k-sets
# and samples the edge count from the exact binomial instead.
_ENUMERATION_LIMIT = 200_000

# Hard refusals: edge and vertex counts beyond these cannot be materialized
# sensibly (every vertex gets an incidence entry).
_MAX_MATERIALIZED_EDGES = 5_000_000
_MAX_VERTICES = 5_000_000


def _binomial_draw(rng: random.Random, trials: int, p: float) -> int:
    """Exact inverse-CDF binomial sample for 0 < p; O(mean) time, log-space
    pmf walk. ``trials`` may be past the float range."""
    if p >= 1.0:
        return trials
    u = rng.random()
    log_ratio = math.log(p) - math.log1p(-p)
    try:
        logpmf = trials * math.log1p(-p)
    except OverflowError:  # float(trials) overflows; round the exact product
        logpmf = float(trials * Fraction(math.log1p(-p)))
    cdf = math.exp(logpmf)
    i = 0
    while u > cdf and i < trials:
        logpmf += math.log(trials - i) - math.log(i + 1) + log_ratio
        i += 1
        cdf += math.exp(logpmf)
    return i


def generate_hnp(n: int, p: float, k: int, seed: int) -> Hypergraph:
    """Include each of the C(n,k) possible edges independently with probability p.

    Deterministic per seed. While C(n,k) <= _ENUMERATION_LIMIT the k-sets are
    enumerated in lexicographic order and kept with probability p each; beyond
    that the edge count is drawn from Binomial(C(n,k), p) and that many
    distinct k-sets are sampled uniformly, which yields the same distribution.
    A mean C(n,k) p above _MAX_MATERIALIZED_EDGES is refused before any draw,
    and C(n,k) is multiplied out only that far.
    """
    _check_shape(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p={p} outside [0, 1]")
    if p == 0.0:
        return Hypergraph._trusted(n, k, [])
    total = _comb_upto(n, k, max(
        _ENUMERATION_LIMIT, int(_MAX_MATERIALIZED_EDGES / Fraction(p))))
    if total is None:
        raise InstanceTooLargeError(
            f"expected edge count C({_excerpt(n)},{_excerpt(k)})*{p} is too "
            f"large to materialize (above the limit {_MAX_MATERIALIZED_EDGES})")
    rng = random.Random(seed)
    if total <= _ENUMERATION_LIMIT:
        edges = [e for e in itertools.combinations(range(1, n + 1), k)
                 if rng.random() < p]
    else:
        m = _binomial_draw(rng, total, p)
        if m > _MAX_MATERIALIZED_EDGES:
            raise InstanceTooLargeError(
                f"sampled edge count {_excerpt(m)} is too large to materialize")
        edges = _distinct_k_sets(rng, n, k, m)
    return Hypergraph._trusted(n, k, edges)


def is_proper(H: Hypergraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic (every edge sees >= 2 colors)."""
    cols = coloring.colors
    if len(cols) != H.n:
        raise ValidationError(f"coloring has {len(cols)} entries, hypergraph has {H.n} vertices")
    for e in H.edges:
        first = cols[e[0] - 1]
        mono = True
        for v in e:
            if cols[v - 1] != first:
                mono = False
                break
        if mono:
            return False
    return True


def hamming(c1: Coloring, c2: Coloring) -> int:
    """Number of vertices on which the two colorings differ."""
    if len(c1) != len(c2):
        raise ValidationError(f"length mismatch: {len(c1)} vs {len(c2)}")
    return sum(a != b for a, b in zip(c1.colors, c2.colors))


# --- plain-text serialization ---------------------------------------------
#
# Hypergraph: first line "n k m", then m lines of k space-separated vertex
# ids (each line sorted, lines in lexicographic order). Coloring: one line
# of n space-separated colors. Both round-trip exactly.


def hypergraph_to_text(H: Hypergraph) -> str:
    lines = [f"{H.n} {H.k} {H.m}"]
    lines.extend(" ".join(map(str, e)) for e in H.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
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
    rows = _int_rows("\n".join(itertools.islice(lines, 1, None)))
    if rows is not None:
        # every edge line is ints, so the shape is the next check due
        _check_shape(n, k)
        edges = _canonical_edges(rows, n, k)
        if edges is not None:
            del lines, rows  # not kept while the index is built
            return Hypergraph._trusted(n, k, edges)
    # the per-line checker: it words the first fault in input order, and
    # builds valid texts whose edges are not canonical
    edges = []
    for ln in lines[1:]:
        try:
            edges.append(tuple(map(int, ln.split())))
        except ValueError as exc:
            raise ValidationError(f"bad edge line {_excerpt(ln)}") from exc
    return Hypergraph(n, k, edges)


def _int_rows(text: str) -> list | None:
    """The ints on each line of ``text``, or None unless every line is
    plain decimal numerals separated by single spaces.

    Such lines are JSON arrays once the spaces become commas, and json's C
    scanner reads them about twice as fast as ``int`` reads their tokens.
    With no character but digits, spaces and newlines, every value it can
    return is a nonnegative int, equal to what ``int`` makes of the token.
    Trailing newlines end the text; an empty line is an empty row.
    """
    text = text.rstrip("\n")
    if not text.isascii() or text.encode().translate(None, b"0123456789 \n"):
        return None
    try:
        return json.loads(
            "[[" + text.replace(" ", ",").replace("\n", "],[") + "]]")
    except ValueError:
        return None


def _canonical_edges(rows: list, n: int, k: int) -> list | None:
    """The rows as edge tuples if they already are a canonical edge list on
    1..n (k vertices each, each edge and the list strictly increasing),
    else None. Every check is one C-level pass."""
    if set(map(len, rows)) != {k}:
        return None
    edges = list(map(tuple, rows))
    cols = tuple(zip(*edges))
    # within-edge order puts each edge's least vertex first, its largest last
    if (min(cols[0]) >= 1 and max(cols[-1]) <= n
            and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
            and all(map(lt, edges, itertools.islice(edges, 1, None)))):
        return edges
    return None


@contextmanager
def _open_utf8(path):
    """Open a text file for reading; bytes that are not UTF-8 are malformed
    input, reported as a ValidationError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path} is not UTF-8 text ({exc.reason})") from None


def read_hypergraph(path) -> Hypergraph:
    with _open_utf8(path) as fh:
        return hypergraph_from_text(fh.read())


def coloring_to_text(coloring: Coloring) -> str:
    return " ".join(map(str, coloring.colors)) + "\n"


def coloring_from_text(text: str) -> Coloring:
    parts = text.split()
    if not parts:
        raise ValidationError("empty coloring text")
    try:
        colors = tuple(map(int, parts))
    except ValueError as exc:
        raise ValidationError(f"bad coloring text {_excerpt(text)}") from exc
    return Coloring(colors)


def read_coloring(path) -> Coloring:
    with _open_utf8(path) as fh:
        return coloring_from_text(fh.read())
