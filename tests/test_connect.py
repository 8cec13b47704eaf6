"""``connect`` against its reference routes, and reversed paths.

``recolor.reconfig.connect`` validates its inputs once and composes the
phase builders itself. ``helpers.classes_route_reference`` builds the same
route from the public ``path_to_good_greedy`` and the reference oracles:
the first walk, the join onto chi2's classes, those class moves reversed.
The two must agree on every path, every stats field, every witness, and the
type and message of every other exception, under every step cap.
``helpers.connect_reference`` is the route through the public builders
that bridged chi2's leftover and back; its witnesses stay the same.
"""

import dataclasses
import random
from math import comb

from hypothesis import assume, given, settings, strategies as st

from recolor import (
    ColorabilityWitness,
    Coloring,
    MISequence,
    NotColorableEvidence,
    PathStats,
    RecolorPath,
    build,
    connect,
    generate_hnm,
    path_to_good_greedy,
    verify_path,
    verify_witness,
)
from recolor import reconfig
from helpers import (classes_reference, classes_route_reference,
                     connect_reference, direct_route_reference,
                     random_proper_coloring)

CAPS = (0, 5, 50, 200, None)        # None: the default cap
SHAPES = [
    # k, n, m: a sparse and a dense instance per edge size
    (2, 40, 50), (2, 60, 110),
    (3, 40, 60), (3, 60, 150),
    (4, 40, 60), (4, 50, 160),
]
PARAMS = [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]


def outcome(fn, H, c1, c2, q, alpha, beta, cap):
    """Everything one builder makes of one call: the path with every stats
    field, the witness sets, or the type, message and cap of the error."""
    args = (H, c1, c2, q, alpha, beta) + (() if cap is None else (cap,))
    try:
        path = fn(*args)
    except NotColorableEvidence as exc:
        w = exc.witness
        return ("witness", w.sequence.sets, w.sequence.residual,
                w.core_vertices)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "cap", None))
    return ("ok", path.start, path.steps, path.end,
            dataclasses.asdict(path.stats))


def corpus():
    """Seeded calls: k 2-4, q = alpha+beta+1 and +2, random endpoints, and
    identical endpoints (on instances that may not be colorable)."""
    rng = random.Random(4)
    calls = []
    for k, n, m in SHAPES:
        for alpha, beta in PARAMS:
            for extra in (1, 2):
                q = alpha + beta + extra
                for rep in range(3):
                    H = generate_hnm(n, m, k, rng.getrandbits(32))
                    try:
                        c1 = random_proper_coloring(H, q, rng, tries=50)
                        c2 = random_proper_coloring(H, q, rng, tries=50)
                    except RuntimeError:
                        continue
                    calls.append((H, c1, c2, q, alpha, beta))
                    if rep == 0:
                        calls.append((H, c1, c1, q, alpha, beta))
    return calls


CORPUS = corpus()


def test_connect_matches_the_reference():
    kinds = {}
    for call in CORPUS:
        for cap in CAPS:
            want = outcome(classes_route_reference, *call, cap)
            got = outcome(connect, *call, cap)
            assert got == want, (call[3:], cap)
            if cap is None and got[0] == "witness":
                assert got == outcome(connect_reference, *call, cap)
            kinds[want[0]] = kinds.get(want[0], 0) + 1
    assert len(CORPUS) * len(CAPS) > 600
    assert {"ok", "witness", "StepCapExceededError"} <= set(kinds), kinds
    assert min(kinds.values()) >= 50, kinds


def test_malformed_inputs_raise_the_same_errors():
    H = generate_hnm(12, 14, 2, 9)
    q, alpha, beta = 4, 1, 2
    good = random_proper_coloring(H, q, random.Random(9))
    e = H.edges[0]
    improper = good.replace(e[1], good[e[0]])
    bad = [
        (good, good, q, -1, beta, None),
        (good, good, q, alpha, 0, None),
        (good, good, alpha + beta, alpha, beta, None),
        (good, good, q, alpha, beta, -1),
        (Coloring(good.colors[:-1]), good, q, alpha, beta, None),
        (good, Coloring(good.colors + (1,)), q, alpha, beta, None),
        (good.replace(1, q + 1), good, q, alpha, beta, None),
        (improper, good, q, alpha, beta, None),
        (good, improper, q, alpha, beta, None),
    ]
    for c1, c2, q_, a, b, cap in bad:
        want = outcome(connect_reference, H, c1, c2, q_, a, b, cap)
        assert want[0] == "ValidationError"
        assert outcome(connect, H, c1, c2, q_, a, b, cap) == want


def test_one_call_validates_once_and_assembles_once(monkeypatch):
    """Two properness checks (one per endpoint), no re-check of the shapes
    it built, one assembled path, no public builder on the way, and the
    reference's steps. At alpha = 1 two peels: one of the first walk's
    leftover and one of the leftover of chi2's classes, which the join's
    last level rewrites along. At alpha = 0 one: there is no walk, and the
    join rewrites one end into the other along V's peel, as the
    direct-route reference does."""
    counts = dict.fromkeys(["is_proper", "check_good_greedy", "_assemble",
                            "path_to_good_greedy",
                            "path_between_good_greedy", "beta_core"], 0)
    for name in counts:
        inner = getattr(reconfig, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(reconfig, name, counting)
    # the corpus has no colorable call at alpha = 0; a path has no 2-core
    line = build(30, 2, [(v, v + 1) for v in range(1, 30)])
    rng = random.Random(3)
    ends = [random_proper_coloring(line, 3, rng) for _ in range(2)]
    calls = [(next(call for call in CORPUS if call[1] != call[2]
                   and outcome(connect, *call, None)[0] == "ok"), 2,
              classes_route_reference),
             ((line, *ends, 3, 0, 2), 1, direct_route_reference)]
    for (H, c1, c2, q, alpha, beta), peels, reference in calls:
        want = reference(H, c1, c2, q, alpha, beta)
        counts.update(dict.fromkeys(counts, 0))
        path = connect(H, c1, c2, q, alpha, beta)
        assert path.steps and path.steps == want.steps
        assert counts == {"is_proper": 2, "check_good_greedy": 0,
                          "_assemble": 1, "path_to_good_greedy": 0,
                          "path_between_good_greedy": 0, "beta_core": peels}


@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 2), st.integers(4, 40))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_path_runs_the_first_walk_then_undoes_the_second_classes(
        seed, k, alpha, beta, extra, n):
    """At alpha >= 1 the path replays cold to chi2. It opens with the walk
    ``path_to_good_greedy`` makes of chi1 and closes with the moves that
    paint chi2's classes, reversed; chi2's leftover is not walked. A call
    that makes no path holds a witness that checks."""
    assume(k <= n)
    rng = random.Random(seed)
    q = alpha + beta + extra
    H = generate_hnm(n, rng.randint(0, min(2 * n, comb(n, k))), k,
                     rng.getrandbits(32))
    try:
        c1 = random_proper_coloring(H, q, rng, tries=20)
        c2 = random_proper_coloring(H, q, rng, tries=20)
    except RuntimeError:
        assume(False)
    assume(c1 != c2)
    try:
        path = connect(H, c1, c2, q, alpha, beta)
    except NotColorableEvidence as exc:
        assert verify_witness(H, exc.witness, alpha, beta)
        return
    verdict = verify_path(H, path, q)
    assert verdict.ok, verdict
    assert verdict.end == c2
    walk, _ = path_to_good_greedy(H, c1, q, alpha, beta)
    assert path.steps[:len(walk)] == walk.steps
    _, moves, _, _ = classes_reference(H, frozenset(range(1, H.n + 1)),
                                       [0] + list(c2.colors), alpha, beta, 0)
    # each vertex moves at most once into its class, so it goes back to c2's
    back = tuple((v, c2[v]) for v, _ in reversed(moves))
    assert path.steps[len(path) - len(back):] == back


def reversed_path(path):
    """The same walk from its end back to its start: each move undone with
    the color it replaced."""
    cur = list(path.start.colors)
    back = []
    for v, c in path.steps:
        back.append((v, cur[v - 1]))
        cur[v - 1] = c
    return RecolorPath(path.end, tuple(reversed(back)), path.start,
                       PathStats())


def test_color_permutation_keeps_connect_sound():
    """One color permutation applied to both endpoints: connect still ends
    in a path that replays to the permuted target, or in a witness that
    checks. The permuted call may end in a witness where the original
    built a path, or the reverse: the greedy classes are seeded from the
    endpoint's own classes on colors 1..alpha, which the permutation moves."""
    rng = random.Random(8)
    paths = 0
    for H, c1, c2, q, alpha, beta in CORPUS:
        sigma = list(range(1, q + 1))
        rng.shuffle(sigma)
        d1, d2 = (Coloring(tuple(sigma[c - 1] for c in col.colors))
                  for col in (c1, c2))
        try:
            path = connect(H, d1, d2, q, alpha, beta)
        except NotColorableEvidence as exc:
            assert verify_witness(H, exc.witness, alpha, beta)
            continue
        verdict = verify_path(H, path, q)
        assert verdict.ok, verdict
        assert verdict.end == d2
        paths += 1
    assert paths >= 100


def test_vertex_relabeling_keeps_witnesses_valid():
    """A witness renamed along with its instance still checks."""
    rng = random.Random(9)
    witnesses = 0
    for H, c1, c2, q, alpha, beta in CORPUS:
        try:
            connect(H, c1, c2, q, alpha, beta)
            continue
        except NotColorableEvidence as exc:
            w = exc.witness
        perm = [0] + rng.sample(range(1, H.n + 1), H.n)

        def ren(S):
            return frozenset(perm[v] for v in S)

        G = build(H.n, H.k, [[perm[u] for u in e] for e in H.edges])
        moved = ColorabilityWitness(
            MISequence(tuple(map(ren, w.sequence.sets)),
                       ren(w.sequence.residual)),
            ren(w.core_vertices))
        assert verify_witness(G, moved, alpha, beta)
        witnesses += 1
    assert witnesses >= 50


def test_reversed_paths_verify_from_their_end():
    checked = 0
    for H, c1, c2, q, alpha, beta in CORPUS:
        try:
            path = connect(H, c1, c2, q, alpha, beta)
        except NotColorableEvidence:
            continue
        verdict = verify_path(H, reversed_path(path), q)
        assert verdict.ok, verdict
        assert verdict.end == path.start
        checked += bool(path.steps)
    assert checked >= 10

