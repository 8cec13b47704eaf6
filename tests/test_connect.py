"""``connect`` against the route it replaced, and reversed paths.

``recolor.reconfig.connect`` validates its inputs once and composes the
phase builders itself. ``helpers.connect_reference`` is the route it
replaced, through the public ``path_to_good_greedy`` (twice) and
``path_between_good_greedy``. The two must agree on every path, every stats
field, every witness, and the type and message of every other exception,
under every step cap.
"""

import dataclasses
import random

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
    verify_path,
    verify_witness,
)
from recolor import reconfig
from helpers import connect_reference, random_proper_coloring

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
            want = outcome(connect_reference, *call, cap)
            assert outcome(connect, *call, cap) == want, (call[3:], cap)
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
    it built, one assembled path, and no public builder on the way."""
    H, c1, c2, q, alpha, beta = next(
        call for call in CORPUS if call[1] != call[2]
        and outcome(connect, *call, None)[0] == "ok")
    counts = dict.fromkeys(["is_proper", "check_good_greedy", "_assemble",
                            "path_to_good_greedy",
                            "path_between_good_greedy"], 0)
    for name in counts:
        inner = getattr(reconfig, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(reconfig, name, counting)
    path = connect(H, c1, c2, q, alpha, beta)
    assert path.steps
    assert counts == {"is_proper": 2, "check_good_greedy": 0,
                      "_assemble": 1, "path_to_good_greedy": 0,
                      "path_between_good_greedy": 0}


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

