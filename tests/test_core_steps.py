"""The region rewriter against its quadratic predecessor, and golden traces.

``recolor.reconfig._core_steps`` replays, at each peel level, only the moves
that can meet the newly activated vertex. ``helpers.core_steps_reference``
is the builder it replaced, which replays every move at every level. The two
must agree on the steps, on the detour counts per level, and on the type and
message of any exception, under every step cap.
"""

import random
from pathlib import Path

import pytest

from recolor import (
    Coloring,
    NotColorableEvidence,
    beta_core,
    build,
    connect,
    extend_to_mis,
    generate_hnm,
    path_core,
    verify_path,
)
from recolor import reconfig
from recolor.cli import main
from helpers import (
    color_coreless,
    core_steps_reference,
    edge_flags_reference,
    random_proper_coloring,
)

GOLDEN = Path(__file__).parent / "golden"
BIG_CAP = reconfig.DEFAULT_STEP_CAP


def outcome(builder, call, cap):
    """What one builder makes of one call: its steps and stats, or the
    type and message of what it raised."""
    H, order, chi, tau, pool = call
    before = list(chi)
    stats = reconfig.PathStats()
    try:
        steps = builder(H, order, chi, tau, pool, cap, stats)
    except Exception as exc:
        res = (type(exc).__name__, str(exc), stats.detours_per_level)
    else:
        res = ("ok", [tuple(s) for s in steps], stats.detours_per_level,
               stats.detour_moves, stats.core_moves)
    assert chi == before, "the builder mutated chi"
    return res


def reference(flags=None):
    """``core_steps_reference`` called like ``_core_steps``, on the edges
    ``flags`` marks: by default all of them, as ``path_core`` marked them."""
    def run(H, order, chi, tau, pool, cap, stats):
        ok = [True] * H.m if flags is None else flags
        return core_steps_reference(H, ok, order, chi, tau, pool, cap, stats)
    return run


def assert_same(call, caps=None, flags=None):
    """Both builders agree uncapped and, when asked, under the step caps
    0, 1, len/2, len-1 and len; returns the uncapped outcome."""
    ref = reference(flags)
    want = outcome(ref, call, BIG_CAP)
    assert outcome(reconfig._core_steps, call, BIG_CAP) == want
    if caps and want[0] == "ok":
        n = len(want[1])
        for cap in sorted({0, 1, n // 2, max(n - 1, 0), n}):
            assert (outcome(reconfig._core_steps, call, cap)
                    == outcome(ref, call, cap)), cap
    return want


def coreless_call(k, beta, n, m, seed, shifted=True):
    """A whole-instance rewrite as ``path_core`` makes it with alpha=0: both
    endpoints first-fit along the peel order, on palettes one color apart
    (many detours) or on a shuffled palette."""
    rng = random.Random(seed)
    for _ in range(200):
        H = generate_hnm(n, m, k, rng.getrandbits(48))
        peel = beta_core(H, beta)
        if not peel.core:
            break
    else:
        raise AssertionError("no coreless instance")
    pool = list(range(1, beta + 2))
    src = color_coreless(H, beta, None, pool[:beta])
    if shifted:
        dst = color_coreless(H, beta, None, pool[1:])
    else:
        rng.shuffle(pool)
        dst = color_coreless(H, beta, None, pool[:beta])
    chi = [0] + [src[v] for v in H.vertices()]
    tau = [0] + [dst[v] for v in H.vertices()]
    return H, list(peel.order), chi, tau, range(1, beta + 2)


COREFREE = [
    # k, beta, n, m
    (2, 2, 300, 120),
    (2, 3, 300, 300),
    (2, 4, 300, 420),
    (3, 2, 300, 90),
    (3, 3, 500, 500),
    (3, 4, 400, 600),
    (4, 2, 300, 60),
    (4, 3, 300, 180),
    (4, 4, 400, 400),
]


@pytest.mark.parametrize("k,beta,n,m", COREFREE)
@pytest.mark.parametrize("shifted", [True, False])
def test_coreless_regions_match_the_reference(k, beta, n, m, shifted):
    res = assert_same(coreless_call(k, beta, n, m, 1000 * k + 10 * beta,
                                    shifted), caps=True)
    assert res[0] == "ok"
    if shifted:
        assert res[3] > 0, "the instance makes no detours"


def test_coreless_region_at_n_4000_matches_the_reference():
    res = assert_same(coreless_call(2, 2, 4000, 1600, 77))
    assert res[0] == "ok" and res[3] > 1000


def test_connect_regions_match_the_reference(monkeypatch):
    """Bridges and final base cases inside ``connect`` with alpha >= 1: the
    region is part of the phase's active set, so some vertices sit outside
    the order and some edges are dead. The reference sees the edges inside
    the active set, as the rewriter's callers once flagged them."""
    calls = []
    actives = []
    builder = reconfig._core_steps

    def within(phase):
        # run a phase with its active set on top of ``actives``
        def run(H, active, *rest):
            actives.append(active)
            try:
                return phase(H, active, *rest)
            finally:
                actives.pop()
        return run

    def recording(H, order, chi, tau, pool, cap, stats):
        calls.append(((H, list(order), list(chi), list(tau), pool),
                      actives[-1]))
        return builder(H, order, chi, tau, pool, cap, stats)

    for name in ("_inter_steps", "_final_steps"):
        monkeypatch.setattr(reconfig, name, within(getattr(reconfig, name)))
    monkeypatch.setattr(reconfig, "_core_steps", recording)
    rng = random.Random(2024)
    for k, n, m, alpha, beta in [(2, 60, 60, 1, 2), (2, 80, 100, 2, 2),
                                 (3, 80, 80, 1, 2), (3, 120, 120, 2, 3),
                                 (4, 100, 150, 1, 3), (3, 300, 300, 2, 3),
                                 (2, 200, 200, 1, 2)]:
        q = alpha + beta + 1
        for _ in range(3):
            H = generate_hnm(n, m, k, rng.getrandbits(48))
            c1 = random_proper_coloring(H, q, rng)
            c2 = random_proper_coloring(H, q, rng)
            try:
                connect(H, c1, c2, q, alpha, beta)
            except NotColorableEvidence:
                pass
    monkeypatch.undo()
    partial = outside = detoured = 0
    for call, active in calls:
        H, order = call[0], call[1]
        flags = edge_flags_reference(H, active)
        partial += not all(flags)
        inside = set(order)
        outside += any(ok and not set(e) <= inside
                       for e, ok in zip(H.edges, flags))
        res = assert_same(call, caps=True, flags=flags)
        detoured += res[0] == "ok" and res[3] > 0
    assert partial and outside and detoured


def fill_region(H, colors, region, palette, rng):
    """Color ``region`` in a random order, each vertex a random palette
    color that completes no monochromatic edge; None when one gets stuck."""
    cols = list(colors)
    order = list(region)
    rng.shuffle(order)
    for v in order:
        blocked = set()
        for ei in H.incidence[v - 1]:
            rest = {cols[u] for u in H.edges[ei] if u != v}
            if len(rest) == 1 and 0 not in rest:
                blocked |= rest
        free = [c for c in palette if c not in blocked]
        if not free:
            return None
        cols[v] = rng.choice(free)
    return Coloring(tuple(cols[1:]))


def partial_region_draw(rng):
    """A ``path_core`` call on part of an instance, or None. The outside is
    an independent set colored within 1..alpha; chi and tau color the
    coreless region from the outside's colors and alpha+1..alpha+beta, so
    both reuse outside colors."""
    k, alpha, beta = rng.choice((2, 2, 3)), rng.randint(1, 2), rng.randint(2, 3)
    n = rng.randint(6, 18)
    H = generate_hnm(n, rng.randint(n // 2, 2 * n), k, rng.getrandbits(48))
    verts = list(range(1, n + 1))
    outside = extend_to_mis(H, rng.sample(verts, rng.randint(1, n // 2)))
    region = [v for v in verts if v not in outside]
    if beta_core(H, beta, region).core:
        return None
    colors = [0] * (n + 1)
    for u in outside:
        colors[u] = rng.randint(1, alpha)
    palette = sorted(set(colors[u] for u in outside)) + \
        list(range(alpha + 1, alpha + beta + 1))
    chi = fill_region(H, colors, region, palette, rng)
    tau = fill_region(H, colors, region, palette, rng)
    if chi is None or tau is None:
        return None
    return H, region, chi, tau, alpha, beta


def test_path_core_on_partial_regions_matches_the_reference():
    """``path_core`` on a region whose outside wears colors the region's
    own colorings reuse: the rewriter keeps the edges through the outside
    that can still turn monochromatic, where the reference checks every
    edge. Steps, detours and refusals agree under every step cap, and every
    path replays. Dropping all edges through the outside breaks this. Where
    the reference's last paint passes the cap, ``path_core`` refuses."""
    rng = random.Random(97)
    draws = reused = detoured = 0
    while draws < 400:
        draw = partial_region_draw(rng)
        if draw is None:
            continue
        H, region, chi, tau, alpha, beta = draw
        q = alpha + beta + 1
        draws += 1
        inside = set(region)
        reused += all(any(c[v] <= alpha for v in region) for c in (chi, tau))
        order = beta_core(H, beta, region).order
        call = (H, list(order), [0, *chi.colors], [0, *tau.colors],
                range(alpha + 1, alpha + beta + 2))
        want = outcome(reference(), call, BIG_CAP)
        assert want[0] == "ok"
        detoured += want[3] > 0
        for cap in range(len(want[1]) + 1):
            ref = outcome(reference(), call, cap)
            if ref[0] == "ok" and len(ref[1]) > cap:
                ref = ("StepCapExceededError",
                       "composed path outgrew the step cap")
            try:
                path = path_core(H, inside, chi, tau, alpha, beta, q, cap)
            except Exception as exc:
                got = (type(exc).__name__, str(exc))
                assert got == ref[:2], cap
                continue
            assert ref == ("ok", list(path.steps),
                           path.stats.detours_per_level,
                           path.stats.detour_moves, path.stats.core_moves)
            verdict = verify_path(H, path, q)
            assert verdict.ok and verdict.end == tau, verdict.reason
    assert reused > draws // 2 and detoured > draws // 10


@pytest.mark.parametrize("k,beta,n,m", COREFREE[::2])
def test_violated_preconditions_raise_the_same_errors(k, beta, n, m):
    """A pool too small for the spares, and targets that are not proper on
    the region: both builders fail at the same point with the same message,
    including where the step cap fires first."""
    H, order, chi, tau, pool = coreless_call(k, beta, n, m, 7 * n)
    rng = random.Random(n + m)
    bad_tau = list(tau)
    for v in order:
        if rng.random() < 0.2:
            bad_tau[v] = rng.choice(pool)
    kinds = set()
    for call in [(H, order, chi, tau, pool[:1]),
                 (H, order, chi, tau, pool[:2]),
                 (H, order, chi, bad_tau, pool)]:
        for cap in [0, 1, 2, 5, 20, 100, BIG_CAP]:
            res = outcome(reference(), call, cap)
            assert outcome(reconfig._core_steps, call, cap) == res, cap
            kinds.add(res[0])
    assert "StepCapExceededError" in kinds
    assert kinds & {"SpareColorError", "ValidationError"}


def test_step_cap_fires_before_a_later_missing_spare():
    """Path 1-2-3 activated as 1, 3, 2 with a one-color pool: at level 2 the
    first replayed move takes a detour, and the second finds no spare. Under
    a cap of 1 the detour overflows first; under a cap of 2 it does not."""
    H = build(3, 2, [(1, 2), (2, 3)])
    call = (H, [1, 3, 2], [0, 3, 2, 2], [0, 2, 2, 1], (1,))
    want = {1: ("StepCapExceededError", "level 2 outgrew the step cap"),
            2: ("SpareColorError", "no spare color for vertex 2 at level 2"),
            BIG_CAP: ("SpareColorError",
                      "no spare color for vertex 2 at level 2")}
    for cap, head in want.items():
        res = outcome(reconfig._core_steps, call, cap)
        assert res[:2] == head
        assert res == outcome(reference(), call, cap)


@pytest.mark.parametrize("edges,order,chi,tau,detours", [
    # vertex 1's two moves come one after the other, and each forces
    # vertex 2 onto a spare
    ([(1, 2, 3), (1, 3, 4), (1, 2, 5)], [4, 3, 1, 5, 2], (3, 1, 1, 3, 2),
     (2, 1, 3, 3, 3), [0, 0, 1, 0, 2]),
    # vertex 4's first move forces vertex 1 onto a spare; its second move
    # takes vertex 1's new color but is not blocked, so its repeat passes
    # the color test and only the skip drops it
    ([(2, 3, 4), (1, 3, 4), (1, 2, 4)], [3, 2, 4, 1], (1, 1, 3, 3),
     (2, 3, 3, 2), [0, 0, 1, 1]),
], ids=["two-detours", "unblocked-repeat"])
def test_a_neighbor_on_two_live_edges_is_replayed_once(edges, order, chi,
                                                       tau, detours):
    """k=3: at the last level one neighbor shares both live edges with the
    new vertex, so the rewriter gathers its moves once per edge. Each move
    is replayed once, and each blocked one takes one detour."""
    call = (build(len(order), 3, edges), order, [0, *chi], [0, *tau],
            (1, 2, 3))
    res = assert_same(call, caps=True)
    assert res[0] == "ok" and res[2] == detours


@pytest.mark.parametrize("name,q,alpha,beta", [("connect_k2", 4, 1, 2),
                                               ("connect_k4", 5, 1, 3)])
def test_connect_trace_matches_golden(name, q, alpha, beta, tmp_path, capsys):
    """Traces recorded with the quadratic rewriter, compared byte for byte."""
    files = {s: str(GOLDEN / f"{name}.{s}.txt") for s in ("h", "c1", "c2")}
    out = tmp_path / "trace.txt"
    assert main(["connect", files["h"], files["c1"], files["c2"],
                 "--q", str(q), "--alpha", str(alpha), "--beta", str(beta),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.trace.txt").read_bytes()
    assert capsys.readouterr().err == \
        (GOLDEN / f"{name}.stderr.txt").read_text()
