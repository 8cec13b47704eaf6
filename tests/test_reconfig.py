import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    NonemptyCoreError,
    NotColorableEvidence,
    RecolorPath,
    PathStats,
    StepCapExceededError,
    ValidationError,
    beta_core,
    build,
    check_good_greedy,
    connect,
    gamma_distance,
    generate_hnm,
    is_alpha_beta_colorable_exact,
    is_proper,
    path_between_good_greedy,
    path_core,
    path_to_good_greedy,
    verify_path,
    verify_witness,
)
from recolor import independence, reconfig
from helpers import color_coreless, random_instance, random_proper_coloring

K2 = build(2, 2, [(1, 2)])
PATH3 = build(3, 2, [(1, 2), (2, 3)])
TRIANGLE = build(3, 2, [(1, 2), (2, 3), (1, 3)])


def assert_sound(H, path, q, target=None):
    verdict = verify_path(H, path, q)
    assert verdict.ok, verdict
    assert verdict.end == path.end
    if target is not None:
        assert path.end.colors == target.colors
    for _, c in path.steps:
        assert 1 <= c <= q


class TestPathCore:
    def test_empty_region_identity(self):
        chi = Coloring((1, 1))
        p = path_core(build(2, 2, []), [], chi, chi, alpha=1, beta=1, q=3)
        assert p.steps == ()
        assert p.end == chi

    def test_k2_worked_trace(self):
        chi, tau = Coloring((1, 2)), Coloring((2, 1))
        p = path_core(K2, [1, 2], chi, tau, alpha=0, beta=2, q=3)
        assert p.steps == ((1, 3), (2, 1), (1, 2))
        assert_sound(K2, p, 3, tau)
        assert gamma_distance(K2, 3, chi, tau) == 3  # optimal here

    def test_path_graph_swap(self):
        chi, tau = Coloring((1, 2, 1)), Coloring((2, 1, 2))
        p = path_core(PATH3, [1, 2, 3], chi, tau, alpha=0, beta=2, q=3)
        assert_sound(PATH3, p, 3, tau)
        assert len(p) >= gamma_distance(PATH3, 3, chi, tau)

    def test_q_too_small(self):
        chi = Coloring((1, 2))
        with pytest.raises(ValidationError):
            path_core(K2, [1, 2], chi, chi, alpha=1, beta=2, q=3)

    def test_disagreement_outside_region(self):
        chi, tau = Coloring((1, 2, 1)), Coloring((1, 2, 2))
        with pytest.raises(ValidationError):
            path_core(PATH3, [1, 2], chi, tau, alpha=2, beta=1, q=4)

    def test_disagreement_outside_region_is_named(self):
        # vertex 3 has no edge, so only the disagreement check can refuse
        H = build(3, 2, [(1, 2)])
        chi, tau = Coloring((1, 2, 1)), Coloring((2, 1, 1))
        assert_sound(H, path_core(H, [1, 2], chi, tau, alpha=1, beta=2, q=4),
                     4, tau)
        with pytest.raises(
                ValidationError,
                match="^colorings disagree at vertex 3 outside the region$"):
            path_core(H, [1, 2], chi, tau.replace(3, 2),
                      alpha=1, beta=2, q=4)

    def test_outside_color_above_alpha(self):
        chi = Coloring((1, 2, 3))
        with pytest.raises(ValidationError):
            path_core(PATH3, [1, 2], chi, chi, alpha=2, beta=1, q=4)

    def test_too_many_new_colors_on_region(self):
        H = build(4, 2, [])
        chi = Coloring((1, 1, 1, 1))
        tau = Coloring((2, 3, 1, 1))
        with pytest.raises(ValidationError):
            path_core(H, [1, 2], chi, tau, alpha=1, beta=1, q=3)

    def test_region_with_core_refused(self):
        cycle = build(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
        chi = Coloring((1, 2, 1, 2))
        with pytest.raises(NonemptyCoreError):
            path_core(cycle, [1, 2, 3, 4], chi, chi, alpha=0, beta=2, q=3)

    def test_improper_endpoint(self):
        with pytest.raises(ValidationError):
            path_core(K2, [1, 2], Coloring((1, 1)), Coloring((1, 2)),
                      alpha=0, beta=2, q=3)

    def test_step_cap(self):
        H = generate_hnm(10, 12, 2, 8)
        assert beta_core(H, 3).core == frozenset()
        a = color_coreless(H, 3, None, [1, 2, 3])
        b = color_coreless(H, 3, None, [3, 4, 1])
        chi = Coloring(tuple(a[v] for v in H.vertices()))
        tau = Coloring(tuple(b[v] for v in H.vertices()))
        with pytest.raises(StepCapExceededError):
            path_core(H, H.vertices(), chi, tau, alpha=0, beta=3, q=4,
                      step_cap=3)

    def test_negative_step_cap_is_malformed(self):
        chi, tau = Coloring((1, 2)), Coloring((2, 1))
        with pytest.raises(ValidationError,
                           match="^step cap must be nonnegative, got -1$"):
            path_core(K2, [1, 2], chi, tau, alpha=0, beta=2, q=3, step_cap=-1)
        for builder, args in [(path_to_good_greedy, (chi, 3, 0, 2)),
                              (path_between_good_greedy, (chi, tau, 3, 0, 2)),
                              (connect, (chi, chi, 3, 0, 2))]:
            with pytest.raises(ValidationError, match="step cap"):
                builder(K2, *args, step_cap=-1)
        # a cap of 0 is valid: it refuses any move, but only as a budget
        assert path_core(K2, [1, 2], chi, chi, alpha=0, beta=2, q=3,
                         step_cap=0).steps == ()
        with pytest.raises(StepCapExceededError):
            path_core(K2, [1, 2], chi, tau, alpha=0, beta=2, q=3, step_cap=0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_random_coreless_rewrites(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 8))
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        q = beta + 1
        pal_a = list(range(1, beta + 1))
        pal_b = list(range(2, beta + 2))
        rng.shuffle(pal_b)
        a = color_coreless(H, beta, None, pal_a)
        b = color_coreless(H, beta, None, pal_b)
        chi = Coloring(tuple(a[v] for v in H.vertices()))
        tau = Coloring(tuple(b[v] for v in H.vertices()))
        p = path_core(H, H.vertices(), chi, tau, alpha=0, beta=beta, q=q)
        assert_sound(H, p, q, tau)
        assert p.stats.core_moves == len(p.steps)
        assert len(p.stats.detours_per_level) == H.n


class TestPathToGoodGreedy:
    def test_triangle_q4(self):
        p, tau = path_to_good_greedy(TRIANGLE, Coloring((1, 2, 3)), 4, 2, 1)
        assert check_good_greedy(TRIANGLE, tau, 2, 1)
        assert_sound(TRIANGLE, p, 4, tau)

    def test_triangle_not_colorable(self):
        with pytest.raises(NotColorableEvidence) as exc:
            path_to_good_greedy(TRIANGLE, Coloring((1, 2, 3)), 3, 1, 1)
        assert verify_witness(TRIANGLE, exc.value.witness, 1, 1)

    def test_already_good_greedy_zero_moves(self):
        H = build(4, 2, [(1, 2), (3, 4)])
        chi = Coloring((1, 2, 1, 2))
        assert check_good_greedy(H, chi, 1, 1)
        p, tau = path_to_good_greedy(H, chi, 3, 1, 1)
        assert p.steps == ()
        assert tau == chi

    def test_improper_start(self):
        with pytest.raises(ValidationError):
            path_to_good_greedy(K2, Coloring((2, 2)), 3, 0, 2)

    @given(st.integers(0, 10 ** 6), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_starts_reach_greedy_shape(self, seed, alpha):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 9))
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        q = alpha + beta + 1
        chi = random_proper_coloring(H, q, rng)
        p, tau = path_to_good_greedy(H, chi, q, alpha, beta)
        assert check_good_greedy(H, tau, alpha, beta)
        assert_sound(H, p, q, tau)
        # class-phase accounting: the first inter_moves steps touch each
        # vertex at most twice
        per_vertex = Counter(v for v, _ in p.steps[:p.stats.inter_moves])
        assert all(c <= 2 for c in per_vertex.values())


class TestPathBetweenGoodGreedy:
    def test_equal_endpoints_empty(self):
        chi = Coloring((1, 2, 3))
        p = path_between_good_greedy(TRIANGLE, chi, chi, 4, 2, 1)
        assert p.steps == ()

    def test_triangle_swap(self):
        chi, tau = Coloring((1, 2, 3)), Coloring((2, 1, 3))
        p = path_between_good_greedy(TRIANGLE, chi, tau, 4, 2, 1)
        assert_sound(TRIANGLE, p, 4, tau)

    def test_rejects_non_good_greedy(self):
        with pytest.raises(ValidationError):
            path_between_good_greedy(TRIANGLE, Coloring((1, 2, 3)),
                                     Coloring((2, 1, 3)), 3, 1, 1)

    def test_rejects_non_good_greedy_target(self):
        # (2, 4, 3) is proper but leaves class 1 empty
        chi, tau = Coloring((1, 2, 3)), Coloring((2, 1, 3))
        assert_sound(TRIANGLE, path_between_good_greedy(
            TRIANGLE, chi, tau, 4, 2, 1), 4, tau)
        bad = tau.replace(2, 4)
        assert not check_good_greedy(TRIANGLE, bad, 2, 1)
        with pytest.raises(ValidationError,
                           match="^target coloring is not greedy-shaped$"):
            path_between_good_greedy(TRIANGLE, chi, bad, 4, 2, 1)

    def test_rejects_a_target_whose_residual_keeps_a_core(self):
        # a 4-cycle on 1..4 with hub 5: tau's class 1 is the hub, which
        # leaves the cycle, a 2-core, as its residual
        H = build(5, 2, [(1, 2), (2, 3), (3, 4), (1, 4),
                         (1, 5), (2, 5), (3, 5), (4, 5)])
        chi, tau = Coloring((1, 2, 1, 2, 3)), Coloring((2, 3, 2, 3, 1))
        assert is_proper(H, tau) and check_good_greedy(H, chi, 1, 2)
        assert not check_good_greedy(H, tau, 1, 2)
        with pytest.raises(ValidationError,
                           match="^target coloring is not greedy-shaped$"):
            path_between_good_greedy(H, chi, tau, 4, 1, 2)

    def test_alpha_zero_delegates_to_region_rewrite(self):
        H = generate_hnm(8, 9, 2, 5)
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        q = beta + 1
        a = color_coreless(H, beta, None, list(range(1, beta + 1)))
        b = color_coreless(H, beta, None, list(range(beta + 1, 0, -1)))
        chi = Coloring(tuple(a[v] for v in H.vertices()))
        tau = Coloring(tuple(b[v] for v in H.vertices()))
        assert check_good_greedy(H, chi, 0, beta)
        assert check_good_greedy(H, tau, 0, beta)
        p = path_between_good_greedy(H, chi, tau, q, 0, beta)
        assert_sound(H, p, q, tau)
        assert p.stats.final_depth == 1

    def test_each_endpoint_is_peeled_once(self, monkeypatch):
        # the target's check keeps its peel for the join's base case, so at
        # alpha <= 1 only the two endpoint checks peel, base case reached
        # (final_depth alpha + 1) or not
        peels = []

        def counting(*args):
            peels.append(args)
            return beta_core(*args)

        monkeypatch.setattr(independence, "beta_core", counting)
        monkeypatch.setattr(reconfig, "beta_core", counting)
        H = generate_hnm(8, 9, 2, 5)
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        a = color_coreless(H, beta, None, list(range(1, beta + 1)))
        b = color_coreless(H, beta, None, list(range(beta + 1, 0, -1)))
        calls = [(H, Coloring(tuple(a[v] for v in H.vertices())),
                  Coloring(tuple(b[v] for v in H.vertices())), beta + 1, 0,
                  beta, 1),
                 (TRIANGLE, Coloring((1, 2, 3)), Coloring((2, 1, 3)), 4, 1,
                  2, 2),
                 (TRIANGLE, Coloring((1, 2, 3)), Coloring((1, 2, 3)), 4, 1,
                  2, 0)]
        for H, chi, tau, q, alpha, beta, depth in calls:
            peels.clear()
            p = path_between_good_greedy(H, chi, tau, q, alpha, beta)
            assert p.end == tau and p.stats.final_depth == depth
            assert len(peels) == 2

    def test_witness_lifted_from_recursion(self):
        # not (2,1)-colorable, yet both endpoints are good greedy; the
        # failure surfaces one level down the join and the witness must
        # be lifted back to the full instance
        H = generate_hnm(6, 9, 2, 33)
        assert is_alpha_beta_colorable_exact(H, 2, 1) is not True
        chi = Coloring((1, 2, 2, 3, 3, 1))
        tau = Coloring((2, 1, 1, 3, 3, 2))
        assert check_good_greedy(H, chi, 2, 1)
        assert check_good_greedy(H, tau, 2, 1)
        with pytest.raises(NotColorableEvidence) as exc:
            path_between_good_greedy(H, chi, tau, 4, 2, 1)
        w = exc.value.witness
        assert len(w.sequence.sets) == 2
        assert w.sequence.sets[0] == frozenset({2, 3})  # tau's class 1
        assert verify_witness(H, w, 2, 1)

    def test_color_discipline_after_freezing(self):
        # once a class is frozen at level j of the join, later moves never
        # touch colors 1..j: replay and check against class 1's freezing
        H = generate_hnm(9, 10, 2, 12)
        rng = random.Random(0)
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        alpha, q = 2, 2 + beta + 1
        _, chi = path_to_good_greedy(H, random_proper_coloring(H, q, rng),
                                     q, alpha, beta)
        _, tau = path_to_good_greedy(H, random_proper_coloring(H, q, rng),
                                     q, alpha, beta)
        p = path_between_good_greedy(H, chi, tau, q, alpha, beta)
        assert_sound(H, p, q, tau)
        frozen = {v for v in H.vertices() if tau[v] == 1}
        cur = dict(enumerate(chi.colors, start=1))
        froze_at = -1 if all(cur[v] == 1 for v in frozen) else None
        for i, (v, c) in enumerate(p.steps):
            cur[v] = c
            if froze_at is None and all(cur[v] == 1 for v in frozen):
                froze_at = i
        for v, c in p.steps[froze_at + 1:]:
            assert v not in frozen
            assert c >= 2


class TestConnect:
    def test_identical_endpoints(self):
        chi = Coloring((1, 2))
        p = connect(K2, chi, chi, 3, 0, 2)
        assert p.steps == () and p.end == chi

    def test_k2_antipodal(self):
        chi, tau = Coloring((1, 2)), Coloring((2, 1))
        p = connect(K2, chi, tau, 3, 0, 2)
        assert_sound(K2, p, 3, tau)
        assert len(p) >= 3
        assert gamma_distance(K2, 3, chi, tau) == 3

    def test_triangle_not_colorable_raises(self):
        with pytest.raises(NotColorableEvidence):
            connect(TRIANGLE, Coloring((1, 2, 3)), Coloring((2, 1, 3)), 3, 1, 1)

    def test_improper_input(self):
        with pytest.raises(ValidationError):
            connect(K2, Coloring((1, 1)), Coloring((1, 2)), 3, 0, 2)

    def test_random_pairs_k3(self):
        # fifty coloring pairs on one 3-uniform instance
        H = generate_hnm(8, 8, 3, 0)
        alpha, beta = 1, 1
        assert is_alpha_beta_colorable_exact(H, alpha, beta) is True
        q = alpha + beta + 1
        rng = random.Random(99)
        for _ in range(50):
            c1 = random_proper_coloring(H, q, rng)
            c2 = random_proper_coloring(H, q, rng)
            p = connect(H, c1, c2, q, alpha, beta)
            assert_sound(H, p, q, c2)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 8))
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        alpha = rng.randint(0, 2)
        q = alpha + beta + 1
        c1 = random_proper_coloring(H, q, rng)
        c2 = random_proper_coloring(H, q, rng)
        p = connect(H, c1, c2, q, alpha, beta)
        assert_sound(H, p, q, c2)
        total = (p.stats.inter_moves + p.stats.core_moves
                 + p.stats.final_moves)
        assert total == len(p.steps)

    def test_oracle_lower_bound(self):
        H = generate_hnm(5, 4, 2, 21)
        beta = next(b for b in itertools.count(1) if not beta_core(H, b).core)
        q = beta + 1
        rng = random.Random(3)
        for _ in range(10):
            c1 = random_proper_coloring(H, q, rng)
            c2 = random_proper_coloring(H, q, rng)
            p = connect(H, c1, c2, q, 0, beta)
            assert_sound(H, p, q, c2)
            d = gamma_distance(H, q, c1, c2)
            assert d is not None and len(p) >= d


    def test_cost_stops_growing_once_the_classes_cover_everything(self):
        """On a path of four vertices two classes take every vertex, so the
        other 999,998 greedy levels are empty and build nothing: no class
        list, step or copy grows with alpha."""
        import tracemalloc
        H = build(4, 2, [(1, 2), (2, 3), (3, 4)])
        chi, tau = Coloring((1, 2, 1, 2)), Coloring((2, 1, 2, 1))
        alpha = 10 ** 6
        q = alpha + 2
        tracemalloc.start()
        try:
            p = connect(H, chi, tau, q, alpha, 1)
            between = path_between_good_greedy(H, chi, tau, q, alpha, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert_sound(H, p, q, tau)
        assert_sound(H, between, q, tau)

class TestVerifyPath:
    def test_empty_path_ok(self):
        chi = Coloring((1, 2))
        v = verify_path(K2, RecolorPath(chi, (), chi, PathStats()), 2)
        assert v.ok and v.end == chi

    def test_noop_step_flagged(self):
        chi = Coloring((1, 2))
        p = RecolorPath(chi, ((1, 1),), chi, PathStats())
        v = verify_path(K2, p, 3)
        assert not v.ok and v.reason == "hamming-step" and v.failure_index == 0

    def test_improper_start(self):
        chi = Coloring((1, 1))
        v = verify_path(K2, RecolorPath(chi, (), chi, PathStats()), 3)
        assert not v.ok and v.reason == "improper-start"

    def test_improper_intermediate(self):
        chi = Coloring((1, 2))
        p = RecolorPath(chi, ((2, 1),), chi, PathStats())
        v = verify_path(K2, p, 3)
        assert not v.ok and v.reason == "improper-intermediate"

    def test_color_out_of_range(self):
        chi = Coloring((1, 2))
        p = RecolorPath(chi, ((1, 4),), chi, PathStats())
        v = verify_path(K2, p, 3)
        assert not v.ok and v.reason == "color-out-of-range"

    def test_vertex_out_of_range(self):
        chi = Coloring((1, 2))
        p = RecolorPath(chi, ((3, 1),), chi, PathStats())
        v = verify_path(K2, p, 3)
        assert not v.ok and v.reason == "vertex-out-of-range"

    def test_start_color_above_q(self):
        chi = Coloring((1, 3))
        v = verify_path(K2, RecolorPath(chi, (), chi, PathStats()), 2)
        assert not v.ok and v.reason == "start-color-out-of-range"
