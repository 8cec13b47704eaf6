import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    InstanceTooLargeError,
    MISequence,
    ValidationError,
    VertexRangeError,
    beta_core,
    build,
    check_good_greedy,
    extend_to_mis,
    falsify_alpha_beta,
    generate_hnm,
    greedy_sequence,
    independence,
    is_alpha_beta_colorable_exact,
    verify_witness,
)
from helpers import (
    all_maximal_independent_sets,
    colorable_bruteforce,
    exact_certifier_reference,
    extend_to_mis_reference,
    greedy_sequence_reference,
    is_independent_bruteforce,
    random_instance,
)

TRIANGLE = build(3, 2, [(1, 2), (2, 3), (1, 3)])
PATH4 = build(4, 2, [(1, 2), (2, 3), (3, 4)])
PATH3 = build(3, 2, [(1, 2), (2, 3)])


class TestExtendToMis:
    def test_edgeless_takes_everything(self):
        H = build(4, 2, [])
        assert extend_to_mis(H) == frozenset({1, 2, 3, 4})

    def test_k3_edge_ascending(self):
        H = build(3, 3, [(1, 2, 3)])
        assert extend_to_mis(H) == frozenset({1, 2})

    def test_seeded_center_stays_alone(self):
        assert extend_to_mis(PATH3, seed_set={2}) == frozenset({2})

    def test_contains_seed(self):
        H = generate_hnm(8, 10, 2, 1)
        S = extend_to_mis(H, seed_set={5})
        assert 5 in S

    def test_dependent_seed_rejected(self):
        with pytest.raises(ValidationError):
            extend_to_mis(TRIANGLE, seed_set={1, 2})

    def test_inactive_seed_rejected(self):
        with pytest.raises(ValidationError):
            extend_to_mis(TRIANGLE, active=[1, 2], seed_set={3})

    def test_random_requires_seed(self):
        with pytest.raises(ValidationError):
            extend_to_mis(TRIANGLE, strategy="random")

    def test_random_deterministic(self):
        H = generate_hnm(12, 20, 2, 4)
        a = extend_to_mis(H, strategy="random", rng_seed=11)
        b = extend_to_mis(H, strategy="random", rng_seed=11)
        assert a == b

    def test_strategy_aliases(self):
        # the two strategies have one name each
        H = generate_hnm(8, 8, 2, 2)
        for alias in ("ascending-id", "seeded-random"):
            with pytest.raises(ValidationError, match="unknown strategy"):
                extend_to_mis(H, strategy=alias, rng_seed=3)
            with pytest.raises(ValidationError, match="unknown strategy"):
                greedy_sequence(H, 1, strategy=alias, rng_seed=3)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            extend_to_mis(TRIANGLE, strategy="descending")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_maximal_and_independent(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng)
        active = {v for v in H.vertices() if rng.random() < 0.8}
        S = extend_to_mis(H, active=active,
                          strategy="random", rng_seed=seed)
        assert S <= active
        assert is_independent_bruteforce(H, S)
        for v in active - S:
            assert not is_independent_bruteforce(H, S | {v})


class TestGreedySequence:
    def test_edgeless(self):
        H = build(4, 2, [])
        seq = greedy_sequence(H, 2)
        assert seq.sets == (frozenset({1, 2, 3, 4}), frozenset())
        assert seq.residual == frozenset()

    def test_triangle_three_levels(self):
        seq = greedy_sequence(TRIANGLE, 3)
        assert seq.sets == (frozenset({1}), frozenset({2}), frozenset({3}))
        assert seq.residual == frozenset()

    def test_triangle_two_levels_leaves_one(self):
        seq = greedy_sequence(TRIANGLE, 2)
        assert seq.residual == frozenset({3})

    def test_negative_length(self):
        with pytest.raises(ValidationError):
            greedy_sequence(TRIANGLE, -1)

    def test_random_requires_seed(self):
        with pytest.raises(ValidationError):
            greedy_sequence(TRIANGLE, 2, strategy="random")

    def test_length_beyond_the_vertex_limit_refused(self):
        # no instance needs more levels than vertices; refused, not padded
        with pytest.raises(InstanceTooLargeError, match="10+ exceeds"):
            greedy_sequence(TRIANGLE, 10 ** 20)

    def test_pads_with_empty_sets_once_the_residual_runs_out(self):
        seq = greedy_sequence(PATH4, 10 ** 6, "random", rng_seed=3)
        assert len(seq.sets) == 10 ** 6
        assert seq.sets[:3] == greedy_sequence(PATH4, 3, "random", 3).sets
        assert set(seq.sets[2:]) == {frozenset()}
        assert seq.residual == frozenset()

    def test_random_deterministic(self):
        H = generate_hnm(10, 14, 2, 9)
        assert (greedy_sequence(H, 3, "random", rng_seed=5)
                == greedy_sequence(H, 3, "random", rng_seed=5))

    @given(st.integers(0, 10 ** 6), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_each_level_maximal_in_residual(self, seed, t):
        rng = random.Random(seed)
        H = random_instance(rng)
        seq = greedy_sequence(H, t, "random", rng_seed=seed)
        assert len(seq.sets) == t
        remaining = set(H.vertices())
        for part in seq.sets:
            assert part <= remaining
            if remaining:
                assert part in all_maximal_independent_sets(H, remaining)
            else:
                assert part == frozenset()
            remaining -= part
        assert seq.residual == frozenset(remaining)


def outcome(call):
    """The value a call returns, or the type and wording of its refusal."""
    try:
        return call()
    except ValidationError as exc:
        return type(exc), str(exc)


class TestMisAgainstReference:
    """extend_to_mis and greedy_sequence against the versions that grew
    every level through the checking extend_to_mis: the same sets, the
    same sequences and the same refusals."""

    @given(st.integers(0, 10 ** 9), st.sampled_from(["ascending", "random"]))
    @settings(max_examples=150, deadline=None)
    def test_extend_to_mis(self, seed, strategy):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(4, 30), k_max=4, m_max=60)
        verts = list(H.vertices())
        active = (None if rng.random() < 0.5
                  else rng.sample(verts, rng.randint(0, H.n)))
        act = verts if active is None else active
        # an independent seed set: part of a maximal one inside a subset
        grown = extend_to_mis_reference(
            H, rng.sample(act, rng.randint(0, len(act))), (), "random", seed)
        seeds = rng.sample(sorted(grown), rng.randint(0, len(grown)))
        # and any set of ids, which may be dependent, inactive or outside
        anything = rng.sample(range(0, H.n + 3), rng.randint(0, H.n))
        for seed_set in (seeds, anything):
            args = (H, active, seed_set, strategy, rng.getrandbits(64))
            want = outcome(lambda: extend_to_mis_reference(*args))
            got = outcome(lambda: extend_to_mis(*args))
            assert got == want

    @given(st.integers(0, 10 ** 9), st.sampled_from(["ascending", "random"]),
           st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_greedy_sequence(self, seed, strategy, t):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(4, 30), k_max=4, m_max=60)
        active = (None if rng.random() < 0.5
                  else rng.sample(list(H.vertices()), rng.randint(0, H.n)))
        args = (H, t, strategy, rng.getrandbits(64), active)
        want = greedy_sequence_reference(*args)
        got = greedy_sequence(*args)
        assert type(got) is MISequence
        assert got == want
        assert all(type(part) is frozenset for part in got.sets)


# every length where the shuffle's draw width changes, on either side
SHUFFLE_LENGTHS = sorted({0, 1, 2, 10 ** 4} | {
    length for j in range(1, 15)
    for length in (2 ** j - 1, 2 ** j, 2 ** j + 1)})


class TestShuffle:
    """independence._shuffle against random.Random.shuffle: the same
    order, and the generator left in the same state."""

    @staticmethod
    def assert_matches_shuffle(items, seed):
        fast, slow = random.Random(seed), random.Random(seed)
        got, want = list(items), list(items)
        independence._shuffle(fast, got)
        slow.shuffle(want)
        assert got == want
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("length", SHUFFLE_LENGTHS)
    @pytest.mark.parametrize("seed", [-7, 0, 2 ** 64 - 1])
    def test_lengths_where_the_draw_width_changes(self, length, seed):
        self.assert_matches_shuffle(range(length), seed)

    @given(st.lists(st.integers()), st.integers(-2 ** 70, 2 ** 70))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_any_list_and_seed(self, items, seed):
        self.assert_matches_shuffle(items, seed)


class TestArgumentChecks:
    """Arguments that once escaped as a TypeError, or as a bool taken for
    a vertex, are refused in one line."""

    @pytest.mark.parametrize("seed_set,shown", [
        ([1.0], "1.0"), ([2, "x"], "'x'"), ([True], "True"),
    ])
    def test_a_seed_vertex_that_is_not_an_int(self, seed_set, shown):
        with pytest.raises(VertexRangeError) as caught:
            extend_to_mis(PATH3, seed_set=seed_set)
        assert str(caught.value) == f"seed vertex {shown} is not an integer"

    @pytest.mark.parametrize("t", [2.0, "2", None])
    def test_a_sequence_length_that_is_not_an_int(self, t):
        with pytest.raises(ValidationError) as caught:
            greedy_sequence(PATH3, t)
        assert type(caught.value) is ValidationError
        assert str(caught.value) == (
            f"sequence length must be nonnegative, got {t!r}")

    def test_an_ascending_draw_ignores_the_seed(self):
        assert (extend_to_mis(PATH3, rng_seed=1.5)
                == greedy_sequence(PATH3, 1, rng_seed="abc").sets[0]
                == frozenset({1, 3}))


class TestCheckGoodGreedy:
    def test_edgeless_single_class(self):
        H = build(3, 2, [])
        assert check_good_greedy(H, Coloring((1, 1, 1)), 1, 1)

    def test_triangle_alpha1_beta1_false(self):
        assert not check_good_greedy(TRIANGLE, Coloring((1, 2, 3)), 1, 1)

    def test_triangle_alpha2_beta1_true(self):
        assert check_good_greedy(TRIANGLE, Coloring((1, 2, 3)), 2, 1)

    def test_improper_is_not_good(self):
        H = build(2, 2, [(1, 2)])
        assert not check_good_greedy(H, Coloring((1, 1)), 0, 1)

    def test_non_maximal_class_fails(self):
        # classes {1}, {2} on the edgeless pair are not maximal
        H = build(2, 2, [])
        assert not check_good_greedy(H, Coloring((1, 2)), 1, 1)
        assert check_good_greedy(H, Coloring((1, 1)), 1, 1)

    def test_residual_color_budget(self):
        H = build(3, 2, [(1, 2)])
        # alpha=0: residual is everything; three distinct colors > beta=2
        assert not check_good_greedy(H, Coloring((1, 2, 3)), 0, 2)
        assert check_good_greedy(H, Coloring((1, 2, 3)), 0, 3)

    def test_residual_core_fails(self):
        # two residual colors fit beta=2, but the 4-cycle is its own 2-core
        H = build(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert not check_good_greedy(H, Coloring((1, 2, 1, 2)), 0, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            check_good_greedy(TRIANGLE, Coloring((1, 2)), 1, 1)


class TestExactCertifier:
    def test_edgeless_one_one(self):
        H = build(4, 2, [])
        assert is_alpha_beta_colorable_exact(H, 1, 1) is True

    def test_triangle_not_one_one(self):
        w = is_alpha_beta_colorable_exact(TRIANGLE, 1, 1)
        assert w is not True
        assert len(w.sequence.sets) == 1
        assert w.core_vertices
        assert verify_witness(TRIANGLE, w, 1, 1)

    def test_triangle_two_one(self):
        assert is_alpha_beta_colorable_exact(TRIANGLE, 2, 1) is True

    def test_too_large_refused(self):
        H = generate_hnm(13, 10, 2, 0)
        with pytest.raises(InstanceTooLargeError):
            is_alpha_beta_colorable_exact(H, 1, 1)

    def test_zero_alpha_reduces_to_core(self):
        assert is_alpha_beta_colorable_exact(PATH3, 0, 2) is True
        w = is_alpha_beta_colorable_exact(PATH3, 0, 1)
        assert w is not True and w.sequence.sets == ()

    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, seed, alpha, beta):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 6))
        expected = colorable_bruteforce(H, alpha, beta)
        got = is_alpha_beta_colorable_exact(H, alpha, beta)
        if expected:
            assert got is True
        else:
            assert got is not True
            assert verify_witness(H, got, alpha, beta)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_removing_any_maximal_set_lowers_the_level(self, seed):
        # certified (alpha,beta)-colorable => removing ANY maximal
        # independent set leaves an (alpha-1,beta)-colorable residual
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(3, 6))
        for alpha, beta in ((1, 1), (1, 2), (2, 1)):
            if is_alpha_beta_colorable_exact(H, alpha, beta) is not True:
                continue
            for part in all_maximal_independent_sets(H):
                rest = frozenset(H.vertices()) - part
                assert is_alpha_beta_colorable_exact(
                    H, alpha - 1, beta, active=rest) is True


class TestExactAgainstReference:
    """The per-call search against the class it replaced: the same verdict
    and, for a witness, the same sets in order, residual and core."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_verdicts_and_witnesses(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(2, 9)
            k = rng.randint(2, min(3, n))
            H = generate_hnm(n, rng.randint(0, min(2 * n, comb(n, k))), k,
                             rng.getrandbits(32))
            verts = list(range(1, n + 1))
            for active in (None, verts, rng.sample(verts, rng.randint(1, n)),
                           []):
                for alpha in range(4):
                    for beta in range(1, 4):
                        want = exact_certifier_reference(H, alpha, beta, active)
                        got = is_alpha_beta_colorable_exact(H, alpha, beta,
                                                            active)
                        if want is True:
                            assert got is True
                            continue
                        assert got is not True
                        assert got.sequence.sets == want.sequence.sets
                        assert got.sequence.residual == want.sequence.residual
                        assert got.core_vertices == want.core_vertices

    @pytest.mark.parametrize("args,error", [
        # a bad active set is named before the size cap ...
        ((build(13, 2, []), 1, 1, [0] + list(range(1, 13))), ValidationError),
        ((build(13, 2, []), -1, 0, [14]), ValidationError),
        # ... and the size cap before a bad alpha or beta
        ((build(13, 2, []), -1, 0), InstanceTooLargeError),
        ((build(5, 2, []), -1, 1), ValidationError),
        ((build(5, 2, []), 1, 0), ValidationError),
        ((build(5, 2, []), 1, 1, None, 4), InstanceTooLargeError),
    ])
    def test_same_refusals(self, args, error):
        with pytest.raises(error) as want:
            exact_certifier_reference(*args)
        with pytest.raises(error) as got:
            is_alpha_beta_colorable_exact(*args)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestVerifyWitness:
    def test_rejects_wrong_core(self):
        w = is_alpha_beta_colorable_exact(TRIANGLE, 1, 1)
        from recolor import ColorabilityWitness, MISequence
        fake = ColorabilityWitness(
            MISequence(w.sequence.sets, w.sequence.residual),
            core_vertices=frozenset({1}))
        assert not verify_witness(TRIANGLE, fake, 1, 1)

    def test_rejects_non_maximal_set(self):
        from recolor import ColorabilityWitness, MISequence
        fake = ColorabilityWitness(
            MISequence((frozenset(),), frozenset({1, 2, 3})),
            core_vertices=frozenset({1, 2, 3}))
        assert not verify_witness(TRIANGLE, fake, 1, 2)


    def test_rejects_set_holding_an_edge(self):
        # on K4 the set {1, 2} holds edge 12; it is still maximal, and what
        # is left keeps its 1-core, so only the edge inside it is wrong
        from recolor import ColorabilityWitness, MISequence
        K4 = build(4, 2, list(itertools.combinations(range(1, 5), 2)))
        good = ColorabilityWitness(
            MISequence((frozenset({1}),), frozenset({2, 3, 4})),
            core_vertices=frozenset({2, 3, 4}))
        assert verify_witness(K4, good, 1, 1)
        fake = ColorabilityWitness(
            MISequence((frozenset({1, 2}),), frozenset({3, 4})),
            core_vertices=frozenset({3, 4}))
        assert beta_core(K4, 1, {3, 4}).core == fake.core_vertices
        assert all(any(set(e) - {u} <= {1, 2} for e in K4.edges if u in e)
                   for u in (3, 4))
        assert not verify_witness(K4, fake, 1, 1)

    @staticmethod
    def k4_witness():
        """K4 at alpha = 2, beta = 1: two singleton levels leave an edge."""
        from recolor import ColorabilityWitness, MISequence
        K4 = build(4, 2, list(itertools.combinations(range(1, 5), 2)))
        w = is_alpha_beta_colorable_exact(K4, 2, 1)
        assert verify_witness(K4, w, 2, 1)
        return K4, w, ColorabilityWitness, MISequence

    def test_rejects_wrong_sequence_length(self):
        # the first level alone, as a consistent alpha = 1 witness
        K4, w, Witness, Seq = self.k4_witness()
        first, second = w.sequence.sets
        rest = w.sequence.residual | second
        short = Witness(Seq((first,), rest), beta_core(K4, 1, rest).core)
        assert verify_witness(K4, short, 1, 1)
        assert not verify_witness(K4, short, 2, 1)

    def test_rejects_set_outside_the_residual(self):
        # the first level again as the second: independent, maximal in
        # what is left, and what is left keeps its core
        K4, w, Witness, Seq = self.k4_witness()
        first, second = w.sequence.sets
        rest = w.sequence.residual | second
        fake = Witness(Seq((first, first), rest),
                       beta_core(K4, 1, rest).core)
        assert fake.core_vertices
        assert not verify_witness(K4, fake, 2, 1)

    def test_rejects_wrong_residual(self):
        K4, w, Witness, Seq = self.k4_witness()
        first, second = w.sequence.sets
        fake = Witness(Seq(w.sequence.sets, w.sequence.residual | second),
                       w.core_vertices)
        assert not verify_witness(K4, fake, 2, 1)

class TestFalsify:
    def test_edgeless_never_witnesses(self):
        H = build(5, 2, [])
        assert falsify_alpha_beta(H, 1, 1, trials=10, rng_seed=0) is None

    def test_triangle_always_witnesses(self):
        w = falsify_alpha_beta(TRIANGLE, 1, 1, trials=10, rng_seed=0)
        assert w is not None
        assert verify_witness(TRIANGLE, w, 1, 1)

    def test_deterministic(self):
        H = generate_hnm(30, 80, 2, 2)
        a = falsify_alpha_beta(H, 2, 2, trials=5, rng_seed=42)
        b = falsify_alpha_beta(H, 2, 2, trials=5, rng_seed=42)
        assert a == b

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError):
            falsify_alpha_beta(TRIANGLE, 1, 1, trials=0, rng_seed=0)

    def test_alpha_covering_the_active_set_returns_at_once(self):
        # alpha levels empty any residual of at most alpha vertices
        start = time.perf_counter()
        assert falsify_alpha_beta(PATH4, 10 ** 6, 1, trials=5,
                                  rng_seed=0) is None
        assert falsify_alpha_beta(TRIANGLE, 2, 1, trials=5, rng_seed=0,
                                  active={1, 2}) is None
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("kwargs,error,message", [
        (dict(alpha=10 ** 6, beta=1, trials=0), ValidationError,
         "trials must be positive, got 0"),
        (dict(alpha=-1, beta=0, trials=0), ValidationError,
         "need alpha >= 0 and beta >= 1, got (-1, 0)"),
        (dict(alpha=-1, beta=0, trials=1, active={9}), VertexRangeError,
         "active vertex 9 outside 1..4"),
        (dict(alpha=10 ** 6, beta=0, trials=1, active={9}),
         VertexRangeError, "active vertex 9 outside 1..4"),
        (dict(alpha=10 ** 6, beta=0, trials=1), ValidationError,
         "need alpha >= 0 and beta >= 1, got (1000000, 0)"),
    ])
    def test_refusals_come_before_the_shortcut(self, kwargs, error, message):
        with pytest.raises(error) as caught:
            falsify_alpha_beta(PATH4, rng_seed=0, **kwargs)
        assert type(caught.value) is error and str(caught.value) == message

    def test_witness_consistent_with_exact(self):
        # a found witness refutes colorability; the exact search must agree
        for seed in range(40):
            H = generate_hnm(7, 10, 2, seed)
            w = falsify_alpha_beta(H, 1, 1, trials=8, rng_seed=seed)
            if w is not None:
                assert is_alpha_beta_colorable_exact(H, 1, 1) is not True


class TestColorClassesSanity:
    def test_classes_of_proper_coloring_are_independent(self):
        for seed in range(25):
            rng = random.Random(seed)
            H = random_instance(rng)
            from helpers import random_proper_coloring
            col = random_proper_coloring(H, q=4, rng=rng)
            for c in col.used_colors():
                cls = {v for v in H.vertices() if col[v] == c}
                assert is_independent_bruteforce(H, cls)
