import random
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    InstanceTooLargeError,
    ValidationError,
    beta_core,
    build,
    enumerate_proper,
    gamma_distance,
    gamma_stats,
    generate_hnm,
    hamming,
    is_proper,
    read_hypergraph,
)
from recolor.cli import main
from helpers import gamma_distance_reference, gamma_stats_reference, random_instance

GOLDEN = Path(__file__).parent / "golden"

K2 = build(2, 2, [(1, 2)])
K3 = build(3, 2, [(1, 2), (2, 3), (1, 3)])


def complete_graph(n):
    return build(n, 2, [(i, j) for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)])


class TestEnumerate:
    def test_lexicographic_order(self):
        got = list(enumerate_proper(K2, 2))
        assert got == [Coloring((1, 2)), Coloring((2, 1))]

    def test_matches_exhaustive_filter(self):
        H = build(4, 2, [(1, 2), (2, 3), (3, 4)])
        q = 3
        want = [Coloring(t) for t in product(range(1, q + 1), repeat=4)
                if is_proper(H, Coloring(t))]
        assert list(enumerate_proper(H, q)) == want

    def test_3_uniform(self):
        H = build(3, 3, [(1, 2, 3)])
        # improper only when all three agree
        assert sum(1 for _ in enumerate_proper(H, 2)) == 2 ** 3 - 2

    def test_budget_refusal(self):
        with pytest.raises(InstanceTooLargeError):
            list(enumerate_proper(build(30, 2, []), 3, budget=100))

    def test_refuses_at_the_call(self):
        with pytest.raises(InstanceTooLargeError):
            enumerate_proper(build(30, 2, []), 3, budget=100)
        with pytest.raises(ValidationError, match="q must be positive, got 0"):
            enumerate_proper(K2, 0)


class TestGammaStats:
    def test_micro_two_colors(self):
        s = gamma_stats(K2, 2)
        assert s.num_colorings == 2
        assert s.num_components == 2
        assert s.component_sizes == (1, 1)
        assert not s.connected

    def test_micro_three_colors(self):
        s = gamma_stats(K2, 3)
        assert s.num_colorings == 6
        assert s.connected and s.num_components == 1
        assert s.diameter == 3

    def test_micro_triangle_frozen(self):
        s = gamma_stats(K3, 3)
        assert s.num_colorings == 6
        assert s.num_components == 6
        assert s.component_sizes == (1,) * 6
        assert s.diameter == 0

    def test_falling_factorial_counts(self):
        for n in (2, 3, 4, 5):
            H = complete_graph(n)
            for q in range(n, n + 3):
                ff = 1
                for i in range(n):
                    ff *= q - i
                assert gamma_stats(H, q, compute_diameter=False) \
                    .num_colorings == ff

    def test_complete_graph_diameters(self):
        assert gamma_stats(K3, 4).diameter == 4
        assert gamma_stats(complete_graph(4), 5).diameter == 6

    def test_empty_omega(self):
        s = gamma_stats(K3, 2)
        assert s.num_colorings == 0
        assert s.num_components == 0
        assert s.component_sizes == ()
        assert s.diameter is None

    def test_sizes_sum_and_order(self):
        H = generate_hnm(5, 5, 2, 7)
        s = gamma_stats(H, 3)
        assert sum(s.component_sizes) == s.num_colorings
        assert list(s.component_sizes) == sorted(s.component_sizes)

    def test_diameter_budget_refusal(self):
        with pytest.raises(InstanceTooLargeError):
            gamma_stats(build(8, 2, []), 4, diameter_budget=10)

    def test_skip_diameter(self):
        s = gamma_stats(build(8, 2, []), 4, compute_diameter=False)
        assert s.num_colorings == 4 ** 8
        assert s.diameter is None
        assert s.connected

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_consistent(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 5), m_max=6)
        q = rng.randint(2, 4)
        s = gamma_stats(H, q)
        assert sum(s.component_sizes) == s.num_colorings
        assert s.connected == (s.num_components <= 1)
        if s.num_colorings:
            assert all(is_proper(H, c) for c in enumerate_proper(H, q))


class TestGammaDistance:
    def test_zero(self):
        c = Coloring((1, 2))
        assert gamma_distance(K2, 3, c, c) == 0

    def test_antipodal_k2(self):
        assert gamma_distance(K2, 3, Coloring((1, 2)), Coloring((2, 1))) == 3

    def test_unreachable(self):
        assert gamma_distance(K3, 3, Coloring((1, 2, 3)),
                              Coloring((2, 1, 3))) is None

    def test_symmetric_and_triangleish(self):
        H = generate_hnm(5, 4, 2, 2)
        cs = list(enumerate_proper(H, 3))
        rng = random.Random(5)
        for _ in range(20):
            a, b = rng.choice(cs), rng.choice(cs)
            d = gamma_distance(H, 3, a, b)
            assert d == gamma_distance(H, 3, b, a)
            if d is not None:
                assert d >= hamming(a, b)


class NoPow(int):
    """A palette size whose power must not be taken."""

    def __pow__(self, other):
        raise AssertionError(f"{int(self)}**{other} computed")


class TestBudgets:
    EDGELESS = build(100, 2, [])
    CALLS = [
        lambda H, q, **kw: enumerate_proper(H, q, **kw),
        lambda H, q, **kw: gamma_stats(H, q, **kw),
        lambda H, q, **kw: gamma_distance(
            H, q, Coloring((1,) * H.n), Coloring((1,) * H.n), **kw),
    ]

    IDS = ["enumerate_proper", "gamma_stats", "gamma_distance"]

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_clearly_over_budget_skips_the_power(self, call):
        # 3**100 is far over 10**7, which 2**24 already exceeds
        with pytest.raises(InstanceTooLargeError,
                           match=r"q\*\*n = 3\*\*100 exceeds the enumeration"
                                 r" budget 10000000"):
            call(self.EDGELESS, NoPow(3))

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_negative_budget_is_malformed(self, call):
        with pytest.raises(ValidationError,
                           match="budget must be nonnegative, got -5"):
            call(K2, 3, budget=-5)

    @pytest.mark.parametrize("compute_diameter", [True, False])
    def test_negative_diameter_budget_is_malformed(self, compute_diameter):
        with pytest.raises(ValidationError, match="diameter budget must be "
                                                  "nonnegative, got -1"):
            gamma_stats(K2, 3, compute_diameter=compute_diameter,
                        diameter_budget=-1)

    def test_zero_budgets_stay_valid(self):
        with pytest.raises(InstanceTooLargeError):
            gamma_stats(K2, 1, budget=0)
        # one coloring, and a sweep over it costs 0 probes at q = 1
        s = gamma_stats(build(2, 2, []), 1, budget=1, diameter_budget=0)
        assert (s.num_colorings, s.diameter) == (1, 0)


def seeded_instances():
    """One seeded instance per (n, k, q) with n 2-7, k 2-3, q 1-5, while
    q**n stays small enough for the reference BFS, then the edge cases:
    empty Omega, q=1 with and without edges, edgeless H, tied components."""
    rng = random.Random(2718)
    cases = []
    for n in range(2, 8):
        for k in range(2, min(3, n) + 1):
            for q in range(1, 6):
                if q ** n <= 20000:
                    m = rng.randint(0, min(3 * n, comb(n, k)))
                    H = generate_hnm(n, m, k, rng.getrandbits(32))
                    cases.append(pytest.param(H, q, id=f"n{n}-k{k}-q{q}-m{m}"))
    tied = read_hypergraph(GOLDEN / "gamma_k3.h.txt")  # sizes 1 1 2 2 5 5
    cases += [pytest.param(K3, 2, id="empty-omega"),
              pytest.param(build(3, 2, []), 1, id="q1-edgeless"),
              pytest.param(K2, 1, id="q1-edge"),
              pytest.param(build(5, 2, []), 3, id="edgeless"),
              pytest.param(K2, 2, id="tied-singletons"),
              pytest.param(tied, 2, id="tied-largest")]
    return cases


class TestAgainstBfsReference:
    """gamma_stats and gamma_distance against the digit-probing BFS they
    replaced (tests/helpers.py), on every GammaStats field."""

    DIAMETER_BUDGET = 10 ** 6

    @pytest.mark.parametrize("H,q", seeded_instances())
    def test_stats_and_distances(self, H, q):
        try:
            got = gamma_stats(H, q, diameter_budget=self.DIAMETER_BUDGET)
            with_diameter = True
        except InstanceTooLargeError:
            got = gamma_stats(H, q, compute_diameter=False)
            with_diameter = False
        assert (got.num_colorings, got.num_components, got.component_sizes,
                got.diameter, got.connected) == \
            gamma_stats_reference(H, q, compute_diameter=with_diameter)
        colorings = list(enumerate_proper(H, q))
        rng = random.Random(q * 1000 + H.n * 10 + H.m)
        for _ in range(min(4, len(colorings))):
            a, b = rng.choice(colorings), rng.choice(colorings)
            assert gamma_distance(H, q, a, b) == \
                gamma_distance_reference(H, q, a, b)

    def test_unreachable_distance(self):
        a, b = Coloring((1, 2, 3)), Coloring((2, 1, 3))
        assert gamma_distance_reference(K3, 3, a, b) is None
        assert gamma_distance(K3, 3, a, b) is None


def shuffled(n, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


class TestMetamorphic:
    """S_n renames the vertices and S_q the colors; either way Γ_q maps to
    an isomorphic graph, so no census field and no distance may change."""

    SMALL = [p for p in seeded_instances()
             if p.values[1] ** p.values[0].n <= 1000]

    @pytest.mark.parametrize("H,q", SMALL)
    def test_vertex_relabeling(self, H, q):
        perm = shuffled(H.n, random.Random(H.n * 100 + H.m * 10 + q))
        G = build(H.n, H.k, [[perm[u - 1] for u in e] for e in H.edges])
        assert gamma_stats(G, q) == gamma_stats(H, q)
        for beta in (1, 2, 3):
            assert len(beta_core(G, beta).core) == len(beta_core(H, beta).core)

    @pytest.mark.parametrize("H,q", SMALL)
    def test_color_permutation_keeps_distances(self, H, q):
        rng = random.Random(H.n * 100 + H.m * 10 + q)
        sigma = shuffled(q, rng)
        colorings = list(enumerate_proper(H, q))
        for _ in range(min(4, len(colorings))):
            a, b = rng.choice(colorings), rng.choice(colorings)
            pa, pb = (Coloring(tuple(sigma[c - 1] for c in x.colors))
                      for x in (a, b))
            assert gamma_distance(H, q, pa, pb) == gamma_distance(H, q, a, b)


@pytest.mark.parametrize("name,q", [("gamma_k2", 3), ("gamma_k3", 2),
                                    ("gamma_k3q3", 3)])
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_gamma_cli_matches_golden(name, q, fmt, tmp_path):
    """Outputs recorded with the BFS oracle, compared byte for byte."""
    out = tmp_path / "out.txt"
    assert main(["gamma", str(GOLDEN / f"{name}.h.txt"), "--q", str(q),
                 "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}.txt").read_bytes()
