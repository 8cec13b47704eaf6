import random
from dataclasses import astuple
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from recolor import (
    Coloring,
    GammaStats,
    InstanceTooLargeError,
    ValidationError,
    beta_core,
    build,
    enumerate_proper,
    gamma_distance,
    gamma_oracle,
    gamma_stats,
    generate_hnm,
    hamming,
    is_proper,
    read_hypergraph,
)
from recolor.cli import main
from recolor.gamma_oracle import _edges_through, _proper_codes, _proper_neighbors
from helpers import (
    gamma_distance_mitm_reference,
    gamma_distance_reference,
    gamma_stats_reference,
    gamma_stats_union_find,
    proper_neighbors_reference,
    random_instance,
)

GOLDEN = Path(__file__).parent / "golden"

K2 = build(2, 2, [(1, 2)])
K3 = build(3, 2, [(1, 2), (2, 3), (1, 3)])


def complete_graph(n):
    return build(n, 2, [(i, j) for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)])


@st.composite
def small_enumerations(draw):
    """An instance with at least one edge, n <= 7, k 2-3 and a palette of
    2-5 colors, with q**n small enough to list every coloring."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, min(3, n)))
    q = draw(st.integers(2, 5).filter(lambda q: q ** n <= 5000))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), k))),
                          unique=True, min_size=1, max_size=2 * n))
    return build(n, k, edges), q


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

    @given(small_enumerations())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_codes_in_product_order_and_canonical_ones_restricted(self, case):
        H, q = case
        pows = [q ** i for i in range(H.n)]
        # product runs vertex 1 first, the order the codes come in
        want = [sum(d * p for d, p in zip(t, pows))
                for t in product(range(q), repeat=H.n)
                if is_proper(H, Coloring(tuple(d + 1 for d in t)))]
        codes = list(_proper_codes(H, q))
        assert codes == want

        def restricted_growth(code):
            top = 0  # how many colors are open: the next one to open
            for p in pows:
                d = code // p % q
                if d > top:
                    return False
                top += d == top
            return True

        assert list(_proper_codes(H, q, canonical=True)) == \
            list(filter(restricted_growth, codes))


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

    @pytest.mark.parametrize("name,tampered,message", [
        ("tau", (2,), "coloring has 1 entries, hypergraph has 2 vertices"),
        ("tau", (2, 4), "tau uses a color above q=3"),
        ("tau", (2, 2), "tau is not proper"),
        ("sigma", (1, 4), "sigma uses a color above q=3"),
    ])
    def test_rejects_a_tampered_endpoint(self, name, tampered, message):
        ends = {"sigma": Coloring((1, 2)), "tau": Coloring((2, 1))}
        assert gamma_distance(K2, 3, ends["sigma"], ends["tau"]) == 3
        ends[name] = Coloring(tampered)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            gamma_distance(K2, 3, ends["sigma"], ends["tau"])

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


def assert_distance_matches(H, q, a, b):
    """gamma_distance equals both references: the one-sided BFS and the
    meet-in-the-middle search it replaced (tests/helpers.py)."""
    d = gamma_distance(H, q, a, b)
    assert d == gamma_distance_reference(H, q, a, b)
    assert d == gamma_distance_mitm_reference(H, q, a, b)
    return d


class TestAgainstBfsReference:
    """gamma_stats and gamma_distance against the digit-probing BFS they
    replaced (tests/helpers.py), on every GammaStats field; gamma_distance
    also against the meet-in-the-middle search."""

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
            assert_distance_matches(H, q, a, b)

    def test_unreachable_distance(self):
        a, b = Coloring((1, 2, 3)), Coloring((2, 1, 3))
        assert gamma_distance_reference(K3, 3, a, b) is None
        assert gamma_distance(K3, 3, a, b) is None


def assert_proper_neighbors_match(H, q):
    pows = [q ** i for i in range(H.n)]
    through = _edges_through(H)
    proper = set(_proper_codes(H, q))
    for code in proper:
        assert sorted(_proper_neighbors(code, through, pows, q)) == \
            proper_neighbors_reference(proper, code, pows, q)


class TestProperNeighbors:
    """The proper-neighbor kernel against the full neighbor list it
    replaced, filtered against the enumerated proper codes."""

    @pytest.mark.parametrize("H,q", seeded_instances())
    def test_seeded(self, H, q):
        assert_proper_neighbors_match(H, q)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_random(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 6), k_max=4, m_max=10)
        assert_proper_neighbors_match(H, rng.randint(1, 4))


def far_pairs(seed, pairs):
    """A bench-shaped instance (n=7, k=3, m=10, q=4) and seeded pairs of its
    proper colorings that differ at every vertex."""
    H = generate_hnm(7, 10, 3, seed)
    colorings = list(enumerate_proper(H, 4))
    rng = random.Random(seed)
    out = []
    while len(out) < pairs:
        a = rng.choice(colorings)
        far = [b for b in colorings if hamming(a, b) == H.n]
        if far:
            out.append((a, rng.choice(far)))
    return H, colorings, out


def count_expansions(monkeypatch):
    """Wrap the neighbor kernel; the returned list gains one code per call,
    from gamma_distance and gamma_distance_mitm_reference alike."""
    calls = []
    kernel = gamma_oracle._proper_neighbors

    def counted(code, through, pows, q):
        calls.append(code)
        return kernel(code, through, pows, q)

    monkeypatch.setattr(gamma_oracle, "_proper_neighbors", counted)
    return calls


def split_pairs():
    """Seeded instances (n 7-10, k 2-3, q 3-4) whose Γ_q splits into 2 to
    24 equal components of 58 to 558 colorings (the last also has frozen
    singletons), each with six seeded pairs of its proper colorings."""
    cases = []
    for n, k, q, m, seed in [(10, 2, 3, 10, 3929521804), (8, 2, 3, 8, 2588455114),
                             (9, 2, 4, 12, 3529388054), (9, 2, 4, 17, 726650368),
                             (10, 3, 3, 55, 1605800870), (8, 3, 3, 39, 441875493)]:
        H = generate_hnm(n, m, k, seed)
        colorings = list(enumerate_proper(H, q))
        rng = random.Random(seed)
        pairs = [(rng.choice(colorings), rng.choice(colorings)) for _ in range(6)]
        cases.append(pytest.param(H, q, pairs, id=f"n{n}-k{k}-q{q}-m{m}"))
    return cases


class TestMeetInTheMiddle:
    """The two-sided A* search against the one-sided reference BFS and the
    meet-in-the-middle search it replaced, and the work it does."""

    @pytest.mark.parametrize("seed", range(4))
    def test_far_pairs_match_the_reference(self, seed):
        H, _, pairs = far_pairs(seed, 2)
        for a, b in pairs:
            assert_distance_matches(H, 4, a, b)

    def test_small_and_large_components_never_meet(self):
        # Γ_3 of this instance: six frozen colorings and one component of
        # 162 colorings
        H, q = generate_hnm(6, 16, 3, 42), 3
        assert gamma_stats(H, q, compute_diameter=False).component_sizes == \
            (1,) * 6 + (162,)
        colorings = list(enumerate_proper(H, q))

        def frozen(c):  # no single recoloring keeps it proper
            cs = c.colors
            return not any(is_proper(H, Coloring(cs[:i] + (x,) + cs[i + 1:]))
                           for i in range(H.n) for x in range(1, q + 1)
                           if x != cs[i])

        # so a frozen coloring is a singleton, and any other lies in the 162
        small = next(c for c in colorings if frozen(c))
        large = next(c for c in colorings if not frozen(c))
        assert gamma_distance_reference(H, q, small, large) is None
        assert gamma_distance_mitm_reference(H, q, small, large) is None
        assert gamma_distance(H, q, small, large) is None
        assert gamma_distance(H, q, large, small) is None

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_reference_symmetric_and_at_least_hamming(
            self, seed, i, j):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 6), m_max=8)
        q = rng.randint(1, 4)
        colorings = list(enumerate_proper(H, q))
        if not colorings:
            return
        a, b = colorings[i % len(colorings)], colorings[j % len(colorings)]
        d = assert_distance_matches(H, q, a, b)
        assert d == gamma_distance(H, q, b, a)
        if d is not None:
            assert d >= hamming(a, b)

    def test_equal_ends_enumerate_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gamma_oracle, "_proper_codes", refuse)
        assert gamma_distance(K2, 3, Coloring((1, 2)), Coloring((1, 2))) == 0

    def test_distinct_ends_enumerate_nothing(self, monkeypatch):
        cases = []
        for seed in range(4):
            H, _, pairs = far_pairs(seed, 2)
            cases += [(H, 4, a, b) for a, b in pairs]
        # the first frozen coloring and the first in the 162-coloring
        # component, as test_small_and_large_components_never_meet finds them
        H = generate_hnm(6, 16, 3, 42)
        cases.append((H, 3, Coloring((1, 2, 3, 1, 2, 3)),
                      Coloring((1, 1, 2, 2, 2, 3))))
        want = [gamma_distance_reference(*case) for case in cases]
        assert want[-1] is None

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gamma_oracle, "_proper_codes", refuse)
        assert [gamma_distance(*case) for case in cases] == want

    def test_a_far_pair_expands_under_a_quarter_of_the_codes(self, monkeypatch):
        H, colorings, [(a, b)] = far_pairs(0, 1)
        calls = count_expansions(monkeypatch)
        assert gamma_distance(H, 4, a, b) == gamma_distance_reference(H, 4, a, b)
        assert 0 < 4 * len(calls) < len(colorings)

    def test_a_pair_at_its_hamming_distance_expands_at_most_2n(self, monkeypatch):
        calls = count_expansions(monkeypatch)
        tight = 0
        for seed in range(12):
            H, _, pairs = far_pairs(seed, 4)
            for a, b in pairs:
                want = gamma_distance_mitm_reference(H, 4, a, b)
                calls.clear()
                assert gamma_distance(H, 4, a, b) == want
                if want == hamming(a, b):
                    tight += 1
                    assert 0 < len(calls) <= 2 * H.n
        assert tight == 48  # every pair here sits at its Hamming distance

    @pytest.mark.parametrize("H,q,pairs", split_pairs())
    def test_a_disconnected_pair_expands_at_most_twice_the_old_search(
            self, H, q, pairs, monkeypatch):
        calls = count_expansions(monkeypatch)
        apart = 0
        for a, b in pairs:
            calls.clear()
            want = gamma_distance_mitm_reference(H, q, a, b)
            old = len(calls)
            calls.clear()
            assert gamma_distance(H, q, a, b) == want
            if want is None:
                apart += 1
                assert len(calls) <= 2 * old
        assert apart


def union_find_sample():
    """One seeded instance per (n, k, q) with n 2-8, k 2-3 and q 1-5: every
    size the union-find census clears in about 2 s all told."""
    rng = random.Random(1618)
    cases = []
    for n in range(2, 9):
        for k in range(2, min(3, n) + 1):
            for q in range(1, 6):
                m = rng.randint(0, min(3 * n, comb(n, k)))
                H = generate_hnm(n, m, k, rng.getrandbits(32))
                cases.append(pytest.param(H, q, id=f"n{n}-k{k}-q{q}-m{m}"))
    return cases


class TestAgainstUnionFind:
    """gamma_stats against the census kernel it replaced, union-find over
    every proper coloring (tests/helpers.py), on every GammaStats field."""

    DIAMETER_BUDGET = 3 * 10 ** 6

    @pytest.mark.parametrize("H,q", union_find_sample())
    def test_every_field(self, H, q):
        try:
            got = gamma_stats(H, q, diameter_budget=self.DIAMETER_BUDGET)
            with_diameter = True
        except InstanceTooLargeError:
            got = gamma_stats(H, q, compute_diameter=False)
            with_diameter = False
        assert astuple(got) == \
            gamma_stats_union_find(H, q, compute_diameter=with_diameter)


@st.composite
def small_censuses(draw):
    """An instance with n <= 6 and a palette q <= 6 small enough for the
    BFS reference's all-pairs diameter."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, min(3, n)))
    q = draw(st.integers(1, 6).filter(lambda q: q ** n <= 250))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), k))),
                          unique=True, max_size=2 * n))
    return build(n, k, edges), q


class TestOrbitCensus:
    """The census counts orbits of S_q, so its exact answers pin each part
    of the stabilizer: with q > n every coloring has a free color and Γ_q
    is connected; below that, one cycle of links and the swap of a color
    used once with an unused one each decide a case."""

    @pytest.mark.parametrize("H,q,want", [
        # q > n: edgeless, 4**2 colorings
        (build(2, 2, []), 4, GammaStats(16, 1, (16,), 2, True)),
        # q > n: one edge, the six injective colorings
        (K2, 3, GammaStats(6, 1, (6,), 3, True)),
        # q = n: the quotient is connected, but the stabilizer is trivial
        (K3, 3, GammaStats(6, 6, (1,) * 6, 0, False)),
        # needs a cycle: erasing vertex 2, then vertex 1, links 12 to 11
        # twice, and the two links differ by the swap of the colors
        (build(2, 2, []), 2, GammaStats(4, 1, (4,), 2, True)),
        # needs 122's swap of color 1 (used at vertex 1 only) with color 3
        (build(3, 2, [(1, 2), (1, 3)]), 3, GammaStats(12, 1, (12,), 4, True)),
    ], ids=["edgeless-q4", "k2-q3", "k3-q3", "edgeless-q2", "star-q3"])
    def test_exact(self, H, q, want):
        assert gamma_stats(H, q) == want
        assert astuple(want) == gamma_stats_reference(H, q)

    def test_one_representative_per_orbit(self):
        # a restricted growth string of length 8 with j <= 5 blocks per
        # set partition: sum of S(8, j) over j <= 5 codes, not 5**8
        H = build(8, 2, [])
        reps = list(_proper_codes(H, 5, canonical=True))
        assert len(reps) == 1 + 127 + 966 + 1701 + 1050 == 3845
        assert reps == sorted(reps, key=lambda c: [c // 5 ** i % 5
                                                   for i in range(8)])
        # weighed by q!/(q-j)!, they give back all 5**8 colorings
        assert gamma_stats(H, 5, compute_diameter=False).num_colorings == 5 ** 8

    @given(small_censuses())
    @example((K3, 3))  # disconnected, all components tied
    @example((read_hypergraph(GOLDEN / "gamma_k3.h.txt"), 2))  # tied largest
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_bfs_reference(self, case):
        H, q = case
        assert astuple(gamma_stats(H, q)) == gamma_stats_reference(H, q)


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
