import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    DuplicateEdgeError,
    EdgeArityError,
    InstanceTooLargeError,
    MonteCarloConfig,
    RepeatedVertexError,
    ValidationError,
    VertexRangeError,
    build,
    connect,
    generate_hnm,
    generate_hnp,
    hamming,
    hypergraph_from_text,
    hypergraph_to_text,
    is_proper,
    montecarlo_colorability,
    read_coloring,
    read_hypergraph,
)
from recolor import hypergraph
from helpers import (
    distinct_k_sets_reference,
    hypergraph_from_text_reference,
    random_instance,
    write_coloring,
    write_hypergraph,
)


class TestBuild:
    def test_edgeless(self):
        H = build(3, 2, [])
        assert H.m == 0
        assert [H.degree(v) for v in H.vertices()] == [0, 0, 0]

    def test_complete_graph(self):
        H = build(4, 2, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
        assert H.m == 6
        assert all(H.degree(v) == 3 for v in H.vertices())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build(4, 3, [(1, 2, 3), (1, 2, 3)])

    def test_duplicate_after_sorting_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build(3, 2, [(1, 2), (2, 1)])

    def test_wrong_arity(self):
        with pytest.raises(EdgeArityError):
            build(4, 3, [(1, 2)])

    def test_repeated_vertex(self):
        with pytest.raises(RepeatedVertexError):
            build(4, 2, [(2, 2)])

    def test_out_of_range_vertex(self):
        with pytest.raises(VertexRangeError):
            build(4, 2, [(1, 5)])
        with pytest.raises(VertexRangeError):
            build(4, 2, [(0, 1)])

    def test_refuses_vertex_count_beyond_cap(self):
        # one past the cap, with no edges: refused before any allocation
        with pytest.raises(InstanceTooLargeError, match="vertex count"):
            build(hypergraph._MAX_VERTICES + 1, 2, [])

    def test_k_below_two(self):
        with pytest.raises(ValidationError):
            build(4, 1, [])

    def test_n_below_k(self):
        with pytest.raises(ValidationError):
            build(2, 3, [])

    def test_edges_canonical(self):
        H = build(5, 2, [(5, 3), (2, 1)])
        assert H.edges == ((1, 2), (3, 5))

    def test_incidence_matches_edges(self):
        H = build(5, 3, [(1, 2, 3), (1, 4, 5), (2, 3, 4)])
        for v in H.vertices():
            for ei in H.incidence[v - 1]:
                assert v in H.edges[ei]
            assert H.degree(v) == sum(1 for e in H.edges if v in e)

    def test_equal_to_no_other_type(self):
        assert (build(3, 2, [(1, 2)]) == object()) is False

    def test_builds_from_any_edge_order_are_one_key(self):
        a = build(4, 2, [(1, 2), (3, 4), (2, 3)])
        b = build(4, 2, [(4, 3), (3, 2), (2, 1)])
        assert a == b and hash(a) == hash(b)
        assert {a: "instance"}[b] == "instance"
        assert a != build(5, 2, [(1, 2), (3, 4), (2, 3)])


class TestGenerateHnm:
    def test_zero_edges(self):
        assert generate_hnm(5, 0, 3, 1).m == 0

    def test_forced_complete(self):
        H = generate_hnm(4, 6, 2, 99)
        assert H.edges == tuple((a, b) for a in range(1, 5)
                                for b in range(a + 1, 5))

    def test_deterministic(self):
        a = generate_hnm(20, 10, 3, 1234)
        b = generate_hnm(20, 10, 3, 1234)
        assert a.edges == b.edges

    def test_seed_changes_output(self):
        assert generate_hnm(20, 10, 3, 1).edges != generate_hnm(20, 10, 3, 2).edges

    def test_too_many_edges(self):
        with pytest.raises(ValidationError):
            generate_hnm(4, 7, 2, 0)

    def test_refuses_unmaterializable_edge_counts(self, monkeypatch):
        import types

        import recolor.hypergraph as hg

        def no_sampling(seed):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(hg, "random", types.SimpleNamespace(Random=no_sampling))
        with pytest.raises(InstanceTooLargeError, match="6000000"):
            generate_hnm(10_000, 6_000_000, 3, 0)

    def test_refuses_vertex_count_before_sampling(self, monkeypatch):
        import types

        class NoDraws(random.Random):
            def sample(self, *args, **kwargs):
                raise AssertionError("sampled before refusing")

            def getrandbits(self, *args, **kwargs):
                raise AssertionError("sampled before refusing")

            def random(self):
                raise AssertionError("sampled before refusing")

        monkeypatch.setattr(hypergraph, "random",
                            types.SimpleNamespace(Random=NoDraws))
        n = hypergraph._MAX_VERTICES + 1
        with pytest.raises(InstanceTooLargeError, match="vertex count"):
            generate_hnm(n, 3, 2, 0)
        with pytest.raises(InstanceTooLargeError, match="vertex count"):
            generate_hnp(n, 1e-12, 2, 0)

    def test_edge_count_check_matches_comb(self, monkeypatch):
        # every admissible m reaches the draw, here stubbed out, and every
        # other m is refused, both by generate_hnm and by a config
        monkeypatch.setattr(hypergraph, "_distinct_k_sets",
                            lambda rng, n, k, m: [])
        for n in range(2, 13):
            for k in range(2, n + 1):
                total = math.comb(n, k)
                for m in range(-2, total + 3):
                    ok = 0 <= m <= total
                    cfg = MonteCarloConfig(n=n, k=k, trials=0, seed=0,
                                           alpha=1, beta=1, m=m)
                    for check in (lambda: generate_hnm(n, m, k, 0),
                                  lambda: list(montecarlo_colorability(cfg))):
                        if ok:
                            check()
                        else:
                            with pytest.raises(ValidationError,
                                               match=f"^m={m} outside"):
                                check()

    def test_refuses_one_past_the_vertex_cap(self):
        with pytest.raises(InstanceTooLargeError, match="vertex count"):
            generate_hnm(5_000_001, 1, 2, 0)

    def test_degree_sum(self):
        for seed in range(30):
            H = generate_hnm(12, 18, 3, seed)
            assert sum(H.degree(v) for v in H.vertices()) == 18 * 3

    def test_edges_sorted_distinct_arity(self):
        for seed in range(50):
            H = generate_hnm(10, 15, 3, seed)
            assert len(set(H.edges)) == 15
            for e in H.edges:
                assert list(e) == sorted(e) and len(set(e)) == 3


class TestGenerateHnp:
    def test_p_zero(self):
        assert generate_hnp(6, 0.0, 3, 5).m == 0

    def test_p_one(self):
        assert generate_hnp(6, 1.0, 3, 5).m == 20

    def test_p_one_past_the_enumeration_limit(self, monkeypatch):
        # past the limit, the binomial draw at p = 1 is all 56 k-sets
        monkeypatch.setattr(hypergraph, "_ENUMERATION_LIMIT", 10)
        H = generate_hnp(8, 1.0, 3, 5)
        assert H.edges == tuple(itertools.combinations(range(1, 9), 3))

    @pytest.mark.parametrize("seed, drawn", [(0, 56), (2, 60), (5, 52)])
    def test_a_drawn_count_past_the_cap_is_refused(self, monkeypatch, seed,
                                                   drawn):
        # the mean, 50, passes the cap; these seeds draw more than it
        monkeypatch.setattr(hypergraph, "_ENUMERATION_LIMIT", 10)
        monkeypatch.setattr(hypergraph, "_MAX_MATERIALIZED_EDGES", 50)
        with pytest.raises(InstanceTooLargeError) as info:
            generate_hnp(20, 50 / 190, 2, seed)
        assert str(info.value) == (f"sampled edge count {drawn} is too large "
                                   "to materialize (limit 50)")

    def test_p_out_of_range(self):
        with pytest.raises(ValidationError):
            generate_hnp(6, 1.5, 3, 5)
        with pytest.raises(ValidationError):
            generate_hnp(6, -0.1, 3, 5)

    def test_deterministic(self):
        assert generate_hnp(10, 0.3, 2, 7).edges == generate_hnp(10, 0.3, 2, 7).edges

    def test_mean_edge_count(self):
        # 10^4 draws of H(10, 0.3; 2): mean m should sit within 3 standard
        # errors of 0.3 * 45 = 13.5
        trials = 10_000
        total = sum(generate_hnp(10, 0.3, 2, seed).m for seed in range(trials))
        mean = total / trials
        se = math.sqrt(45 * 0.3 * 0.7 / trials)
        assert abs(mean - 13.5) <= 3 * se

    def test_binomial_path_valid(self):
        # n large enough to leave the full-enumeration regime
        assert math.comb(700, 2) > hypergraph._ENUMERATION_LIMIT
        H = generate_hnp(700, 0.0001, 2, 3)
        assert H.m > 0 and len(set(H.edges)) == H.m
        for e in H.edges:
            assert list(e) == sorted(e) and len(e) == 2
        again = generate_hnp(700, 0.0001, 2, 3)
        assert H.edges == again.edges


def sample_cutoff(k):
    """The largest population random.Random.sample draws k from with its
    pool branch; above it sample switches to its set branch."""
    return 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)


class TestDistinctKSets:
    """hypergraph._distinct_k_sets against one random.sample call per k-set:
    the same k-sets, and the generator left in the same state."""

    @staticmethod
    def assert_matches_reference(n, k, m, seed):
        fast, slow = random.Random(seed), random.Random(seed)
        got = hypergraph._distinct_k_sets(fast, n, k, m)
        assert got == sorted(distinct_k_sets_reference(slow, n, k, m))
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("k", range(2, 8))
    @pytest.mark.parametrize("above", [0, 1])
    @pytest.mark.parametrize("m", [0, 1, 60])
    def test_either_side_of_the_cutoff(self, k, above, m):
        for seed in range(3):
            self.assert_matches_reference(sample_cutoff(k) + above, k, m, seed)

    @pytest.mark.parametrize("k", [2, 3, 6])
    @pytest.mark.parametrize("n", [32, 33, 64, 128, 129, 2 ** 14, 2 ** 14 + 1])
    def test_either_side_of_a_power_of_two(self, n, k):
        # n.bit_length() bits a draw: n = 2**j takes one more than n - 1
        for seed in range(3):
            self.assert_matches_reference(n, k, 60, seed)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_every_k_set_of_a_small_population(self, k):
        sizes = {k, k + 1, 9}
        if k <= 3:  # C(n, k) stays small just past the cutoff
            sizes |= {sample_cutoff(k) + 1, sample_cutoff(k) + 3}
        if k == 2:  # all 2,016 pairs, on 7-bit draws
            sizes.add(64)
        for n in sorted(sizes):
            total = math.comb(n, k)
            for m in (0, 1, total):
                self.assert_matches_reference(n, k, m, seed=n + k)

    @pytest.mark.parametrize("seed", [7, 45])
    def test_the_monte_carlo_trial_shape(self, seed):
        self.assert_matches_reference(10 ** 4, 2, 18_000, seed)

    @given(st.integers(2, 7), st.integers(0, 110), st.integers(0, 60),
           st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_sweep(self, k, extra, m, seed):
        n = k + extra
        self.assert_matches_reference(n, k, min(m, math.comb(n, k)), seed)


def test_a_million_edgeless_vertices_cost_no_list_each():
    # an empty list alone is 56 bytes; two pointer arrays are 16 a vertex
    tracemalloc.start()
    try:
        H = hypergraph_from_text("1000000 2 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(H.incidence) == 10 ** 6 and set(H.incidence) == {()}
    assert peak < 24 * 10 ** 6


@pytest.mark.parametrize("make,args", [
    (generate_hnm, (10.0, 5, 2, 1)),
    (generate_hnp, (10.0, 0.5, 2, 1)),
    (generate_hnm, (10, 5, 2.0, 1)),
    (generate_hnm, (10, 5.0, 2, 1)),
    (generate_hnp, (10, 0.5, 2.0, 1)),
])
def test_generators_refuse_non_integer_sizes(make, args):
    with pytest.raises(ValidationError, match="must be integers$"):
        make(*args)


class TestUnvalidatedConstruction:
    """The generators index their edges without the checks of Hypergraph();
    rebuilding through build() must give the same instance."""

    @pytest.mark.parametrize("make", [
        lambda seed: generate_hnm(30, 60, 2, seed),
        lambda seed: generate_hnm(12, 20, 3, seed),
        lambda seed: generate_hnm(100, 40, 6, seed),
        lambda seed: generate_hnm(2000, 3000, 3, seed),
        lambda seed: generate_hnp(10, 0.3, 3, seed),   # enumeration branch
        lambda seed: generate_hnp(700, 0.0001, 2, seed),   # binomial branch
    ])
    def test_matches_build(self, make):
        for seed in range(4):
            H = make(seed)
            again = build(H.n, H.k, H.edges)
            assert H == again
            assert H.incidence == again.incidence
            assert isinstance(H.edges, tuple)

    @pytest.mark.parametrize("args,error,message", [
        ((2.0, 2, []), ValidationError, "n and k must be integers"),
        ((4, 1, []), ValidationError, "uniformity k must be at least 2, got 1"),
        ((2, 3, []), ValidationError, "need n >= k, got n=2, k=3"),
        ((5_000_001, 2, []), InstanceTooLargeError,
         "vertex count 5000001 is too large to materialize (limit 5000000)"),
        ((4, 3, [(1, 2)]), EdgeArityError,
         "edge (1, 2) has 2 vertices, expected 3"),
        ((4, 2, [(1, True)]), VertexRangeError,
         "vertex id True is not an integer"),
        ((4, 2, [(1, 5)]), VertexRangeError, "vertex 5 outside 1..4 in edge (1, 5)"),
        ((4, 2, [(2, 2)]), RepeatedVertexError, "edge (2, 2) repeats a vertex"),
        ((3, 2, [(1, 2), (2, 1)]), DuplicateEdgeError, "duplicate edge (1, 2)"),
    ])
    def test_constructor_keeps_its_checks(self, args, error, message):
        with pytest.raises(error) as caught:
            hypergraph.Hypergraph(*args)
        assert type(caught.value) is error and str(caught.value) == message


class TestColoring:
    def test_positive_ints_only(self):
        with pytest.raises(ValidationError):
            Coloring((0, 1))
        with pytest.raises(ValidationError):
            Coloring((1, -2))
        with pytest.raises(ValidationError):
            Coloring((1, True))
        with pytest.raises(ValidationError):
            Coloring((1, 2.0))

    @pytest.mark.parametrize("colors,bad", [
        ((1, True, 0), True), ((2, 0, 1.5), 0), ((1, 2.0, -1), 2.0),
        ((3, -1, 0), -1), ((1, "2"), "2"),
    ])
    def test_message_names_the_first_bad_color(self, colors, bad):
        with pytest.raises(ValidationError) as caught:
            Coloring(colors)
        assert str(caught.value) == \
            f"colors must be positive integers, got {bad!r}"

    def test_int_subclasses_are_colors(self):
        class Color(int):
            pass

        assert Coloring((Color(2), 1)).colors == (2, 1)

    def test_vertex_indexing(self):
        c = Coloring((4, 5, 6))
        assert c[1] == 4 and c[3] == 6
        assert len(c) == 3

    def test_replace(self):
        c = Coloring((1, 2, 3)).replace(2, 9)
        assert c.colors == (1, 9, 3)

    @pytest.mark.parametrize("vertex", [0, -1, 4])
    def test_vertex_outside_range(self, vertex):
        c = Coloring((1, 2, 3))
        with pytest.raises(VertexRangeError):
            c[vertex]
        with pytest.raises(VertexRangeError):
            c.replace(vertex, 2)

    def test_iterates_in_vertex_order(self):
        assert list(Coloring((4, 5, 6))) == [4, 5, 6]

    def test_used_colors(self):
        assert Coloring((2, 2, 7)).used_colors() == {2, 7}

    @pytest.mark.parametrize("make", [
        lambda: [1, 2, 3], lambda: range(1, 4), lambda: (c for c in (1, 2, 3)),
    ], ids=["list", "range", "generator"])
    def test_any_sequence_is_stored_as_a_tuple(self, make):
        c = Coloring(make())
        assert c.colors == (1, 2, 3) and type(c.colors) is tuple
        assert c == Coloring((1, 2, 3))
        assert hash(c) == hash(Coloring((1, 2, 3)))

    def test_connect_ends_equal_a_list_target(self):
        H = build(2, 2, [(1, 2)])
        p = connect(H, Coloring([1, 2]), Coloring([2, 1]), 3, 0, 2)
        assert p.end == Coloring([2, 1])


class TestProperAndHamming:
    def test_k2_monochromatic(self):
        H = build(2, 2, [(1, 2)])
        assert not is_proper(H, Coloring((1, 1)))
        assert is_proper(H, Coloring((1, 2)))

    def test_k3_two_colors_suffice(self):
        H = build(3, 3, [(1, 2, 3)])
        assert is_proper(H, Coloring((1, 1, 2)))
        assert not is_proper(H, Coloring((1, 1, 1)))

    def test_hamming(self):
        assert hamming(Coloring((1, 2, 3)), Coloring((1, 2, 3))) == 0
        assert hamming(Coloring((1, 2, 3)), Coloring((3, 2, 1))) == 2

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValidationError):
            hamming(Coloring((1, 2)), Coloring((1, 2, 3)))

    def test_length_mismatch(self):
        H = build(3, 2, [(1, 2)])
        with pytest.raises(ValidationError):
            is_proper(H, Coloring((1, 2)))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_proper_iff_every_edge_bichromatic(self, seed):
        rng = random.Random(seed)
        H = random_instance(rng)
        colors = tuple(rng.randint(1, 3) for _ in range(H.n))
        c = Coloring(colors)
        expected = all(len({colors[v - 1] for v in e}) >= 2 for e in H.edges)
        assert is_proper(H, c) == expected


class TestTextFormat:
    def test_hypergraph_round_trip_exact(self):
        H = build(5, 3, [(1, 2, 3), (2, 4, 5)])
        text = hypergraph_to_text(H)
        assert text == "5 3 2\n1 2 3\n2 4 5\n"
        assert hypergraph_from_text(text) == H

    def test_coloring_file_round_trip(self, tmp_path):
        c = Coloring((3, 1, 4, 1))
        p = tmp_path / "c.txt"
        write_coloring(c, p)
        assert p.read_text() == "3 1 4 1\n"
        assert read_coloring(p) == c

    def test_hypergraph_file_round_trip(self, tmp_path):
        H = generate_hnm(9, 12, 2, 5)
        p = tmp_path / "h.txt"
        write_hypergraph(H, p)
        assert read_hypergraph(p) == H

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            hypergraph_from_text("3 2\n1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValidationError):
            hypergraph_from_text("3 2 2\n1 2\n")

    def test_empty_text(self):
        with pytest.raises(ValidationError):
            hypergraph_from_text("")

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        H = random_instance(random.Random(seed))
        assert hypergraph_from_text(hypergraph_to_text(H)) == H


def read_outcome(read, text):
    """What a reader makes of a text: the result, or the error's class and
    message."""
    try:
        return read(text)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def edge_list_texts(draw):
    """Hypergraph texts near the canonical form: a generated instance, then
    a few faults, reorderings and other spellings of its ints, spacing and
    line ends that ``int`` and ``str.split`` still accept or reject."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    m = draw(st.integers(0, min(7, math.comb(n, k))))
    edges = [list(e) for e in
             generate_hnm(n, m, k, draw(st.integers(0, 2 ** 16))).edges]
    for _ in range(draw(st.integers(0, 2))):
        if not edges:
            break
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, len(edges[i]) - 1))
        fault = draw(st.sampled_from(
            ["swap edges", "swap vertices", "duplicate", "vertex", "arity"]))
        if fault == "swap edges":
            other = draw(st.integers(0, len(edges) - 1))
            edges[i], edges[other] = edges[other], edges[i]
        elif fault == "swap vertices":
            edges[i].reverse()
        elif fault == "duplicate":
            edges.insert(draw(st.integers(0, len(edges))), edges[i][::-1])
        elif fault == "vertex":
            edges[i][j] = draw(st.sampled_from([0, n + 1, edges[i][j - 1]]))
        elif draw(st.booleans()):
            edges[i].pop()
        else:
            edges[i].append(n)
    tokens = [[str(v) for v in e] for e in edges]
    for _ in range(draw(st.integers(0, 2))):
        if not tokens:
            break
        line = tokens[draw(st.integers(0, len(tokens) - 1))]
        j = draw(st.integers(0, len(line) - 1))
        v = line[j]
        line[j] = draw(st.sampled_from([
            f"+{v}", f"0{v}", v.translate(ARABIC_INDIC), f"{v[:1]}_{v[1:]}",
            f"{v}_", f"-{v}", f"{v}.0", "x", "1e1", "true", str(10 ** 30)]))
    sep = draw(st.sampled_from([" ", " ", " ", "  ", "\t", ",", " \x0c"]))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\n\n", "\n \n",
                                "\u2028"]))
    count = len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines = [f"{n} {k} {count}"] + [sep.join(t) for t in tokens]
    return eol.join(lines) + draw(st.sampled_from(["", "\n", "\n\n", " "]))


class TestTextReaderDifferential:
    """hypergraph_from_text against the per-line reader it replaced: the
    same Hypergraph, or the same error class and message."""

    @given(edge_list_texts())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_reference(self, text):
        assert read_outcome(hypergraph_from_text, text) == \
            read_outcome(hypergraph_from_text_reference, text)

    @pytest.mark.parametrize("text", [
        "3 2 0", "3 2 1\n1 2", "3 2 1\n+1 2", "3 2 1\n1 1_0",
        "12 2 1\n1 1_0", "4 2 1\n٣ 4", "4 2 2\n1\t2\r\n\n3 4\n",
        "4 2 2\n3 4\n1 2", "4 2 1\n2 1", "4 2 1\n01 2",
        "6000000 2 1\n1 2", "3 2 1\n" + "9" * 5000 + " 1",
        "3 2 1\n1 \ud800", "1 5 3\n1 2\n\n3 4\n", "\n3 2 1\n1 2\n",
        " 3 2 1\n1 2\n", "3 2 1 \n1 2\n", "3 2 1\n1 2 \n",
        "3 2 1 1\n1 2\n",
    ])
    def test_matches_the_reference_on_spellings(self, text):
        assert read_outcome(hypergraph_from_text, text) == \
            read_outcome(hypergraph_from_text_reference, text)

    def test_peak_at_n_1e5_stays_near_what_the_instance_keeps(self):
        # the per-line reader peaked at 2.26 times what the instance keeps:
        # it holds its tuples, their canonical copies and a seen-set while
        # the incidence index is built
        n = 10 ** 5
        text = f"{n} 3 {n - 2}\n" + "".join(
            f"{v} {v + 1} {v + 2}\n" for v in range(1, n - 1))
        tracemalloc.start()
        try:
            H = hypergraph_from_text(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert H.m == n - 2 and H.edges[-1] == (n - 2, n - 1, n)
        assert peak <= 1.8 * kept

    @pytest.mark.parametrize("spell", [
        lambda text: text.replace("\n", " \n"),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: "\n" + text.replace("\n", "\n\n"),
    ], ids=["space-before-newline", "crlf", "blank-lines"])
    def test_stripped_canonical_spellings_read_in_bulk(self, spell,
                                                       monkeypatch):
        # canonical once each line is stripped and blank lines dropped: the
        # same Hypergraph as the plain text, built without the per-line
        # checker's validating constructor
        H = generate_hnm(300, 400, 3, 5)
        text = hypergraph_to_text(H)

        def checked(*args):
            raise AssertionError("the per-line checker built it")

        monkeypatch.setattr(hypergraph.Hypergraph, "__init__", checked)
        got = hypergraph_from_text(spell(text))
        assert (got.n, got.k, got.edges, got.incidence) == \
            (H.n, H.k, H.edges, H.incidence)
