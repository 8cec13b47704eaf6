import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    ValidationError,
    beta_core,
    blocked_colors,
    build,
    generate_hnm,
    is_proper,
)
from recolor.cli import main
from helpers import (
    beta_core_reference,
    color_coreless,
    core_bruteforce,
    random_instance,
)

GOLDEN = Path(__file__).parent / "golden"


def check_order_certificate(H, beta, result, active=None):
    """Order certificate re-check: the i-th order vertex lies in at most
    beta-1 edges contained in {order[0..i]} plus nothing from the core."""
    prefix = set()
    for v in result.order:
        prefix.add(v)
        inside = sum(1 for e in H.edges if v in e and set(e) <= prefix)
        assert inside <= beta - 1, (v, inside)
    if active is not None:
        assert set(result.order) | set(result.core) == set(active)


class TestBetaCore:
    def test_edgeless(self):
        H = build(4, 2, [])
        res = beta_core(H, 1)
        assert res.core == frozenset()
        assert sorted(res.order) == [1, 2, 3, 4]

    def test_triangle_core(self):
        H = build(3, 2, [(1, 2), (2, 3), (1, 3)])
        assert beta_core(H, 2).core == frozenset({1, 2, 3})

    def test_path_graph_coreless_at_two(self):
        H = build(3, 2, [(1, 2), (2, 3)])
        res = beta_core(H, 2)
        assert res.core == frozenset()
        check_order_certificate(H, 2, res, active=range(1, 4))

    def test_complete_3uniform(self):
        H = build(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        assert beta_core(H, 3).core == frozenset({1, 2, 3, 4})

    def test_single_k3_edge_is_one_core(self):
        H = build(3, 3, [(1, 2, 3)])
        assert beta_core(H, 1).core == frozenset({1, 2, 3})
        assert beta_core(H, 2).core == frozenset()

    def test_active_subset(self):
        H = build(3, 2, [(1, 2), (2, 3), (1, 3)])
        # dropping vertex 3 leaves a single edge: no 2-core
        res = beta_core(H, 2, active=[1, 2])
        assert res.core == frozenset()
        check_order_certificate(H, 2, res, active=[1, 2])

    def test_beta_below_one(self):
        with pytest.raises(ValidationError):
            beta_core(build(3, 2, []), 0)

    def test_active_out_of_range(self):
        with pytest.raises(ValidationError):
            beta_core(build(3, 2, []), 1, active=[0, 1])

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, seed, beta):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 7))
        res = beta_core(H, beta)
        assert res.core == core_bruteforce(H, beta)
        check_order_certificate(H, beta, res, active=H.vertices())

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_on_subsets(self, seed, beta):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(3, 7))
        active = [v for v in H.vertices() if rng.random() < 0.7]
        res = beta_core(H, beta, active=active)
        assert res.core == core_bruteforce(H, beta, active=active)
        check_order_certificate(H, beta, res, active=active)

    def test_core_vertices_have_beta_inside_degree(self):
        for seed in range(40):
            H = generate_hnm(9, 14, 2, seed)
            res = beta_core(H, 2)
            for v in res.core:
                deg = sum(1 for e in H.edges if v in e and set(e) <= res.core)
                assert deg >= 2

    def test_determinism(self):
        H = generate_hnm(10, 16, 2, 3)
        assert beta_core(H, 2) == beta_core(H, 2)

    def test_matches_own_heap_predecessor(self):
        """Core and order agree with the peel that kept its own heap, over
        full and partial active sets, sparse to dense."""
        rng = random.Random(2024)
        for _ in range(600):
            k = rng.randint(2, 4)
            n = rng.randint(k, 40)
            H = generate_hnm(n, rng.randint(0, min(comb(n, k), 3 * n)), k,
                             rng.randrange(10 ** 9))
            beta = rng.randint(1, 5)
            active = (None if rng.random() < 0.5 else
                      [v for v in H.vertices() if rng.random() < 0.7])
            assert beta_core(H, beta, active) == \
                beta_core_reference(H, beta, active)


@pytest.mark.parametrize("name,beta", [("core_k2", 2), ("core_k3", 3),
                                       ("core_k4", 6)])
@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_core_cli_matches_golden(name, beta, fmt, tmp_path):
    """Outputs recorded with the peel that kept its own heap, compared byte
    for byte: a partial 2-core, and two full peels."""
    out = tmp_path / "out.txt"
    assert main(["core", str(GOLDEN / f"{name}.h.txt"), "--beta", str(beta),
                 "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}.txt").read_bytes()


class TestBlockedColors:
    def test_k3_both_neighbors_same(self):
        H = build(3, 3, [(1, 2, 3)])
        assert blocked_colors(H, 3, {1: 5, 2: 5}) == {5}

    def test_k3_mixed_edge_blocks_nothing(self):
        H = build(3, 3, [(1, 2, 3)])
        assert blocked_colors(H, 3, {1: 5, 2: 6}) == set()

    def test_star_center(self):
        H = build(4, 2, [(1, 2), (1, 3), (1, 4)])
        assert blocked_colors(H, 1, {2: 1, 3: 2, 4: 3}) == {1, 2, 3}

    def test_partial_edge_not_blocking(self):
        H = build(3, 3, [(1, 2, 3)])
        assert blocked_colors(H, 3, {1: 5}) == set()

    def test_vertex_already_colored(self):
        H = build(2, 2, [(1, 2)])
        with pytest.raises(ValidationError):
            blocked_colors(H, 1, {1: 2, 2: 3})


class TestFirstFitAlongPeel:
    def test_edgeless_single_color(self):
        H = build(4, 2, [])
        assert color_coreless(H, 1, None, [7]) == {1: 7, 2: 7, 3: 7, 4: 7}

    def test_path_graph_alternates(self):
        H = build(3, 2, [(1, 2), (2, 3)])
        got = color_coreless(H, 2, None, [1, 2])
        col = Coloring(tuple(got[v] for v in range(1, 4)))
        assert is_proper(H, col)
        assert set(got.values()) <= {1, 2}

    def test_active_subset_coloring(self):
        H = build(3, 2, [(1, 2), (2, 3), (1, 3)])
        got = color_coreless(H, 2, [1, 2], [8, 9])
        assert set(got) == {1, 2}
        assert got[1] != got[2]

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_proper_within_beta_colors(self, seed, beta):
        rng = random.Random(seed)
        H = random_instance(rng, n_range=(2, 8))
        if beta_core(H, beta).core:
            return
        got = color_coreless(H, beta, None, list(range(1, beta + 1)))
        assert len(set(got.values())) <= beta
        col = Coloring(tuple(got[v] for v in range(1, H.n + 1)))
        assert is_proper(H, col)
