import math
import random
from math import comb, log

import mpmath as mp
import pytest

from recolor import (
    CSV_HEADER,
    InstanceTooLargeError,
    MonteCarloConfig,
    ValidationError,
    build,
    generate_hnm,
    greedy_sequence,
    beta_core,
    is_alpha_beta_colorable_exact,
    montecarlo_colorability,
    params_from_d,
    probe_density,
    probe_independent_set_bound,
    witness_rate,
)
from recolor.seeding import derive_seed
from helpers import density_peel_reference, edges_inside, is_independent_bruteforce

mp.mp.dps = 50


def params_oracle(d, k):
    """Same formulas evaluated at 50 decimal digits."""
    d = mp.mpf(d)
    ln = mp.log
    alpha = ((k - 1) * d / (ln(d) - 5 * (k - 1) * ln(ln(d)))) ** (
        mp.mpf(1) / (k - 1))
    beta = 3 * ln(d) ** (3 * k)
    return alpha, beta


def rel_err(got, want):
    return abs(mp.mpf(repr(got)) - want) / abs(want)


TEN_DIGITS = mp.mpf("0.5e-9")


class TestParams:
    def test_pair_graphs_high_precision(self):
        d, n = math.exp(30), 10 ** 14
        ps = params_from_d(d, 2, n)
        a, b = params_oracle(mp.exp(30), 2)
        assert rel_err(ps.alpha_real, a) < TEN_DIGITS
        assert rel_err(ps.beta_real, b) < TEN_DIGITS
        assert ps.alpha == math.ceil(ps.alpha_real)
        assert ps.beta == math.ceil(ps.beta_real)
        assert ps.m0 == pytest.approx(n / ps.alpha_real)
        assert ps.n0 == pytest.approx(16 * ps.m0 * log(d) ** 2)
        assert ps.m == math.floor(d * n / 2 + 0.5)
        assert ps.p == pytest.approx(d / comb(n - 1, 1))

    def test_triples_high_precision(self):
        d, n = math.exp(60), 10 ** 27
        ps = params_from_d(d, 3, n)
        a, b = params_oracle(mp.exp(60), 3)
        assert rel_err(ps.alpha_real, a) < TEN_DIGITS
        assert rel_err(ps.beta_real, b) < TEN_DIGITS

    def test_small_d_leaves_the_formula_domain(self):
        with pytest.raises(ValidationError):
            params_from_d(10.0, 2, 1000)

    def test_log_floor_is_sharp(self):
        # log d must beat 5(k-1) log log d; e^13 clears it for pairs
        params_from_d(math.exp(13), 2, 10 ** 9)
        with pytest.raises(ValidationError):
            params_from_d(math.exp(12), 2, 10 ** 9)

    def test_alpha_grows_with_density(self):
        grid = [math.exp(t) for t in (14, 18, 22, 26, 30)]
        alphas = [params_from_d(d, 2, 10 ** 14).alpha_real for d in grid]
        assert alphas == sorted(alphas)
        assert alphas[0] < alphas[-1]

    def test_probability_is_clamped(self):
        # p > 1 and m <= C(n, 2) can only coexist when the edge excess
        # rounds away, so the instance is surgical on purpose
        n = 442414
        ps = params_from_d((n - 1) + 1e-6, 2, n)
        assert ps.p == 1.0
        assert ps.m == comb(n, 2)

    def test_edge_count_must_fit(self):
        with pytest.raises(ValidationError):
            params_from_d(math.exp(30), 2, 100)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            params_from_d(100.0, 1, 10)
        with pytest.raises(ValidationError):
            params_from_d(100.0, 3, 2)
        with pytest.raises(ValidationError):
            params_from_d(1.0, 2, 10)


class TestIndependentSetProbe:
    def test_exact_settles(self):
        H = generate_hnm(25, 250, 2, 4)
        v = probe_independent_set_bound(H, 20.0, mode="exact")
        assert v.status == "bound-respected"
        assert v.observed == 4.0
        assert v.bound == pytest.approx(100 * log(20.0) / 20)
        assert is_independent_bruteforce(H, v.witness)

    def test_heuristic_never_affirms(self):
        H = generate_hnm(25, 250, 2, 4)
        v = probe_independent_set_bound(H, 20.0, mode="heuristic",
                                        trials=64, rng_seed=9)
        assert v.status == "inconclusive"
        assert v.observed <= 4.0
        assert is_independent_bruteforce(H, v.witness)

    def test_edgeless_violates(self):
        H = build(12, 2, [])
        v = probe_independent_set_bound(H, 50.0, mode="exact")
        assert v.status == "bound-violated"
        assert v.observed == 12.0
        assert v.witness == frozenset(range(1, 13))

    def test_heuristic_can_violate(self):
        v = probe_independent_set_bound(build(12, 2, []), 50.0,
                                        mode="heuristic")
        assert v.status == "bound-violated"

    def test_auto_dispatch(self):
        small = probe_independent_set_bound(build(5, 2, [(1, 2)]), 30.0)
        assert small.status in ("bound-respected", "bound-violated")
        big = probe_independent_set_bound(build(40, 2, [(1, 2)]), 1e9)
        assert big.status in ("bound-violated", "inconclusive")

    def test_exact_mode_refuses_big_instances(self):
        with pytest.raises(InstanceTooLargeError):
            probe_independent_set_bound(build(31, 2, []), 5.0, mode="exact")

    def test_heuristic_deterministic(self):
        H = generate_hnm(40, 120, 2, 1)
        a = probe_independent_set_bound(H, 6.0, mode="heuristic", rng_seed=5)
        b = probe_independent_set_bound(H, 6.0, mode="heuristic", rng_seed=5)
        assert a == b

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            probe_independent_set_bound(build(3, 2, []), 1.0)
        with pytest.raises(ValidationError):
            probe_independent_set_bound(build(3, 2, []), 5.0, mode="magic")

    @pytest.mark.parametrize("d", [float("inf"), float("nan")])
    def test_non_finite_d(self, d):
        # log(d)/d is inf/inf at d = inf: the bound would be nan
        with pytest.raises(ValidationError, match="finite d"):
            probe_independent_set_bound(build(3, 2, [(1, 2)]), d)


class TestDensityProbe:
    def test_triangle_violates_at_ratio_one(self):
        T = build(3, 2, [(1, 2), (2, 3), (1, 3)])
        v = probe_density(T, 3, 1, mode="exact")
        assert v.status == "bound-violated"
        assert v.observed == 1.0
        assert v.witness == frozenset({1, 2, 3})

    def test_subset_size_cap_matters(self):
        # any 2 of the triangle's vertices hold one edge: ratio only 1/2
        T = build(3, 2, [(1, 2), (2, 3), (1, 3)])
        v = probe_density(T, 2, 1, mode="exact")
        assert v.status == "bound-respected"
        assert v.observed == 0.5

    def test_edgeless_respects(self):
        v = probe_density(build(6, 2, []), 6, 1, mode="exact")
        assert v.status == "bound-respected"
        assert v.observed == 0.0

    def test_exact_and_heuristic_agree_on_frozen_instance(self):
        H = generate_hnm(18, 40, 3, 11)
        ex = probe_density(H, 18, 2, mode="exact")
        he = probe_density(H, 18, 2, mode="heuristic")
        assert ex.status == he.status == "bound-violated"
        assert ex.observed == pytest.approx(39 / 17)
        assert he.observed <= ex.observed
        for v in (ex, he):
            inside = edges_inside(H, v.witness)
            assert len(inside) / len(v.witness) == pytest.approx(v.observed)

    def test_heuristic_matches_own_heap_predecessor(self):
        """Status, observed ratio and witness agree with the (degree, id)
        peel that kept its own heap, under every subset-size cap."""
        rng = random.Random(2025)
        for _ in range(300):
            k = rng.randint(2, 4)
            n = rng.randint(k, 40)
            H = generate_hnm(n, rng.randint(0, min(comb(n, k), 3 * n)), k,
                             rng.randrange(10 ** 9))
            n0 = rng.randint(1, n + 2)
            L = rng.uniform(0.1, 3.0)
            got = probe_density(H, n0, L, mode="heuristic")
            want = density_peel_reference(H, min(n0, n), L)
            assert (got.status, got.observed, got.witness) == \
                (want.status, want.observed, want.witness)

    def test_heuristic_clean_run_is_inconclusive(self):
        H = generate_hnm(18, 20, 3, 11)
        v = probe_density(H, 18, 5, mode="heuristic")
        assert v.status == "inconclusive"

    def test_exact_mode_refuses_big_instances(self):
        with pytest.raises(InstanceTooLargeError):
            probe_density(build(21, 2, []), 21, 1, mode="exact")

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            probe_density(build(3, 2, []), 0, 1)
        with pytest.raises(ValidationError):
            probe_density(build(3, 2, []), 3, 0)

    @pytest.mark.parametrize("n0,L", [(float("nan"), 1), (float("inf"), 1),
                                      (3, float("nan"))])
    def test_non_finite_size_or_nan_threshold(self, n0, L):
        with pytest.raises(ValidationError):
            probe_density(build(3, 2, [(1, 2)]), n0, L, mode="heuristic")


class TestMonteCarlo:
    def test_rows_reproduce_byte_for_byte(self):
        cfg = MonteCarloConfig(n=40, k=2, trials=8, seed=3,
                               alpha=4, beta=2, m=70)
        rows1 = [r.csv_row() for r in montecarlo_colorability(cfg)]
        rows2 = [r.csv_row() for r in montecarlo_colorability(cfg)]
        assert rows1 == rows2
        assert len(rows1) == 8
        assert all(len(r.split(",")) == len(CSV_HEADER.split(",")) == 12
                   for r in rows1)

    def test_record_replay(self):
        cfg = MonteCarloConfig(n=30, k=2, trials=12, seed=101,
                               alpha=2, beta=2, m=60)
        for rec in montecarlo_colorability(cfg):
            H = generate_hnm(rec.n, rec.m, rec.k, derive_seed(rec.seed, 0))
            seq = greedy_sequence(H, rec.alpha, strategy="random",
                                  rng_seed=derive_seed(rec.seed, 1))
            peel = beta_core(H, rec.beta, seq.residual)
            assert len(seq.residual) == rec.residual_size
            assert len(peel.core) == rec.residual_core_size
            assert rec.witness == bool(peel.core)

    def test_witness_agrees_with_exact_certifier(self):
        cfg = MonteCarloConfig(n=9, k=2, trials=30, seed=55,
                               alpha=1, beta=1, m=12)
        for rec in montecarlo_colorability(cfg):
            H = generate_hnm(rec.n, rec.m, rec.k, derive_seed(rec.seed, 0))
            verdict = is_alpha_beta_colorable_exact(H, 1, 1)
            if verdict is True:
                assert not rec.witness

    def test_dense_regime_transition(self):
        # d = 20 with beta 2: the greedy stops leaving cores once alpha
        # passes the transition window (rates piloted once, then frozen)
        frozen = {4: 1.0, 8: 0.725, 10: 0.0}
        got = {}
        for alpha in frozen:
            cfg = MonteCarloConfig(n=300, k=2, trials=40, seed=77,
                                   alpha=alpha, beta=2, m=3000)
            got[alpha] = witness_rate(montecarlo_colorability(cfg))
        assert got == frozen
        rates = [got[a] for a in sorted(got)]
        assert rates == sorted(rates, reverse=True)

    def test_sparse_regime_never_witnesses(self):
        for alpha in (20, 60):
            cfg = MonteCarloConfig(n=2000, k=2, trials=10, seed=424242,
                                   alpha=alpha, beta=10, m=20000)
            assert witness_rate(montecarlo_colorability(cfg)) == 0.0

    def test_alpha_covers_everything(self):
        cfg = MonteCarloConfig(n=6, k=2, trials=5, seed=1,
                               alpha=6, beta=1, m=0)
        for rec in montecarlo_colorability(cfg):
            assert rec.residual_size == 0
            assert not rec.witness
            assert rec.path_len is None

    def test_n0_only_reported_with_density(self):
        bare = next(iter(montecarlo_colorability(
            MonteCarloConfig(n=20, k=2, trials=1, seed=0,
                             alpha=2, beta=2, m=30))))
        assert bare.n0 is None
        assert bare.csv_row().split(",")[7] == ""
        rich = next(iter(montecarlo_colorability(
            MonteCarloConfig(n=20, k=2, trials=1, seed=0,
                             alpha=2, beta=2, m=30, d=40.0))))
        assert rich.n0 == pytest.approx(16 * 10 * log(40.0) ** 2)

    def test_witness_rate_empty(self):
        assert witness_rate([]) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            list(montecarlo_colorability(
                MonteCarloConfig(n=10, k=2, trials=1, seed=0, alpha=1)))
        with pytest.raises(ValidationError):
            list(montecarlo_colorability(
                MonteCarloConfig(n=10, k=2, trials=1, seed=0)))
        with pytest.raises(ValidationError):
            list(montecarlo_colorability(
                MonteCarloConfig(n=10, k=2, trials=1, seed=0,
                                 alpha=1, beta=1, m=100)))
