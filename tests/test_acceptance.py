"""End-to-end acceptance run, one test per numbered check.

Every test prints a single PASS line on the real stderr (so it shows up
even under capture) and fails loudly otherwise. The certified-instance
corpus is built once and shared by checks 1, 5, and 10.
"""

import itertools
import math
import random
import statistics
import time
from collections import Counter
from math import comb

import mpmath as mp
import pytest

import recolor as rc
from recolor.cli import main as cli_main

from helpers import (
    all_maximal_independent_sets,
    color_coreless,
    core_bruteforce,
    random_proper_coloring,
    write_coloring,
)

mp.mp.dps = 50

# 200 instances spread over n in [4,9], k in {2,3}; n=9 stays at k=2 so
# the q=5 connectivity sweeps fit the time budget
CORPUS_PLAN = [(4, 2, 19), (4, 3, 19), (5, 2, 19), (5, 3, 19),
               (6, 2, 19), (6, 3, 19), (7, 2, 20), (7, 3, 20),
               (8, 2, 14), (8, 3, 14), (9, 2, 18)]
COMBOS = [(a, b) for a in range(0, 4) for b in range(1, 5) if a + b <= 4]


def emit(cap, line):
    with cap.disabled():
        print(line)


def coreless_beta(H):
    return next(b for b in itertools.count(1)
                if not rc.beta_core(H, b).core)


def sound(H, p, q, target):
    v = rc.verify_path(H, p, q)
    return v.ok and p.end.colors == target.colors


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260815)
    t0 = time.perf_counter()
    out = []
    for n, k, count in CORPUS_PLAN:
        for _ in range(count):
            m = rng.randint(n, min(comb(n, k), 2 * n))
            H = rc.generate_hnm(n, m, k, rng.getrandbits(32))
            certified = [(a, b) for a, b in COMBOS
                         if rc.is_alpha_beta_colorable_exact(H, a, b) is True]
            out.append((H, certified))
    return out, time.perf_counter() - t0


def test_01_certified_instances_have_connected_recoloring_graphs(corpus, capfd):
    instances, build_secs = corpus
    t0 = time.perf_counter()
    assert len(instances) >= 200
    assert {H.n for H, _ in instances} == set(range(4, 10))
    assert {H.k for H, _ in instances} == {2, 3}

    gamma_runs = 0
    disconnected = 0
    for H, certified in instances:
        for q in sorted({a + b + 1 for a, b in certified}):
            s = rc.gamma_stats(H, q, compute_diameter=False)
            gamma_runs += 1
            if not s.connected:
                disconnected += 1

    paths = 0
    bad_paths = 0
    for H, certified in instances:
        if not certified:
            continue
        prng = random.Random(H.n * 1000003 + H.m)
        for i in range(20):
            a, b = certified[i % len(certified)]
            q = a + b + 1
            c1 = random_proper_coloring(H, q, prng)
            c2 = random_proper_coloring(H, q, prng)
            p = rc.connect(H, c1, c2, q, a, b)
            paths += 1
            if not sound(H, p, q, c2):
                bad_paths += 1

    elapsed = build_secs + (time.perf_counter() - t0)
    cases = sum(len(c) for _, c in instances)
    ok = disconnected == 0 and bad_paths == 0 and elapsed < 600
    emit(capfd, f"acceptance 1 {'PASS' if ok else 'FAIL'}: {len(instances)} "
         f"instances, {cases} certified cases, {gamma_runs} connectivity "
         f"sweeps all connected, {paths} connect pairs all verified, "
         f"{elapsed:.0f}s")
    assert disconnected == 0
    assert bad_paths == 0
    assert elapsed < 600


def test_02_every_emitted_path_verifies_and_hits_its_target(capfd):
    rng = random.Random(4242)
    queries = 0
    failures = 0

    def check(H, p, q, target):
        nonlocal queries, failures
        queries += 1
        if not sound(H, p, q, target):
            failures += 1

    def draw(i, n_hi, force=None):
        n = force if force is not None else rng.randint(10, n_hi)
        k = (2, 3, 4)[i % 3]
        m = rng.randint(n // 2, n)
        return rc.generate_hnm(n, m, k, rng.getrandbits(32))

    for i in range(400):
        H = draw(i, 200, force=200 if i < 12 else None)
        beta = coreless_beta(H)
        q = beta + 1
        a = color_coreless(H, beta, None, list(range(1, beta + 1)))
        b = color_coreless(H, beta, None, list(range(2, beta + 2)))
        chi = rc.Coloring(tuple(a[v] for v in H.vertices()))
        tau = rc.Coloring(tuple(b[v] for v in H.vertices()))
        p = rc.path_core(H, H.vertices(), chi, tau, alpha=0, beta=beta, q=q)
        check(H, p, q, tau)

    for i in range(300):
        H = draw(i, 120)
        beta = coreless_beta(H)
        alpha = rng.randint(0, 2)
        q = alpha + beta + 1
        p, tau = rc.path_to_good_greedy(
            H, random_proper_coloring(H, q, rng), q, alpha, beta)
        assert rc.check_good_greedy(H, tau, alpha, beta)
        check(H, p, q, tau)

    for i in range(150):
        H = draw(i, 100)
        beta = coreless_beta(H)
        alpha = rng.randint(0, 2)
        q = alpha + beta + 1
        _, g1 = rc.path_to_good_greedy(
            H, random_proper_coloring(H, q, rng), q, alpha, beta)
        _, g2 = rc.path_to_good_greedy(
            H, random_proper_coloring(H, q, rng), q, alpha, beta)
        p = rc.path_between_good_greedy(H, g1, g2, q, alpha, beta)
        check(H, p, q, g2)

    for i in range(150):
        H = draw(i, 150)
        beta = coreless_beta(H)
        alpha = rng.randint(0, 2)
        q = alpha + beta + 1
        c1 = random_proper_coloring(H, q, rng)
        c2 = random_proper_coloring(H, q, rng)
        check(H, rc.connect(H, c1, c2, q, alpha, beta), q, c2)

    ok = queries >= 1000 and failures == 0
    emit(capfd, f"acceptance 2 {'PASS' if ok else 'FAIL'}: {queries} path "
         f"queries (n up to 200, k in 2..4), {failures} unsound")
    assert queries >= 1000
    assert failures == 0


def test_03_peeling_matches_exhaustive_core_search(capfd):
    rng = random.Random(99)
    mismatches = 0
    order_violations = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n))
        m = rng.randint(0, min(comb(n, k), 12))
        beta = rng.randint(1, 4)
        H = rc.generate_hnm(n, m, k, rng.getrandbits(32))
        res = rc.beta_core(H, beta)
        if res.core != core_bruteforce(H, beta):
            mismatches += 1
        placed = set()
        for v in res.order:
            inside = sum(1 for ei in H.incidence[v - 1]
                         if all(w in placed for w in H.edges[ei] if w != v))
            if inside > beta - 1:
                order_violations += 1
            placed.add(v)
    ok = mismatches == 0 and order_violations == 0
    emit(capfd, f"acceptance 3 {'PASS' if ok else 'FAIL'}: 100 instances, "
         f"{mismatches} core mismatches, {order_violations} order "
         f"certificate violations")
    assert mismatches == 0
    assert order_violations == 0


def test_04_coreless_coloring_is_proper_within_budget(capfd):
    rng = random.Random(7)
    done = 0
    bad = 0
    while done < 200:
        n = rng.randint(2, 30)
        k = rng.randint(2, min(4, n))
        m = rng.randint(0, min(comb(n, k), 3 * n))
        beta = rng.randint(1, 4)
        H = rc.generate_hnm(n, m, k, rng.getrandbits(32))
        if rc.beta_core(H, beta).core:
            continue
        cmap = color_coreless(H, beta, None, list(range(1, beta + 1)))
        chi = rc.Coloring(tuple(cmap[v] for v in H.vertices()))
        if not rc.is_proper(H, chi) or len(chi.used_colors()) > beta:
            bad += 1
        done += 1
    emit(capfd, f"acceptance 4 {'PASS' if bad == 0 else 'FAIL'}: 200 coreless "
         f"instances colored, {bad} improper or over budget")
    assert bad == 0


def test_05_removing_any_maximal_independent_set_reduces_the_level(corpus, capfd):
    instances, _ = corpus
    cases = 0
    reductions = 0
    failures = 0
    for H, certified in instances:
        mis_list = None
        for a, b in certified:
            if a < 1:
                continue
            if mis_list is None:
                mis_list = all_maximal_independent_sets(H)
            cases += 1
            for V1 in mis_list:
                rest = set(H.vertices()) - set(V1)
                verdict = rc.is_alpha_beta_colorable_exact(
                    H, a - 1, b, active=rest)
                reductions += 1
                if verdict is not True:
                    failures += 1
    ok = failures == 0 and cases > 0
    emit(capfd, f"acceptance 5 {'PASS' if ok else 'FAIL'}: {cases} certified "
         f"cases, {reductions} maximal-set removals, {failures} failed "
         f"reductions")
    assert failures == 0
    assert cases > 0


def test_06_micro_cases_match_hand_counts(capfd):
    K2 = rc.build(2, 2, [(1, 2)])
    K3 = rc.build(3, 2, [(1, 2), (2, 3), (1, 3)])
    s2 = rc.gamma_stats(K2, 2)
    s3 = rc.gamma_stats(K2, 3)
    st = rc.gamma_stats(K3, 3)
    ok = (s2.num_components == 2
          and s3.connected and s3.num_colorings == 6 and s3.diameter == 3
          and st.num_colorings == 6 and st.num_components == 6)
    emit(capfd, f"acceptance 6 {'PASS' if ok else 'FAIL'}: single edge q=2 "
         f"splits in {s2.num_components}, q=3 connects {s3.num_colorings} "
         f"colorings at diameter {s3.diameter}, triangle q=3 freezes "
         f"{st.num_components}")
    assert s2.num_components == 2
    assert s3.connected and s3.num_colorings == 6 and s3.diameter == 3
    assert st.num_colorings == 6 and st.num_components == 6
    assert st.component_sizes == (1,) * 6


def test_07_class_phase_touches_each_vertex_at_most_twice(capfd):
    rng = random.Random(271828)
    paths = 0
    worst = 0
    for i in range(300):
        n = rng.randint(6, 80)
        k = (2, 3, 4)[i % 3]
        m = rng.randint(n // 2, n)
        H = rc.generate_hnm(n, m, k, rng.getrandbits(32))
        beta = coreless_beta(H)
        alpha = rng.randint(0, 3)
        q = alpha + beta + 1
        chi = random_proper_coloring(H, q, rng)
        p, _ = rc.path_to_good_greedy(H, chi, q, alpha, beta)
        counts = Counter(v for v, _ in p.steps[:p.stats.inter_moves])
        recount = max(counts.values(), default=0)
        worst = max(worst, recount)
        paths += 1
    emit(capfd, f"acceptance 7 {'PASS' if worst <= 2 else 'FAIL'}: {paths} "
         f"paths, max class-phase recolors per vertex {worst} (cap 2)")
    assert worst <= 2


def test_08_parameter_formulas_match_high_precision_values(capfd):
    ps = rc.params_from_d(math.exp(30), 2, 10 ** 14)
    alpha_ref = mp.exp(30) / (30 - 5 * mp.log(30))
    beta_ref = 3 * mp.mpf(30) ** 6
    ea = abs(mp.mpf(repr(ps.alpha_real)) - alpha_ref) / alpha_ref
    eb = abs(mp.mpf(repr(ps.beta_real)) - beta_ref) / beta_ref
    with pytest.raises(rc.ValidationError):
        rc.params_from_d(10.0, 2, 1000)
    ok = ea < mp.mpf("0.5e-9") and eb < mp.mpf("0.5e-9")
    emit(capfd, f"acceptance 8 {'PASS' if ok else 'FAIL'}: relative errors "
         f"alpha {mp.nstr(ea, 3)}, beta {mp.nstr(eb, 3)} (tolerance 5e-10); "
         f"d=10 raises the domain error")
    assert ea < mp.mpf("0.5e-9")
    assert eb < mp.mpf("0.5e-9")


def test_09_cli_reruns_are_byte_identical(tmp_path, capfd):
    h = tmp_path / "h.txt"
    assert cli_main(["gen", "--n", "12", "--k", "3", "--m", "14",
                     "--seed", "2", "--out", str(h)]) == 0
    c1 = tmp_path / "c1.txt"
    c2 = tmp_path / "c2.txt"
    beta = coreless_beta(rc.read_hypergraph(str(h)))
    H = rc.read_hypergraph(str(h))
    rng = random.Random(0)
    q = beta + 1
    write_coloring(random_proper_coloring(H, q, rng), c1)
    write_coloring(random_proper_coloring(H, q, rng), c2)

    invocations = [
        ["params", "1e9", "2", str(10 ** 10), "--format", "csv"],
        ["gen", "--n", "20", "--k", "2", "--m", "30", "--seed", "6"],
        ["gen", "--n", "14", "--k", "3", "--p", "0.2", "--seed", "6"],
        ["core", str(h), "--beta", "2", "--format", "csv"],
        ["mis", str(h), "--strategy", "random", "--seed", "31",
         "--format", "csv"],
        ["greedy", str(h), "--levels", "3", "--strategy", "random",
         "--seed", "31", "--format", "csv"],
        ["certify", str(h), "--alpha", "1", "--beta", "2", "--seed", "8"],
        ["gamma", str(h), "--q", "3", "--format", "csv"],
        ["connect", str(h), str(c1), str(c2), "--q", str(q), "--alpha", "0",
         "--beta", str(beta), "--format", "csv"],
        ["montecarlo", "--n", "40", "--k", "2", "--trials", "6",
         "--seed", "13", "--alpha", "3", "--beta", "2", "--m", "70",
         "--d", "20"],
    ]
    mismatched = 0
    for i, argv in enumerate(invocations):
        a = tmp_path / f"run{i}a.out"
        b = tmp_path / f"run{i}b.out"
        ra = cli_main(argv + ["--out", str(a)])
        rb = cli_main(argv + ["--out", str(b)])
        if ra != rb or a.read_bytes() != b.read_bytes():
            mismatched += 1
    ok = mismatched == 0
    emit(capfd, f"acceptance 9 {'PASS' if ok else 'FAIL'}: "
         f"{len(invocations)} CLI invocations repeated, {mismatched} "
         f"differed")
    assert mismatched == 0


def test_10_path_lengths_stay_modest_at_widened_palettes(corpus, capfd):
    instances, _ = corpus
    ratios = []
    failures = 0
    for H, certified in instances:
        if not certified:
            continue
        prng = random.Random(H.n * 7 + H.m)
        a, b = max(certified, key=lambda ab: (ab[0] + ab[1], ab[0]))
        q = a + 2 * b + 1
        for _ in range(3):
            c1 = random_proper_coloring(H, q, prng)
            c2 = random_proper_coloring(H, q, prng)
            p = rc.connect(H, c1, c2, q, a, b,
                           step_cap=rc.DEFAULT_STEP_CAP)
            if not sound(H, p, q, c2):
                failures += 1
            ratios.append(len(p) / H.n)
    ok = failures == 0 and ratios
    emit(capfd, f"acceptance 10 {'PASS' if ok else 'FAIL'}: {len(ratios)} paths "
         f"at q = alpha+2*beta+1; length/n mean "
         f"{statistics.mean(ratios):.3f}, median "
         f"{statistics.median(ratios):.3f}, max {max(ratios):.3f}; "
         f"none hit the step cap")
    assert failures == 0
    assert ratios
