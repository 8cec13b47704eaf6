"""Each input rule is checked by one function, so every public entry that
meets a bad input words it alike: one parametrized test per rule, over the
entries that check it."""

import pytest

from recolor import (
    Coloring,
    MonteCarloConfig,
    ValidationError,
    VertexRangeError,
    beta_core,
    blocked_colors,
    build,
    check_good_greedy,
    connect,
    extend_to_mis,
    falsify_alpha_beta,
    gamma_distance,
    gamma_stats,
    generate_hnm,
    greedy_sequence,
    is_alpha_beta_colorable_exact,
    is_proper,
    montecarlo_colorability,
    path_between_good_greedy,
    path_core,
    path_to_good_greedy,
)

PATH3 = build(3, 2, [(1, 2), (2, 3)])
GOOD = Coloring((1, 2, 1))          # greedy-shaped at alpha = 1, beta = 2
Q, ALPHA, BETA = 4, 1, 2


def raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def test_a_short_coloring():
    short = Coloring((1, 2))
    calls = [
        lambda: connect(PATH3, short, GOOD, Q, ALPHA, BETA),
        lambda: path_core(PATH3, {1, 2, 3}, short, GOOD, ALPHA, BETA, Q),
        lambda: path_to_good_greedy(PATH3, short, Q, ALPHA, BETA),
        lambda: path_between_good_greedy(PATH3, short, GOOD, Q, ALPHA, BETA),
        lambda: check_good_greedy(PATH3, short, ALPHA, BETA),
        lambda: gamma_distance(PATH3, Q, short, GOOD),
        lambda: is_proper(PATH3, short),
    ]
    want = (ValidationError, "coloring has 2 entries, hypergraph has 3 vertices")
    assert [raised(call) for call in calls] == [want] * len(calls)


def test_a_color_above_q():
    # the one wording names the coloring as its entry does
    bad = Coloring((1, 2, Q + 1))
    calls = [
        ("coloring", lambda: connect(PATH3, bad, GOOD, Q, ALPHA, BETA)),
        ("coloring", lambda: connect(PATH3, GOOD, bad, Q, ALPHA, BETA)),
        ("coloring", lambda: path_core(PATH3, {3}, GOOD, bad, ALPHA, BETA, Q)),
        ("coloring", lambda: path_to_good_greedy(PATH3, bad, Q, ALPHA, BETA)),
        ("sigma", lambda: gamma_distance(PATH3, Q, bad, GOOD)),
        ("tau", lambda: gamma_distance(PATH3, Q, GOOD, bad)),
    ]
    for name, call in calls:
        assert raised(call) == (
            ValidationError, f"{name} uses a color above q={Q}")


@pytest.mark.parametrize("vertex,shown", [
    (4, "4"), (0, "0"), (2 ** 20000, "<int of 20001 bits>"),
], ids=["n-plus-1", "zero", "past-int-str-digits"])
def test_a_vertex_outside_1_to_n(vertex, shown):
    calls = [
        lambda: GOOD[vertex],
        lambda: GOOD.replace(vertex, 1),
        lambda: PATH3.degree(vertex),
        lambda: blocked_colors(PATH3, vertex, {}),
    ]
    want = (VertexRangeError, f"vertex {shown} outside 1..3")
    assert [raised(call) for call in calls] == [want] * len(calls)


@pytest.mark.parametrize("strategy,message", [
    ("bogus", "unknown strategy 'bogus'; use 'ascending' or 'random'"),
    ("random", "the seeded-random strategy requires rng_seed"),
])
def test_a_bad_strategy_or_a_missing_seed(strategy, message):
    # the active set is bad too: the strategy is checked before it
    calls = [
        lambda: extend_to_mis(PATH3, {9}, strategy=strategy),
        lambda: greedy_sequence(PATH3, 1, strategy, active={9}),
    ]
    want = (ValidationError, message)
    assert [raised(call) for call in calls] == [want] * len(calls)


@pytest.mark.parametrize("rng_seed", [1.5, "abc", True, b"1"])
def test_a_random_seed_that_is_not_an_int(rng_seed):
    calls = [
        lambda: extend_to_mis(PATH3, strategy="random", rng_seed=rng_seed),
        lambda: greedy_sequence(PATH3, 2, "random", rng_seed=rng_seed),
        lambda: falsify_alpha_beta(PATH3, 1, 1, 3, rng_seed),
        # alpha >= n takes the falsifier's shortcut, after the seed's check
        lambda: falsify_alpha_beta(PATH3, 3, 1, 3, rng_seed),
    ]
    want = (ValidationError, f"rng_seed must be an integer, got {rng_seed!r}")
    assert [raised(call) for call in calls] == [want] * len(calls)


@pytest.mark.parametrize("alpha,beta,message", [
    (-1, 1, "need alpha >= 0 and beta >= 1, got (-1, 1)"),
    (1, 0, "need alpha >= 0 and beta >= 1, got (1, 0)"),
    (1.5, 1, "alpha must be an integer, got 1.5"),
    (True, 1, "alpha must be an integer, got True"),
    (1, 1.5, "beta must be an integer, got 1.5"),
    (1, True, "beta must be an integer, got True"),
    (1, 2.0, "beta must be an integer, got 2.0"),
])
def test_alpha_and_beta(alpha, beta, message):
    calls = [
        lambda: falsify_alpha_beta(PATH3, alpha, beta, 5, 0),
        lambda: is_alpha_beta_colorable_exact(PATH3, alpha, beta),
        lambda: check_good_greedy(PATH3, GOOD, alpha, beta),
        lambda: connect(PATH3, GOOD, GOOD, Q, alpha, beta),
        lambda: path_core(PATH3, {3}, GOOD, GOOD, alpha, beta, Q),
    ]
    if message.startswith("beta must"):
        # beta_core takes beta alone, and checks its type as they do
        calls.append(lambda: beta_core(PATH3, beta))
    want = (ValidationError, message)
    assert [raised(call) for call in calls] == [want] * len(calls)


@pytest.mark.parametrize("alpha,message", [
    (-1, "need alpha >= 0 and beta >= 1, got (-1, 1)"),
    (1.5, "alpha must be an integer, got 1.5"),
    (True, "alpha must be an integer, got True"),
])
def test_the_exact_search_checks_alpha_and_beta_before_its_size(alpha,
                                                                message):
    """Past the exhaustive cap a bad alpha is still the ValidationError
    itself, not the InstanceTooLargeError subclass of a size refusal."""
    H = generate_hnm(20, 10, 2, 1)
    assert raised(lambda: is_alpha_beta_colorable_exact(H, alpha, 1)) == (
        ValidationError, message)


@pytest.mark.parametrize("q", [4.0, True, "4"])
def test_a_q_that_is_not_an_int(q):
    calls = [
        lambda: connect(PATH3, GOOD, GOOD, q, ALPHA, BETA),
        lambda: path_core(PATH3, {3}, GOOD, GOOD, ALPHA, BETA, q),
        lambda: gamma_stats(PATH3, q),
        lambda: gamma_distance(PATH3, q, GOOD, GOOD),
    ]
    want = (ValidationError, f"q must be an integer, got {q!r}")
    assert [raised(call) for call in calls] == [want] * len(calls)


@pytest.mark.parametrize("value", [12.5, True, "3"])
def test_a_count_that_is_not_an_int(value):
    """Step caps, budgets, trial counts, the exact search's size cap and the
    sequence length are ints, bool excluded, before their range is checked."""
    config = MonteCarloConfig(n=8, k=2, trials=value, seed=0, alpha=1, beta=1,
                              m=3)
    calls = [
        ("step cap", lambda: connect(PATH3, GOOD, GOOD, Q, ALPHA, BETA, value)),
        ("step cap", lambda: path_core(PATH3, {1, 2, 3}, GOOD, GOOD, ALPHA,
                                       BETA, Q, value)),
        ("step cap", lambda: path_to_good_greedy(PATH3, GOOD, Q, ALPHA, BETA,
                                                 value)),
        ("step cap", lambda: path_between_good_greedy(PATH3, GOOD, GOOD, Q,
                                                      ALPHA, BETA, value)),
        ("budget", lambda: gamma_stats(PATH3, Q, budget=value)),
        ("budget", lambda: gamma_distance(PATH3, Q, GOOD, GOOD, budget=value)),
        ("diameter budget",
         lambda: gamma_stats(PATH3, Q, diameter_budget=value)),
        ("trials", lambda: falsify_alpha_beta(PATH3, ALPHA, BETA, value, 0)),
        ("trials", lambda: list(montecarlo_colorability(config))),
        ("max_size", lambda: is_alpha_beta_colorable_exact(
            PATH3, ALPHA, BETA, max_size=value)),
        ("sequence length", lambda: greedy_sequence(PATH3, value)),
    ]
    for name, call in calls:
        assert raised(call) == (
            ValidationError, f"{name} must be an integer, got {value!r}")


BIG = 2 ** 20000                    # past the int-to-str digit limit
OUTSIDE_BIG = Coloring((1, 2, BIG))


@pytest.mark.parametrize("error,call", [
    (VertexRangeError, lambda: beta_core(PATH3, 1, [BIG])),
    (ValidationError, lambda: extend_to_mis(PATH3, seed_set=[BIG])),
    (ValidationError, lambda: path_core(PATH3, {1, 2}, OUTSIDE_BIG,
                                        OUTSIDE_BIG, ALPHA, BETA, BIG)),
], ids=["active-vertex", "seed-vertex", "outside-color"])
def test_a_number_past_the_digit_limit_is_quoted_by_size(error, call):
    kind, message = raised(call)
    assert kind is error and "<int of 20001 bits>" in message, message
