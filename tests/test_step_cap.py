"""No public builder returns a path longer than its step cap.

For every cap from 0 up to a call's uncapped length, ``path_core``,
``path_to_good_greedy``, ``path_between_good_greedy`` and ``connect`` each
either return at most cap moves or raise ``StepCapExceededError``, and at the
uncapped length they return the uncapped path. The calls are seeded: k 2-3,
n 5-14, alpha 0-2, beta 1-3.
"""

import random
from collections import Counter

from recolor import (
    Coloring,
    NotColorableEvidence,
    StepCapExceededError,
    build,
    connect,
    generate_hnm,
    path_between_good_greedy,
    path_core,
    path_to_good_greedy,
)
from helpers import color_coreless, random_proper_coloring


def walk(*args, **kwargs):
    return path_to_good_greedy(*args, **kwargs)[0]


def calls(count=60, seed=25):
    """``count`` seeded instances, each giving one call to every builder
    that completes uncapped, after the smallest call whose rewriter paints
    its last vertex past a cap of 0."""
    out = [(path_core, (build(2, 2, [(1, 2)]), [1, 2], Coloring((1, 2)),
                        Coloring((3, 2)), 0, 2, 3))]
    rng = random.Random(seed)
    made = 0
    while made < count:
        k, n = rng.choice((2, 3)), rng.randint(5, 14)
        H = generate_hnm(n, rng.randint(n // 2, 2 * n), k, rng.getrandbits(32))
        alpha, beta = rng.choice((0, 0, 1, 2)), rng.randint(1, 3)
        q = alpha + beta + rng.randint(1, 2)
        try:
            c1 = random_proper_coloring(H, q, rng, tries=50)
            c2 = random_proper_coloring(H, q, rng, tries=50)
            g1 = walk(H, c1, q, alpha, beta).end
            g2 = walk(H, c2, q, alpha, beta).end
        except (RuntimeError, NotColorableEvidence):
            continue
        # the greedy shape's leftover, repainted by first fit along its peel
        # onto beta colors of alpha+1..alpha+beta+1
        region = [v for v in H.vertices() if g1[v] > alpha]
        palette = rng.sample(range(alpha + 1, alpha + beta + 2), beta)
        tau = list(g1.colors)
        for v, c in color_coreless(H, beta, region, palette).items():
            tau[v - 1] = c
        tau = Coloring(tau)     # greedy-shaped too
        new = [(path_core, (H, region, g1, tau, alpha, beta, q)),
               (walk, (H, c1, q, alpha, beta)),
               (path_between_good_greedy, (H, tau, g2, q, alpha, beta)),
               (connect, (H, c1, c2, q, alpha, beta))]
        try:
            for builder, args in new:
                builder(*args)
        except NotColorableEvidence:
            continue            # the join's inner walks found a witness
        out += new
        made += 1
    return out


def test_every_builder_keeps_its_cap():
    refused = Counter()
    alpha0 = Counter()
    for builder, args in calls():
        full = builder(*args)
        for cap in range(len(full) + 1):
            try:
                path = builder(*args, step_cap=cap)
            except StepCapExceededError as exc:
                # the uncapped path fits a cap of its own length
                assert exc.cap == cap < len(full), builder.__name__
                refused[builder.__name__] += 1
                continue
            assert len(path) <= cap, (builder.__name__, cap)
            assert path.steps == full.steps
        alpha0[builder.__name__] += args[-3 if builder is path_core else -2] == 0
    names = {"path_core", "walk", "path_between_good_greedy", "connect"}
    assert set(refused) == names and min(refused.values()) >= 50, refused
    assert set(alpha0) == names and min(alpha0.values()) >= 5, alpha0
