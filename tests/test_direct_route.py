"""``connect`` at alpha = 0: one rewrite from one end to the other.

With no classes to build, V is the leftover of the empty class sequence. If
it keeps a beta-core, that is the witness. Otherwise the join rewrites chi1
straight into chi2 along V's peel with the pool 1..beta+1: a vertex meets at
most beta-1 edges before it on the peel, so a spare is always left.
``helpers.direct_route_reference`` builds the same path from the reference
peel and the quadratic rewriter. ``helpers.connect_reference`` is the route
this replaced, a first-fit bridge from each end and the join between them.
It must give the same witnesses, and on the seeded corpus it never finds a
path the direct route does not, nor a shorter one.
"""

import dataclasses
import random
from math import comb
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from recolor import (
    NotColorableEvidence,
    beta_core,
    connect,
    generate_hnm,
    hamming,
    read_coloring,
    read_hypergraph,
    verify_path,
    verify_witness,
)
from recolor import reconfig
from recolor.cli import main
from helpers import (connect_reference, direct_route_reference,
                     random_proper_coloring)

GOLDEN = Path(__file__).parent / "golden"
CAPS = (0, 5, 50, None)             # None: the default cap


def outcome(fn, H, c1, c2, q, beta, cap):
    """The path with every stats field, the witness sets, or the type,
    message and cap of the error."""
    args = (H, c1, c2, q, 0, beta) + (() if cap is None else (cap,))
    try:
        path = fn(*args)
    except NotColorableEvidence as exc:
        w = exc.witness
        return ("witness", w.sequence.sets, w.sequence.residual,
                w.core_vertices)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "cap", None))
    return ("ok", path.start, path.steps, path.end,
            dataclasses.asdict(path.stats))


def corpus():
    """Seeded alpha = 0 calls, k 2-4, beta 2-4, q = beta+1 and beta+3. The
    edge counts run from well inside the coreless range to just past it, so
    most instances have no beta-core and some keep one."""
    rng = random.Random(34)
    calls = []
    for k in (2, 3, 4):
        for beta in (2, 3, 4):
            for extra in (1, 3):
                q = beta + extra
                for rep in range(4):
                    n = rng.randint(20, 50)
                    # average degree k*m/n about (rep + 1)*beta/4 + k/4
                    m = n * beta * (rep + 1) // (2 * k) // 2 + n // 4
                    H = generate_hnm(n, min(m, comb(n, k)), k,
                                     rng.getrandbits(32))
                    try:
                        c1 = random_proper_coloring(H, q, rng, tries=50)
                        c2 = random_proper_coloring(H, q, rng, tries=50)
                    except RuntimeError:
                        continue
                    calls.append((H, c1, c2, q, beta))
    return calls


CORPUS = corpus()


def test_the_direct_route_matches_its_reference_and_the_old_route():
    kinds = {}
    for H, c1, c2, q, beta in CORPUS:
        coreless = not beta_core(H, beta).core
        for cap in CAPS:
            got = outcome(connect, H, c1, c2, q, beta, cap)
            assert got == outcome(direct_route_reference, H, c1, c2, q, beta,
                                  cap), (q, beta, cap)
            old = outcome(connect_reference, H, c1, c2, q, beta, cap)
            if old[0] == "witness":
                assert got == old
            elif old[0] == "ok":
                # a path the old route found under this cap is found again,
                # and on this corpus it is never longer; that is no theorem,
                # since a wider seeded sweep found calls it lengthens
                assert got[0] == "ok" and len(got[2]) <= len(old[2])
            assert (got[0] == "witness") == (not coreless)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert len(CORPUS) >= 60, len(CORPUS)
    assert {"ok", "witness", "StepCapExceededError"} <= set(kinds), kinds
    assert kinds["ok"] >= 50 and kinds["witness"] >= 20, kinds


def test_one_peel_and_one_rewrite_along_it(monkeypatch):
    """The route's whole work: the peel of V and one rewrite along its
    order from chi1 to chi2 with the pool 1..beta+1, no walk around it."""
    H, c1, c2, q, beta = next(call for call in CORPUS
                              if not beta_core(call[0], call[4]).core)
    calls = {"beta_core": [], "_core_steps": [], "_inter_steps": []}
    for name in calls:
        inner = getattr(reconfig, name)

        def spy(*args, _name=name, _inner=inner):
            calls[_name].append(args)
            return _inner(*args)

        monkeypatch.setattr(reconfig, name, spy)
    path = connect(H, c1, c2, q, 0, beta)
    assert len(calls["beta_core"]) == 1 and not calls["_inter_steps"]
    [(_, order, chi, tau, pool, _, _)] = calls["_core_steps"]
    assert order == beta_core(H, beta).order
    assert chi[1:] == list(c1.colors) and tau[1:] == list(c2.colors)
    assert tuple(pool) == tuple(range(1, beta + 2))
    assert path.end == c2


@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(4, 40))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_an_alpha_zero_path_replays_to_its_target(seed, k, beta, extra, n):
    """The path replays cold, ends at chi2 and is at least the Hamming
    distance long; a call that makes none holds a witness that checks."""
    assume(k <= n)
    rng = random.Random(seed)
    q = beta + extra
    H = generate_hnm(n, rng.randint(0, min(2 * n, comb(n, k))), k,
                     rng.getrandbits(32))
    try:
        c1 = random_proper_coloring(H, q, rng, tries=20)
        c2 = random_proper_coloring(H, q, rng, tries=20)
    except RuntimeError:
        assume(False)
    try:
        path = connect(H, c1, c2, q, 0, beta)
    except NotColorableEvidence as exc:
        assert beta_core(H, beta).core
        assert verify_witness(H, exc.witness, 0, beta)
        return
    verdict = verify_path(H, path, q)
    assert verdict.ok, verdict
    assert verdict.end == c2
    assert len(path) >= hamming(c1, c2)
    assert path.stats.inter_moves == path.stats.final_moves == 0


def test_the_alpha_zero_connect_trace_matches_golden(tmp_path, capsys):
    """A trace recorded once the alpha = 0 route became one rewrite, on an
    instance whose 3-core is empty, compared byte for byte."""
    files = {s: str(GOLDEN / f"connect_a0.{s}.txt") for s in ("h", "c1", "c2")}
    H = read_hypergraph(files["h"])
    assert not beta_core(H, 3).core
    out = tmp_path / "trace.txt"
    assert main(["connect", files["h"], files["c1"], files["c2"],
                 "--q", "5", "--alpha", "0", "--beta", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "connect_a0.trace.txt").read_bytes()
    assert capsys.readouterr().err == \
        (GOLDEN / "connect_a0.stderr.txt").read_text()
    # the trace leads to the second end, in fewer moves than vertices
    assert main(["verify", files["h"], files["c1"], str(out), "--q", "5"]) == 0
    verdict = capsys.readouterr().out.split()
    assert verdict[:2] == ["ok", "length"] and int(verdict[2]) < H.n
    assert verdict[4:] == [str(c) for c in read_coloring(files["c2"]).colors]
