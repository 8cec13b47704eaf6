"""The replay kernel and the trace parser against the versions they
replaced.

``verify_path_reference`` and ``parse_trace_reference`` in ``helpers`` are
the old code, kept verbatim. Each test here feeds old and new the same
seeded inputs, faulty ones above all, and asks for the same answer: the same
``PathVerdict``, the same parsed rows or ``ValidationError`` message.
"""

import random
import time
import tracemalloc
from math import comb

import pytest

from recolor import (
    Coloring,
    NotColorableEvidence,
    RecolorPath,
    ValidationError,
    build,
    connect,
    generate_hnm,
    hypergraph_to_text,
    verify_path,
    write_coloring,
)
from recolor import cli, reconfig
from recolor.cli import _parse_trace
from helpers import (
    parse_trace_reference,
    random_proper_coloring,
    verify_path_reference,
)

REASONS = {"start-length-mismatch", "start-color-out-of-range",
           "improper-start", "vertex-out-of-range", "color-out-of-range",
           "hamming-step", "improper-intermediate"}


def replay(start, steps, upto):
    """1-indexed colors after the first ``upto`` steps."""
    cur = [0] + list(start.colors)
    for v, c in steps[:upto]:
        cur[v] = c
    return cur


def improper_move(H, cur, rng):
    """A move completing a monochrome edge: all its other vertices already
    share a color its last vertex does not wear. None if there is none."""
    edges = list(H.edges)
    rng.shuffle(edges)
    for e in edges:
        for v in e:
            others = {cur[u] for u in e if u != v}
            if len(others) == 1 and cur[v] not in others:
                return v, others.pop()
    return None


def faulty_paths(H, path, q, rng):
    """(fault, path) pairs: the clean path, then one injected fault each."""
    start, steps = path.start, list(path.steps)
    n, cols = H.n, list(start.colors)
    yield "ok", path

    def with_start(colors):
        return RecolorPath(Coloring(tuple(colors)), path.steps, path.end,
                           path.stats)

    def with_steps(new_steps):
        return RecolorPath(start, tuple(new_steps), path.end, path.stats)

    yield "start-length-mismatch", with_start(cols[:-1])
    yield "start-length-mismatch", with_start(cols + [1])
    bad = cols[:]
    bad[rng.randrange(n)] = q + 1
    yield "start-color-out-of-range", with_start(bad)
    e = rng.choice(H.edges)
    bad = cols[:]
    for u in e:
        bad[u - 1] = cols[e[0] - 1]
    yield "improper-start", with_start(bad)
    i = rng.randrange(len(steps) + 1)
    cur = replay(start, steps, i)
    v = rng.randrange(1, n + 1)
    for w in (0, n + 1, -3):
        yield "vertex-out-of-range", with_steps(steps[:i] + [(w, 1)] + steps[i:])
    for c in (0, q + 1, -1):
        yield "color-out-of-range", with_steps(steps[:i] + [(v, c)] + steps[i:])
    yield "hamming-step", with_steps(steps[:i] + [(v, cur[v])] + steps[i:])
    move = improper_move(H, cur, rng)
    if move is not None:
        yield ("improper-intermediate",
               with_steps(steps[:i] + [move] + steps[i:]))
    if steps:
        # a step redirected to another in-range color: whatever breaks
        # first, old and new must name it
        j = rng.randrange(len(steps))
        w, c = steps[j]
        other = rng.choice([x for x in range(1, q + 1) if x != c])
        yield None, with_steps(steps[:j] + [(w, other)] + steps[j + 1:])


@pytest.mark.parametrize("k,n,m,alpha,beta", [
    (2, 40, 50, 1, 2), (2, 60, 90, 2, 2), (3, 60, 80, 2, 3),
    (3, 120, 150, 2, 2), (4, 60, 120, 1, 3),
])
def test_verify_path_matches_the_reference_on_injected_faults(k, n, m, alpha,
                                                              beta):
    rng = random.Random(n * 1000 + m + k)
    q = alpha + beta + 1
    seen = set()
    for _ in range(6):
        H = generate_hnm(n, m, k, rng.getrandbits(48))
        c1 = random_proper_coloring(H, q, rng)
        c2 = random_proper_coloring(H, q, rng)
        try:
            path = connect(H, c1, c2, q, alpha, beta)
        except NotColorableEvidence:
            continue
        for fault, faulty in faulty_paths(H, path, q, rng):
            got = verify_path(H, faulty, q)
            assert got == verify_path_reference(H, faulty, q)
            if fault == "ok":
                assert got.ok and got.end == c2
            elif fault is not None:
                assert got.reason == fault
            seen.add(got.reason)
    assert seen >= REASONS | {None}


def test_verify_path_matches_the_reference_on_random_steps():
    """Steps drawn at random, a few just outside the vertex and color
    ranges: most fail early, some replay to the end."""
    rng = random.Random(77)
    for _ in range(300):
        k = rng.choice((2, 3))
        n = rng.randrange(k, 12)
        m = rng.randrange(0, min(2 * n, comb(n, k)) + 1)
        H = generate_hnm(n, m, k, rng.getrandbits(32))
        q = rng.randrange(2, 6)
        start = Coloring(tuple(rng.randrange(1, q + 2)
                               for _ in range(n + rng.choice((0, 0, 0, 1)))))
        steps = tuple((rng.randrange(0, n + 2), rng.randrange(0, q + 2))
                      for _ in range(rng.randrange(0, 8)))
        path = RecolorPath(start, steps, start, reconfig.PathStats())
        assert verify_path(H, path, q) == verify_path_reference(H, path, q)


TRACE_TEXTS = [
    "",
    "\n\n",
    "0 1 1 3\n1 2 2 1\n2 1 3 2\n",
    "0 1 1 3\n1 2 2 1\n2 1 3 2",                     # no final newline
    "index,vertex,old_color,new_color\n0,1,1,3\n1,2,2,1\n",
    "  0 1 1 3  \r\n\r\n1\t2\t2\t1\n",
    "0, 1 ,1, 3\n",
    "0 1 1 3\nindex,vertex,old_color,new_color\n1 2 2 1\n",
    "index vertex old_color new_color\n0 1 1 3\n",
    "0 1 1\n",
    "0 1 1 3 4\n",
    "0 1 1 x\n",
    "0 1 1 x 5\n",
    "0 1 1.5 3\n",
    "0,1,1,3,\n",
    "0 1 1 3\n0 2 2 1\n",
    "1 1 1 3\n",
    "-1 1 1 3\n",
    "0 -4 0 -2\n",
    "+0 1_0 ٣ 3\n",
    "0 1 1 3\n1 2 2 1\n7 1 3 2\n",
    "0 1 1 3\n1 2 2\n",
    "0 " + "9" * 5000 + " 1 3\n",
]


def parse_outcome(parse, path):
    try:
        return "ok", parse(str(path))
    except ValidationError as exc:
        return "error", str(exc)


def parse_rows(path):
    """_parse_trace's columns as the reference's (vertex, old, new) rows."""
    return list(zip(*_parse_trace(path)))


@pytest.mark.parametrize("text", TRACE_TEXTS)
def test_parse_trace_matches_the_reference(text, tmp_path):
    f = tmp_path / "trace.txt"
    f.write_text(text, encoding="utf-8")
    assert parse_outcome(parse_rows, f) == \
        parse_outcome(parse_trace_reference, f)


def test_parse_trace_matches_the_reference_on_random_lines(tmp_path):
    tokens = ["0", "1", "2", "3", "-1", "x", "", ",", " ", "  ", "\t", "1e3"]
    rng = random.Random(5)
    f = tmp_path / "trace.txt"
    for _ in range(400):
        lines = []
        for i in range(rng.randrange(0, 5)):
            if rng.random() < 0.6:
                sep = rng.choice((" ", ",", " , "))
                lines.append(sep.join(str(x) for x in
                                      (i, rng.randrange(1, 4),
                                       rng.randrange(1, 4),
                                       rng.randrange(1, 4))))
            else:
                lines.append("".join(rng.choice(tokens)
                                     for _ in range(rng.randrange(0, 8))))
        f.write_text("\n".join(lines), encoding="utf-8")
        assert parse_outcome(parse_rows, f) == \
            parse_outcome(parse_trace_reference, f)


@pytest.fixture
def tiny_chunks(monkeypatch):
    """_parse_trace reads a few lines at a time, so every text spans chunks."""
    monkeypatch.setattr(cli, "_TRACE_CHUNK", 20)


@pytest.mark.parametrize("text", TRACE_TEXTS)
def test_parse_trace_in_tiny_chunks_matches_the_reference(text, tmp_path,
                                                          tiny_chunks):
    f = tmp_path / "trace.txt"
    f.write_text("0 1 1 3\n1 2 2 1\n2 1 3 2\n3 2 1 2\n" + text,
                 encoding="utf-8")
    assert parse_outcome(parse_rows, f) == \
        parse_outcome(parse_trace_reference, f)


def canonical_trace(moves, rng, sep=" "):
    return [sep.join(map(str, (i, rng.randrange(1, 5000), rng.randrange(1, 7),
                                rng.randrange(1, 7)))) + "\n"
            for i in range(moves)]


@pytest.mark.parametrize("fault", [
    None, "csv", "header", "header mid-file", "blank line", "bad line",
    "index", "32-bit vertex", "negative color", "tab", "form feed",
    "no final newline",
])
def test_parse_trace_across_chunks_matches_the_reference(fault, tmp_path):
    """A trace of several real-size chunks, with the fault (or the header
    line, or other spacing) in a later chunk than the first."""
    rng = random.Random(str(fault))
    lines = canonical_trace(12_000, rng, "," if fault == "csv" else " ")
    assert sum(map(len, lines)) > 2 * cli._TRACE_CHUNK
    at = rng.randrange(9_000, 12_000)
    i, v, old, new = lines[at].replace(",", " ").split()
    edit = {
        "csv": ["index,vertex,old_color,new_color\n"] + lines,
        "header": ["index,vertex,old_color,new_color\n"] + lines,
        "header mid-file": lines[:at] + ["index,vertex,old_color,new_color\n"]
        + lines[at:],
        "blank line": lines[:at] + ["\n"] + lines[at:],
        "bad line": lines[:at] + [f"{i} {v} x {new}\n"] + lines[at + 1:],
        "index": lines[:at] + [f"{int(i) + 1} {v} {old} {new}\n"]
        + lines[at + 1:],
        "32-bit vertex": lines[:at] + [f"{i} {2 ** 31} {old} {new}\n"]
        + lines[at + 1:],
        "negative color": lines[:at] + [f"{i} {v} {old} -{new}\n"]
        + lines[at + 1:],
        "tab": lines[:at] + [f"{i}\t{v} {old} {new}\n"] + lines[at + 1:],
        "form feed": lines[:at] + [f"{i} {v}\x0c{old} {new}\n"]
        + lines[at + 1:],
        "no final newline": lines[:-1] + [lines[-1].rstrip("\n")],
    }.get(fault, lines)
    f = tmp_path / "trace.txt"
    f.write_text("".join(edit), encoding="utf-8")
    got = parse_outcome(parse_rows, f)
    assert got == parse_outcome(parse_trace_reference, f)
    assert (got[0] == "ok") == (fault not in ("bad line", "index"))


def test_parse_trace_keeps_at_most_40_bytes_a_move(tmp_path):
    # the parser it replaced kept a 3-tuple a move: about 100 bytes
    moves = 100_000
    f = tmp_path / "trace.txt"
    f.write_text("".join(canonical_trace(moves, random.Random(3))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cols = _parse_trace(str(f))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 40 * moves
    assert list(map(len, cols)) == [moves] * 3


def test_parse_trace_drops_a_header_after_every_move_in_linear_time(tmp_path):
    # taking the header lines out one remove() at a time rescanned the chunk
    # for each: 4-6 s on these 200,000 moves on a 2-vCPU host, where the
    # one-pass filter takes 0.2 s, as long as the trace without headers
    lines = canonical_trace(200_000, random.Random(4))
    plain, headed = tmp_path / "plain.txt", tmp_path / "headed.txt"
    plain.write_text("".join(lines))
    headed.write_text("".join(line + "index,vertex,old_color,new_color\n"
                              for line in lines))
    want = _parse_trace(str(plain))
    t0 = time.perf_counter()
    got = _parse_trace(str(headed))
    assert time.perf_counter() - t0 < 2.5
    assert got == want


def write_trace(path, start, steps):
    """``steps`` as trace lines, each old color taken from the replay (1
    where the vertex is outside the start)."""
    cur = [0] + list(start.colors)
    lines = []
    for i, (v, c) in enumerate(steps):
        inside = 1 <= v < len(cur)
        lines.append(f"{i} {v} {cur[v] if inside else 1} {c}\n")
        if inside:
            cur[v] = c
    path.write_text("".join(lines))


def verdict_line(verdict, moves):
    if verdict.ok:
        end = " ".join(map(str, verdict.end.colors))
        return f"ok length {moves} end {end}\n"
    where = "start" if verdict.failure_index is None else verdict.failure_index
    return f"failed index {where} reason {verdict.reason}\n"


@pytest.mark.parametrize("k,n,m,alpha,beta", [
    (2, 40, 50, 1, 2), (3, 60, 80, 2, 3), (4, 60, 120, 1, 3),
])
def test_cli_verify_prints_the_reference_verdict_on_injected_faults(
        k, n, m, alpha, beta, tmp_path, capsys):
    """Each faulty path as a trace file through ``recolor verify``: the
    printed line is the one the old replay's verdict words."""
    rng = random.Random(n * 1000 + m + k)
    q = alpha + beta + 1
    graph, start, trace = (tmp_path / name for name in
                           ("h.txt", "start.txt", "trace.txt"))
    seen = set()
    for _ in range(4):
        H = generate_hnm(n, m, k, rng.getrandbits(48))
        graph.write_text(hypergraph_to_text(H))
        c1 = random_proper_coloring(H, q, rng)
        c2 = random_proper_coloring(H, q, rng)
        try:
            path = connect(H, c1, c2, q, alpha, beta)
        except NotColorableEvidence:
            continue
        for fault, faulty in faulty_paths(H, path, q, rng):
            write_coloring(faulty.start, start)
            write_trace(trace, faulty.start, faulty.steps)
            want = verify_path_reference(H, faulty, q)
            code = cli.main(["verify", str(graph), str(start), str(trace),
                             "--q", str(q)])
            assert capsys.readouterr().out == verdict_line(want,
                                                           len(faulty.steps))
            assert code == (0 if want.ok else 1)
            seen.add(want.reason)
    assert seen >= REASONS | {None}


def test_cli_verify_keeps_at_most_40_bytes_a_move(tmp_path, capsys):
    # handing the replay a tuple of move pairs and a path around it cost
    # about 78 bytes a move
    moves = 200_000
    graph, start, trace = (tmp_path / name for name in
                           ("k2.txt", "start.txt", "trace.txt"))
    graph.write_text(hypergraph_to_text(build(2, 2, [(1, 2)])))
    write_coloring(Coloring((1, 2)), start)
    trace.write_text("".join(f"{i} 1 {1 + 2 * (i % 2)} {3 - 2 * (i % 2)}\n"
                             for i in range(moves)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = cli.main(["verify", str(graph), str(start), str(trace),
                         "--q", "3"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == "ok length 200000 end 1 2\n"
    assert peak <= 40 * moves
