"""The replay kernel and the trace reader and writer against the versions
they replaced.

``verify_path_reference``, ``parse_trace_reference`` and
``trace_text_reference`` in ``helpers`` are the old code, kept verbatim.
Each test here feeds old and new the same seeded inputs, faulty ones above
all, and asks for the same answer: the same ``PathVerdict``, the same parsed
rows or ``ValidationError`` message, the same trace bytes.
"""

import itertools
import random
import time
import tracemalloc
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

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
)
from recolor import cli, reconfig
from recolor.cli import _parse_trace, _trace_chunks
from helpers import (
    parse_trace_reference,
    trace_text_reference,
    random_proper_coloring,
    verify_path_reference,
    write_coloring,
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


def test_parse_trace_reads_a_line_longer_than_a_block(tmp_path):
    """Lines of more than _TRACE_CHUNK characters, valid and not, among
    canonical lines and as the last line without a newline: the per-line
    checker takes them, and the rows or the error are the reference's."""
    rng = random.Random(6)
    lines = canonical_trace(20_000, rng)
    wide = cli._TRACE_CHUNK + 100
    f = tmp_path / "trace.txt"
    for at in (0, 3, 9_000, 19_999):
        i, v, old, new = lines[at].split()
        for long_line, ok in [
            (f"{i} {v}{' ' * wide}{old} {new}\n", True),
            (f"{' ' * wide}{i},{v},{old},{new}\n", True),
            (f"{i} {v} {old} {new}{' ' * wide}x\n", False),
        ]:
            edit = lines[:at] + [long_line] + lines[at + 1:]
            for text in ("".join(edit), "".join(edit).rstrip("\n")):
                assert len(max(text.split("\n"), key=len)) > cli._TRACE_CHUNK
                f.write_text(text, encoding="utf-8")
                got = parse_outcome(parse_rows, f)
                assert got == parse_outcome(parse_trace_reference, f)
                assert (got[0] == "ok") == ok


@pytest.mark.parametrize("sep", [" ", ","])
@pytest.mark.parametrize("final_newline", [True, False])
def test_parse_trace_drops_a_header_split_across_two_blocks(sep,
                                                            final_newline,
                                                            tmp_path):
    header = "index,vertex,old_color,new_color\n"
    lines = canonical_trace(12_000, random.Random(8), sep)
    # the header follows the first line ending within half a header of the
    # first block's end, so the block boundary falls inside the header
    ends = itertools.accumulate(map(len, lines))
    at = next(j for j, end in enumerate(ends, 1)
              if end + len(header) // 2 > cli._TRACE_CHUNK)
    text = "".join(lines[:at] + [header] + lines[at:])
    if not final_newline:
        text = "".join(lines[:at]) + header.rstrip("\n")
    start = text.index(header.rstrip("\n"))
    assert start < cli._TRACE_CHUNK < start + len(header) - 1
    f = tmp_path / "trace.txt"
    f.write_text(text, encoding="utf-8")
    got = parse_outcome(parse_rows, f)
    assert got == parse_outcome(parse_trace_reference, f)
    assert got[0] == "ok"
    assert len(got[1]) == (len(lines) if final_newline else at)


@st.composite
def trace_paths(draw):
    """A start coloring and moves on it, any colors from 1 up, 10**12
    among them, including colors the start does not use and moves that
    keep their color."""
    n = draw(st.integers(1, 6))
    color = st.integers(1, 120) | st.just(10 ** 12)
    colors = draw(st.lists(st.integers(1, 12) | st.just(10 ** 12),
                           min_size=n, max_size=n))
    steps = draw(st.lists(st.tuples(st.integers(1, n), color), max_size=12))
    return SimpleNamespace(start=Coloring(tuple(colors)), steps=tuple(steps))


@given(trace_paths(), st.sampled_from(["text", "csv"]),
       st.sampled_from([1, 2, 3, None]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_trace_chunks_join_to_the_reference_bytes(path, fmt, rows):
    """Any row count, the module's own among them: the pieces join to the
    old writer's text, the empty path too ("" in text, the header alone in
    csv), and no piece holds more than the row count of moves."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(cli, "_TRACE_ROWS", rows)
        chunks = list(_trace_chunks(path, fmt))
        rows = cli._TRACE_ROWS
    assert "".join(chunks) == trace_text_reference(path, fmt)
    moves = chunks[1:] if fmt == "csv" else chunks
    assert all(0 < chunk.count("\n") <= rows for chunk in moves)
    assert sum(chunk.count("\n") for chunk in moves) == len(path.steps)


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
