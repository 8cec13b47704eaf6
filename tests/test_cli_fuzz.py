"""Drawn hypergraph, coloring and trace texts through ``recolor verify`` and
``recolor core``.

Whatever the files hold, the CLI ends in a documented exit code (0 ok,
1 negative verdict, 2 bad input, 3 refused) with no uncaught exception, and
a malformed input or a refusal is one stderr line.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from recolor.cli import main

# digits, signs, letters, spaces, commas and newlines
ALPHABET = "0123456789+-abx ,\n"


def lines(rows, sep=" "):
    return "\n".join(sep.join(map(str, row)) for row in rows) + "\n"


@st.composite
def mangled(draw, text):
    """``text``, or now and then a text drawn from ALPHABET alone, with up
    to two characters overwritten from ALPHABET."""
    if draw(st.integers(0, 5)) == 5:
        text = draw(st.text(ALPHABET, max_size=30))
    chars = list(text)
    for pos, ch in draw(st.lists(st.tuples(st.integers(0, 99),
                                           st.sampled_from(ALPHABET)),
                                 max_size=2)):
        if chars:
            chars[pos % len(chars)] = ch
    return "".join(chars)


@st.composite
def case(draw):
    """Hypergraph, start coloring and trace texts for one small instance,
    well-formed until mangled, then q and beta."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 6))
    vertex, color = st.integers(1, n), st.integers(1, 4)
    edges = draw(st.lists(st.lists(vertex, min_size=k, max_size=k,
                                   unique=True),
                          max_size=6, unique_by=lambda e: tuple(sorted(e))))
    start = draw(st.lists(color, min_size=n, max_size=n))
    moves = draw(st.lists(st.tuples(vertex, color, color), max_size=6))
    sep = draw(st.sampled_from((" ", ",")))
    texts = (lines([(n, k, len(edges))] + edges), lines([start]),
             lines([(i, *move) for i, move in enumerate(moves)], sep))
    return (*[draw(mangled(text)) for text in texts],
            draw(st.integers(1, 6)), draw(st.integers(1, 4)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(case())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_verify_and_core_end_in_a_documented_exit(tmp_path_factory, drawn):
    hyper, start, trace, q, beta = drawn
    tmp = tmp_path_factory.getbasetemp()
    files = []
    for name, text in (("h", hyper), ("start", start), ("trace", trace)):
        f = tmp / f"fuzz_{name}.txt"
        f.write_text(text)
        files.append(str(f))
    for argv in (["verify", *files, "--q", str(q)],
                 ["core", files[0], "--beta", str(beta)]):
        code, err = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n")
