"""Drawn hypergraph, coloring and trace texts through ``recolor verify`` and
``recolor core``, and drawn values for every numeric flag of every
subcommand, spelt ``--flag=value`` or ``--flag value``, with positionals
bare or after ``--``.

Whatever the files or flags hold, the CLI ends in a documented exit code
(0 ok, 1 negative verdict, 2 bad input, 3 refused) with no uncaught
exception, and a malformed input, a command line the parser rejects or a
refusal is one stderr line. A
negative verdict re-checks: a printed witness through ``verify_witness``,
a failed trace through ``verify_path``.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from recolor import (
    Coloring,
    ColorabilityWitness,
    MISequence,
    build,
    generate_hnm,
    hypergraph_to_text,
    reconfig,
    verify_witness,
)
from recolor.cli import _trace_text, main
from helpers import write_coloring

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
    return code, out.getvalue(), err.getvalue()


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
        code, _, err = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n")


# --- numeric flags ---------------------------------------------------------

# int flags draw these besides their small valid values, -inf among them as
# a text that is no int but looks like a negative number; float flags draw
# the float texts too. A work count is what the caller asks for, so it is
# drawn only small, zero or negative.
INTS = ("0", "-1", "100000000000000000000", "-100000000000000000000", "-inf")
FLOATS = ("nan", "inf", "1e400", "5e-324", "-0.0", *INTS)
COUNTS = ("0", "-1")

# an 8-vertex instance with two proper colorings; alpha = 0 exposes a witness
CONNECT_H = generate_hnm(8, 10, 3, 0)
C1 = Coloring((2, 3, 1, 2, 3, 1, 2, 3))
C2 = Coloring((4, 3, 2, 1, 4, 3, 2, 1))
TRACE = reconfig.connect(CONNECT_H, C1, C2, 4, 1, 2)
# small enough for a census with diameter at q = 6
GAMMA_H = build(4, 3, [(1, 2, 3), (2, 3, 4)])


def flag(name, drawn, valid, required=True):
    return name, drawn + valid, required


N, K = flag("--n", INTS, ("4", "8")), flag("--k", INTS, ("2", "3"))
ALPHA = flag("--alpha", INTS, ("0", "1", "2"))
BETA = flag("--beta", INTS, ("1", "2"))
# subcommand, its file arguments, its numeric flags; a name without dashes
# is positional, and "--seed" is drawn for the SEEDED subcommands only
COMMANDS = {
    "params": ((), [flag("d", FLOATS, ("2.5", "1e6")),
                    flag("k", INTS, ("2", "3")),
                    flag("n", INTS, ("10", "1000"))]),
    "gen-m": ((), [N, K, flag("--m", INTS, ("0", "3"))]),
    "gen-p": ((), [N, K, flag("--p", FLOATS, ("0.5", "1"))]),
    "core": (("h",), [BETA]),
    "mis": (("h",), []),
    "greedy": (("h",), [flag("--levels", INTS, ("1", "3"))]),
    "certify": (("h",), [ALPHA, BETA,
                         flag("--trials", COUNTS, ("1", "3"), False),
                         flag("--exact-limit", INTS, ("0", "8"), False)]),
    "connect": (("h", "c1", "c2"),
                [flag("--q", INTS, ("4", "6")), ALPHA, BETA,
                 flag("--step-cap", INTS, ("10", "1000"), False)]),
    "verify": (("h", "c1", "trace"), [flag("--q", INTS, ("3", "4"))]),
    "gamma": (("g",), [flag("--q", INTS, ("2", "3", "6")),
                       flag("--budget", INTS, ("100", "5000"), False),
                       flag("--diameter-budget", INTS, ("100", "100000"), False)]),
    "montecarlo": ((), [flag("--n", INTS, ("6", "30")), K,
                        flag("--trials", COUNTS, ("1", "2")),
                        flag("--d", FLOATS, ("2.5", "20"), False),
                        flag("--alpha", INTS, ("1", "2"), False),
                        flag("--beta", INTS, ("1", "2"), False),
                        flag("--m", INTS, ("5", "20"), False)]),
}
SEED = flag("--seed", INTS, ("1", "7"), False)
SEEDED = {"gen-m", "gen-p", "mis", "greedy", "certify", "montecarlo"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flags")
    paths = {name: tmp / f"{name}.txt"
             for name in ("h", "g", "c1", "c2", "trace")}
    paths["h"].write_text(hypergraph_to_text(CONNECT_H))
    paths["g"].write_text(hypergraph_to_text(GAMMA_H))
    write_coloring(C1, paths["c1"])
    write_coloring(C2, paths["c2"])
    paths["trace"].write_text(_trace_text(TRACE, "text"))
    return {name: str(path) for name, path in paths.items()}


@st.composite
def invocation(draw):
    """A subcommand with a drawn value for each required numeric flag and
    for a drawn subset of the optional ones, each option spelt
    ``--flag=value`` or ``--flag value``, and the positionals given bare or
    after ``--``: (command, {flag: text}, option words, positional words)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values, options, positional = {}, [], []
    seed = [SEED] if command in SEEDED else []
    for name, choices, required in COMMANDS[command][1] + seed:
        if required or draw(st.booleans()):
            text = values[name] = draw(st.sampled_from(choices))
            if not name.startswith("--"):
                positional.append(text)
            elif draw(st.booleans()):
                options.append(f"{name}={text}")
            else:
                options += [name, text]
    if positional and draw(st.booleans()):
        positional.insert(0, "--")
    return command, values, options, positional


def witness_from_text(text):
    """The ColorabilityWitness that ``_witness_text`` printed."""
    rows = [line.split(":")[1].split() for line in text.splitlines()[1:]]
    *sets, residual, core = (frozenset(map(int, row)) for row in rows)
    return ColorabilityWitness(MISequence(tuple(sets), residual), core)


def rechecks(command, values, out, err):
    """Does the negative verdict behind an exit 1 check out cold?"""
    if command in ("certify", "connect"):
        witness = witness_from_text(out if command == "certify" else err)
        return verify_witness(CONNECT_H, witness, int(values["--alpha"]),
                              int(values["--beta"]))
    if command == "verify":
        q = int(values["--q"])
        return not reconfig.verify_path(CONNECT_H, TRACE, q).ok
    return False


@given(invocation())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_numeric_flags_end_in_a_documented_exit(files, drawn):
    command, values, options, positional = drawn
    file_names, _ = COMMANDS[command]
    argv = [command.split("-")[0], *options,
            *(files[name] for name in file_names), *positional]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    if code == 3 and out.startswith("inconclusive"):
        # a witness hunt that found nothing is output, not a refusal
        assert command == "certify" and err == "" and out.count("\n") == 1
    elif code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code == 1:
        assert rechecks(command, values, out, err), argv


@pytest.mark.parametrize("command, flag, sign", [
    (command, name, sign)
    for command, (_, flags) in sorted(COMMANDS.items())
    for name, _, _ in flags for sign in ("", "-")
    # a huge work count asks for that much work
    if not (name == "--trials" and sign == "")
])
def test_a_huge_number_gives_a_short_message(files, command, flag, sign):
    """One flag at 300 digits, the required others at a valid value: an
    error or refusal quotes the number cut, on one short line."""
    file_names, flags = COMMANDS[command]
    options, positional = [], []
    for name, choices, required in flags:
        if name == flag or required:
            text = sign + "9" * 300 if name == flag else choices[-1]
            if name.startswith("--"):
                options += [name, text]
            else:
                positional.append(text)
    code, out, err = run([command.split("-")[0], *options,
                          *(files[name] for name in file_names), *positional])
    assert code in (0, 1, 2, 3)
    if code in (2, 3) and not out.startswith("inconclusive"):
        assert err.count("\n") == 1 and len(err) <= 200, err[:100]


@pytest.mark.parametrize("argv, message", [
    (["greedy", "h", "--levels", "nan"],
     "recolor greedy: argument --levels: invalid int value: 'nan'"),
    (["greedy", "h", "--levels=1.5"],
     "recolor greedy: argument --levels: invalid int value: '1.5'"),
    (["greedy", "h"],
     "recolor greedy: the following arguments are required: --levels"),
    (["greedy", "h", "--levels", "1", "extra"],
     "recolor: unrecognized arguments: extra"),
    (["greedy", "h", "--levels", "1", "a\nb"],
     "recolor: unrecognized arguments: a\\nb"),
    # the list of choices that follows is worded differently across versions
    (["bogus"], "recolor: argument command: invalid choice: 'bogus'"),
    ([], "recolor: the following arguments are required: command"),
], ids=["bad-int", "float-for-int", "missing-flag", "extra-word",
        "newline-in-word", "unknown-command", "no-command"])
def test_a_usage_error_is_one_line_and_exit_2(files, argv, message):
    code, out, err = run([files.get(word, word) for word in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["params", "-inf", "2", "10"],
    ["params", "-1e5", "2", "10"],
    ["montecarlo", "--n", "6", "--k", "2", "--trials", "1", "--d", "-inf"],
], ids=["positional-inf", "positional-exponent", "flag-inf"])
def test_a_negative_looking_value_is_read_as_a_value(argv):
    # d = -inf or -1e5 reaches the formulas, which refuse it as d <= 1
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: need d > 1 for the log formulas, got -")
    assert err.count("\n") == 1


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["greedy", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: recolor greedy")
