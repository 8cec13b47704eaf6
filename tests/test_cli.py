import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from recolor import (
    Coloring,
    blocked_colors,
    build,
    coloring_from_text,
    connect,
    experiments,
    generate_hnm,
    hypergraph,
    hypergraph_from_text,
    hypergraph_to_text,
    params_from_d,
)
from recolor import cli
from recolor.cli import _parse_trace, main
from helpers import trace_text_reference, write_coloring, write_hypergraph

GOLDEN = Path(__file__).parent / "golden"

K2_TEXT = hypergraph_to_text(build(2, 2, [(1, 2)]))
K3_TEXT = hypergraph_to_text(build(3, 2, [(1, 2), (2, 3), (1, 3)]))
HUGE_N = "1" + "0" * 320  # too large to convert to a float


@pytest.fixture
def k2_file(tmp_path):
    f = tmp_path / "k2.txt"
    f.write_text(K2_TEXT)
    return str(f)


@pytest.fixture
def k3_file(tmp_path):
    f = tmp_path / "k3.txt"
    f.write_text(K3_TEXT)
    return str(f)


def coloring_file(tmp_path, name, colors):
    f = tmp_path / name
    write_coloring(Coloring(colors), f)
    return str(f)


@pytest.fixture
def k2_files(tmp_path, k2_file):
    """The one-edge K2, two proper colorings of it and a one-move trace,
    under the names that argv templates use."""
    trace = tmp_path / "trace.txt"
    trace.write_text("0 1 1 3\n")
    return {"h": k2_file, "c1": coloring_file(tmp_path, "c1.txt", (1, 2)),
            "c2": coloring_file(tmp_path, "c2.txt", (2, 1)),
            "trace": str(trace)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bench_sized_instance():
    """generate_hnm at n = m = 2000, k = 3, and two proper q = 6 colorings,
    each colored in a seeded random order with a random unblocked color."""
    n, q = 2000, 6
    H = generate_hnm(n, n, 3, 2000)
    rng = random.Random(6)
    colorings = []
    for _ in range(2):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        partial = {}
        for v in order:
            blocked = blocked_colors(H, v, partial)
            partial[v] = rng.choice(
                [c for c in range(1, q + 1) if c not in blocked])
        colorings.append(Coloring(tuple(partial[v] for v in range(1, n + 1))))
    return H, colorings


class TestParams:
    def test_text(self, capsys):
        assert main(["params", "1e9", "2", str(10 ** 10)]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        assert set(fields) == {"d", "k", "n", "alpha_real", "alpha",
                               "beta_real", "beta", "m0", "n0", "p", "m"}
        assert fields["k"] == "2"
        assert float(fields["alpha_real"]) > 1

    def test_csv(self, capsys):
        assert main(["params", "1e9", "2", str(10 ** 10), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d,k,n,alpha_real,alpha,beta_real,beta,m0,n0,p,m"
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 11

    @pytest.mark.parametrize("name,argv", [
        ("params_k2_n1e10", ["1e9", "2", str(10 ** 10)]),
        ("params_k2_n1e6", ["400000", "2", str(10 ** 6)]),
        ("params_k3", ["1e16", "3", str(10 ** 9)]),
        ("params_k4", ["1e30", "4", str(10 ** 12)]),
    ])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_matches_golden(self, name, argv, fmt, capsys):
        assert main(["params", *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == (
            GOLDEN / f"{name}.{fmt}.txt").read_bytes()

    def test_domain_error(self, capsys):
        assert main(["params", "10", "2", "1000"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["params", "inf", "2", "10"],
        ["params", "1e400", "2", "10"],
        ["montecarlo", "--n", "30", "--k", "2", "--trials", "1",
         "--d", "inf"],
        ["params", "1e308", "3", "10"],
        ["montecarlo", "--n", "10", "--k", "3", "--trials", "1",
         "--d", "1e308"],
    ])
    def test_non_finite_d(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["params", "1e9", "2", HUGE_N],
        ["montecarlo", "--n", HUGE_N, "--k", "2", "--trials", "1",
         "--d", "1e9"],
    ])
    def test_n_beyond_float_range(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the parameter formulas overflow")
        assert err.count("\n") == 1


class TestGen:
    def test_m_route_reproducible(self, capsys):
        assert main(["gen", "--n", "8", "--k", "2", "--m", "6",
                     "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "8", "--k", "2", "--m", "6",
                     "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0] == "8 2 6"

    def test_p_route(self, capsys):
        assert main(["gen", "--n", "6", "--k", "3", "--p", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "6 3 20"

    def test_m_and_p_conflict(self, capsys):
        assert main(["gen", "--n", "6", "--k", "2", "--m", "3",
                     "--p", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: recolor gen: argument --p: "
                                "not allowed with argument --m\n")

    def test_bad_m(self, capsys):
        assert main(["gen", "--n", "4", "--k", "2", "--m", "99"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_vertex_count_beyond_cap_refused(self, tmp_path, capsys):
        # one past the cap, with no edges: refused before any allocation
        n = str(hypergraph._MAX_VERTICES + 1)
        f = tmp_path / "h.txt"
        f.write_text(f"{n} 2 0\n")
        for argv in (["gen", "--n", n, "--k", "2", "--m", "0"],
                     ["core", str(f), "--beta", "1"],
                     ["montecarlo", "--n", n, "--k", "2", "--trials", "1",
                      "--alpha", "1", "--beta", "1", "--m", "0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("refused: vertex count")

    def test_unmaterializable_m_refused(self, capsys):
        assert main(["gen", "--n", "10000", "--k", "3",
                     "--m", "6000000"]) == 3
        assert capsys.readouterr().err.startswith("refused:")

    @pytest.mark.parametrize("name,argv", [
        ("gen_m", ["--n", "12", "--k", "3", "--m", "20", "--seed", "7"]),
        # C(10, 3) = 120 k-sets: every one is enumerated
        ("gen_p_enum", ["--n", "10", "--k", "3", "--p", "0.1", "--seed", "3"]),
        # C(700, 2) = 244,650 k-sets: binomial edge count, then sampling
        ("gen_p_binom", ["--n", "700", "--k", "2", "--p", "0.0001",
                         "--seed", "5"]),
        # k = 6: random.sample keeps its pool branch up to n = 85
        ("gen_m_k6_pool", ["--n", "80", "--k", "6", "--m", "40", "--seed", "7"]),
        ("gen_m_k6_set", ["--n", "100", "--k", "6", "--m", "40",
                          "--seed", "7"]),
    ])
    def test_matches_golden(self, name, argv, tmp_path, capsys):
        dest = tmp_path / "h.txt"
        assert main(["gen", *argv, "--out", str(dest)]) == 0
        assert dest.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "h.txt"
        assert main(["gen", "--n", "5", "--k", "2", "--m", "4",
                     "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().splitlines()[0] == "5 2 4"


class TestSizeChecks:
    """Sizes are checked before any C(n, k) is multiplied out in full, so
    sizes far past the caps end quickly in one line, never a traceback."""

    @pytest.mark.parametrize("argv,code", [
        (["gen", "--n", str(10 ** 30), "--k", str(10 ** 20), "--m", "1"], 3),
        (["montecarlo", "--n", str(10 ** 30), "--k", str(10 ** 20),
          "--trials", "1", "--alpha", "1", "--beta", "1", "--m", "1"], 3),
        (["gen", "--n", "2000", "--k", "1000", "--p", "0.5"], 3),
        (["gen", "--n", "2000", "--k", "1000", "--p", "1e-320"], 3),
        (["gen", "--n", "1000000", "--k", "500000", "--m", "6000000"], 3),
        (["montecarlo", "--n", "1000000", "--k", "500000", "--trials", "0",
          "--alpha", "1", "--beta", "1", "--m", "1"], 0),
    ], ids=["gen-huge-nk", "montecarlo-huge-nk", "gen-p-half",
            "gen-p-subnormal", "gen-m-over-cap", "montecarlo-no-trials"])
    def test_ends_fast_in_one_line(self, argv, code, capsys):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err
        if code == 3:
            assert captured.err.startswith("refused: ")
            assert captured.out == ""
        else:
            assert captured.out == experiments.CSV_HEADER + "\n"

    def test_tiny_mean_past_the_float_range_draws(self, capsys):
        # C(2000, 230) is about 1.8e308, so the mean is about 1e-15
        assert math.comb(2000, 230) > sys.float_info.max
        assert main(["gen", "--n", "2000", "--k", "230",
                     "--p", "5e-324"]) == 0
        assert capsys.readouterr().out == "2000 230 0\n"

    @pytest.mark.parametrize("argv,err", [
        (["gen", "--n", "2000", "--k", "1000", "--p", "0.5"],
         "refused: expected edge count C(2000,1000)*0.5 is too large to "
         "materialize (above the limit 5000000)\n"),
        (["gen", "--n", "4", "--k", "2", "--m", "-1"],
         "error: m=-1 outside 0..C(4,2)\n"),
        (["gen", "--n", "4", "--k", "2", "--m", "7"],
         "error: m=7 outside 0..C(4,2)=6\n"),
        (["montecarlo", "--n", "4", "--k", "2", "--trials", "1",
          "--alpha", "1", "--beta", "1", "--m", "99"],
         "error: m=99 outside 0..C(4,2)=6\n"),
        (["params", "2.5", "2", "3"], "error: m=4 outside 0..C(3,2)=3\n"),
    ], ids=["stopped-early", "negative-m", "m-past-comb", "montecarlo-m",
            "params-m"])
    def test_quotes_only_an_exact_comb(self, argv, err, capsys):
        assert main(argv) in (2, 3)
        assert capsys.readouterr().err == err


class TestCore:
    def test_text(self, k3_file, capsys):
        assert main(["core", k3_file, "--beta", "2"]) == 0
        out = capsys.readouterr().out
        assert "core_size 3" in out
        assert "core 1 2 3" in out

    def test_csv(self, k3_file, capsys):
        assert main(["core", k3_file, "--beta", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "vertex,in_core,peel_position"
        assert len(lines) == 4
        assert all(row.split(",")[1] == "0" for row in lines[1:])

    def test_missing_file(self, tmp_path, capsys):
        assert main(["core", str(tmp_path / "nope.txt"), "--beta", "1"]) == 2


NOT_UTF8 = b"\xff\xfe\x00"


class TestNotUtf8:
    """A file that does not decode is malformed input: exit 2, one line."""

    def assert_malformed(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "UTF-8" in captured.err

    def test_hypergraph_file(self, tmp_path, capsys):
        f = tmp_path / "h.txt"
        f.write_bytes(NOT_UTF8)
        self.assert_malformed(["core", str(f), "--beta", "2"], capsys)

    def test_coloring_file(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        bad = tmp_path / "b.txt"
        bad.write_bytes(b"2 " + NOT_UTF8)
        self.assert_malformed(["connect", k2_file, c1, str(bad), "--q", "3",
                               "--alpha", "0", "--beta", "2"], capsys)

    def test_trace_file(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_bytes(b"0 1 1 3\n" + NOT_UTF8 + b"\n")
        self.assert_malformed(["verify", k2_file, c1, str(trace), "--q", "3"],
                              capsys)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    f = tmp_path / "k3.txt"
    f.write_text(K3_TEXT)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "recolor", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    done = run("core", str(f), "--beta", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "core_size 3\ncore 1 2 3\norder \n"
    bad = run("core", str(f), "--beta", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")


MALFORMED = json.loads((GOLDEN / "malformed_text.json").read_text())


class TestMalformedText:
    """Each malformed hypergraph, coloring and trace text in the golden
    table, with its error class and message; texts with several faults pin
    the order of the checks. A trace entry with a ``verdict`` instead parses
    to its ``rows`` (vertex, old color, new color), and ``recolor verify``
    on K2 from (1, 2) at q=2 prints that verdict: values far outside the
    vertex and color ranges, and separators inside a line, which must not
    split it."""

    @staticmethod
    def _read(reader, text, tmp_path):
        if reader == "hypergraph":
            return hypergraph_from_text(text)
        if reader == "coloring":
            return coloring_from_text(text)
        f = tmp_path / "trace.txt"
        f.write_text(text, encoding="utf-8")
        return _parse_trace(str(f))

    @pytest.mark.parametrize("case", MALFORMED,
                             ids=lambda c: f"{c['reader']}:{c['text']!r}")
    def test_reader(self, case, tmp_path):
        if "verdict" in case:
            cols = self._read(case["reader"], case["text"], tmp_path)
            assert [list(r) for r in zip(*cols)] == case["rows"]
            return
        with pytest.raises(Exception) as info:
            self._read(case["reader"], case["text"], tmp_path)
        assert type(info.value).__name__ == case["error"]
        assert str(info.value) == case["message"]

    @pytest.mark.parametrize("case", MALFORMED,
                             ids=lambda c: f"{c['reader']}:{c['text']!r}")
    def test_cli(self, case, tmp_path, k2_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(case["text"], encoding="utf-8")
        start = coloring_file(tmp_path, "start.txt", (1, 2))
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        argv = {
            "hypergraph": ["core", str(bad), "--beta", "1"],
            "coloring": ["verify", k2_file, str(bad), str(empty), "--q", "2"],
            "trace": ["verify", k2_file, start, str(bad), "--q", "2"],
        }[case["reader"]]
        if "verdict" in case:
            assert main(argv) == 1
            assert capsys.readouterr() == (case["verdict"], "")
            return
        if case["error"] == "InstanceTooLargeError":
            code, prefix = 3, "refused"
        else:
            code, prefix = 2, "error"
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "\n" not in case["message"]
        assert captured.err == f"{prefix}: {case['message']}\n"


class TestLongInputErrors:
    """A reader error quotes a bounded excerpt of its input, however long
    the input is: exit 2 and one short stderr line."""

    def assert_short_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert len(err) <= 200

    def test_long_coloring_text(self, tmp_path, k2_file, capsys):
        bad = tmp_path / "start.txt"
        bad.write_text("1 " * (10 ** 6 - 1) + "0\n")
        trace = tmp_path / "trace.txt"
        trace.write_text("")
        self.assert_short_error(
            ["verify", k2_file, str(bad), str(trace), "--q", "2"], capsys)

    def test_long_edge(self, tmp_path, capsys):
        n = 10 ** 5
        bad = tmp_path / "h.txt"
        bad.write_text(f"{n} 2 1\n" + " ".join(map(str, range(1, n + 1))))
        self.assert_short_error(["core", str(bad), "--beta", "1"], capsys)

    def test_long_trace_line(self, tmp_path, k2_file, capsys):
        start = coloring_file(tmp_path, "start.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1 1 " + "9" * 10 ** 5 + "\n")
        self.assert_short_error(
            ["verify", k2_file, start, str(trace), "--q", "2"], capsys)

    @pytest.mark.parametrize("argv", [
        ["params", "1e300", "2", "10"],
        ["gen", "--n", "8", "--k", "3", "--m", "9" * 300],
        ["greedy", "h", "--levels", "9" * 300],
        ["gamma", "h", "--q", "9" * 300],
        ["connect", "h", "c1", "c2", "--q", "4", "--alpha", "9" * 300,
         "--beta", "2"],
        ["montecarlo", "--n", "8", "--k", "2", "--trials", "1",
         "--alpha", "1", "--beta", "1", "--m", "9" * 300],
        ["certify", "h", "--alpha", "-" + "9" * 300, "--beta", "2"],
        ["verify", "h", "c1", "trace", "--q", "-" + "9" * 300],
        # beyond the digits ``int`` reads from text: argparse rejects it
        ["montecarlo", "--n", "8", "--k", "2", "--trials", "1",
         "--alpha", "1", "--beta", "1", "--m", "9" * 5000],
        # C(n, 2) has more digits than ``repr`` of an int may print
        ["gen", "--n", "9" * 4000, "--k", "2", "--m", "-1"],
    ], ids=["params-m", "gen-m", "greedy-levels", "gamma-q", "connect-alpha",
            "montecarlo-m", "certify-alpha", "verify-q", "montecarlo-m-5000",
            "gen-comb"])
    def test_huge_number_is_cut(self, argv, k2_files, capsys):
        code = main([k2_files.get(word, word) for word in argv])
        captured = capsys.readouterr()
        assert code in (2, 3) and captured.out == ""
        assert captured.err.startswith("error: " if code == 2 else "refused: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert len(captured.err) <= 200


class TestMisAndGreedy:
    def test_mis_ascending(self, k3_file, capsys):
        assert main(["mis", k3_file]) == 0
        assert capsys.readouterr().out == "size 1\nmembers 1\n"

    def test_mis_random_seeded(self, k3_file, capsys):
        assert main(["mis", k3_file, "--strategy", "random",
                     "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["mis", k3_file, "--strategy", "random",
                     "--seed", "11"]) == 0
        assert capsys.readouterr().out == first

    def test_greedy_levels(self, k3_file, capsys):
        assert main(["greedy", k3_file, "--levels", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "level 1: 1\nlevel 2: 2\nresidual: 3\n"

    def test_greedy_levels_beyond_the_vertex_limit_refused(self, k3_file,
                                                           capsys):
        assert main(["greedy", k3_file, "--levels", str(10 ** 20)]) == 3
        err = capsys.readouterr().err
        assert err == (f"refused: sequence length {10 ** 20} exceeds the "
                       f"limit of {hypergraph._MAX_VERTICES}\n")

    def test_greedy_csv(self, k3_file, capsys):
        assert main(["greedy", k3_file, "--levels", "1",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level,vertex"
        assert "1,1" in lines
        assert "residual,2" in lines

    # on connect_k2.h.txt (n=200, k=2, m=200), whose three greedy levels
    # leave a residual under both strategies
    @pytest.mark.parametrize("command,flags", [
        ("mis", []), ("greedy", ["--levels", "3"]),
    ], ids=["mis", "greedy"])
    @pytest.mark.parametrize("strategy,seed", [
        ("ascending", []), ("random", ["--seed", "5"]),
    ])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_matches_golden(self, command, flags, strategy, seed, fmt,
                            capsys):
        """Recorded before greedy_sequence drew its levels through one
        unchecked kernel."""
        assert main([command, str(GOLDEN / "connect_k2.h.txt"), *flags,
                     "--strategy", strategy, *seed, "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == (
            GOLDEN / f"{command}_k2.{strategy}.{fmt}.txt").read_bytes()


class TestCertify:
    def test_colorable(self, k3_file, capsys):
        assert main(["certify", k3_file, "--alpha", "2", "--beta", "1"]) == 0
        assert capsys.readouterr().out == "colorable exact\n"

    def test_witness(self, k3_file, capsys):
        assert main(["certify", k3_file, "--alpha", "1", "--beta", "1"]) == 1
        out = capsys.readouterr().out
        assert out == ("not-colorable core_size 2\nset 1: 3\n"
                       "residual: 1 2\ncore: 1 2\n")

    def test_inconclusive_beyond_exact_limit(self, tmp_path, capsys):
        f = tmp_path / "big.txt"
        f.write_text(hypergraph_to_text(build(20, 2, [(1, 2)])))
        assert main(["certify", str(f), "--alpha", "1", "--beta", "1",
                     "--exact-limit", "5", "--trials", "20"]) == 3
        assert "inconclusive" in capsys.readouterr().out

    def test_witness_hunt_succeeds(self, k3_file, capsys):
        # exact path disabled: the random hunt must find the triangle core
        assert main(["certify", k3_file, "--alpha", "1", "--beta", "1",
                     "--exact-limit", "0", "--trials", "50"]) == 1
        assert "not-colorable" in capsys.readouterr().out

    # on certify.h.txt (generate_hnm n=10, k=3, m=24, seed 4); the last case
    # sits beyond --exact-limit, so its witness comes from the falsifier
    @pytest.mark.parametrize("case,argv", [
        ("colorable", ["--alpha", "2", "--beta", "2"]),
        ("witness", ["--alpha", "2", "--beta", "1"]),
        ("falsifier", ["--alpha", "1", "--beta", "2", "--exact-limit", "9",
                       "--trials", "20", "--seed", "3"]),
    ])
    def test_matches_golden(self, case, argv, capsys):
        """Exit code and stdout, recorded before the exact search became
        one function."""
        rc = main(["certify", str(GOLDEN / "certify.h.txt"), *argv])
        got = f"exit {rc}\n{capsys.readouterr().out}"
        assert got.encode() == (
            GOLDEN / f"certify_{case}.out.txt").read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--alpha", "-1", "--beta", "1"],
         "need alpha >= 0 and beta >= 1, got (-1, 1)"),
        (["--alpha", "1", "--beta", "0"],
         "need alpha >= 0 and beta >= 1, got (1, 0)"),
    ], ids=["negative-alpha", "zero-beta"])
    def test_alpha_beta_worded_alike_by_both_searches(self, tmp_path, flags,
                                                      message, capsys):
        # 20 vertices: the falsifier by default, the exact search at 30
        f = tmp_path / "h.txt"
        write_hypergraph(generate_hnm(20, 30, 3, 5), f)
        for limit in ([], ["--exact-limit", "30"]):
            assert main(["certify", str(f), *flags, *limit]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--trials", "0"], "trials must be positive, got 0"),
        (["--trials", "-5"], "trials must be positive, got -5"),
        (["--trials", "0", "--alpha", "-1"],
         "need alpha >= 0 and beta >= 1, got (-1, 2)"),
    ], ids=["zero", "negative", "bad-alpha-first"])
    def test_trials_worded_alike_by_both_searches(self, tmp_path, flags,
                                                  message, capsys):
        # the exact search at 30 runs no trials, but refuses a bad count
        f = tmp_path / "h.txt"
        write_hypergraph(generate_hnm(20, 30, 2, 1), f)
        for limit in ([], ["--exact-limit", "30"]):
            assert main(["certify", str(f), "--alpha", "1", "--beta", "2",
                         *flags, *limit]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


class TestConnectAndVerify:
    def test_roundtrip(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        c2 = coloring_file(tmp_path, "b.txt", (2, 1))
        trace = tmp_path / "trace.txt"
        rc = main(["connect", k2_file, c1, c2, "--q", "3", "--alpha", "0",
                   "--beta", "2", "--out", str(trace)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err.startswith("path length 3:")
        assert trace.read_text() == "0 1 1 3\n1 2 2 1\n2 1 3 2\n"
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 0
        assert capsys.readouterr().out == "ok length 3 end 2 1\n"

    def test_csv_trace_verifies_too(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        c2 = coloring_file(tmp_path, "b.txt", (2, 1))
        trace = tmp_path / "trace.csv"
        assert main(["connect", k2_file, c1, c2, "--q", "3", "--alpha", "0",
                     "--beta", "2", "--format", "csv",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        assert trace.read_text().splitlines()[0] == \
            "index,vertex,old_color,new_color"
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 0

    def test_identity_trace_is_empty(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        assert main(["connect", k2_file, c1, c1, "--q", "3", "--alpha", "0",
                     "--beta", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("path length 0:")

    def test_not_colorable_witness_on_stderr(self, tmp_path, k3_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2, 3))
        c2 = coloring_file(tmp_path, "b.txt", (2, 1, 3))
        assert main(["connect", k3_file, c1, c2, "--q", "3", "--alpha", "1",
                     "--beta", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not-colorable")

    def test_step_cap_refusal(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        c2 = coloring_file(tmp_path, "b.txt", (2, 1))
        assert main(["connect", k2_file, c1, c2, "--q", "3", "--alpha", "0",
                     "--beta", "2", "--step-cap", "1"]) == 3
        assert capsys.readouterr().err == (
            "refused: level 1 outgrew the step cap of 1; "
            "raise it with --step-cap\n")

    def test_negative_step_cap_is_malformed(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        c2 = coloring_file(tmp_path, "b.txt", (2, 1))
        assert main(["connect", k2_file, c1, c2, "--q", "3", "--alpha", "0",
                     "--beta", "2", "--step-cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step cap must be nonnegative, got -1\n"

    def test_verify_rejects_tampering(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1 1 2\n")
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 1
        assert capsys.readouterr().out == \
            "failed index 0 reason improper-intermediate\n"

    def test_verify_old_color_mismatch(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1 3 2\n")
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 1
        assert capsys.readouterr().out == \
            "failed index 0 reason old-color-mismatch\n"

    @pytest.mark.parametrize("colors", [(1,), (1, 2, 1)])
    def test_verify_start_length_mismatch(self, tmp_path, k2_file, colors,
                                          capsys):
        # the trace names vertex 2, beyond a one-color start
        c1 = coloring_file(tmp_path, "a.txt", colors)
        trace = tmp_path / "trace.txt"
        trace.write_text("0 2 2 3\n")
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 1
        assert capsys.readouterr().out == \
            "failed index start reason start-length-mismatch\n"

    @pytest.mark.parametrize("q", ["0", "-5"])
    def test_verify_non_positive_q(self, tmp_path, k2_file, q, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_text("0 1 1 3\n")
        assert main(["verify", k2_file, c1, str(trace), "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: q must be positive, got {q}\n"
        assert main(["gamma", k2_file, "--q", q]) == 2
        assert capsys.readouterr().err == captured.err

    def test_verify_bad_trace_file(self, tmp_path, k2_file, capsys):
        c1 = coloring_file(tmp_path, "a.txt", (1, 2))
        trace = tmp_path / "trace.txt"
        trace.write_text("5 1 1 3\n")
        assert main(["verify", k2_file, c1, str(trace), "--q", "3"]) == 2
        assert "out of order" in capsys.readouterr().err

    # (case, start coloring, trace) on the connect_k2 instance at q=4; the
    # trace defaults to verify_<case>.trace. The last two carry two faults
    # each, so the order of the checks decides which verdict is printed.
    @pytest.mark.parametrize("case,start,trace", [
        ("valid_text", "connect_k2.c1", None),
        ("valid_csv", "connect_k2.c1", "verify_valid_csv.trace"),
        ("vertex_out_of_range", "connect_k2.c1", None),
        ("color_below_range", "connect_k2.c1", None),
        ("color_above_range", "connect_k2.c1", None),
        ("start_length_mismatch", "verify_short.start", None),
        ("old_color_mismatch", "connect_k2.c1", None),
        ("start_color_out_of_range", "verify_color5.start", None),
        ("improper_start", "verify_improper.start", None),
        ("hamming_step", "connect_k2.c1", None),
        ("improper_intermediate", "connect_k2.c1", None),
        ("short_start_late_vertex", "verify_short.start", None),
        ("improper_then_mismatch", "connect_k2.c1", None),
    ])
    def test_verify_matches_golden(self, case, start, trace, capsys):
        """Exit code and stdout, recorded before the step format changed."""
        trace = trace or f"verify_{case}.trace"
        rc = main(["verify", str(GOLDEN / "connect_k2.h.txt"),
                   str(GOLDEN / f"{start}.txt"), str(GOLDEN / f"{trace}.txt"),
                   "--q", "4"])
        got = f"exit {rc}\n{capsys.readouterr().out}"
        assert got.encode() == (GOLDEN / f"verify_{case}.out.txt").read_bytes()

    def test_bench_sized_roundtrip_matches_golden(self, tmp_path, capsys):
        """Trace, stderr and verdict digests at n=2000, q=6, alpha=2,
        beta=3, re-recorded once connect stopped walking chi2's leftover
        (7,306 -> 7,245 moves)."""
        H, (c1, c2) = bench_sized_instance()
        hg, f1, f2 = (str(tmp_path / name) for name in ("h", "c1", "c2"))
        trace = tmp_path / "trace.txt"
        write_hypergraph(H, hg)
        write_coloring(c1, f1)
        write_coloring(c2, f2)
        assert main(["connect", hg, f1, f2, "--q", "6", "--alpha", "2",
                     "--beta", "3", "--out", str(trace)]) == 0
        err = capsys.readouterr().err
        assert sha256(trace.read_bytes()) == (
            "9705eeb2d8b0d9fa8e7186eb05d337342272a69d678eabaeae8959580d7c5b6b")
        assert sha256(err.encode()) == (
            "cc10185fcc345483b5ad5fbc988430615b6bb0e59587eb7ec9aa1f5a9b17442f")
        assert main(["verify", hg, f1, str(trace), "--q", "6"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == (
            "639e25007849899cea96d2cae57b54fd89c25f190147985081c75b23cc5ca9ec")

    def test_bench_trial_shape_draws_match_golden(self, tmp_path, capsys):
        """Instance and random-order greedy digests on the Monte Carlo
        trial's shape (n=10^4, k=2, m=18,000), recorded before the pair
        sampler and the seeded shuffle were replayed on getrandbits."""
        hg = str(tmp_path / "h.txt")
        assert main(["gen", "--n", "10000", "--k", "2", "--m", "18000",
                     "--seed", "7", "--out", hg]) == 0
        with open(hg, "rb") as fh:
            assert sha256(fh.read()) == (
                "58e2f4fb5edd7c82bafcad5b0f8fd22069fab72c582bd10b66ff85d30ff1c278")
        assert main(["greedy", hg, "--levels", "2", "--strategy", "random",
                     "--seed", "5"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == (
            "d352e58f6e5245ff8abf6c290ec89496378f1417027f71f8bd3683bda7bfac9b")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_stdout_equals_out_over_two_chunks(self, fmt, tmp_path, capsys):
        H, (c1, c2) = bench_sized_instance()
        hg, f1, f2 = (str(tmp_path / name) for name in ("h", "c1", "c2"))
        trace = tmp_path / "trace.txt"
        write_hypergraph(H, hg)
        write_coloring(c1, f1)
        write_coloring(c2, f2)
        argv = ["connect", hg, f1, f2, "--q", "6", "--alpha", "2",
                "--beta", "3", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--out", str(trace)]) == 0
        assert capsys.readouterr().out == ""
        assert trace.read_text() == out
        assert out.count("\n") > cli._TRACE_ROWS

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_a_color_near_a_trillion(self, fmt, tmp_path, capsys):
        """The writer formats the colors in use, not every color up to
        the largest: a path from color 10**12 is written at once, to
        stdout and to --out, in the old writer's bytes."""
        H = build(2, 2, [(1, 2)])
        c1, c2 = Coloring((1, 10 ** 12)), Coloring((2, 1))
        hg, f1, f2 = (str(tmp_path / name) for name in ("h", "c1", "c2"))
        trace = tmp_path / "trace.txt"
        write_hypergraph(H, hg)
        write_coloring(c1, f1)
        write_coloring(c2, f2)
        argv = ["connect", hg, f1, f2, "--q", str(10 ** 12), "--alpha", "2",
                "--beta", "1", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--out", str(trace)]) == 0
        assert trace.read_text() == out
        path = connect(H, c1, c2, 10 ** 12, 2, 1)
        assert out == trace_text_reference(path, fmt)
        assert f" {10 ** 12} " in out or f",{10 ** 12}," in out


class TestGamma:
    def test_text(self, k2_file, capsys):
        assert main(["gamma", k2_file, "--q", "3"]) == 0
        assert capsys.readouterr().out == (
            "num_colorings 6\nnum_components 1\nconnected 1\n"
            "diameter 3\ncomponent_sizes 6\n")

    def test_frozen_components(self, k3_file, capsys):
        assert main(["gamma", k3_file, "--q", "3"]) == 0
        out = capsys.readouterr().out
        assert "num_components 6" in out
        assert "connected 0" in out

    def test_no_diameter_flag(self, k2_file, capsys):
        assert main(["gamma", k2_file, "--q", "3", "--no-diameter"]) == 0
        assert "diameter -" in capsys.readouterr().out

    def test_csv_histogram(self, k3_file, capsys):
        assert main(["gamma", k3_file, "--q", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "component_size,count\n1,6\n"

    def test_budget_refusal(self, k2_file, capsys):
        assert main(["gamma", k2_file, "--q", "3", "--budget", "1"]) == 3
        assert capsys.readouterr().err.startswith("refused:")

    @pytest.mark.parametrize("flags,message", [
        (["--budget", "8"], "q**n = 3**2 exceeds the enumeration budget 8; "
                            "raise it with --budget"),
        # one component of 6 colorings: 6 * 6 * n * (q - 1) probes
        (["--diameter-budget", "143"],
         "diameter sweep needs ~144 probes, over the diameter budget 143; "
         "raise it with --diameter-budget"),
    ], ids=["budget", "diameter-budget"])
    def test_refusals_name_their_flag(self, k2_file, flags, message, capsys):
        assert main(["gamma", k2_file, "--q", "3", *flags]) == 3
        assert capsys.readouterr().err == f"refused: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--budget", "-5"], "budget must be nonnegative, got -5"),
        (["--diameter-budget", "-1"],
         "diameter budget must be nonnegative, got -1"),
        (["--diameter-budget", "-1", "--no-diameter"],
         "diameter budget must be nonnegative, got -1"),
    ])
    def test_negative_budget_is_malformed(self, k2_file, flags, message,
                                          capsys):
        assert main(["gamma", k2_file, "--q", "3", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMonteCarlo:
    ARGS = ["montecarlo", "--n", "30", "--k", "2", "--trials", "5",
            "--alpha", "2", "--beta", "2", "--m", "60", "--seed", "9"]

    def test_stdout_and_rate(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("trial,seed,")
        assert len(lines) == 6
        assert captured.err == "witness_rate 0.2 over 5 trials\n"

    @pytest.mark.parametrize("name,argv", [
        ("montecarlo_n30_k2", ARGS),
        ("montecarlo_n2000_k3",
         ["montecarlo", "--n", "2000", "--k", "3", "--trials", "3",
          "--alpha", "2", "--beta", "2", "--m", "4000", "--seed", "11"]),
        # the bench's trial shape, with a witness rate near 1/2
        ("montecarlo_n10000_k2",
         ["montecarlo", "--n", "10000", "--k", "2", "--trials", "4",
          "--alpha", "2", "--beta", "2", "--m", "18000", "--seed", "7"]),
    ])
    def test_matches_golden(self, name, argv, capsys):
        """CSV rows and the rate line: each trial's instance is pinned
        through its residual sizes."""
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == (
            GOLDEN / f"{name}.csv.txt").read_bytes()
        assert captured.err.encode() == (
            GOLDEN / f"{name}.stderr.txt").read_bytes()

    def test_byte_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_d_route(self, capsys):
        assert main(["montecarlo", "--n", "50", "--k", "2", "--trials", "2",
                     "--d", "40", "--alpha", "5", "--beta", "3",
                     "--m", "100"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[7] != ""  # n0 present when d is given

    @pytest.mark.parametrize("d", ["inf", "nan"])
    def test_non_finite_d_with_explicit_params(self, d, capsys):
        assert main(["montecarlo", "--n", "10", "--k", "2", "--trials", "2",
                     "--alpha", "1", "--beta", "1", "--m", "5",
                     "--d", d]) == 2
        assert capsys.readouterr().err == f"error: need a finite d, got {d}\n"

    def test_partial_explicit_params(self, capsys):
        assert main(["montecarlo", "--n", "30", "--k", "2", "--trials", "1",
                     "--alpha", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_d_alone_sets_alpha_beta_and_m(self, capsys):
        assert main(["montecarlo", "--n", "30", "--k", "2", "--trials", "3",
                     "--d", "2.5", "--seed", "1"]) == 0
        ps = params_from_d(2.5, 2, 30)
        assert (ps.m, ps.alpha, ps.beta) == (38, 2, 2)
        assert ps.n0 == pytest.approx(218.169, abs=1e-3)
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            assert (int(cells["m"]), int(cells["alpha"]),
                    int(cells["beta"])) == (ps.m, ps.alpha, ps.beta)
            assert cells["n0"] == repr(ps.n0)

    @pytest.mark.parametrize("flags,message", [
        (["--trials", "-1", "--d", "2.5"],
         "trial count must be nonnegative, got -1"),
        (["--trials", "1", "--alpha", "-1", "--beta", "1", "--m", "5"],
         "need alpha >= 0 and beta >= 1, got (-1, 1)"),
    ], ids=["negative-trials", "negative-alpha"])
    def test_bad_config_is_one_error_line(self, flags, message, capsys):
        assert main(["montecarlo", "--n", "30", "--k", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_n0_past_the_float_range_is_one_error_line(self, capsys):
        assert main(["montecarlo", "--n", HUGE_N, "--k", "2", "--trials", "0",
                     "--alpha", "1", "--beta", "1", "--m", "1",
                     "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: the parameter formulas overflow a float at d=2.0, n=1000")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err


class TestOptionSurface:
    """A subcommand takes --seed and --format only when it reads them; each
    one it does not read is a usage error, not a silent no-op."""

    @pytest.mark.parametrize("argv,option", [
        (["params", "2.5", "2", "10"], ["--seed", "5"]),
        (["core", "h", "--beta", "2"], ["--seed", "5"]),
        (["connect", "h", "c1", "c2", "--q", "3", "--alpha", "0",
          "--beta", "2"], ["--seed", "1"]),
        (["verify", "h", "c1", "trace", "--q", "3"], ["--seed", "1"]),
        (["gamma", "h", "--q", "3"], ["--seed", "1"]),
        (["gen", "--n", "8", "--k", "3", "--m", "10"], ["--format", "csv"]),
        (["certify", "h", "--alpha", "0", "--beta", "2"],
         ["--format", "csv"]),
        (["verify", "h", "c1", "trace", "--q", "3"], ["--format", "csv"]),
        (["montecarlo", "--n", "8", "--k", "2", "--trials", "1",
          "--d", "2.5"], ["--format", "text"]),
    ], ids=["params-seed", "core-seed", "connect-seed", "verify-seed",
            "gamma-seed", "gen-format", "certify-format", "verify-format",
            "montecarlo-format"])
    def test_unread_option_is_a_usage_error(self, argv, option, k2_files,
                                            capsys):
        assert main([k2_files.get(word, word) for word in argv] + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: recolor: unrecognized arguments: "
                                f"{' '.join(option)}\n")
