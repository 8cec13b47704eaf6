"""The benchmark's own tests: output contract, count determinism, gates.

Every workload runs in its ``--smoke`` sizes, in-process, for one pass.
"""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_loader = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(run)


def bench(workload, seed, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.01", "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def counts(result):
    """The metrics that must repeat exactly for a seed: counts, and ratios
    of counts (the tracing overheads are ratios of times)."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"
            or (m["unit"] == "ratio" and not name.endswith("_overhead"))}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_and_passes_its_gates(workload, trace, key):
    result = bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_change_with_it(workload):
    first = counts(bench(workload, 3, 1))
    assert first and first == counts(bench(workload, 3, 1))
    other = bench(workload, 4, 1)
    assert other["correct"] is True
    assert counts(other) != first


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (90, 89)
    assert run.tail(list(range(20))) is None
    assert run.tail([]) is None


class _Flaky:
    """An op class that raises on one input and fails its gate on another."""

    name = "flaky"

    def op(self, item):
        if item == 1:
            raise RuntimeError("boom")
        return item

    def check(self, item, out, extra):
        return ("wrong output" if out == 2 else None), 1

    def count(self, item, out, acc):
        acc["ops"] += 1


class _Steady(_Flaky):
    name = "steady"


def test_failed_ops_are_counted_and_do_not_stop_the_run():
    flaky, steady = _Flaky(), _Steady()
    wl = type("W", (), {"classes": (flaky, steady)})
    pool = [(flaky, i) for i in range(4)] + [(steady, 0)]
    res = run.measure(wl, pool, 0.0)
    assert res["attempted"] == 5 and res["failed"] == 2 and res["passes"] == 1
    assert [len(t) for t in res["times"]] == [1, 0, 0, 1, 1]
    assert res["counts"] == Counter(ops=3)
    assert set(res["failures"]) == {"flaky raised RuntimeError: boom", "wrong output"}
    timed = run.timing(wl, pool, res)
    assert timed["primary_work_per_s"] > 0 and timed["secondary_op_ms"] > 0


def test_times_are_scaled_by_the_reference_loop_around_each_op():
    steady = _Steady()
    wl = type("W", (), {"classes": (steady, steady)})
    nominal = run.reference.NOMINAL_S
    # the host ran at half the reference speed, then at full speed
    res = {"times": [[0.4, 0.3, 0.1]], "refs": [[2 * nominal, nominal, nominal]],
           "work": [5]}
    scaled = run.timing(wl, [(steady, 0)], res)
    assert scaled["primary_op_ms"] == pytest.approx(200.0)
    assert scaled["primary_work_per_s"] == pytest.approx(25.0)
    assert run.timing(wl, [(steady, 0)], res, clock=True)["primary_op_ms"] == (
        pytest.approx(300.0))


def test_without_library_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
