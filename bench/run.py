#!/usr/bin/env python3
"""Benchmark for the recolor library, standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from ``src/`` of
that checkout; without it the benchmark exits non-zero and prints no result.

Each workload runs in this one process, single-threaded, as a closed loop
with one client: the next op starts when the previous one returns. Inputs
come from ``--seed`` alone. Set-up runs five times before the first pass and
again before every later pass of an untraced run, so that its samples spread
over the run like the ops', and its median is reported. The
loop runs whole passes over the input pool until ``--seconds`` have passed,
and every op's output goes through its class's gate.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
spends half the time untraced and half traced, then runs the scaling probes,
and reports the per-layer metrics, the tracing overhead included. Either way
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are the readable report,
and the full run record (spans too, when traced) goes to ``bench/out/``.
``--smoke`` shrinks every size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402  (the benchmark's own, needs no library)

TAIL_SAMPLES = 10          # a reported tail percentile has this many beyond it
SETUP_REPEATS = 5          # set-ups before the first pass; one more every pass


def load_library():
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "recolor" / "__init__.py").is_file():
        sys.exit(f"bench: no recolor sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def tail(samples: list):
    """(percentile, value) of the highest percentile with TAIL_SAMPLES
    samples beyond it, or None when none above the median has."""
    n = len(samples)
    below = n - TAIL_SAMPLES
    if below <= n / 2:
        return None
    return 100 * below // n, sorted(samples)[below - 1]


def timed_setup(wl, seed: int, workdir: str, setups: list) -> list:
    """The workload's pool; appends (seconds, reference time) to ``setups``."""
    ref_before = reference.timed()
    t0 = time.perf_counter()
    pool = wl.setup(seed, workdir)
    dt = time.perf_counter() - t0
    setups.append((dt, (ref_before + reference.timed()) / 2))
    return pool


def measure(wl, pool: list, seconds: float, tracer=None, resetup=None) -> dict:
    """Closed loop over ``pool`` for ``seconds``, in whole passes but
    stopping between ops once the deadline is past and one pass is done.
    The reference loop runs right before and right after every op, and the
    mean of the two is that op's reference time. ``resetup``, if given, runs
    before every pass but the first; the pool stays as it is."""
    times = [[] for _ in pool]     # durations of the successful ops, per input
    refs = [[] for _ in pool]      # and the reference time of each
    work = [0] * len(pool)         # units of work of each input's op
    failures, counts, extra = Counter(), Counter(), Counter()
    attempted = passes = 0
    first_pass_ops = set()
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        if passes and resetup is not None:
            resetup()
        for i, (cls, item) in enumerate(pool):
            if passes and time.perf_counter() >= deadline:
                break
            op_id = attempted
            attempted += 1
            out = error = None
            ref_before = reference.timed()
            if tracer is not None:
                tracer.op = op_id
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = cls.op(item)
                else:
                    with tracer.span("op." + cls.name):
                        out = cls.op(item)
            except Exception as exc:      # an op that raises is a failed op
                error = f"{cls.name} raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            ref = (ref_before + reference.timed()) / 2
            if error is None:
                try:
                    error, units = cls.check(
                        item, out, extra if tracer is not None else None)
                except Exception as exc:  # so is one whose output breaks the gate
                    error = f"{cls.name} check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures[error[:120]] += 1
                continue
            times[i].append(dt)
            refs[i].append(ref)
            work[i] = units
            if passes == 0:
                first_pass_ops.add(op_id)
                cls.count(item, out, counts)
        else:
            passes += 1
    return {"times": times, "refs": refs, "work": work, "attempted": attempted,
            "failed": sum(failures.values()), "failures": dict(failures),
            "passes": passes, "counts": counts, "extra": extra,
            "first_pass_ops": first_pass_ops}


def at_reference_speed(seconds: float, ref: float) -> float:
    """A time measured next to a reference loop that took ``ref`` seconds,
    as it would read on a host where that loop takes ``NOMINAL_S``."""
    return seconds * reference.NOMINAL_S / ref


def phase_scale(res: dict) -> float:
    """One factor to bring a phase's layer times to reference speed (1 when
    no op succeeded; the run is then incorrect anyway)."""
    refs = [r for rs in res["refs"] for r in rs]
    return reference.NOMINAL_S / statistics.median(refs) if refs else 1.0


def timing(wl, pool: list, res: dict, clock: bool = False) -> dict:
    """The timed end-to-end metrics of one measured phase.

    Each input is timed once a pass. Its time is the mean over the passes of
    its time at reference speed, each op scaled by its own reference time,
    which tracks the slow spells of a shared host; with ``clock``, the plain
    median, for comparison. (Over ten seeds the mean of the scaled times
    spread less than their median in 10 of 12 op classes and sets tried.) An
    op class's time is the mean over its inputs, which is as steady across
    seeds as the class's total work. The
    work rate is the primary inputs' work over their summed times. An op
    class with no successful op reads 0; the run is then incorrect anyway."""
    out = {}
    for role, cls in zip(("primary", "secondary"), wl.classes):
        mine = [i for i, (c, _) in enumerate(pool) if c is cls and res["times"][i]]
        per_input = [
            statistics.median(res["times"][i]) if clock else statistics.fmean(
                at_reference_speed(t, r)
                for t, r in zip(res["times"][i], res["refs"][i]))
            for i in mine]
        out[f"{role}_op_ms"] = statistics.fmean(per_input) * 1e3 if mine else 0.0
        if role == "primary":
            out["primary_work_per_s"] = (
                sum(res["work"][i] for i in mine) / sum(per_input) if mine else 0.0)
    return out


def end_to_end(wl, pool: list, res: dict, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        **timing(wl, pool, res),
    }


def per_layer(wl, pool, tracer, untraced: dict, traced: dict, probes: dict) -> dict:
    """Every per-layer metric, before scaling to reference speed. Times are
    seconds per call (self time where named so); counts are per op of the
    class that makes them, over the first pass. A layer the workload
    bypasses reads 0."""
    rows = tracer.summary()
    first = traced["first_pass_ops"]
    c, extra = traced["counts"], traced["extra"]

    def total(name, caller=None, col=1):
        return sum(r[col] for (n, who), r in rows.items()
                   if n == name and caller in (None, who))

    def per_call(name, caller=None, col=1):
        calls = total(name, caller, col=0)
        return total(name, caller, col) / calls if calls else 0.0

    def rate(name):
        busy = total(name)
        return total(name, col=3) / busy if busy else 0.0

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    gamma_calls = total("gamma_oracle.gamma_stats", col=0)
    gamma_s = per_call("gamma_oracle.gamma_stats")
    enum_s = extra["gamma_oracle.enumerate_s"] / gamma_calls if gamma_calls else 0.0
    roundtrips = total("op.roundtrip", col=0)
    un, tr = timing(wl, pool, untraced), timing(wl, pool, traced)
    return {
        "hypergraph.generate_hnm_s": per_call("hypergraph.generate_hnm"),
        "hypergraph.edges_per_s": rate("hypergraph.generate_hnm"),
        "hypergraph.read_s": per_call("hypergraph.read_hypergraph"),
        "hypergraph.is_proper_s": per_call("hypergraph.is_proper"),
        "hypergraph.is_proper_calls":
            tracer.calls_under("hypergraph.is_proper", "reconfig.connect", first)
            / (tracer.calls_under("reconfig.connect", "op.roundtrip", first) or 1),
        "core_peel.beta_core_s": per_call("core_peel.beta_core"),
        "core_peel.beta_core_s.reconfig": per_call("core_peel.beta_core", "reconfig"),
        "core_peel.beta_core_s.independence":
            per_call("core_peel.beta_core", "independence"),
        "core_peel.beta_core_s.experiments":
            per_call("core_peel.beta_core", "experiments"),
        "core_peel.core_size_mean": ratio("trial.core", "trial.ops"),
        "independence.greedy_sequence_s": per_call("independence.greedy_sequence"),
        "independence.extend_to_mis_s": per_call("independence.extend_to_mis"),
        "independence.certify_s":
            per_call("independence.is_alpha_beta_colorable_exact"),
        "independence.certified_ratio": ratio("census.certified", "census.combos"),
        "independence.residual_size_mean": ratio("trial.residual", "trial.ops"),
        "reconfig.connect_s": per_call("reconfig.connect"),
        "reconfig.path_to_good_greedy_s": per_call("reconfig.path_to_good_greedy"),
        "reconfig.path_between_good_greedy_s":
            per_call("reconfig.path_between_good_greedy"),
        "reconfig.connect_self_s": per_call("reconfig.connect", col=2),
        "reconfig.verify_path_s": per_call("reconfig.verify_path"),
        "reconfig.verify_moves_per_s": rate("reconfig.verify_path"),
        "reconfig.path_core_s": per_call("reconfig.path_core"),
        "reconfig.path_moves": ratio("roundtrip.length", "roundtrip.ops"),
        "reconfig.inter_moves": ratio("roundtrip.inter", "roundtrip.ops"),
        "reconfig.core_moves": ratio("roundtrip.core", "roundtrip.ops"),
        "reconfig.detour_moves": ratio("roundtrip.detours", "roundtrip.ops"),
        "reconfig.final_moves": ratio("roundtrip.final", "roundtrip.ops"),
        "reconfig.final_depth": ratio("roundtrip.depth", "roundtrip.ops"),
        "reconfig.rewrite_moves": ratio("rewrite.moves", "rewrite.ops"),
        "reconfig.rewrite_levels": ratio("rewrite.levels", "rewrite.ops"),
        "reconfig.rewrite_detour_ratio": ratio("rewrite.detours", "rewrite.moves"),
        "reconfig.rewrite_scaling_exp":
            probes.get("reconfig.rewrite_scaling_exp", 0.0),
        "reconfig.connect_scaling_exp":
            probes.get("reconfig.connect_scaling_exp", 0.0),
        "cli.trace_io_s": total("cli.main", col=2) / roundtrips if roundtrips else 0.0,
        "gamma_oracle.enumerate_s": enum_s,
        "gamma_oracle.gamma_stats_s": gamma_s,
        "gamma_oracle.components_s": gamma_s - enum_s,
        "gamma_oracle.distance_s": per_call("gamma_oracle.gamma_distance"),
        "gamma_oracle.colorings": ratio("census.colorings", "census.ops"),
        "gamma_oracle.components": ratio("census.components", "census.ops"),
        "gamma_oracle.probes_computed": ratio("census.probes", "census.ops"),
        "gamma_oracle.distance_reached_ratio":
            ratio("distance.reached", "distance.ops"),
        "gamma_oracle.distance_mean": ratio("distance.total", "distance.reached"),
        "experiments.trial_self_s": per_call("op.trial", col=2),
        "experiments.witness_rate": ratio("trial.witness", "trial.ops"),
        "trace.primary_op_overhead":
            tr["primary_op_ms"] / un["primary_op_ms"] - 1,
        "trace.secondary_op_overhead":
            tr["secondary_op_ms"] / un["secondary_op_ms"] - 1,
        "trace.primary_work_per_s_overhead":
            un["primary_work_per_s"] / tr["primary_work_per_s"] - 1,
        "trace.spans_per_op": sum(
            r[0] for r in tracer.summary(first).values()) / len(first),
    }


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    """sha256 over the library sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recolor").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def report_line(name, value, unit, note=""):
    print(f"  {name:<40} {value:>14.6g} {unit:<8}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    load_library()
    import workloads
    from tracer import Tracer

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads.NAMES or args.workload not in why:
        parser.error(f"unknown workload {args.workload!r}")
    wl = workloads.make(args.workload, args.smoke)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": why[args.workload],
        "sizes": wl.sizes(),
        "work_unit": wl.classes[0].work_unit,
        "git_sha": git_sha(), "src_digest": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []   # (seconds, reference time), scaled like the ops
        for _ in range(SETUP_REPEATS):
            pool = timed_setup(wl, args.seed, workdir, setups)

        if args.trace:
            untraced = measure(wl, pool, args.seconds / 2)
            tracer = Tracer()
            for point in workloads.TRACE_POINTS:
                tracer.install(*point)
            try:
                traced = measure(wl, pool, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(wl, pool, tracer, untraced, traced,
                                wl.probe(args.seed))
            # per-layer times at the traced phase's reference speed
            scale = phase_scale(traced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, unit in units.items():
                if unit == "s":
                    metrics[name] *= scale
                elif unit == "1/s":
                    metrics[name] /= scale
            phases = {"untraced": untraced, "traced": traced}
            key = "per_layer"
        else:
            untraced = measure(
                wl, pool, args.seconds,
                resetup=lambda: timed_setup(wl, args.seed, workdir, setups))
            setup_s = statistics.median(
                at_reference_speed(t, r) for t, r in setups)
            metrics = end_to_end(wl, pool, untraced, setup_s)
            phases = {"untraced": untraced}
            key = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["setup_runs_s"] = [t for t, _ in setups]
    record["setup_refs_s"] = [r for _, r in setups]
    units = {m["name"]: m["unit"] for m in spec[key]}
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())

    print(f"recolor benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  why: {why[args.workload]}")
    print(f"  sizes: {json.dumps(wl.sizes())}")
    print(f"  run: git {record['git_sha'][:12]} src {record['src_digest']} "
          f"python {record['python']} nproc {record['nproc']} loadavg "
          f"{record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    print(f"  setup: median of {len(setups)} set-ups, "
          f"{statistics.median(t for t, _ in setups):.6g} s by the clock")
    for label, p in phases.items():
        record[label] = {k: p[k] for k in ("attempted", "failed", "failures",
                                             "passes", "refs")}
        record[label]["clock"] = timing(wl, pool, p, clock=True)
        refs = [r for rs in p["refs"] for r in rs] or [0.0]
        print(f"  {label}: {p['attempted']} ops attempted, {p['failed']} "
              f"failed, {p['passes']} whole passes; reference loop "
              f"min {min(refs) * 1e3:.4g} ms, median "
              f"{statistics.median(refs) * 1e3:.4g} ms, max "
              f"{max(refs) * 1e3:.4g} ms")
        for name, value in record[label]["clock"].items():
            print(f"    by the clock, not scaled: {name} {value:.6g}")
        for reason, n in p["failures"].items():
            print(f"    failure x{n}: {reason}")
        for cls in wl.classes:
            s = [t for (c, _), ts in zip(pool, p["times"]) if c is cls for t in ts]
            tl = tail(s)
            p50 = statistics.median(s) * 1e3 if s else 0.0
            record[label][cls.name] = {"samples": s, "p50_ms": p50, "tail": tl}
            print(f"    {cls.name}: {len(s)} timed ops, p50 {p50:.6g} ms, " + (
                f"p{tl[0]} {tl[1] * 1e3:.6g} ms" if tl else
                f"no percentile above p50 has {TAIL_SAMPLES} samples beyond it"))
    for name, value in metrics.items():
        report_line(name, value, units[name])
    if args.trace:
        tr, un = timing(wl, pool, traced), timing(wl, pool, untraced)
        for name in tr:
            print(f"  traced vs untraced {name}: {tr[name]:.6g} vs {un[name]:.6g}")
        record["spans"] = {f"{name}@{caller}": row for (name, caller), row
                           in sorted(tracer.summary().items())}
        print("  spans (name@caller: calls, total s, self s, units):")
        for name, row in record["spans"].items():
            print(f"    {name}: {row[0]} {row[1]:.6g} {row[2]:.6g} {row[3]}")
    else:
        aliases = {"failed_ratio": (failed / attempted, "ratio")}
        for alias, (name, scale, unit) in workloads.ALIASES[args.workload].items():
            aliases[alias] = (metrics[name] * scale, unit)
        for name, (value, unit) in aliases.items():
            report_line(name, value, unit, "  (alias)")
        record["aliases"] = {k: v[0] for k, v in aliases.items()}

    record["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
