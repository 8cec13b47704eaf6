"""Command line front end.

Subcommands cover generation, peeling, independent-set tooling,
certification, path building/checking, the exhaustive oracle, and Monte
Carlo runs. All randomness is governed by --seed; repeating an invocation
with the same seed reproduces the output byte for byte. Logarithms in
`params` are natural (base e).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import experiments, gamma_oracle, reconfig
from .core_peel import beta_core
from .errors import (
    InstanceTooLargeError,
    NotColorableEvidence,
    StepCapExceededError,
    ValidationError,
)
from .hypergraph import (
    Coloring,
    generate_hnm,
    generate_hnp,
    hypergraph_to_text,
    read_coloring,
    read_hypergraph,
)
from .independence import (
    extend_to_mis,
    falsify_alpha_beta,
    greedy_sequence,
    is_alpha_beta_colorable_exact,
)

# exit codes: 0 ok / colorable, 1 negative verdict (witness, failed
# verification), 2 bad input, 3 refused (budget, cap, inconclusive)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_params(args) -> int:
    ps = experiments.params_from_d(args.d, args.k, args.n)
    if args.fmt == "csv":
        head = "d,k,n,alpha_real,alpha,beta_real,beta,m0,n0,p,m"
        row = ",".join([
            repr(ps.d), str(ps.k), str(ps.n), repr(ps.alpha_real),
            str(ps.alpha), repr(ps.beta_real), str(ps.beta),
            repr(ps.m0), repr(ps.n0), repr(ps.p), str(ps.m)])
        _emit(args, f"{head}\n{row}\n")
    else:
        _emit(args, "".join([
            f"d {ps.d!r}\n", f"k {ps.k}\n", f"n {ps.n}\n",
            f"alpha_real {ps.alpha_real!r}\n", f"alpha {ps.alpha}\n",
            f"beta_real {ps.beta_real!r}\n", f"beta {ps.beta}\n",
            f"m0 {ps.m0!r}\n", f"n0 {ps.n0!r}\n",
            f"p {ps.p!r}\n", f"m {ps.m}\n"]))
    return 0


def _cmd_gen(args) -> int:
    if args.m is not None:
        H = generate_hnm(args.n, args.m, args.k, args.seed)
    else:
        H = generate_hnp(args.n, args.p, args.k, args.seed)
    _emit(args, hypergraph_to_text(H))
    return 0


def _cmd_core(args) -> int:
    H = read_hypergraph(args.hypergraph)
    res = beta_core(H, args.beta)
    if args.fmt == "csv":
        pos = {v: i for i, v in enumerate(res.order)}
        lines = ["vertex,in_core,peel_position"]
        for v in range(1, H.n + 1):
            p = pos.get(v)
            lines.append(
                f"{v},{1 if v in res.core else 0},{'' if p is None else p}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, (f"core_size {len(res.core)}\n"
                     f"core {' '.join(map(str, sorted(res.core)))}\n"
                     f"order {' '.join(map(str, res.order))}\n"))
    return 0


def _cmd_mis(args) -> int:
    H = read_hypergraph(args.hypergraph)
    S = extend_to_mis(H, strategy=args.strategy, rng_seed=args.seed)
    if args.fmt == "csv":
        _emit(args, "\n".join(["vertex"] + [str(v) for v in sorted(S)]) + "\n")
    else:
        _emit(args, f"size {len(S)}\nmembers {' '.join(map(str, sorted(S)))}\n")
    return 0


def _cmd_greedy(args) -> int:
    H = read_hypergraph(args.hypergraph)
    seq = greedy_sequence(H, args.levels, strategy=args.strategy,
                          rng_seed=args.seed)
    if args.fmt == "csv":
        lines = ["level,vertex"]
        for i, part in enumerate(seq.sets, 1):
            lines.extend(f"{i},{v}" for v in sorted(part))
        lines.extend(f"residual,{v}" for v in sorted(seq.residual))
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"level {i}: {' '.join(map(str, sorted(part)))}"
                 for i, part in enumerate(seq.sets, 1)]
        lines.append(f"residual: {' '.join(map(str, sorted(seq.residual)))}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _witness_text(w) -> str:
    lines = [f"not-colorable core_size {len(w.core_vertices)}"]
    for i, s in enumerate(w.sequence.sets, 1):
        lines.append(f"set {i}: {' '.join(map(str, sorted(s)))}")
    lines.append(f"residual: {' '.join(map(str, sorted(w.sequence.residual)))}")
    lines.append(f"core: {' '.join(map(str, sorted(w.core_vertices)))}")
    return "\n".join(lines) + "\n"


def _cmd_certify(args) -> int:
    H = read_hypergraph(args.hypergraph)
    if H.n <= args.exact_limit:
        res = is_alpha_beta_colorable_exact(H, args.alpha, args.beta,
                                            max_size=args.exact_limit)
        if res is True:
            _emit(args, "colorable exact\n")
            return 0
        _emit(args, _witness_text(res))
        return 1
    w = falsify_alpha_beta(H, args.alpha, args.beta, args.trials, args.seed)
    if w is None:
        _emit(args, f"inconclusive no witness in {args.trials} trials\n")
        return 3
    _emit(args, _witness_text(w))
    return 1


def _trace_text(path, fmt: str) -> str:
    cur = [0] + list(path.start.colors)
    rows = []
    for i, (v, c) in enumerate(path.steps):
        rows.append(f"{i},{v},{cur[v]},{c}" if fmt == "csv" else
                    f"{i} {v} {cur[v]} {c}")
        cur[v] = c
    if fmt == "csv":
        rows.insert(0, "index,vertex,old_color,new_color")
    return "\n".join(rows) + "\n" if rows else ""


def _cmd_connect(args) -> int:
    H = read_hypergraph(args.hypergraph)
    c1 = read_coloring(args.coloring1)
    c2 = read_coloring(args.coloring2)
    path = reconfig.connect(H, c1, c2, args.q, args.alpha, args.beta,
                            step_cap=args.step_cap)
    _emit(args, _trace_text(path, args.fmt))
    s = path.stats
    print(f"path length {len(path.steps)}: inter {s.inter_moves} "
          f"core {s.core_moves} (detours {s.detour_moves}) "
          f"final {s.final_moves} depth {s.final_depth}", file=sys.stderr)
    return 0


def _parse_trace(path_file: str):
    steps = []
    with open(path_file) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line == "index,vertex,old_color,new_color":
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 4:
                raise ValidationError(f"bad trace line {raw!r}")
            try:
                idx, v, old, new = (int(x) for x in parts)
            except ValueError as exc:
                raise ValidationError(f"bad trace line {raw!r}") from exc
            if idx != len(steps):
                raise ValidationError(
                    f"trace index {idx} out of order (expected {len(steps)})")
            steps.append((v, old, new))
    return steps


def _cmd_verify(args) -> int:
    if args.q < 1:
        raise ValidationError(f"q must be positive, got {args.q}")
    H = read_hypergraph(args.hypergraph)
    start = read_coloring(args.start)
    steps = _parse_trace(args.trace)
    for i, (v, old, new) in enumerate(steps):
        if not 1 <= v <= H.n:
            _emit(args, f"failed index {i} reason vertex-out-of-range\n")
            return 1
        if new < 1:
            _emit(args, f"failed index {i} reason color-out-of-range\n")
            return 1
    if len(start) != H.n:
        _emit(args, "failed index start reason start-length-mismatch\n")
        return 1
    cur = [0] + list(start.colors)
    for i, (v, old, new) in enumerate(steps):
        if cur[v] != old:
            _emit(args, f"failed index {i} reason old-color-mismatch\n")
            return 1
        cur[v] = new
    path = reconfig.RecolorPath(
        start=start, steps=tuple((v, new) for v, _, new in steps),
        end=Coloring(tuple(cur[1:])), stats=reconfig.PathStats())
    verdict = reconfig.verify_path(H, path, args.q)
    if verdict.ok:
        _emit(args, (f"ok length {len(steps)} "
                     f"end {' '.join(map(str, verdict.end.colors))}\n"))
        return 0
    where = "start" if verdict.failure_index is None else verdict.failure_index
    _emit(args, f"failed index {where} reason {verdict.reason}\n")
    return 1


def _cmd_gamma(args) -> int:
    H = read_hypergraph(args.hypergraph)
    # the csv output is the component histogram only, so never pay for
    # (or get refused over) the diameter sweep there
    want_diameter = not args.no_diameter and args.fmt != "csv"
    stats = gamma_oracle.gamma_stats(
        H, args.q, budget=args.budget,
        compute_diameter=want_diameter,
        diameter_budget=args.diameter_budget)
    if args.fmt == "csv":
        hist = Counter(stats.component_sizes)
        lines = ["component_size,count"]
        lines.extend(f"{s},{c}" for s, c in sorted(hist.items()))
        _emit(args, "\n".join(lines) + "\n")
    else:
        diam = "-" if stats.diameter is None else str(stats.diameter)
        _emit(args, (f"num_colorings {stats.num_colorings}\n"
                     f"num_components {stats.num_components}\n"
                     f"connected {int(stats.connected)}\n"
                     f"diameter {diam}\n"
                     f"component_sizes "
                     f"{' '.join(map(str, stats.component_sizes))}\n"))
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = experiments.MonteCarloConfig(
        n=args.n, k=args.k, trials=args.trials, seed=args.seed,
        d=args.d, alpha=args.alpha, beta=args.beta, m=args.m)
    records = list(experiments.montecarlo_colorability(cfg))
    rows = [experiments.CSV_HEADER] + [rec.csv_row() for rec in records]
    _emit(args, "\n".join(rows) + "\n")
    rate = experiments.witness_rate(records)
    print(f"witness_rate {rate!r} over {len(records)} trials", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; identical seeds replay byte-identically")
    common.add_argument("--format", dest="fmt", choices=("text", "csv"),
                        default="text", help="output format")
    common.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="recolor",
        description="Hypergraph coloring reconfiguration toolkit. "
                    "All logarithms are natural.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", parents=[common],
                       help="evaluate the closed-form run parameters (natural logs)")
    p.add_argument("d", type=float, help="expected degree parameter, d > 1")
    p.add_argument("k", type=int, help="edge size")
    p.add_argument("n", type=int, help="vertex count")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a random k-uniform hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--m", type=int, help="exact edge count")
    grp.add_argument("--p", type=float, help="independent edge probability")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("core", parents=[common],
                       help="peel an instance and report its beta-core")
    p.add_argument("hypergraph")
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("mis", parents=[common],
                       help="grow one maximal independent set")
    p.add_argument("hypergraph")
    p.add_argument("--strategy", choices=("ascending", "random"),
                   default="ascending")
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("greedy", parents=[common],
                       help="draw a maximally independent sequence")
    p.add_argument("hypergraph")
    p.add_argument("--levels", type=int, required=True,
                   help="number of sets to draw")
    p.add_argument("--strategy", choices=("ascending", "random"),
                   default="ascending")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("certify", parents=[common],
                       help="decide (alpha,beta)-colorability exactly at small n, "
                            "or hunt for a witness at larger n")
    p.add_argument("hypergraph")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--trials", type=int, default=200,
                   help="witness-hunt attempts beyond the exact limit")
    p.add_argument("--exact-limit", type=int, default=12,
                   help="largest n decided exhaustively")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("connect", parents=[common],
                       help="build a recoloring path between two proper colorings")
    p.add_argument("hypergraph")
    p.add_argument("coloring1")
    p.add_argument("coloring2")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--step-cap", type=int, default=reconfig.DEFAULT_STEP_CAP)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("verify", parents=[common],
                       help="replay a path trace and check every move")
    p.add_argument("hypergraph")
    p.add_argument("start", help="coloring file the trace starts from")
    p.add_argument("trace", help="trace file: 'index vertex old_color new_color'")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gamma", parents=[common],
                       help="exhaustive recoloring-graph statistics (tiny n)")
    p.add_argument("hypergraph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=gamma_oracle.DEFAULT_BUDGET,
                   help="refuse when q^n exceeds this")
    p.add_argument("--diameter-budget", type=int,
                   default=gamma_oracle.DEFAULT_DIAMETER_BUDGET)
    p.add_argument("--no-diameter", action="store_true")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("montecarlo", parents=[common],
                       help="seeded colorability trials, one CSV row each")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--d", type=float, default=None,
                   help="degree parameter; alpha, beta, m then follow from it")
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotColorableEvidence as exc:
        sys.stderr.write(_witness_text(exc.witness))
        return 1
    except (InstanceTooLargeError, StepCapExceededError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
