"""Command line front end.

Subcommands cover generation, peeling, independent-set tooling,
certification, path building/checking, the exhaustive oracle, and Monte
Carlo runs. The seeded subcommands, gen, mis, greedy, certify and
montecarlo, take all their randomness from --seed; the others draw none.
Repeating an invocation reproduces the output byte for byte. Logarithms
in `params` are natural (base e).
"""

from __future__ import annotations

import argparse
import io
import itertools
import re
import sys
from array import array
from collections import Counter
from dataclasses import fields

from . import experiments, gamma_oracle, reconfig
from .core_peel import beta_core
from .errors import (
    InstanceTooLargeError,
    NotColorableEvidence,
    StepCapExceededError,
    ValidationError,
)
from .hypergraph import (
    _CollectorPause,
    _excerpt,
    _int_rows,
    _open_utf8,
    generate_hnm,
    generate_hnp,
    hypergraph_to_text,
    read_coloring,
    read_hypergraph,
)
from .independence import (
    DEFAULT_EXACT_LIMIT,
    _check_falsifier_args,
    extend_to_mis,
    falsify_alpha_beta,
    greedy_sequence,
    is_alpha_beta_colorable_exact,
)

# exit codes: 0 ok / colorable, 1 negative verdict (witness, failed
# verification), 2 bad input, 3 refused (budget, cap, inconclusive)

_TRACE_HEADER = "index,vertex,old_color,new_color"
_TRACE_HEADER_LINE = re.compile(f"^{_TRACE_HEADER}\n", re.MULTILINE)
# characters of trace text _parse_trace reads at a time
_TRACE_CHUNK = 1 << 16
# moves per piece of text _trace_chunks yields
_TRACE_ROWS = 1 << 12


def _emit(args, text) -> None:
    """Write ``text`` to --out or stdout: a str, or an iterable of str
    pieces, each written as it comes."""
    pieces = (text,) if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _cmd_params(args) -> int:
    ps = experiments.params_from_d(args.d, args.k, args.n)
    cells = {f.name: repr(getattr(ps, f.name)) for f in fields(ps)}
    if args.fmt == "csv":
        _emit(args, f"{','.join(cells)}\n{','.join(cells.values())}\n")
    else:
        _emit(args, "".join(f"{name} {cell}\n" for name, cell in cells.items()))
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
    _check_falsifier_args(args.alpha, args.beta, args.trials)
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


def _trace_chunks(path, fmt: str):
    """The trace text of ``path``, in pieces of at most _TRACE_ROWS moves
    after the csv header. Each color in use is formatted once, with its
    separator in front, into a table keyed by color."""
    sep = "," if fmt == "csv" else " "
    if fmt == "csv":
        yield _TRACE_HEADER + "\n"
    steps = path.steps
    cur = [0, *path.start.colors]
    col = {c: sep + str(c) for c in {*cur, *(c for _, c in steps)}}
    for lo in range(0, len(steps), _TRACE_ROWS):
        rows = []
        for i, (v, c) in enumerate(steps[lo:lo + _TRACE_ROWS], lo):
            rows.append(f"{i}{sep}{v}{col[cur[v]]}{col[c]}\n")
            cur[v] = c
        yield "".join(rows)


def _cmd_connect(args) -> int:
    H = read_hypergraph(args.hypergraph)
    c1 = read_coloring(args.coloring1)
    c2 = read_coloring(args.coloring2)
    path = reconfig.connect(H, c1, c2, args.q, args.alpha, args.beta,
                            step_cap=args.step_cap)
    _emit(args, _trace_chunks(path, args.fmt))
    s = path.stats
    print(f"path length {len(path.steps)}: inter {s.inter_moves} "
          f"core {s.core_moves} (detours {s.detour_moves}) "
          f"final {s.final_moves} depth {s.final_depth}", file=sys.stderr)
    return 0


def _parse_trace(path_file: str):
    """The vertex, old color and new color columns of a trace file.

    The file is read in blocks of _TRACE_CHUNK characters, each completed
    by ``readline`` to end at a line end, so no line is ever split. A block
    goes in bulk into ``array('i')`` columns when it is canonical text: four
    plain numerals a line, split by single spaces or commas, indices in
    sequence, header lines only as the whole line. From the first block
    that is not (a fault, other spacing, an int beyond 32 bits), the rest
    goes through the per-line checker into lists, which is the one place
    that words a trace error.
    """
    cols = (array("i"), array("i"), array("i"))
    with _open_utf8(path_file) as fh:
        for block in iter(lambda: fh.read(_TRACE_CHUNK) + fh.readline(), ""):
            if _TRACE_HEADER in block:  # a far cheaper scan than the regex
                block = _TRACE_HEADER_LINE.sub("", block)
            if block and not _bulk_trace_rows(block, cols):
                cols = tuple(map(list, cols))
                rest = io.StringIO(block, newline="\n")
                # the checker reads fh to its end, which ends the loop
                _trace_rows(itertools.chain(rest, fh), *cols)
    return cols


def _bulk_trace_rows(text: str, cols: tuple) -> bool:
    """Append a block of canonical trace lines to the array columns; False,
    with the columns untouched, when the block is anything else."""
    rows = _int_rows(text.replace(",", " "))
    if rows is None or set(map(len, rows)) != {4}:
        return False
    idx, *data = zip(*rows)
    done = len(cols[0])
    if idx != tuple(range(done, done + len(idx))):
        return False
    try:
        data = [array("i", col) for col in data]
    except OverflowError:
        return False
    for col, chunk in zip(cols, data):
        col += chunk
    return True


def _trace_rows(lines, vs, olds, news) -> None:
    """The per-line checker: append each data line's columns, or raise the
    error that names the first bad line."""
    for raw in lines:
        line = raw.strip()
        if not line or line == _TRACE_HEADER:
            continue
        try:
            # a line of other than four fields fails the unpacking
            idx, v, old, new = map(int, line.replace(",", " ").split())
        except ValueError as exc:
            raise ValidationError(f"bad trace line {_excerpt(raw)}") from exc
        if idx != len(vs):
            raise ValidationError(
                f"trace index {_excerpt(idx)} out of order (expected {len(vs)})")
        vs.append(v)
        olds.append(old)
        news.append(new)


def _cmd_verify(args) -> int:
    if args.q < 1:
        raise ValidationError(f"q must be positive, got {_excerpt(args.q)}")
    H = read_hypergraph(args.hypergraph)
    start = read_coloring(args.start)
    vs, olds, news = _parse_trace(args.trace)

    def failed(where, reason) -> int:
        _emit(args, f"failed index {where} reason {reason}\n")
        return 1

    if vs and (min(vs) < 1 or max(vs) > H.n or min(news) < 1):
        for i, (v, new) in enumerate(zip(vs, news)):
            if not 1 <= v <= H.n:
                return failed(i, "vertex-out-of-range")
            if new < 1:
                return failed(i, "color-out-of-range")
    if len(start) != H.n:
        return failed("start", "start-length-mismatch")
    cur = [0, *start.colors]
    for i, (v, old, new) in enumerate(zip(vs, olds, news)):
        if cur[v] != old:
            return failed(i, "old-color-mismatch")
        cur[v] = new
    verdict = reconfig._replay(H, start, zip(vs, news), args.q)
    if verdict.ok:
        _emit(args, (f"ok length {len(vs)} "
                     f"end {' '.join(map(str, verdict.end.colors))}\n"))
        return 0
    return failed("start" if verdict.failure_index is None
                  else verdict.failure_index, verdict.reason)


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


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as one ValidationError line (exit
    2 in ``main``), cut to 190 characters since argparse echoes the words
    it rejects whole, and any text that ``float`` reads, such as -inf or
    -1e5, taken as a value rather than as an option."""

    def error(self, message):
        text = f"{self.prog}: {message}".replace("\n", "\\n")
        raise ValidationError(text if len(text) <= 190 else text[:187] + "...")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    # one parent per common option; a subcommand takes those it reads
    seed, fmt, out = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=0,
                      help="master seed; identical seeds replay byte-identically")
    fmt.add_argument("--format", dest="fmt", choices=("text", "csv"),
                     default="text", help="output format")
    out.add_argument("--out", default=None,
                     help="write output to this file instead of stdout")

    parser = _Parser(
        prog="recolor",
        description="Hypergraph coloring reconfiguration toolkit. "
                    "All logarithms are natural.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", parents=[fmt, out],
                       help="evaluate the closed-form run parameters (natural logs)")
    p.add_argument("d", type=float, help="expected degree parameter, d > 1")
    p.add_argument("k", type=int, help="edge size")
    p.add_argument("n", type=int, help="vertex count")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("gen", parents=[seed, out],
                       help="generate a random k-uniform hypergraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--m", type=int, help="exact edge count")
    grp.add_argument("--p", type=float, help="independent edge probability")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("core", parents=[fmt, out],
                       help="peel an instance and report its beta-core")
    p.add_argument("hypergraph")
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("mis", parents=[seed, fmt, out],
                       help="grow one maximal independent set")
    p.add_argument("hypergraph")
    p.add_argument("--strategy", choices=("ascending", "random"),
                   default="ascending")
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("greedy", parents=[seed, fmt, out],
                       help="draw a maximally independent sequence")
    p.add_argument("hypergraph")
    p.add_argument("--levels", type=int, required=True,
                   help="number of sets to draw")
    p.add_argument("--strategy", choices=("ascending", "random"),
                   default="ascending")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("certify", parents=[seed, out],
                       help="decide (alpha,beta)-colorability exactly at small n, "
                            "or hunt for a witness at larger n")
    p.add_argument("hypergraph")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--trials", type=int, default=200,
                   help="witness-hunt attempts beyond the exact limit")
    p.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT,
                   help="largest n decided exhaustively")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("connect", parents=[fmt, out],
                       help="build a recoloring path between two proper colorings")
    p.add_argument("hypergraph")
    p.add_argument("coloring1")
    p.add_argument("coloring2")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--step-cap", type=int, default=reconfig.DEFAULT_STEP_CAP)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("verify", parents=[out],
                       help="replay a path trace and check every move")
    p.add_argument("hypergraph")
    p.add_argument("start", help="coloring file the trace starts from")
    p.add_argument("trace", help="trace file: 'index vertex old_color new_color'")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gamma", parents=[fmt, out],
                       help="exhaustive recoloring-graph statistics (tiny n)")
    p.add_argument("hypergraph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=gamma_oracle.DEFAULT_BUDGET,
                   help="refuse when q^n exceeds this")
    p.add_argument("--diameter-budget", type=int,
                   default=gamma_oracle.DEFAULT_DIAMETER_BUDGET)
    p.add_argument("--no-diameter", action="store_true")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("montecarlo", parents=[seed, out],
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
    # A subcommand builds containers that form no cycles (parsed rows, edge
    # tuples, one pair per move), so the cyclic collector pauses for the
    # whole of it; the few cycles a call makes wait until it returns.
    try:
        args = _build_parser().parse_args(argv)
        with _CollectorPause():
            return args.func(args)
    except NotColorableEvidence as exc:
        sys.stderr.write(_witness_text(exc.witness))
        return 1
    except StepCapExceededError as exc:
        print(f"refused: {exc} of {exc.cap}; raise it with --step-cap",
              file=sys.stderr)
        return 3
    except InstanceTooLargeError as exc:
        hint = "" if exc.keyword is None else \
            f"; raise it with --{exc.keyword.replace('_', '-')}"
        print(f"refused: {exc}{hint}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
