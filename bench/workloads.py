"""The benchmark's workloads: seeded inputs, two op classes each, output gates.

A workload pairs a primary and a secondary op class that use the same
layers in two different ways. ``setup`` builds each class's input pool from
the seed and interleaves them; the runner then cycles over the pool in a
closed loop with one client. In each op class, ``op`` is the only timed
part: it hands the inputs to the library and returns its output. ``check``
gates that output outside the timed region and returns a failure reason (or
None) and the units of work the op did. ``count`` adds the deterministic
counts of one op to a Counter; the runner calls it on the first pass only,
so every count repeats exactly for a given seed.

The library is imported from the checkout's ``src`` by ``run.py`` before this
module loads.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

from recolor import cli, experiments, gamma_oracle, hypergraph, independence, reconfig
from recolor.seeding import derive_seed

import inputs

# the (alpha, beta) pairs acceptance check 1 certifies
COMBOS = [(a, b) for a in range(0, 4) for b in range(1, 5) if a + b <= 4]

# public functions wrapped in the traced run: (module, attribute, span name,
# units of work per call or None). Each entry is the attribute a caller
# resolves, so one function appears once per calling module and spans nest
# under their callers.
TRACE_POINTS = [
    (cli, "main", "cli.main"),
    (cli, "read_hypergraph", "hypergraph.read_hypergraph"),
    (cli, "read_coloring", "hypergraph.read_coloring"),
    (reconfig, "connect", "reconfig.connect"),
    (reconfig, "path_to_good_greedy", "reconfig.path_to_good_greedy"),
    (reconfig, "path_between_good_greedy", "reconfig.path_between_good_greedy"),
    (reconfig, "path_core", "reconfig.path_core"),
    (reconfig, "verify_path", "reconfig.verify_path",
     lambda args, verdict: len(args[1].steps)),
    (reconfig, "is_proper", "hypergraph.is_proper"),
    (reconfig, "beta_core", "core_peel.beta_core"),
    (reconfig, "extend_to_mis", "independence.extend_to_mis"),
    (reconfig, "check_good_greedy", "independence.check_good_greedy"),
    (independence, "is_proper", "hypergraph.is_proper"),
    (independence, "beta_core", "core_peel.beta_core"),
    (independence, "extend_to_mis", "independence.extend_to_mis"),
    (independence, "is_alpha_beta_colorable_exact",
     "independence.is_alpha_beta_colorable_exact"),
    (experiments, "generate_hnm", "hypergraph.generate_hnm",
     lambda args, H: H.m),
    (hypergraph, "generate_hnm", "hypergraph.generate_hnm",
     lambda args, H: H.m),
    (experiments, "greedy_sequence", "independence.greedy_sequence"),
    (independence, "greedy_sequence", "independence.greedy_sequence"),
    (experiments, "beta_core", "core_peel.beta_core"),
    (gamma_oracle, "is_proper", "hypergraph.is_proper"),
    (gamma_oracle, "gamma_stats", "gamma_oracle.gamma_stats"),
    (gamma_oracle, "gamma_distance", "gamma_oracle.gamma_distance"),
    (gamma_oracle, "enumerate_proper", "gamma_oracle.enumerate_proper"),
]


class OpClass:
    name = ""
    work_unit = ""     # a primary class's unit of work, for the work rate

    def setup(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out, extra):
        """(failure reason or None, work units); ``extra`` is a Counter in
        the traced run, for layer timings taken outside the op."""
        raise NotImplementedError

    def count(self, item, out, acc) -> None:
        pass

    def probe(self, seed: int) -> dict:
        """Extra per-layer measurements of the traced run."""
        return {}

    def sizes(self) -> dict:
        raise NotImplementedError


def _scaling_exponent(t_n: float, t_2n: float) -> float:
    return math.log2(t_2n / t_n)


class Roundtrip(OpClass):
    """CLI ``connect`` then ``verify`` on files, at the ROADMAP baseline."""

    name = "roundtrip"
    work_unit = "path moves built and replayed"

    def __init__(self, smoke: bool):
        self.n = 300 if smoke else 10_000
        self.k, self.q, self.alpha, self.beta = 3, 6, 2, 3
        self.pool = 2

    def sizes(self):
        return {"n": self.n, "k": self.k, "m": self.n, "q": self.q,
                "alpha": self.alpha, "beta": self.beta, "instances": self.pool}

    def instance(self, rng, n):
        edges = inputs.random_edges(rng, n, n, self.k)
        c1 = inputs.random_proper_coloring(rng, n, edges, self.q)
        c2 = inputs.random_proper_coloring(rng, n, edges, self.q)
        return edges, c1, c2

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for i in range(self.pool):
            edges, c1, c2 = self.instance(rng, self.n)
            files = {key: os.path.join(workdir, f"rt{i}.{key}")
                     for key in ("hg", "c1", "c2", "trace", "verdict")}
            with open(files["hg"], "w") as fh:
                fh.write(inputs.hypergraph_text(self.n, self.k, edges))
            with open(files["c1"], "w") as fh:
                fh.write(inputs.coloring_text(c1))
            with open(files["c2"], "w") as fh:
                fh.write(inputs.coloring_text(c2))
            items.append((files, c2))
        return items

    def op(self, item):
        files, _ = item
        flags = ["--q", str(self.q)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["connect", files["hg"], files["c1"], files["c2"],
                             *flags, "--alpha", str(self.alpha),
                             "--beta", str(self.beta), "--out", files["trace"]])
            if code == 0:
                code = cli.main(["verify", files["hg"], files["c1"],
                                 files["trace"], *flags,
                                 "--out", files["verdict"]])
        return code, err.getvalue()

    def check(self, item, out, extra):
        files, c2 = item
        code, err = out
        if code != 0:
            return f"exit {code}: {err.strip()[:80]}", 0
        with open(files["verdict"]) as fh:
            words = fh.read().split()
        # "ok length L end c_1 ... c_n"
        if words[:2] != ["ok", "length"] or words[3:4] != ["end"]:
            return "verify output malformed", 0
        if tuple(int(w) for w in words[4:]) != c2:
            return "verify end differs from coloring 2", 0
        return None, int(words[2])

    def count(self, item, out, acc):
        # connect's stderr line: "path length L: inter I core C (detours D)
        # final F depth P"
        words = out[1].replace(":", " ").replace("(", " ").replace(")", " ").split()
        fields = dict(zip(words[1::2], words[2::2]))
        acc["roundtrip.ops"] += 1
        for key in ("length", "inter", "core", "detours", "final", "depth"):
            acc["roundtrip." + key] += int(fields[key])

    def probe(self, seed):
        """connect at n and 2n, timed untraced: the connect scaling exponent."""
        times = []
        rng = random.Random(derive_seed(seed, 9))
        for n in (self.n, 2 * self.n):
            edges, c1, c2 = self.instance(rng, n)
            H = hypergraph.Hypergraph(n, self.k, edges)
            a, b = hypergraph.Coloring(c1), hypergraph.Coloring(c2)
            t0 = time.perf_counter()
            reconfig.connect(H, a, b, self.q, self.alpha, self.beta)
            times.append(time.perf_counter() - t0)
        return {"reconfig.connect_scaling_exp": _scaling_exponent(*times)}


class Rewrite(OpClass):
    """``path_core`` with alpha=0 over a whole coreless instance."""

    name = "rewrite"

    def __init__(self, smoke: bool):
        self.n = 120 if smoke else 1000
        self.k, self.beta, self.q = 3, 3, 4
        self.pool = 2 if smoke else 3

    def sizes(self):
        return {"n": self.n, "k": self.k, "m": self.n, "alpha": 0,
                "beta": self.beta, "q": self.q, "instances": self.pool}

    def instance(self, rng, n):
        for _ in range(100):
            edges = inputs.random_edges(rng, n, n, self.k)
            order = inputs.peel_order(n, edges, self.beta)
            if order is not None:
                break
        else:
            raise RuntimeError(f"no coreless instance at n={n}")
        # both endpoints first-fit along one peel order, on palettes shifted
        # by one color: most vertices change color and many moves detour
        chi = inputs.first_fit(n, edges, order, [1, 2, 3])
        tau = inputs.first_fit(n, edges, order, [2, 3, 4])
        return (hypergraph.Hypergraph(n, self.k, edges),
                hypergraph.Coloring(chi), hypergraph.Coloring(tau))

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        return [self.instance(rng, self.n) for _ in range(self.pool)]

    def op(self, item):
        H, chi, tau = item
        return reconfig.path_core(H, range(1, H.n + 1), chi, tau,
                                  0, self.beta, self.q)

    def check(self, item, out, extra):
        H, _, tau = item
        verdict = reconfig.verify_path(H, out, self.q)
        if not verdict.ok:
            return f"verify_path: {verdict.reason}", 0
        if verdict.end != tau or out.end != tau:
            return "path does not end at tau", 0
        return None, len(out.steps)

    def count(self, item, out, acc):
        s = out.stats
        acc["rewrite.ops"] += 1
        acc["rewrite.moves"] += len(out.steps)
        acc["rewrite.detours"] += s.detour_moves
        acc["rewrite.levels"] += len(s.detours_per_level)

    def probe(self, seed):
        """path_core at n and 2n, timed untraced: the rewrite scaling exponent."""
        times = []
        rng = random.Random(derive_seed(seed, 9))
        for n in (self.n, 2 * self.n):
            item = self.instance(rng, n)
            t0 = time.perf_counter()
            self.op(item)
            times.append(time.perf_counter() - t0)
        return {"reconfig.rewrite_scaling_exp": _scaling_exponent(*times)}


def _m_ladder(lo: int, hi: int, count: int) -> list:
    """``count`` edge counts spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round(j * (hi - lo) / (count - 1)) for j in range(count)]


class Census(OpClass):
    """The census of a corpus shaped like acceptance check 1, one instance
    an op: certify every combo exactly, then run ``gamma_stats`` at each
    certified palette size. Instance costs differ by orders of magnitude,
    but the corpus total barely moves with the seed, and so does the mean
    cost of an instance."""

    name = "census"
    work_unit = "proper colorings classified"

    # (n, k, instances); edge counts run evenly over [n, min(C(n,k), 2n)]
    PLAN = [(4, 2, 3), (4, 3, 3), (5, 2, 3), (5, 3, 4), (6, 2, 4), (6, 3, 6),
            (7, 2, 4)]
    SMOKE_PLAN = [(4, 2, 1), (4, 3, 1), (5, 2, 1)]

    def __init__(self, smoke: bool):
        self.plan = self.SMOKE_PLAN if smoke else self.PLAN

    def sizes(self):
        return {"plan": [list(p) for p in self.plan], "combos": len(COMBOS)}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        corpus = []
        for n, k, count in self.plan:
            for m in _m_ladder(n, min(math.comb(n, k), 2 * n), count):
                corpus.append(hypergraph.Hypergraph(
                    n, k, inputs.random_edges(rng, n, m, k)))
        return corpus

    def op(self, H):
        certified = [(a, b) for a, b in COMBOS if
                     independence.is_alpha_beta_colorable_exact(H, a, b) is True]
        stats = {q: gamma_oracle.gamma_stats(H, q, compute_diameter=False)
                 for q in sorted({a + b + 1 for a, b in certified})}
        return certified, stats

    def check(self, H, out, extra):
        colorings = 0
        for q, s in out[1].items():
            if sum(s.component_sizes) != s.num_colorings:
                return f"component sizes do not sum at q={q}", 0
            if not s.connected:
                return f"certified q={q} is disconnected", 0
            colorings += s.num_colorings
            if extra is not None:
                t0 = time.perf_counter()
                listed = sum(1 for _ in gamma_oracle.enumerate_proper(H, q))
                extra["gamma_oracle.enumerate_s"] += time.perf_counter() - t0
                if listed != s.num_colorings:
                    return f"enumerate_proper disagrees at q={q}", 0
        return None, colorings

    def count(self, H, out, acc):
        certified, stats = out
        acc["census.ops"] += 1
        acc["census.combos"] += len(COMBOS)
        acc["census.certified"] += len(certified)
        for q, s in stats.items():
            acc["census.colorings"] += s.num_colorings
            acc["census.components"] += s.num_components
            acc["census.probes"] += s.num_colorings * H.n * (q - 1)


class Distance(OpClass):
    """Exact recoloring distance between seeded pairs of proper colorings."""

    name = "distance"

    def __init__(self, smoke: bool):
        self.n = 5 if smoke else 7
        self.k, self.q = 3, 4
        self.m = 3 * self.n // 2
        self.instances = 2 if smoke else 10
        self.pairs = 2

    def sizes(self):
        return {"n": self.n, "k": self.k, "m": self.m, "q": self.q,
                "instances": self.instances, "pairs": self.pairs}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for _ in range(self.instances):
            edges = inputs.random_edges(rng, self.n, self.m, self.k)
            H = hypergraph.Hypergraph(self.n, self.k, edges)
            # every certified (alpha, beta) that fits the palette promises a
            # connect path, whose length bounds the distance from above
            certified = [(a, b) for a, b in COMBOS if a + b + 1 <= self.q and
                         independence.is_alpha_beta_colorable_exact(H, a, b) is True]
            for _ in range(self.pairs):
                # t differs from s at every vertex: a far pair, so each
                # query searches most of the component before its early exit
                s = inputs.random_proper_coloring(rng, self.n, edges, self.q)
                t = inputs.random_proper_coloring(rng, self.n, edges, self.q, s)
                s, t = hypergraph.Coloring(s), hypergraph.Coloring(t)
                bound = min((len(reconfig.connect(H, s, t, self.q, a, b))
                             for a, b in certified), default=None)
                items.append((H, s, t, bound))
        return items

    def op(self, item):
        H, s, t, _ = item
        return gamma_oracle.gamma_distance(H, self.q, s, t)

    def check(self, item, out, extra):
        _, s, t, bound = item
        if out is None:
            if bound is not None:
                return "certified pair reported disconnected", 0
            return None, 1
        if out < hypergraph.hamming(s, t):
            return "distance below the Hamming distance", 0
        if bound is not None and out > bound:
            return "distance exceeds a connect path length", 0
        return None, 1

    def count(self, item, out, acc):
        acc["distance.ops"] += 1
        if out is not None:
            acc["distance.reached"] += 1
            acc["distance.total"] += out


class Trial(OpClass):
    """``montecarlo_colorability`` trials near the witness threshold. One op
    is one ``next()``, which does one trial's work; each pass restarts the
    generator, so every pass times the same trials."""

    name = "trial"
    work_unit = "trials"

    def __init__(self, smoke: bool):
        self.n = 400 if smoke else 10_000
        self.m = 9 * self.n // 5      # witness rate about one half
        self.k, self.alpha, self.beta = 2, 2, 2
        self.per_pass = 4 if smoke else 8

    def sizes(self):
        return {"n": self.n, "k": self.k, "m": self.m, "alpha": self.alpha,
                "beta": self.beta, "trials": self.per_pass}

    def _trials(self, seed: int, count: int):
        return experiments.montecarlo_colorability(experiments.MonteCarloConfig(
            n=self.n, k=self.k, trials=count, seed=seed,
            alpha=self.alpha, beta=self.beta, m=self.m))

    def setup(self, seed, workdir):
        # the inputs are only a config, so set-up is warm-up trials off the
        # measured seed stream: they pay the first trial's one-time costs,
        # and two of them vary less with the seed than one
        for _ in self._trials(derive_seed(seed, 1), 2):
            pass
        self.seed = seed
        self.records = {}
        return list(range(self.per_pass))

    def op(self, index):
        if index == 0:
            self.stream = self._trials(self.seed, self.per_pass)
        return next(self.stream)

    def check(self, index, rec, extra):
        if rec.trial != index:
            return f"trial {rec.trial} arrived in place of {index}", 0
        self.records[index] = rec
        return None, 1

    def count(self, index, rec, acc):
        acc["trial.ops"] += 1
        acc["trial.witness"] += rec.witness
        acc["trial.residual"] += rec.residual_size
        acc["trial.core"] += rec.residual_core_size


class Replay(OpClass):
    """Rebuild a trial from its own seed through the layer functions a trial
    composes; its record must match field for field. The pool places each
    replay right after the trial it replays."""

    name = "replay"

    def __init__(self, trials: Trial):
        self.trials = trials
        self.per_pass = trials.per_pass // 2

    def sizes(self):
        return {"replays": self.per_pass}

    def setup(self, seed, workdir):
        step = self.trials.per_pass // self.per_pass
        return [step * (j + 1) - 1 for j in range(self.per_pass)]

    def op(self, index):
        t = self.trials
        rec = t.records[index]
        H = hypergraph.generate_hnm(t.n, t.m, t.k, derive_seed(rec.seed, 0))
        seq = independence.greedy_sequence(H, t.alpha, strategy="random",
                                           rng_seed=derive_seed(rec.seed, 1))
        core = experiments.beta_core(H, t.beta, seq.residual).core
        return rec, len(seq.residual), len(core)

    def check(self, index, out, extra):
        rec, residual, core = out
        if (rec.residual_size, rec.residual_core_size, rec.witness) != (
                residual, core, core > 0):
            return f"trial {rec.trial} replays differently", 0
        return None, 1


class Workload:
    """A primary and a secondary op class, interleaved in one pool."""

    def __init__(self, name: str, primary: OpClass, secondary: OpClass):
        self.name = name
        self.classes = (primary, secondary)

    def setup(self, seed: int, workdir: str) -> list:
        """[(op class, item)]: the secondary items spread evenly among the
        primary ones, each after at least one primary item."""
        primary, secondary = self.classes
        a = primary.setup(derive_seed(seed, 0), workdir)
        b = secondary.setup(derive_seed(seed, 1), workdir)
        pool = []
        for i, item in enumerate(a):
            pool.append((primary, item))
            lo, hi = i * len(b) // len(a), (i + 1) * len(b) // len(a)
            pool.extend((secondary, x) for x in b[lo:hi])
        return pool

    def probe(self, seed: int) -> dict:
        out = {}
        for c in self.classes:
            out.update(c.probe(seed))
        return out

    def sizes(self) -> dict:
        return {c.name: c.sizes() for c in self.classes}


# each workload's metrics under per-workload names, printed as aliases:
# {workload: {name: (metric, scale, unit)}}
ALIASES = {
    "reconfig": {"roundtrip_p50_s": ("primary_op_ms", 1e-3, "s"),
                 "rewrite_p50_s": ("secondary_op_ms", 1e-3, "s")},
    "oracle": {"census_colorings_per_s": ("primary_work_per_s", 1.0, "1/s"),
               "distance_p50_ms": ("secondary_op_ms", 1.0, "ms")},
    "montecarlo": {"trials_per_s": ("primary_work_per_s", 1.0, "1/s")},
}


def make(name: str, smoke: bool) -> Workload:
    if name == "reconfig":
        return Workload(name, Roundtrip(smoke), Rewrite(smoke))
    if name == "oracle":
        return Workload(name, Census(smoke), Distance(smoke))
    if name == "montecarlo":
        trial = Trial(smoke)
        return Workload(name, trial, Replay(trial))
    raise KeyError(name)


NAMES = ("reconfig", "oracle", "montecarlo")
