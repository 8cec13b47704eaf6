"""Parameter formulas, structural probes, and seeded Monte Carlo trials.

Everything here reports; nothing here proves. The probes certify a
violation whenever they exhibit one (a big independent set, a dense
subset, a stuck core), but a clean heuristic run is labeled inconclusive.
All randomness flows through derived seeds, so any record can be replayed
bit-exactly from its own seed field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import comb, log
from typing import Iterable, Iterator, Optional

from .core_peel import _peel, beta_core
from .errors import InstanceTooLargeError, ValidationError
from .hypergraph import Hypergraph, generate_hnm
from .independence import (_mask_tables, extend_to_mis, greedy_sequence,
                           max_independent_set_exact)
from .seeding import derive_seed

__all__ = [
    "CSV_HEADER",
    "ParamSet",
    "ProbeVerdict",
    "TrialRecord",
    "MonteCarloConfig",
    "params_from_d",
    "probe_independent_set_bound",
    "probe_density",
    "montecarlo_colorability",
    "witness_rate",
]

CSV_HEADER = ("trial,seed,n,k,m,alpha,beta,n0,"
              "residual_size,residual_core_size,witness,path_len")


@dataclass(frozen=True)
class ParamSet:
    """Closed-form run parameters for expected degree d on n vertices.

    alpha and beta carry both the real formula values and the integer
    ceilings the algorithms consume. Natural logarithms throughout.
    """

    d: float
    k: int
    n: int
    alpha_real: float
    alpha: int
    beta_real: float
    beta: int
    m0: float
    n0: float
    p: float
    m: int


def params_from_d(d: float, k: int, n: int) -> ParamSet:
    """Evaluate the parameter formulas at (d, k, n).

    alpha = ((k-1) d / (log d - 5(k-1) log log d))^(1/(k-1)) and
    beta = 3 (log d)^(3k); m0 = n/alpha, n0 = 16 m0 log^2 d,
    p = d / C(n-1, k-1) capped at 1, m = round-half-up(d n / k).
    Raises a domain error when the alpha denominator is not positive;
    supply alpha and beta by hand in that regime.
    """
    if k < 2:
        raise ValidationError(f"uniformity must be at least 2, got {k}")
    if n < k:
        raise ValidationError(f"need n >= k, got n={n}, k={k}")
    if not d > 1:
        raise ValidationError(f"need d > 1 for the log formulas, got {d}")
    if not math.isfinite(d):
        raise ValidationError(f"need a finite d, got {d}")
    ld = log(d)
    denom = ld - 5 * (k - 1) * log(ld)
    if denom <= 0:
        raise ValidationError(
            f"log d - 5(k-1) log log d = {denom:.4f} <= 0 at d={d}: the "
            "closed form needs a larger d; pass alpha and beta explicitly")
    alpha_real = ((k - 1) * d / denom) ** (1.0 / (k - 1))
    beta_real = 3.0 * ld ** (3 * k)
    overflow = f"the parameter formulas overflow a float at d={d}, n={n}"
    try:
        # an int operand beyond the float range raises instead of giving inf
        m_real = d * n / k
        m0 = n / alpha_real
        p = min(1.0, d / comb(n - 1, k - 1))
    except OverflowError:
        raise ValidationError(overflow) from None
    if not (math.isfinite(alpha_real) and math.isfinite(m_real)):
        raise ValidationError(overflow)
    m = math.floor(m_real + 0.5)
    if m > comb(n, k):
        raise ValidationError(
            f"round(d n / k) = {m} exceeds the {comb(n, k)} possible edges")
    return ParamSet(
        d=float(d), k=k, n=n,
        alpha_real=alpha_real, alpha=math.ceil(alpha_real),
        beta_real=beta_real, beta=math.ceil(beta_real),
        m0=m0, n0=16.0 * m0 * ld * ld, p=p, m=m)


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of a structural probe.

    status is one of "bound-respected" (exact mode only), "bound-violated"
    (always conclusive: the witness exhibits the violation), or
    "inconclusive" (heuristic search found nothing).
    """

    status: str
    observed: float
    bound: float
    witness: Optional[frozenset] = None


def _check_mode(mode):
    if mode not in ("auto", "exact", "heuristic"):
        raise ValidationError(
            f"mode must be auto, exact, or heuristic, got {mode!r}")


def probe_independent_set_bound(H: Hypergraph, d: float, mode: str = "auto",
                                trials: int = 32, rng_seed: int = 0,
                                exact_limit: int = 30) -> ProbeVerdict:
    """Compare the largest independent set against the degree-d bound.

    The bound is u = (2 k log d / ((k-1) d))^(1/(k-1)) * n. Exact mode
    (branch and bound, n <= exact_limit) settles the question either way;
    heuristic mode runs seeded greedy extensions and can only ever
    exhibit a violation.
    """
    if not (d > 1 and math.isfinite(d)):
        raise ValidationError(f"need a finite d > 1, got {d}")
    _check_mode(mode)
    k = H.k
    u = (2 * k * log(d) / ((k - 1) * d)) ** (1.0 / (k - 1)) * H.n
    if mode == "exact" or (mode == "auto" and H.n <= exact_limit):
        size, best = max_independent_set_exact(H, max_size=exact_limit)
        status = "bound-violated" if size >= u else "bound-respected"
        return ProbeVerdict(status, float(size), u, best)
    best = extend_to_mis(H)
    for t in range(trials):
        cand = extend_to_mis(H, strategy="random",
                             rng_seed=derive_seed(rng_seed, t))
        if len(cand) > len(best):
            best = cand
    status = "bound-violated" if len(best) >= u else "inconclusive"
    return ProbeVerdict(status, float(len(best)), u, best)


def _edge_count_by_subset(H: Hypergraph) -> list:
    """f[mask] = number of edges entirely inside the vertex subset mask."""
    f = [0] * (1 << H.n)
    for mask in _mask_tables(H, list(range(1, H.n + 1)))[0]:
        f[mask] += 1  # vertex v is bit v - 1
    for b in range(H.n):
        bit = 1 << b
        for mask in range(1 << H.n):
            if mask & bit:
                f[mask] += f[mask ^ bit]
    return f


def _density_exact(H, cap, L):
    f = _edge_count_by_subset(H)
    best_ratio = -1.0
    best_mask = 0
    for mask in range(1, 1 << H.n):
        size = mask.bit_count()
        if size <= cap:
            ratio = f[mask] / size
            if ratio > best_ratio:
                best_ratio = ratio
                best_mask = mask
    witness = frozenset(v for v in range(1, H.n + 1)
                        if best_mask >> (v - 1) & 1)
    status = "bound-violated" if best_ratio >= L else "bound-respected"
    return ProbeVerdict(status, best_ratio, float(L), witness)


def probe_density(H: Hypergraph, n0: float, L: float,
                  mode: str = "auto", exact_limit: int = 20) -> ProbeVerdict:
    """Look for a small vertex set spanning at least L edges per vertex.

    Scans subsets S with |S| <= n0 for span(S) >= L |S|. Exact mode
    enumerates all subsets (n <= exact_limit); the heuristic peels
    min-degree vertices and inspects every suffix of the removal order.
    """
    if not (n0 >= 1 and math.isfinite(n0)):
        raise ValidationError(f"need a finite n0 >= 1, got {n0}")
    if not L > 0:
        raise ValidationError(f"need a positive density threshold, got {L}")
    _check_mode(mode)
    cap = min(int(n0), H.n)
    if mode == "exact" or (mode == "auto" and H.n <= exact_limit):
        if H.n > exact_limit:
            raise InstanceTooLargeError(
                f"exact density scan visits 2^{H.n} subsets; "
                f"the limit is n <= {exact_limit}")
        return _density_exact(H, cap, L)
    # strip min-inside-degree vertices by (degree, id); every suffix of the
    # removal order is a candidate subset (no vertex degree reaches m + 1)
    removal, removed_deg = _peel(H, range(1, H.n + 1), 0, H.m + 1)
    spanned = H.m
    best_ratio = -1.0
    best_removed = 0
    for gone, d in enumerate(removed_deg):
        size = H.n - gone
        if size <= cap and spanned / size > best_ratio:
            best_ratio = spanned / size
            best_removed = gone
        spanned -= d
    status = "bound-violated" if best_ratio >= L else "inconclusive"
    return ProbeVerdict(status, best_ratio, float(L),
                        frozenset(removal[best_removed:]))


@dataclass(frozen=True)
class MonteCarloConfig:
    """One Monte Carlo run: n, k, trial count, master seed, and either the
    degree parameter d (alpha, beta, m then come from params_from_d) or
    all three of alpha, beta, m explicitly (d, if also given, only feeds
    the reported n0)."""

    n: int
    k: int
    trials: int
    seed: int
    d: Optional[float] = None
    alpha: Optional[int] = None
    beta: Optional[int] = None
    m: Optional[int] = None


@dataclass(frozen=True)
class TrialRecord:
    """One seeded trial. Replaying the seed reproduces every field except
    wall_ms, which is measured and therefore kept out of the CSV row."""

    trial: int
    seed: int
    n: int
    k: int
    m: int
    alpha: int
    beta: int
    n0: Optional[float]
    residual_size: int
    residual_core_size: int
    witness: bool
    path_len: Optional[int] = None
    wall_ms: float = 0.0

    def csv_row(self) -> str:
        return ",".join([
            str(self.trial), str(self.seed), str(self.n), str(self.k),
            str(self.m), str(self.alpha), str(self.beta),
            "" if self.n0 is None else repr(self.n0),
            str(self.residual_size), str(self.residual_core_size),
            "1" if self.witness else "0",
            "" if self.path_len is None else str(self.path_len),
        ])


def _resolve_config(cfg: MonteCarloConfig):
    if cfg.k < 2:
        raise ValidationError(f"uniformity must be at least 2, got {cfg.k}")
    if cfg.n < cfg.k:
        raise ValidationError(f"need n >= k, got n={cfg.n}, k={cfg.k}")
    if cfg.trials < 0:
        raise ValidationError(f"trial count must be nonnegative, got {cfg.trials}")
    explicit = (cfg.alpha is not None, cfg.beta is not None, cfg.m is not None)
    if all(explicit):
        if cfg.d is not None and not math.isfinite(cfg.d):
            raise ValidationError(f"need a finite d, got {cfg.d}")
        alpha, beta, m = cfg.alpha, cfg.beta, cfg.m
        n0 = None
        if cfg.d is not None and cfg.d > 1 and alpha > 0:
            n0 = 16.0 * (cfg.n / alpha) * log(cfg.d) ** 2
    elif any(explicit):
        raise ValidationError("give all of alpha, beta, m, or none of them")
    elif cfg.d is None:
        raise ValidationError("config needs d or explicit (alpha, beta, m)")
    else:
        ps = params_from_d(cfg.d, cfg.k, cfg.n)
        alpha, beta, m, n0 = ps.alpha, ps.beta, ps.m, ps.n0
    if alpha < 0 or beta < 1:
        raise ValidationError(f"need alpha >= 0 and beta >= 1, got ({alpha}, {beta})")
    if m < 0 or m > comb(cfg.n, cfg.k):
        raise ValidationError(f"edge count {m} out of range for n={cfg.n}, k={cfg.k}")
    return alpha, beta, m, n0


def montecarlo_colorability(config: MonteCarloConfig) -> Iterator[TrialRecord]:
    """Stream one TrialRecord per trial.

    Each trial generates a fresh instance, draws a seeded-random maximally
    independent sequence of length alpha, peels the leftover with beta, and
    records the leftover size and whether a core survived (the witness
    flag). Trial seeds derive from (master seed, trial index), so trials
    are order-independent and individually replayable.
    """
    alpha, beta, m, n0 = _resolve_config(config)
    for t in range(config.trials):
        t0 = time.perf_counter()
        trial_seed = derive_seed(config.seed, t)
        H = generate_hnm(config.n, m, config.k, derive_seed(trial_seed, 0))
        seq = greedy_sequence(H, alpha, strategy="random",
                              rng_seed=derive_seed(trial_seed, 1))
        peel = beta_core(H, beta, seq.residual)
        yield TrialRecord(
            trial=t, seed=trial_seed, n=config.n, k=config.k, m=m,
            alpha=alpha, beta=beta, n0=n0,
            residual_size=len(seq.residual),
            residual_core_size=len(peel.core),
            witness=bool(peel.core),
            wall_ms=(time.perf_counter() - t0) * 1000.0)


def witness_rate(records: Iterable[TrialRecord]) -> float:
    """Fraction of records whose trial kept a core; 0.0 on an empty batch."""
    total = 0
    hits = 0
    for rec in records:
        total += 1
        hits += rec.witness
    return hits / total if total else 0.0
