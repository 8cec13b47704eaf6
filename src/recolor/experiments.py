"""Parameter formulas and seeded Monte Carlo trials.

Everything here reports; nothing here proves. A trial's witness flag
records a core that survived its peel on that one instance, not a bound on
the random model. All randomness flows through derived seeds, so any
record can be replayed bit-exactly from its own seed field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from math import comb, log
from typing import Iterable, Iterator, Optional

from .core_peel import beta_core
from .errors import ValidationError
from .hypergraph import (
    _check_alpha_beta,
    _check_edge_count,
    _check_int,
    _check_shape,
    _excerpt,
    generate_hnm,
)
from .independence import greedy_sequence
from .seeding import derive_seed

__all__ = [
    "CSV_HEADER",
    "ParamSet",
    "TrialRecord",
    "MonteCarloConfig",
    "params_from_d",
    "montecarlo_colorability",
    "witness_rate",
]

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


def _overflow(d: float, n: int) -> ValidationError:
    """The error for a parameter formula that leaves the float range."""
    return ValidationError(
        f"the parameter formulas overflow a float at d={d}, n={_excerpt(n)}")


def params_from_d(d: float, k: int, n: int) -> ParamSet:
    """Evaluate the parameter formulas at (d, k, n).

    alpha = ((k-1) d / (log d - 5(k-1) log log d))^(1/(k-1)) and
    beta = 3 (log d)^(3k); m0 = n/alpha, n0 = 16 m0 log^2 d,
    p = d / C(n-1, k-1) capped at 1, m = round-half-up(d n / k).
    Raises a domain error when the alpha denominator is not positive;
    supply alpha and beta by hand in that regime.
    """
    _check_shape(n, k, capped=False)
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
    try:
        # an int operand beyond the float range raises instead of giving inf
        m_real = d * n / k
        m0 = n / alpha_real
        p = min(1.0, d / comb(n - 1, k - 1))
    except OverflowError:
        raise _overflow(d, n) from None
    if not (math.isfinite(alpha_real) and math.isfinite(m_real)):
        raise _overflow(d, n)
    m = math.floor(m_real + 0.5)
    _check_edge_count(n, k, m)
    return ParamSet(
        d=float(d), k=k, n=n,
        alpha_real=alpha_real, alpha=math.ceil(alpha_real),
        beta_real=beta_real, beta=math.ceil(beta_real),
        m0=m0, n0=16.0 * m0 * ld * ld, p=p, m=m)


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
        """CSV_HEADER's cells: repr, 1/0 for the witness flag, "" for None."""
        return ",".join(
            "" if c is None else repr(int(c) if type(c) is bool else c)
            for c in (getattr(self, name) for name in _CSV_FIELDS))


_CSV_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_ms")
CSV_HEADER = ",".join(_CSV_FIELDS)


def _resolve_config(cfg: MonteCarloConfig):
    _check_shape(cfg.n, cfg.k, capped=False)
    _check_int(cfg.trials, "trials")
    if cfg.trials < 0:
        raise ValidationError(
            f"trial count must be nonnegative, got {_excerpt(cfg.trials)}")
    explicit = (cfg.alpha is not None, cfg.beta is not None, cfg.m is not None)
    if all(explicit):
        _check_edge_count(cfg.n, cfg.k, cfg.m)
        if cfg.d is not None and not math.isfinite(cfg.d):
            raise ValidationError(f"need a finite d, got {cfg.d}")
        _check_alpha_beta(cfg.alpha, cfg.beta)
        alpha, beta, m = cfg.alpha, cfg.beta, cfg.m
        n0 = None
        if cfg.d is not None and cfg.d > 1 and alpha > 0:
            try:
                n0 = 16.0 * (cfg.n / alpha) * log(cfg.d) ** 2
            except OverflowError:
                raise _overflow(cfg.d, cfg.n) from None
    elif any(explicit):
        raise ValidationError("give all of alpha, beta, m, or none of them")
    elif cfg.d is None:
        raise ValidationError("config needs d or explicit (alpha, beta, m)")
    else:
        ps = params_from_d(cfg.d, cfg.k, cfg.n)
        alpha, beta, m, n0 = ps.alpha, ps.beta, ps.m, ps.n0
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
        # every level takes a vertex until none is left; n levels suffice
        seq = greedy_sequence(H, min(alpha, config.n), strategy="random",
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
    flags = [rec.witness for rec in records]
    return sum(flags) / len(flags) if flags else 0.0
