"""Deterministic derivation of per-trial and per-level RNG seeds.

Trials must be reproducible from (master seed, trial index) alone, so seeds
are derived with a fixed 64-bit mix rather than by drawing from a shared
stream whose state would depend on execution order.
"""

__all__ = ["derive_seed"]

_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *salt: int) -> int:
    """Return a 64-bit seed determined by the master seed and salt indices."""
    x = _mix(master & _MASK)
    for s in salt:
        x = _mix(x ^ (s & _MASK))
    return x
