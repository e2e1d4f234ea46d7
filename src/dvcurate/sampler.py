"""Re-balanced co-training sampler.

A SampleStream interleaves target and co-training demo ids: every batch slot
independently draws from the target pool with probability omega, otherwise
from the co-training pool, then picks uniformly with replacement within the
chosen pool.  Each batch derives its own RNG substream from (seed, batch
index), so any batch can be generated out of order and the whole stream is
reproducible across platforms.

Uniform layout of a batch (the stream's reproducibility contract): one draw
u = gen.random(2 * batch_size) from the batch substream; slot k takes the
target pool iff u[2k] < omega, and position floor(u[2k+1] * pool_size) in
the chosen pool.  PCG64's random(n) equals n sequential random() calls, so
this is the same stream as two scalar draws per slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptyPoolSelected
from .rng import substream

OMEGA_DEFAULT = 0.5

_BATCH_DOMAIN = 1


@dataclass(frozen=True)
class SampleStream:
    target_ids: tuple
    cotrain_ids: tuple
    omega: float = OMEGA_DEFAULT
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        object.__setattr__(self, "target_ids", tuple(self.target_ids))
        object.__setattr__(self, "cotrain_ids", tuple(self.cotrain_ids))
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.omega > 0.0 and not self.target_ids:
            raise EmptyPoolSelected("omega > 0 with an empty target pool")
        if self.omega < 1.0 and not self.cotrain_ids:
            raise EmptyPoolSelected("omega < 1 with an empty cotrain pool")


def _batch_with_flags(stream: SampleStream, index: int) -> tuple[list, list]:
    u = substream(stream.seed, _BATCH_DOMAIN, index).random(2 * stream.batch_size).tolist()
    target, cotrain, omega = stream.target_ids, stream.cotrain_ids, stream.omega
    n_target, n_cotrain = len(target), len(cotrain)
    flags = [p < omega for p in u[0::2]]
    ids = [target[int(q * n_target)] if f else cotrain[int(q * n_cotrain)]
           for f, q in zip(flags, u[1::2])]
    return ids, flags


def batch(stream: SampleStream, index: int) -> list:
    """Batch `index` of the stream: batch_size ids, deterministic per index,
    drawn by the uniform layout in the module docstring."""
    return _batch_with_flags(stream, index)[0]


def batches(stream: SampleStream, n_batches: int):
    """Yield batches 0 .. n_batches - 1."""
    for i in range(n_batches):
        yield batch(stream, i)


def stream_stats(stream: SampleStream, n_batches: int) -> dict:
    """Empirical mixture report over the first n_batches batches."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    counts = Counter()
    target_draws = 0
    for i in range(n_batches):
        ids, flags = _batch_with_flags(stream, i)
        counts.update(ids)
        target_draws += sum(flags)
    total = n_batches * stream.batch_size
    return {
        "omega": stream.omega,
        "batches": n_batches,
        "batch_size": stream.batch_size,
        "total_draws": total,
        "target_draws": target_draws,
        "target_fraction": target_draws / total,
        "cotrain_fraction": (total - target_draws) / total,
        "draw_counts": dict(counts),
    }
