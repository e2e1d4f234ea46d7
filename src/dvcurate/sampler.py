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

Each stream holds one object array `pool`, the target ids followed by the
co-training ids, and a batch is one array lookup into it: the positions come
from the uniforms by array arithmetic, with no per-slot Python.  A float64
product truncated to an integer is exactly int(q * n), so the ids are those
of the per-slot layout above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    # target_ids + cotrain_ids as one object array; derived, so left out of
    # the constructor, repr, eq and hash
    pool: np.ndarray = field(init=False, repr=False, compare=False)

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
        ids = self.target_ids + self.cotrain_ids
        object.__setattr__(self, "pool", np.fromiter(ids, dtype=object, count=len(ids)))


def _positions(stream: SampleStream, index: int) -> np.ndarray:
    """Positions in `stream.pool` of batch `index`'s ids; a position below
    len(target_ids) is a target draw."""
    u = substream(stream.seed, _BATCH_DOMAIN, index).random(2 * stream.batch_size)
    q = u[1::2]
    n_target = len(stream.target_ids)
    # an empty pool is never chosen: u < 1 always, and u < 0 never
    return np.where(u[0::2] < stream.omega,
                    (q * n_target).astype(np.intp),
                    n_target + (q * len(stream.cotrain_ids)).astype(np.intp))


def batch(stream: SampleStream, index: int) -> list:
    """Batch `index` of the stream: batch_size ids, deterministic per index,
    drawn by the uniform layout in the module docstring."""
    return stream.pool[_positions(stream, index)].tolist()


def batches(stream: SampleStream, n_batches: int):
    """Yield batches 0 .. n_batches - 1."""
    for i in range(n_batches):
        yield batch(stream, i)


def stream_stats(stream: SampleStream, n_batches: int) -> dict:
    """Empirical mixture report over the first n_batches batches."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    per_position = np.zeros(len(stream.pool), dtype=np.int64)
    for i in range(n_batches):
        np.add.at(per_position, _positions(stream, i), 1)
    # fold positions into ids: an id listed twice, or in both pools, is one key
    counts = {}
    for rid, n in zip(stream.pool.tolist(), per_position.tolist()):
        if n:
            counts[rid] = counts.get(rid, 0) + n
    total = n_batches * stream.batch_size
    target_draws = int(per_position[:len(stream.target_ids)].sum())
    return {
        "omega": stream.omega,
        "batches": n_batches,
        "batch_size": stream.batch_size,
        "total_draws": total,
        "target_draws": target_draws,
        "target_fraction": target_draws / total,
        "cotrain_fraction": (total - target_draws) / total,
        "draw_counts": counts,
    }
