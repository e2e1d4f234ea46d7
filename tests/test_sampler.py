from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcurate import sampler
from dvcurate.errors import EmptyPoolSelected
from dvcurate.rng import substream
from dvcurate.sampler import SampleStream

from conftest import counter_stream_stats, slot_batch

TARGET = ("t0", "t1", "t2")
COTRAIN = ("c0", "c1", "c2", "c3", "c4")


def _stream(**kw):
    base = dict(target_ids=TARGET, cotrain_ids=COTRAIN, omega=0.5, seed=42, batch_size=8)
    base.update(kw)
    return SampleStream(**base)


# ---------------------------------------------------------------------------
# construction

def test_stream_validation():
    with pytest.raises(ValueError, match="omega"):
        _stream(omega=1.5)
    with pytest.raises(ValueError, match="omega"):
        _stream(omega=-0.1)
    with pytest.raises(ValueError, match="batch_size"):
        _stream(batch_size=0)
    with pytest.raises(EmptyPoolSelected):
        _stream(target_ids=())
    with pytest.raises(EmptyPoolSelected):
        _stream(cotrain_ids=())


def test_pool_is_derived_state():
    s = _stream()
    assert s.pool.tolist() == list(TARGET + COTRAIN)
    assert "pool" not in repr(s)
    assert s == _stream() and hash(s) == hash(_stream())
    with pytest.raises(TypeError):
        SampleStream(TARGET, COTRAIN, pool=None)


def test_unreachable_empty_pool_is_allowed():
    only_cotrain = _stream(target_ids=(), omega=0.0)
    assert set(sampler.batch(only_cotrain, 0)) <= set(COTRAIN)
    only_target = _stream(cotrain_ids=(), omega=1.0)
    assert set(sampler.batch(only_target, 0)) <= set(TARGET)


# ---------------------------------------------------------------------------
# determinism

def test_batches_are_deterministic_and_pinned():
    s = _stream()
    assert sampler.batch(s, 0) == ["c0", "c4", "c2", "t1", "t1", "c3", "t0", "t2"]
    assert sampler.batch(s, 3) == ["c4", "c2", "c1", "t1", "c0", "c1", "c0", "t0"]
    assert sampler.batch(s, 0) == sampler.batch(s, 0)


def test_batches_indexable_out_of_order():
    s = _stream()
    later = sampler.batch(s, 7)
    for i in range(7):
        sampler.batch(s, i)
    assert sampler.batch(s, 7) == later
    assert list(sampler.batches(s, 8)) == [sampler.batch(s, i) for i in range(8)]


def test_seed_and_index_change_the_draw():
    a = sampler.batch(_stream(seed=1), 0)
    b = sampler.batch(_stream(seed=2), 0)
    c = sampler.batch(_stream(seed=1), 1)
    assert a != b and a != c


def test_two_uniforms_per_slot_contract():
    s = _stream(seed=9, batch_size=17, omega=0.3)
    for index in (0, 5):
        gen = substream(9, 1, index)
        expected = []
        for _ in range(s.batch_size):
            pool = s.target_ids if gen.random() < s.omega else s.cotrain_ids
            expected.append(pool[int(gen.random() * len(pool))])
        assert sampler.batch(s, index) == expected


@given(
    omega=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    batch_size=st.integers(1, 64),
)
@settings(max_examples=100)
def test_batch_shape_and_membership(omega, seed, batch_size):
    s = SampleStream(TARGET, COTRAIN, omega=omega, seed=seed, batch_size=batch_size)
    out = sampler.batch(s, 0)
    assert len(out) == batch_size
    assert set(out) <= set(TARGET) | set(COTRAIN)


# ---------------------------------------------------------------------------
# mixture law

@pytest.mark.parametrize("omega", [0.3, 0.5, 0.7])
def test_empirical_mixture_tracks_omega(omega):
    n_draws = 10_000
    s = _stream(omega=omega, batch_size=100)
    stats = sampler.stream_stats(s, n_batches=100)
    assert stats["total_draws"] == n_draws
    bound = 3.0 * math.sqrt(omega * (1.0 - omega) / n_draws)
    assert abs(stats["target_fraction"] - omega) <= bound


def test_omega_extremes():
    all_cotrain = sampler.stream_stats(_stream(omega=0.0), 10)
    assert all_cotrain["target_fraction"] == 0.0
    assert set(all_cotrain["draw_counts"]) <= set(COTRAIN)
    all_target = sampler.stream_stats(_stream(omega=1.0), 10)
    assert all_target["target_fraction"] == 1.0
    assert set(all_target["draw_counts"]) <= set(TARGET)


def test_stats_are_self_consistent():
    s = _stream(batch_size=16)
    stats = sampler.stream_stats(s, n_batches=25)
    assert stats["total_draws"] == 25 * 16
    assert stats["batches"] == 25 and stats["batch_size"] == 16
    assert stats["target_fraction"] + stats["cotrain_fraction"] == pytest.approx(1.0)
    assert sum(stats["draw_counts"].values()) == stats["total_draws"]
    assert set(stats["draw_counts"]) <= set(TARGET) | set(COTRAIN)
    with pytest.raises(ValueError, match="n_batches"):
        sampler.stream_stats(s, 0)


def test_flags_report_pool_of_origin():
    # target and cotrain pools share an id; the fraction must count the pool
    # actually chosen, not the id's spelling
    s = SampleStream(("shared",), ("shared",), omega=0.25, seed=3, batch_size=100)
    stats = sampler.stream_stats(s, n_batches=100)
    assert stats["draw_counts"] == {"shared": 10_000}
    bound = 3.0 * math.sqrt(0.25 * 0.75 / 10_000)
    assert abs(stats["target_fraction"] - 0.25) <= bound


def test_within_pool_draws_cover_both_pools():
    stats = sampler.stream_stats(_stream(batch_size=64), n_batches=50)
    assert set(stats["draw_counts"]) == set(TARGET) | set(COTRAIN)


# ---------------------------------------------------------------------------
# the one-draw batch against two scalar draws per slot

@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("batch_size", [1, 2, 33, 256])
def test_one_draw_batch_matches_per_slot_draws(omega, batch_size):
    s = SampleStream(TARGET, COTRAIN, omega=omega, seed=1234, batch_size=batch_size)
    for index in range(12):
        assert sampler.batch(s, index) == slot_batch(s, index)
    assert sampler.stream_stats(s, 12) == counter_stream_stats(s, 12)


# ids from a wide range, and two that recur, so that pools hold duplicates and
# share ids with each other
_IDS = st.one_of(st.integers(0, 499).map("d{}".format), st.sampled_from(("shared", "dup")))


@st.composite
def _streams(draw, max_batch):
    """Pools of 1-300 ids; at omega 0 (1) the target (co-training) pool may
    be empty, since it is never chosen."""
    omega = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    pool = st.lists(_IDS, min_size=1, max_size=300)
    target = draw(st.just([]) | pool) if omega == 0.0 else draw(pool)
    cotrain = draw(st.just([]) | pool) if omega == 1.0 else draw(pool)
    return SampleStream(tuple(target), tuple(cotrain), omega=omega,
                        seed=draw(st.integers(0, 2**64 - 1)),
                        batch_size=draw(st.integers(1, max_batch)))


@given(stream=_streams(max_batch=600), index=st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_pool_lookup_batch_matches_per_slot_oracle(stream, index):
    assert sampler.batch(stream, index) == slot_batch(stream, index)


@given(stream=_streams(max_batch=64), n_batches=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_stream_stats_matches_counter_oracle(stream, n_batches):
    stats = sampler.stream_stats(stream, n_batches)
    assert stats == counter_stream_stats(stream, n_batches)
    # plain ints, not numpy scalars, so the report stays JSON
    assert type(stats["target_draws"]) is int
    assert all(type(n) is int for n in stats["draw_counts"].values())
    assert json.loads(json.dumps(stats)) == stats
