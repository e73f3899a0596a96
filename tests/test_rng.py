from __future__ import annotations

import numpy as np
import pytest

from grplab.rng import _BLOCK, SplitMix64, derive, mix64, stream


def test_mix64_reference_values():
    # SplitMix64 with seed 0 produces this well-known first output
    s = SplitMix64(0)
    assert s.next_u64() == 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF  # stateless restart


def test_streams_are_reproducible_and_distinct():
    a = [stream(42, 1).next_u64() for _ in range(4)]
    b = [stream(42, 1).next_u64() for _ in range(4)]
    c = [stream(42, 2).next_u64() for _ in range(4)]
    assert a == b
    assert a != c


def test_derive_is_order_sensitive():
    assert derive(7, 1, 2) != derive(7, 2, 1)
    assert derive(7) == mix64(7)


def test_uniform_in_unit_interval():
    s = SplitMix64(123)
    vals = [s.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_randrange_bounds_and_coverage():
    s = SplitMix64(5)
    seen = {s.randrange(6) for _ in range(500)}
    assert seen == set(range(6))


def test_sample_indices_distinct():
    s = SplitMix64(9)
    got = s.sample_indices(10, 7)
    assert len(set(got)) == 7
    assert all(0 <= v < 10 for v in got)


# --- block draws: each must equal the scalar stream, and leave the stream
# where the scalar calls would -----------------------------------------------

SEEDS = [0, 1, 12345, (1 << 64) - 1]  # the last wraps on the first step
SIZES = [0, 1, 1000, _BLOCK + 3]  # the last crosses a block boundary


def _after_block(block, scalar, seed, m):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = block(fast, m).tolist()
    assert got == [scalar(slow) for _ in range(m)]
    assert fast.next_u64() == slow.next_u64()
    return got


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", SIZES)
def test_next_u64_array_matches_scalar_stream(seed, m):
    got = _after_block(SplitMix64.next_u64_array, SplitMix64.next_u64, seed, m)
    assert all(0 <= w < 1 << 64 for w in got)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", SIZES)
def test_uniform_array_matches_scalar_stream(seed, m):
    _after_block(SplitMix64.uniform_array, SplitMix64.uniform, seed, m)


# 0 and 1, the least and the largest float below 1 that a draw can fall
# under, and the densities of the benchmark's random: sets
DENSITIES = [0.0, 2.0**-53, 0.01, 0.15, 0.3, 0.5, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("seed", SEEDS + [1 << 63])
@pytest.mark.parametrize("p", DENSITIES)
def test_bernoulli_array_matches_the_uniform_compare(seed, p):
    m = _BLOCK + 3
    want = SplitMix64(seed).uniform_array(m) < p
    assert np.array_equal(SplitMix64(seed).bernoulli_array(m, p), want)
    _after_block(lambda s, m: s.bernoulli_array(m, p), lambda s: s.uniform() < p, seed, 1000)


def test_bernoulli_array_splits_at_the_exact_draw():
    # a density equal to a draw excludes it, one ulp above includes it
    s = SplitMix64(7)
    u = SplitMix64(7).uniform_array(50)
    for k in (3, 17, 49):
        assert SplitMix64(7).bernoulli_array(50, float(u[k]))[k] == False  # noqa: E712
        assert SplitMix64(7).bernoulli_array(50, float(np.nextafter(u[k], 2)))[k] == True  # noqa: E712
    assert s.bernoulli_array(0, 0.5).dtype == np.bool_


# 1 and powers of two reject nothing; 2^64 // 3 + 1 rejects about a third of
# the words and 2^62 + 12345 about a quarter
MODULI = [1, 2, 1 << 63, 20011, (1 << 64) // 3 + 1, (1 << 62) + 12345]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", MODULI)
@pytest.mark.parametrize("m", SIZES)
def test_randrange_array_matches_scalar_stream(seed, n, m):
    got = _after_block(
        lambda s, m: s.randrange_array(n, m), lambda s: s.randrange(n), seed, m
    )
    assert all(0 <= v < n for v in got)


def test_block_draws_reject_bad_arguments():
    assert SplitMix64(3).randrange_array(1 << 63, 4).dtype == np.int64
    for n in (0, -1, (1 << 63) + 12345):
        with pytest.raises(ValueError):
            SplitMix64(3).randrange_array(n, 4)
    s = SplitMix64(3)
    for block in (s.next_u64_array, s.uniform_array, lambda m: s.bernoulli_array(m, 0.5), lambda m: s.randrange_array(5, m)):
        with pytest.raises(ValueError):
            block(-1)


def test_consecutive_blocks_continue_one_stream():
    whole = SplitMix64(77).randrange_array(20011, 3000)
    parts = SplitMix64(77)
    pieces = [parts.randrange_array(20011, m) for m in (1, 999, 2000)]
    assert np.array_equal(np.concatenate(pieces), whole)
