"""Alphabet and dimension reduction steps against enumeration oracles."""

import tracemalloc

import numpy as np
import pytest

from fourierprg.bitseq import as_bits
from fourierprg.compose import build_generator
from fourierprg.core import (UniformStub, plan_to_generator, sample_seeds)
from fourierprg.families import CombinedHashFamily
from fourierprg.fields import prime_field
from fourierprg.reductions import (AlphabetStepPlan, DimStepPlan,
                                   alphabet_reduce, dim_step_params)
from test_robp import edge_seeds


def test_alphabet_step_applicability_guard():
    with pytest.raises(ValueError):
        AlphabetStepPlan(16, 2, 0.5, UniformStub(4, 2))


def test_alphabet_step_inner_mismatch():
    with pytest.raises(ValueError, match="inner generator"):
        AlphabetStepPlan(17, 2, 0.5, UniformStub(3, 2))


def test_alphabet_step_marginals_uniform():
    # m = 32 > n^4, D = 5: each column's polynomial is uniform over
    # GF(32), so every output coordinate is exactly uniform over [32]
    # under full seed enumeration, whatever the inner symbols
    g = AlphabetStepPlan(32, 2, 0.5, UniformStub(5, 2))
    assert g.seed_bits <= 16
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    out = g.generate_batch(seeds)
    assert out.min() >= 0 and out.max() < 32
    for j in range(2):
        counts = np.bincount(out[:, j], minlength=32)
        assert np.all(counts == len(seeds) // 32)


def test_alphabet_step_scalar_and_roundtrip():
    g = AlphabetStepPlan(17, 2, 0.5, UniformStub(4, 2))
    g2 = plan_to_generator(g.plan())
    assert g2.seed_bits == g.seed_bits
    seeds = np.arange(min(256, 1 << g.seed_bits), dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))
    assert np.array_equal(g.generate(5), g.generate_batch([5])[0])


def test_alphabet_reduce_no_step_needed():
    calls = []

    def factory(m, n, d):
        calls.append((m, n, d))
        return UniformStub(m, n)

    g = alphabet_reduce(8, 4, 0.1, factory)
    assert calls == [(8, 4, 0.1)]
    assert isinstance(g, UniformStub)


def test_alphabet_reduce_chains_down_to_small_alphabet():
    calls = []

    def factory(m, n, d):
        calls.append((m, n, d))
        return UniformStub(m, n)

    g = alphabet_reduce(1 << 16, 2, 0.1, factory)
    # chain 65536 -> 256 -> 16; base built at m = 16
    assert calls == [(16, 2, 0.05)]
    assert (g.m, g.n) == (1 << 16, 2)
    seeds = sample_seeds(np.random.default_rng(1), g.seed_bits, 5)
    out = g.generate_batch(seeds)
    assert out.min() >= 0 and out.max() < 1 << 16


def _random_zero_and_ones_bits(seed_bits: int, rng):
    return (rng.integers(0, 2, (4, seed_bits), dtype=np.uint8),
            np.zeros((2, seed_bits), dtype=np.uint8),
            np.ones((2, seed_bits), dtype=np.uint8))


def test_alphabet_step_at_2_63_generates_int64():
    g = AlphabetStepPlan(1 << 63, 2, 0.1, UniformStub(3037000499, 2))
    for bits in _random_zero_and_ones_bits(g.seed_bits,
                                           np.random.default_rng(63)):
        out = g.generate_batch(bits)
        assert out.dtype == np.int64 and out.min() >= 0


def test_alphabet_step_above_2_63_builds_then_refuses_every_seed():
    # the n = 256 tree builds and reports its seed bits; its alphabet
    # step over [2^64] refuses to generate, with the reason, on every
    # seed, where its int64 cast used to overflow on most of them
    g = build_generator(2, 256, 0.1)
    assert g.seed_bits == 1060
    for bits in _random_zero_and_ones_bits(g.seed_bits,
                                           np.random.default_rng(64)):
        with pytest.raises(ValueError, match=r"alphabet-step symbols are "
                           r"int64: m = 18446744073709551616 exceeds the "
                           r"limit 2\^63"):
            g.generate_batch(bits)


# ---------------------------------------------------------------------------
# dimension reduction


def test_dim_step_params_match_plan():
    m, n, delta, C = 2, 4, 0.5, 0.5
    t, k, r0 = dim_step_params(m, n, delta, C)
    inner = UniformStub(1 << r0, t)
    g = DimStepPlan(m, n, delta, inner, C)
    assert (g.t, g.k, g.r0) == (t, k, r0)


def test_dim_step_requires_small_alphabet():
    with pytest.raises(ValueError):
        DimStepPlan(100, 2, 0.5, UniformStub(4, 2))


def test_dim_step_inner_mismatch():
    m, n, delta, C = 2, 4, 0.5, 0.5
    t, k, r0 = dim_step_params(m, n, delta, C)
    with pytest.raises(ValueError):
        DimStepPlan(m, n, delta, UniformStub(1 << r0, t + 1), C)


def test_dim_step_marginals_uniform():
    m, n, delta, C = 2, 4, 0.5, 0.5
    t, k, r0 = dim_step_params(m, n, delta, C)
    g = DimStepPlan(m, n, delta, UniformStub(1 << r0, t), C)
    assert g.seed_bits <= 20
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    out = g.generate_batch(seeds)
    for j in range(n):
        counts = np.bincount(out[:, j], minlength=m)
        assert np.all(counts == len(seeds) // m)


def test_dim_step_joint_uniform_when_k_covers_n():
    # with k >= n the within-bucket strings are fully independent, so the
    # whole output is exactly uniform over [2]^n
    m, n, delta, C = 2, 2, 0.5, 1.0
    t, k, r0 = dim_step_params(m, n, delta, C)
    assert k >= n
    g = DimStepPlan(m, n, delta, UniformStub(1 << r0, t), C)
    assert g.seed_bits <= 22
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    out = g.generate_batch(seeds)
    codes = out @ (1 << np.arange(n - 1, -1, -1))
    counts = np.bincount(codes, minlength=1 << n)
    assert np.all(counts == len(seeds) // (1 << n))


def test_dim_step_scalar_and_roundtrip():
    m, n, delta, C = 2, 4, 0.5, 0.5
    t, k, r0 = dim_step_params(m, n, delta, C)
    g = DimStepPlan(m, n, delta, UniformStub(1 << r0, t), C)
    g2 = plan_to_generator(g.plan())
    seeds = np.arange(min(512, 1 << g.seed_bits), dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))
    assert np.array_equal(g.generate(3), g.generate_batch([3])[0])


def _dim_step_reference(g: DimStepPlan, seeds) -> np.ndarray:
    """The dimension step as first written: each bucket's string on all n
    coordinates, kept where the hash sends a coordinate to that bucket."""
    bits = as_bits(seeds, g.seed_bits)
    tables = g.bucket_hash.table_batch(bits[:, :g.local_bits])
    blocks = g.inner.generate_batch(bits[:, g.local_bits:])
    out = np.zeros((len(tables), g.n), dtype=np.int64)
    for j in range(g.t):
        vals = g.within.sample_batch(blocks[:, j])
        mask = tables == j
        out[mask] = vals[mask]
    return out


# (m, n, delta, C): the n = 128 tree's dimension step (t = 12 buckets,
# k = 9, r0 = 63, bucket hash over GF(149)), and m = 3 on n = 10, whose
# within-bucket strings live in a prime field
DIM_STEP_CASES = [(2, 128, 0.1 / 24, 4.0), (3, 10, 0.5, 2.0)]


@pytest.mark.parametrize("m,n,delta,C", DIM_STEP_CASES,
                         ids=["n128-tree", "m3-prime-field"])
def test_dim_step_matches_per_bucket_reference(m, n, delta, C):
    t, k, r0 = dim_step_params(m, n, delta, C)
    g = DimStepPlan(m, n, delta, UniformStub(1 << r0, t), C)
    seeds = edge_seeds(g.seed_bits, 24, np.random.default_rng(n))
    assert {0, (1 << g.seed_bits) - 1} <= set(seeds)
    got = g.generate_batch(seeds)
    assert got.dtype == np.int64 and got.shape == (len(seeds), n)
    assert np.array_equal(got, _dim_step_reference(g, seeds))


def test_dim_step_cases_cover_the_tree_and_a_prime_field():
    g = DimStepPlan(2, 128, 0.1 / 24, UniformStub(1 << 63, 12))
    assert (g.t, g.k, g.r0, g.bucket_hash.kwise.q) == (12, 9, 63, 149)
    t, _, r0 = dim_step_params(3, 10, 0.5, 2.0)
    g = DimStepPlan(3, 10, 0.5, UniformStub(1 << r0, t), 2.0)
    assert g.within.inner.field is prime_field(g.within.inner.q)


def test_dim_step_memory_at_most_the_per_bucket_loop():
    # 2^13 rows of the n = 128 tree's dimension step: the per-bucket loop
    # peaked at 51.3 MB (tracemalloc) and gathering all (k, N, n)
    # coefficients at once at 112.6 MB; one coefficient per Horner step
    # stays below the first
    g = DimStepPlan(2, 128, 0.1 / 24, UniformStub(1 << 63, 12))
    seeds = sample_seeds(np.random.default_rng(13), g.seed_bits, 1 << 13)
    g.generate_batch(seeds[:8])  # field tables outside the measurement
    tracemalloc.start()
    try:
        g.generate_batch(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 51.3 * 2 ** 20


def test_good_hash_fraction_over_family():
    # the dimension step's hash into 4 buckets, 4-wise: a hash is good
    # for 4 high-variance coordinates and k = 6 when no bucket holds more
    # than k/2 of them, which fails only when all four share a bucket
    # (probability 4/4^4)
    fam = CombinedHashFamily(8, 4, 4)
    assert fam.seed_bits <= 20
    tables = fam.table_batch(np.arange(1 << fam.seed_bits, dtype=np.int64))
    high = tables[:, :4]
    loads = (high[:, :, None] == np.arange(4)).sum(axis=1)
    frac = float(np.mean(loads.max(axis=1) <= 6 / 2))
    assert frac == pytest.approx(1 - 4 / 256, abs=1e-12)
    assert frac >= 0.9
