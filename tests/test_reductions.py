"""Alphabet and dimension reduction steps against enumeration oracles."""

import numpy as np
import pytest

from fourierprg.core import (UniformStub, plan_to_generator, sample_seeds)
from fourierprg.families import CombinedHashFamily
from fourierprg.reductions import (AlphabetStepPlan, DimStepPlan,
                                   alphabet_reduce, dim_step_params)


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
