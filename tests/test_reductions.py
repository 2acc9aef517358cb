"""Alphabet and dimension reduction steps against enumeration oracles."""

import itertools
import math

import numpy as np
import pytest

from fourierprg.core import (UniformStub, plan_to_generator, sample_seeds)
from fourierprg.families import CombinedHashFamily
from fourierprg.reductions import (AlphabetStepPlan, DimStepPlan,
                                   alphabet_reduce, bias_function,
                                   dim_step_params, is_good_hash)
from fourierprg.shapes import FourierShape, random_shape, tvar


def test_alphabet_step_applicability_guard():
    with pytest.raises(ValueError):
        AlphabetStepPlan(16, 2, 0.5, UniformStub(4, 2))


def test_alphabet_step_inner_mismatch():
    with pytest.raises(ValueError):
        AlphabetStepPlan(16, 2, 0.5, UniformStub(3, 2),
                         check_applicability=False)


def test_alphabet_step_marginals_uniform():
    # m = 4, D = 2, uniform inner: every output coordinate is exactly
    # uniform over [4] under full seed enumeration
    g = AlphabetStepPlan(4, 2, 0.5, UniformStub(2, 2),
                         check_applicability=False)
    assert g.seed_bits <= 16
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    out = g.generate_batch(seeds)
    assert out.min() >= 0 and out.max() < 4
    for j in range(2):
        counts = np.bincount(out[:, j], minlength=4)
        assert np.all(counts == len(seeds) // 4)


def test_alphabet_step_scalar_and_roundtrip():
    g = AlphabetStepPlan(4, 2, 0.5, UniformStub(2, 2),
                         check_applicability=False)
    g2 = plan_to_generator(g.plan())
    assert g2.seed_bits == g.seed_bits
    seeds = np.arange(min(256, 1 << g.seed_bits), dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))
    assert np.array_equal(g.generate(5), g.generate_batch([5])[0])


def test_bias_function_matches_direct_product():
    rng = np.random.default_rng(0)
    f = random_shape(rng, 3, 5)
    x = rng.integers(0, 5, size=(4, 3))
    expected = 1.0 + 0j
    for j in range(3):
        expected *= sum(f.table[j][x[l, j]] for l in range(4)) / 4
    assert bias_function(f, x) == pytest.approx(expected, abs=1e-12)


def test_bias_function_shape_mismatch():
    with pytest.raises(ValueError):
        bias_function(FourierShape(np.ones((3, 4))),
                      np.zeros((2, 5), dtype=int))


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


# ---------------------------------------------------------------------------
# good-hash predicate


def variance_pattern_shape(pattern):
    # variance 1 for marked coordinates (parity column), 0 otherwise
    table = np.ones((len(pattern), 2), dtype=complex)
    for j, marked in enumerate(pattern):
        if marked:
            table[j] = [1.0, -1.0]
    return FourierShape(table)


def test_is_good_hash_large_coordinate_cap():
    f = variance_pattern_shape([1, 1, 0, 0])
    h = np.array([0, 0, 1, 1])
    assert not is_good_hash(h, f, alpha=0.5, beta=1.0, k=2)
    assert is_good_hash(h, f, alpha=0.5, beta=1.0, k=4)


def test_is_good_hash_low_variance_budget():
    # coordinate variance of [1, i] is 1/2 (mean (1+i)/2, |mean|^2 = 1/2)
    table = np.ones((4, 2), dtype=complex)
    table[0] = [1.0, 1.0j]
    table[1] = [1.0, 1.0j]
    f = FourierShape(table)
    h = np.zeros(4, dtype=int)
    assert is_good_hash(h, f, alpha=0.9, beta=1.0, k=2)
    assert not is_good_hash(h, f, alpha=0.9, beta=0.9, k=2)


def test_is_good_hash_size_mismatch():
    with pytest.raises(ValueError):
        is_good_hash(np.zeros(3, dtype=int), FourierShape(np.ones((4, 2))),
                     0.5, 1.0, 2)


def test_good_hash_fraction_over_family():
    # 4 high-variance coordinates into 4 buckets with a 4-wise hash: only
    # the all-in-one-bucket event (probability 4/4^4) violates k = 6
    f = variance_pattern_shape([1, 1, 1, 1, 0, 0, 0, 0])
    fam = CombinedHashFamily(8, 4, 4)
    assert fam.seed_bits <= 20
    tables = fam.table_batch(np.arange(1 << fam.seed_bits, dtype=np.int64))
    good = sum(is_good_hash(h, f, alpha=0.5, beta=0.1, k=6) for h in tables)
    frac = good / len(tables)
    assert frac == pytest.approx(1 - 4 / 256, abs=1e-12)
    assert frac >= 0.9
