"""Fourier shapes: diagnostics against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from fourierprg.core import KWiseGenerator, UniformStub
from fourierprg.shapes import (EnumerateMode, FourierShape, SampleMode,
                               empirical_expectation, eval_shape_batch,
                               fooling_error, linear_shape, random_shape,
                               scale_toward_mean, tvar, uniform_expectation,
                               values_on_all_patterns)


def constant_shape(n: int, m: int, value: complex = 1.0) -> FourierShape:
    return FourierShape(np.full((n, m), value, dtype=complex))


def brute_force_expectation(f: FourierShape) -> complex:
    total = 0j
    for x in itertools.product(range(f.m), repeat=f.n):
        total += eval_shape_batch(f, np.asarray([x]))[0]
    return total / f.m ** f.n


def test_unit_disk_enforced():
    with pytest.raises(ValueError):
        FourierShape(np.array([[2.0, 0.0]]))


def test_tvar_constant_zero():
    assert tvar(constant_shape(5, 3, 0.7)) == pytest.approx(0.0)


def test_tvar_parity_shape_is_n():
    n = 6
    f = FourierShape(np.tile([1.0, -1.0], (n, 1)))
    assert tvar(f) == pytest.approx(n)


def test_tvar_matches_two_pass():
    rng = np.random.default_rng(0)
    f = random_shape(rng, 5, 3)
    direct = 0.0
    for j in range(5):
        mu = sum(f.table[j]) / 3
        direct += sum(abs(z) ** 2 for z in f.table[j]) / 3 - abs(mu) ** 2
    assert tvar(f) == pytest.approx(direct, abs=1e-12)


def test_shape_stats_variance_mean_tradeoff():
    # per coordinate: tvar of the one-coordinate shape is its variance
    f = random_shape(np.random.default_rng(1), 8, 4)
    for row in f.table:
        var = tvar(FourierShape(row[None]))
        assert var >= -1e-12
        assert var + abs(row.mean()) ** 2 <= 1 + 1e-12


def test_uniform_expectation_constant():
    assert uniform_expectation(constant_shape(4, 2)) == pytest.approx(1.0)


def test_uniform_expectation_zero_mean_coordinate():
    t = np.ones((3, 2), dtype=complex)
    t[1] = [1.0, -1.0]
    assert uniform_expectation(FourierShape(t)) == pytest.approx(0.0)


def test_uniform_expectation_brute_force():
    rng = np.random.default_rng(2)
    for n in (4, 6, 8):
        f = random_shape(rng, n, 2)
        assert uniform_expectation(f) == pytest.approx(
            brute_force_expectation(f), abs=1e-10)


def test_eval_shape_examples():
    assert eval_shape_batch(constant_shape(3, 2),
                            np.asarray([[0, 1, 1]]))[0] == pytest.approx(1.0)
    t = np.ones((3, 2), dtype=complex)
    t[2, 0] = 0.0
    assert eval_shape_batch(FourierShape(t),
                            np.asarray([[1, 1, 0]]))[0] == pytest.approx(0.0)


def test_eval_shape_reordered_product():
    rng = np.random.default_rng(3)
    f = random_shape(rng, 6, 3)
    x = rng.integers(0, 3, 6)
    forward = eval_shape_batch(f, np.asarray([x]))[0]
    backward = 1.0 + 0j
    for j in range(5, -1, -1):
        backward *= f.table[j][x[j]]
    assert forward == pytest.approx(backward, abs=1e-12)


def test_linear_shape_alpha_zero():
    f = linear_shape([3, -1, 2], 0.0, 4)
    assert np.allclose(f.table, 1.0)


def test_linear_shape_parity_unit():
    f = linear_shape([1, 0, 0], 0.5, 2)
    assert np.allclose(f.table[0], [1.0, -1.0])
    assert np.allclose(f.table[1:], 1.0)


def test_linear_shape_mean_recomputation():
    rng = np.random.default_rng(4)
    w = rng.integers(-3, 4, 4)
    f = linear_shape(w, 0.3, 3)
    expected = 1.0 + 0j
    for wj in w:
        expected *= sum(np.exp(2j * math.pi * 0.3 * wj * x)
                        for x in range(3)) / 3
    assert uniform_expectation(f) == pytest.approx(expected, abs=1e-12)


def test_values_on_all_patterns_order():
    rng = np.random.default_rng(5)
    f = random_shape(rng, 3, 2)
    vals = values_on_all_patterns(f)
    # index 0b110 -> symbols (1,1,0), coordinate 0 most significant
    assert vals[0b110] == pytest.approx(
        eval_shape_batch(f, np.asarray([[1, 1, 0]]))[0], abs=1e-12)


# ---------------------------------------------------------------------------
# empirical expectation


def test_empirical_constant_shape():
    res = empirical_expectation(constant_shape(6, 2), UniformStub(2, 6),
                                EnumerateMode())
    assert res.estimate == pytest.approx(1.0)
    assert res.std_err == 0.0


def test_empirical_uniform_stub_exact():
    rng = np.random.default_rng(7)
    f = random_shape(rng, 6, 2)
    res = empirical_expectation(f, UniformStub(2, 6), EnumerateMode())
    assert res.estimate == pytest.approx(uniform_expectation(f), abs=1e-12)


def test_empirical_kwise_exact_on_sparse_shapes():
    # shapes touching <= k coordinates are fooled exactly by a k-wise
    # generator
    g = KWiseGenerator(2, 6, 2)
    rng = np.random.default_rng(8)
    t = np.ones((6, 2), dtype=complex)
    t[1] = rng.random(2) * np.exp(2j * math.pi * rng.random(2))
    t[4] = rng.random(2) * np.exp(2j * math.pi * rng.random(2))
    f = FourierShape(t)
    err, _ = fooling_error(f, g, EnumerateMode())
    assert err <= 1e-12


def test_empirical_refusal_over_cap():
    g = KWiseGenerator(2, 6, 2)
    g.seed_bits = 40
    with pytest.raises(ValueError):
        empirical_expectation(random_shape(np.random.default_rng(0), 6, 2),
                              g, EnumerateMode(), enumerate_cap=26,
                              pattern_cap=4)


def test_sample_mode_refuses_no_samples():
    # an estimate over zero seeds divides by zero
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_samples"):
            SampleMode(n)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_uniform_stub_pmf_and_seed_branches_agree(m):
    # the pmf branch trusts exactly_uniform; the seed branch
    # (pattern_cap=1) enumerates all seeds, so the two agree only if the
    # stub claims uniformity exactly when m is a power of two
    g = UniformStub(m, 4)
    assert g.exactly_uniform == (m & (m - 1) == 0)
    f = random_shape(np.random.default_rng(m), 4, m)
    pmf = empirical_expectation(f, g, EnumerateMode())
    seeds = empirical_expectation(f, g, EnumerateMode(), pattern_cap=1)
    assert abs(pmf.estimate - seeds.estimate) <= 1e-12


def test_sample_mode_close_to_enumerate():
    g = KWiseGenerator(2, 8, 2)
    rng = np.random.default_rng(9)
    f = random_shape(rng, 8, 2)
    exact = empirical_expectation(f, g, EnumerateMode())
    approx = empirical_expectation(f, g, SampleMode(40000, 1))
    assert abs(approx.estimate - exact.estimate) <= \
        4 * max(approx.std_err, 1e-4)


def test_variance_bound_random_shapes():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(2, 6))
        f = random_shape(rng, n, m)
        assert abs(uniform_expectation(f)) <= \
            math.exp(-tvar(f) / 2) + 1e-10


def test_scale_toward_mean_scales_variance():
    rng = np.random.default_rng(11)
    f = random_shape(rng, 6, 3)
    g = scale_toward_mean(f, 0.1)
    assert tvar(g) == pytest.approx(tvar(f) / 100, rel=1e-9)
    assert np.allclose(g.table.mean(axis=1), f.table.mean(axis=1))


def test_kwise_discrepancy_scaling_law():
    # reduced-size version of the variance-scaling property: shrinking
    # shape variances 100x shrinks the exact k-wise discrepancy >= 10x
    g = KWiseGenerator(2, 10, 4)
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(30):
        f = random_shape(rng, 10, 2)
        base, _ = fooling_error(f, g, EnumerateMode())
        if base < 1e-7:
            continue
        scaled, _ = fooling_error(scale_toward_mean(f, 0.1), g,
                                  EnumerateMode())
        assert scaled <= base / 10 + 1e-12
        checked += 1
    assert checked >= 10


def test_eval_shape_batch_matches_scalar():
    rng = np.random.default_rng(13)
    f = random_shape(rng, 5, 4)
    xs = rng.integers(0, 4, size=(20, 5))
    vals = eval_shape_batch(f, xs)
    for i in range(20):
        direct = math.prod(f.table[j][xs[i, j]] for j in range(5))
        assert vals[i] == pytest.approx(direct, abs=1e-12)


def test_eval_shape_bit_identical_to_batch():
    f = random_shape(np.random.default_rng(0), 8, 2)
    xs = np.indices((2,) * 8).reshape(8, -1).T
    batch = eval_shape_batch(f, xs)
    # a row alone rounds exactly as it does inside the batch
    assert [eval_shape_batch(f, np.asarray([x]))[0]
            for x in xs] == batch.tolist()
