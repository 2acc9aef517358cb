"""Application reductions against exact brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from fourierprg.apps import (ChernoffSampler, CombinatorialShape,
                             GeneralizedHalfspace, Halfspace, ModularTest,
                             chernoff_tail_check,
                             comb_shape_error, comb_shape_pmf,
                             gen_halfspace_error, halfspace_error,
                             modular_error, modular_pmf, quantize_pmf,
                             rectangle_shape)
from fourierprg.compose import build_generator
from fourierprg.core import KWiseGenerator, UniformStub
from fourierprg.metrics import WindowCapError
from fourierprg.shapes import EnumerateMode, SampleMode


def brute_prob(n, m, predicate):
    hits = 0
    for x in itertools.product(range(m), repeat=n):
        hits += predicate(x)
    return hits / m ** n


# ---------------------------------------------------------------------------
# test families


def test_halfspace_eval():
    h = Halfspace([2, -1, 3], 2)
    assert h.eval([1, 0, 0]) == 1
    assert h.eval([0, 1, 0]) == 0
    assert np.array_equal(h.eval_batch([[1, 0, 0], [0, 1, 0]]), [1, 0])


def test_halfspace_json_roundtrip():
    h = Halfspace([1, -2], 0)
    h2 = Halfspace.from_json(h.to_json())
    assert np.array_equal(h2.w, h.w) and h2.theta == h.theta


def test_generalized_halfspace_eval_and_canonicalize():
    g = GeneralizedHalfspace(np.array([[0.0, 0.5], [0.25, -0.25]]), 0.5)
    assert g.eval([1, 0]) == 1
    assert g.eval([1, 1]) == 0
    ih = g.canonicalize(scale_bits=4)
    # dyadic entries at 4 bits are represented exactly
    assert np.array_equal(ih.g, [[0, 8], [4, -4]])
    assert ih.theta == 8
    xs = np.array(list(itertools.product(range(2), repeat=2)))
    assert np.array_equal(ih.eval_batch(xs), g.eval_batch(xs))


def test_modular_test_normalization():
    t = ModularTest([7, -1], 5, frozenset({6, -1}))
    assert np.array_equal(t.a, [2, 4])
    assert t.S == frozenset({1, 4})
    t2 = ModularTest.from_json(t.to_json())
    assert np.array_equal(t2.a, t.a) and (t2.M, t2.S) == (t.M, t.S)


def test_modular_test_invalid_modulus():
    with pytest.raises(ValueError):
        ModularTest([1], 1, frozenset({0}))


def test_combinatorial_shape_eval():
    c = CombinatorialShape(np.array([[0, 1], [1, 0]]),
                           np.array([0, 1, 0]))
    assert c.eval([1, 0]) == 0  # sum = 2
    assert c.eval([1, 1]) == 1  # sum = 1
    assert np.array_equal(c.eval_batch([[1, 0], [1, 1]]), [0, 1])


def test_combinatorial_shape_validation():
    with pytest.raises(ValueError):
        CombinatorialShape(np.array([[0, 2]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        CombinatorialShape(np.array([[0, 1]]), np.array([0, 1, 1]))


def test_rectangle_shape():
    r = rectangle_shape([{0}, {0, 1}], m=2)
    assert r.eval([0, 1]) == 1
    assert r.eval([1, 0]) == 0


# ---------------------------------------------------------------------------
# error measurements with an exactly uniform generator


def test_halfspace_error_uniform_stub_is_zero():
    g = UniformStub(2, 6)
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = Halfspace(rng.integers(-5, 6, 6), int(rng.integers(-10, 11)))
        res = halfspace_error(g, h, EnumerateMode())
        assert res.err <= 1e-12
        assert res.uniform_prob == pytest.approx(
            brute_prob(6, 2, h.eval), abs=1e-12)


def test_halfspace_error_biased_generator_detected():
    # constant-zero generator: error is |[0 >= theta] - p_unif|
    class Zero(UniformStub):
        def generate_batch(self, seeds):
            return np.zeros((len(seeds), self.n), dtype=np.int64)

    g = Zero(2, 4)
    g.exactly_uniform = False
    h = Halfspace([1, 1, 1, 1], 2)
    res = halfspace_error(g, h, EnumerateMode())
    assert res.generator_prob == pytest.approx(0.0)
    assert res.err == pytest.approx(res.uniform_prob)


def test_halfspace_error_dimension_checks():
    with pytest.raises(ValueError):
        halfspace_error(UniformStub(3, 4), Halfspace([1] * 4, 0),
                        EnumerateMode())
    with pytest.raises(ValueError):
        halfspace_error(UniformStub(2, 4), Halfspace([1] * 5, 0),
                        EnumerateMode())


def test_halfspace_error_sample_mode_consistent():
    g = KWiseGenerator(2, 8, 2)
    h = Halfspace([3, -2, 1, 1, -1, 2, -3, 1], 1)
    exact = halfspace_error(g, h, EnumerateMode())
    approx = halfspace_error(g, h, SampleMode(40000, 1))
    assert abs(approx.generator_prob - exact.generator_prob) <= \
        4 * max(approx.std_err, 1e-4)


def test_gen_halfspace_error_uniform_stub():
    g = UniformStub(3, 4)
    rng = np.random.default_rng(1)
    tables = rng.random((4, 3)) - 0.5
    gh = GeneralizedHalfspace(tables, 0.1)
    res = gen_halfspace_error(g, gh, EnumerateMode())
    assert res.err <= 1e-12
    # the oracle's uniform probability must match brute force on the
    # canonicalized instance
    ih = gh.canonicalize(12)
    direct = brute_prob(4, 3, lambda x: int(
        sum(ih.g[j, x[j]] for j in range(4)) >= ih.theta))
    assert res.uniform_prob == pytest.approx(direct, abs=1e-12)


def test_gen_halfspace_window_cap():
    gh = GeneralizedHalfspace(np.array([[0.0, 1.0]]), 0.5)
    with pytest.raises(WindowCapError):
        gen_halfspace_error(UniformStub(2, 1), gh, EnumerateMode(),
                            window_cap=100, scale_bits=20)


def test_modular_pmf_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        M = int(rng.integers(2, 7))
        a = rng.integers(-5, 6, n)
        t = ModularTest(a, M, frozenset({0}))
        pmf = modular_pmf(t, 2)
        for r in range(M):
            direct = brute_prob(n, 2, lambda x: int(
                sum(int(ai) * xi for ai, xi in zip(a, x)) % M == r))
            assert pmf[r] == pytest.approx(direct, abs=1e-12)


def test_modular_error_uniform_stub_zero():
    t = ModularTest([1, 2, 3, 4], 5, frozenset({0, 2}))
    res = modular_error(UniformStub(2, 4), t, EnumerateMode())
    assert res.err <= 1e-12


def test_modular_error_sample_mode():
    t = ModularTest([1, 2, 3, 4, 5, 6], 5, frozenset({0}))
    g = KWiseGenerator(2, 6, 2)
    exact = modular_error(g, t, EnumerateMode())
    approx = modular_error(g, t, SampleMode(40000, 2))
    assert abs(approx.err - exact.err) <= 4 * approx.std_err + 1e-3


def test_comb_shape_pmf_and_error():
    rng = np.random.default_rng(3)
    g = UniformStub(3, 4)
    tables = rng.integers(0, 2, size=(4, 3))
    h = rng.integers(0, 2, size=5)
    c = CombinatorialShape(tables, h)
    pmf = comb_shape_pmf(c)
    for s in range(5):
        direct = brute_prob(4, 3, lambda x: int(
            sum(tables[j, x[j]] for j in range(4)) == s))
        assert pmf.prob(s) == pytest.approx(direct, abs=1e-12)
    res = comb_shape_error(g, c, EnumerateMode())
    assert res.err <= 1e-12


def test_comb_shape_error_composed_generator():
    g = build_generator(2, 8, 0.1)  # exactly uniform instance
    c = rectangle_shape([{0}] * 8, m=2)
    res = comb_shape_error(g, c, EnumerateMode())
    assert res.err <= 1e-10
    assert res.uniform_prob == pytest.approx(2.0 ** -8)


# ---------------------------------------------------------------------------
# derandomized sampler


def test_quantize_pmf_exact_total():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.random(int(rng.integers(2, 9)))
        p /= p.sum()
        bits = int(rng.integers(1, 12))
        w = quantize_pmf(p, bits)
        assert int(w.sum()) == 1 << bits
        assert np.abs(w / (1 << bits) - p).max() <= 1.0 / (1 << bits)


def test_quantize_pmf_rejects_non_pmf():
    with pytest.raises(ValueError):
        quantize_pmf(np.array([0.5, 0.4]), 4)


def make_sampler(pmfs, eps):
    pmfs = np.asarray(pmfs, dtype=float)
    n, m = pmfs.shape
    r_x = max(1, math.ceil(math.log2(m * n / eps)))
    return ChernoffSampler(pmfs, eps, UniformStub(1 << r_x, n))


def test_chernoff_sampler_marginals_exact():
    # with a uniform index generator every output marginal equals the
    # quantized pmf exactly
    pmfs = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
    s = make_sampler(pmfs, 0.25)
    idx = np.arange(1 << s.r_x, dtype=np.int64)
    grid = np.stack(np.meshgrid(idx, idx, indexing="ij"),
                    axis=-1).reshape(-1, 2)
    out = s.map_batch(grid)
    qp = s.quantized_pmfs()
    for i in range(2):
        counts = np.bincount(out[:, i], minlength=3) / len(out)
        assert np.allclose(counts, qp[i], atol=1e-12)


def map_batch_reference(s, z):
    """Per-column inverse-CDF lookup, one searchsorted per coordinate."""
    z = np.asarray(z, dtype=np.int64)
    out = np.empty_like(z)
    for i in range(s.n):
        out[:, i] = np.searchsorted(s.cuts[i], z[:, i], side="right")
    return out


def test_chernoff_map_batch_matches_per_column_reference():
    # zero-weight symbols give duplicate cuts, also at both ends of a row
    # (a row's first cut 0 meets the previous row's last cut 2^r_x)
    pmfs = np.array([[0.0, 0.5, 0.0, 0.5, 0.0],
                     [0.0, 0.0, 0.3, 0.7, 0.0],
                     [1.0, 0.0, 0.0, 0.0, 0.0],
                     [0.2, 0.2, 0.2, 0.2, 0.2],
                     [0.0, 0.0, 0.0, 0.0, 1.0]])
    s = make_sampler(pmfs, 0.25)
    assert np.any(np.diff(s.cuts, axis=1) == 0)
    top = (1 << s.r_x) - 1
    # z = 0, z = 2^r_x - 1, and z equal to every cut below 2^r_x
    cut_vals = np.unique(np.clip(s.cuts, 0, top))
    special = np.concatenate([[0, top], cut_vals, np.maximum(cut_vals - 1, 0)])
    rng = np.random.default_rng(21)
    z = np.concatenate([
        np.repeat(special[:, None], s.n, axis=1),
        np.stack([rng.permutation(special) for _ in range(s.n)], axis=1),
        rng.integers(0, top + 1, size=(500, s.n))])
    got = s.map_batch(z)
    assert got.dtype == np.int64
    assert np.array_equal(got, map_batch_reference(s, z))
    # no symbol of zero weight is ever produced
    assert np.all(s.weights[np.arange(s.n), got] > 0)


def test_chernoff_sampler_generator_mismatch():
    with pytest.raises(ValueError):
        ChernoffSampler(np.array([[0.5, 0.5]]), 0.25, UniformStub(2, 1))


def test_chernoff_sample_deterministic():
    s = make_sampler(np.array([[0.5, 0.5], [0.3, 0.7]]), 0.25)
    assert np.array_equal(s.sample(9), s.sample(9))


def test_chernoff_tail_check_fair_coins():
    # n fair +-1 coins: the deviation bound must hold with margin
    n = 32
    pmfs = np.full((n, 2), 0.5)
    s = make_sampler(pmfs, 0.05)
    g_tables = np.tile([-1.0, 1.0], (n, 1))
    res = chernoff_tail_check(s, g_tables, t=2 * math.sqrt(n), trials=20000)
    assert res.passed
    assert res.empirical <= res.bound + 3 * res.std_err


def test_chernoff_tail_check_validation():
    s = make_sampler(np.array([[0.5, 0.5]]), 0.25)
    with pytest.raises(ValueError):
        chernoff_tail_check(s, np.array([[0.0, 2.0]]), 1.0, 100)
