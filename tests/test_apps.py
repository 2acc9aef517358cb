"""Application reductions against exact brute-force oracles."""

import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg import apps
from fourierprg.apps import (ChernoffSampler, CombinatorialShape,
                             GeneralizedHalfspace, Halfspace, ModularTest,
                             chernoff_tail_check, comb_shape_error,
                             gen_halfspace_error, halfspace_error,
                             modular_error, quantize_pmf)
from fourierprg.bitseq import as_bits
from fourierprg.compose import build_generator
from fourierprg.core import Generator, KWiseGenerator, UniformStub
from fourierprg.metrics import WindowCapError, linear_pmf
from fourierprg.shapes import (EnumerateMode, SampleMode, eval_shape_batch,
                               random_shape)
from test_estimator import chernoff_tail_check_reference


def brute_prob(n, m, predicate):
    hits = 0
    for x in itertools.product(range(m), repeat=n):
        hits += predicate(x)
    return hits / m ** n


def brute_seed_prob(g, predicate):
    """Pr over all 2^seed_bits seeds that predicate(g(seed)) holds."""
    total = 1 << g.seed_bits
    return sum(predicate(g.generate(s)) for s in range(total)) / total


class Fixed(Generator):
    """Every seed gives the same row; zero seed bits. A test's error
    against it reads the test's value at that row back as
    generator_prob."""

    seed_bits = 0

    def __init__(self, m, row):
        self.m, self.row = m, np.asarray(row, dtype=np.int64)
        self.n = len(self.row)

    def generate_batch(self, seeds):
        return np.tile(self.row, (len(as_bits(seeds, 0)), 1))


def value_at(error, m, test, row):
    """The test's 0/1 value at one input, as the error function sees it."""
    p = error(Fixed(m, row), test, EnumerateMode()).generator_prob
    assert p in (0.0, 1.0)
    return int(p)


# ---------------------------------------------------------------------------
# test families


def rectangle_shape(sets, m=2):
    """Combinatorial rectangle: indicator that every x_j lies in A_j."""
    g = np.zeros((len(sets), m), dtype=np.int64)
    for j, A in enumerate(sets):
        g[j, list(A)] = 1
    h = np.zeros(len(sets) + 1, dtype=np.int64)
    h[-1] = 1
    return CombinatorialShape(g, h)


def test_halfspace_eval():
    h = Halfspace([2, -1, 3], 2)
    assert [value_at(halfspace_error, 2, h, x)
            for x in ([1, 0, 0], [0, 1, 0])] == [1, 0]


def test_generalized_halfspace_eval_and_canonicalize():
    g = GeneralizedHalfspace(np.array([[0.0, 0.5], [0.25, -0.25]]), 0.5)
    assert [value_at(gen_halfspace_error, 2, g, x)
            for x in ([1, 0], [1, 1])] == [1, 0]
    tables, theta = g.canonicalize(scale_bits=4)
    # dyadic entries at 4 bits are represented exactly
    assert np.array_equal(tables, [[0, 8], [4, -4]])
    assert theta == 8
    for x in itertools.product(range(2), repeat=2):
        assert value_at(gen_halfspace_error, 2, g, x) == int(
            sum(g.g[j, x[j]] for j in range(2)) >= g.theta)


def test_modular_test_normalization():
    t = ModularTest([7, -1], 5, frozenset({6, -1}))
    assert np.array_equal(t.a, [2, 4])
    assert t.S == frozenset({1, 4})


@pytest.mark.parametrize("make,name", [
    (lambda v: linear_pmf(v, 2).probs, "w[{}]"),
    (lambda v: Halfspace(v, 0).w, "w[{}]"),
    (lambda v: ModularTest(v, 5, frozenset({0})).a, "a[{}]"),
    # one threshold per halfspace; the residues in the order given
    (lambda v: [Halfspace([1], t).theta for t in v], "theta"),
    (lambda v: ModularTest([1], 5, v).S, "S[{}]"),
], ids=["linear_pmf", "Halfspace", "ModularTest", "Halfspace.theta",
        "ModularTest.S"])
def test_non_integral_weights_refused(make, name):
    # a cast to int64 would read 0.5 as 0 and 1.5 as 1
    with pytest.raises(ValueError, match=re.escape(
            f"{name.format(1)} = 1.5 is not a whole")):
        make([2.0, 1.5])
    with pytest.raises(ValueError, match=re.escape(
            f"{name.format(0)} = 0.5 is not a whole")):
        make(np.array([0.5, 0.5]))
    assert np.array_equal(make([2.0, 3.0]), make([2, 3]))


def test_modular_test_invalid_modulus():
    with pytest.raises(ValueError):
        ModularTest([1], 1, frozenset({0}))


def test_combinatorial_shape_eval():
    c = CombinatorialShape(np.array([[0, 1], [1, 0]]),
                           np.array([0, 1, 0]))
    # sums 2 and 1
    assert [value_at(comb_shape_error, 2, c, x)
            for x in ([1, 0], [1, 1])] == [0, 1]


def test_combinatorial_shape_validation():
    with pytest.raises(ValueError):
        CombinatorialShape(np.array([[0, 2]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        CombinatorialShape(np.array([[0, 1]]), np.array([0, 1, 1]))


def test_rectangle_shape():
    r = rectangle_shape([{0}, {0, 1}], m=2)
    assert [value_at(comb_shape_error, 2, r, x)
            for x in ([0, 1], [1, 0])] == [1, 0]


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
            brute_prob(6, 2, lambda x: np.dot(h.w, x) >= h.theta), abs=1e-12)


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
    for m in (2, 3):
        with pytest.raises(ValueError, match="disagree"):
            halfspace_error(UniformStub(m, 4), Halfspace([1] * 5, 0),
                            EnumerateMode())


def test_halfspace_error_over_three_symbols_matches_brute_force():
    # UniformStub(3, 4) reads 8 seed bits mod 81, so it is not uniform:
    # both sides must match brute force over [3]^4 and over the 256 seeds
    g = UniformStub(3, 4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.integers(-4, 5, 4)
        h = Halfspace(w, int(rng.integers(-12, 13)))

        def pred(x):
            return int(np.dot(w, x) >= h.theta)

        exact = halfspace_error(g, h, EnumerateMode())
        sampled = halfspace_error(g, h, SampleMode(3000, 1))
        want = brute_prob(4, 3, pred)
        assert exact.uniform_prob == pytest.approx(want, abs=1e-12)
        assert sampled.uniform_prob == pytest.approx(want, abs=1e-12)
        assert exact.generator_prob == pytest.approx(
            brute_seed_prob(g, pred), abs=1e-12)


def test_halfspace_error_sample_mode_consistent():
    g = KWiseGenerator(2, 8, 2)
    h = Halfspace([3, -2, 1, 1, -1, 2, -3, 1], 1)
    exact = halfspace_error(g, h, EnumerateMode())
    approx = halfspace_error(g, h, SampleMode(40000, 1))
    assert abs(approx.generator_prob - exact.generator_prob) <= \
        4 * max(approx.std_err, 1e-4)


def test_gen_halfspace_error_uniform_stub():
    # UniformStub(3, 4) reads 8 seed bits mod 81, so it is not uniform:
    # both sides of the error must match brute force over [3]^4 and over
    # the 256 seeds
    g = UniformStub(3, 4)
    rng = np.random.default_rng(1)
    tables = rng.random((4, 3)) - 0.5
    gh = GeneralizedHalfspace(tables, 0.1)
    res = gen_halfspace_error(g, gh, EnumerateMode())
    itables, theta = gh.canonicalize(12)

    def pred(x):
        return int(sum(itables[j, x[j]] for j in range(4)) >= theta)

    direct = brute_prob(4, 3, pred)
    assert res.uniform_prob == pytest.approx(direct, abs=1e-12)
    gen = brute_seed_prob(g, pred)
    assert res.generator_prob == pytest.approx(gen, abs=1e-12)
    assert res.err == pytest.approx(abs(gen - direct), abs=1e-12)


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
        pmf = modular_error(UniformStub(2, n), t).uniform_pmf
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
    for s in range(5):
        # h = 1 at s alone: the uniform side is the pmf of the sum at s
        point = comb_shape_error(g, CombinatorialShape(tables, np.eye(5)[s]),
                                 EnumerateMode())
        direct = brute_prob(4, 3, lambda x: int(
            sum(tables[j, x[j]] for j in range(4)) == s))
        assert point.uniform_prob == pytest.approx(direct, abs=1e-12)
    # UniformStub(3, 4) is not uniform (8 seed bits read mod 81)
    res = comb_shape_error(g, c, EnumerateMode())
    gen = brute_seed_prob(g, lambda x: int(
        h[sum(tables[j, x[j]] for j in range(4))]))
    assert res.err == pytest.approx(abs(gen - res.uniform_prob), abs=1e-12)
    assert res.generator_prob == pytest.approx(gen, abs=1e-12)


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
    assert np.array_equal(s.sample_batch([9]), s.sample_batch([9]))


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


@st.composite
def sparse_pmfs(draw):
    """(n, m) pmfs, n <= 12 and m <= 6, with zero entries, also at both
    ends of a row."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        w = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        if draw(st.booleans()):
            w[0] = w[-1] = 0
        if sum(w) == 0:
            w[draw(st.integers(0, m - 1))] = 1
        rows.append(w)
    pmfs = np.array(rows, dtype=float)
    return pmfs / pmfs.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=None)
def composed_index_generator(r_x, n, eps):
    return build_generator(1 << r_x, n, eps)


@settings(max_examples=60, deadline=None)
@given(pmfs=sparse_pmfs(), eps=st.sampled_from([0.5, 0.25, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chernoff_table_matches_search_property(pmfs, eps, seed):
    s = make_sampler(pmfs, eps)
    rng = np.random.default_rng(seed)
    top = (1 << s.r_x) - 1
    assert s.table.shape == (s.n, top + 1) and s.table.dtype == np.uint8
    # row i of the table is h_i: symbol j appears weights[i, j] times
    for i in range(s.n):
        assert np.array_equal(np.bincount(s.table[i], minlength=s.m),
                              s.weights[i])
    # z = 0, z = 2^r_x - 1, every cut and every cut - 1, then random z
    cuts = s.cuts.ravel()
    special = np.unique(np.clip(np.concatenate([[0, top], cuts, cuts - 1]),
                                0, top))
    z = np.concatenate([np.repeat(special[:, None], s.n, axis=1),
                        rng.integers(0, top + 1, size=(200, s.n))])
    got = s.map_batch(z)
    assert got.dtype == np.int64
    assert np.array_equal(got, map_batch_reference(s, z))
    # the fused tail statistic against map_batch then a 2-D gather, on a
    # composed index generator drawing full-width random seeds
    s = ChernoffSampler(pmfs, eps, composed_index_generator(s.r_x, s.n, eps))
    tables = rng.random((s.n, s.m)) * 2 - 1
    for t in (0.5, math.sqrt(s.n)):
        rng_seed = int(rng.integers(1 << 31))
        assert (chernoff_tail_check(s, tables, t, 3000, rng_seed)
                == chernoff_tail_check_reference(s, tables, t, 3000,
                                                 rng_seed))


def test_chernoff_tail_check_fails_one_wise_indices():
    # negative control: a 1-wise family gives every coordinate the same
    # index, so n fair +-1 coins all agree and |sum| = n >= t every time;
    # pairwise and composed index generators over the same alphabet pass
    n, eps, t = 64, 0.05, 16.0
    pmfs = np.full((n, 2), 0.5)
    tables = np.tile([-1.0, 1.0], (n, 1))
    res = chernoff_tail_check(
        ChernoffSampler(pmfs, eps, KWiseGenerator(4096, n, 1)), tables, t,
        200_000)
    assert res.empirical == 1.0 and res.bound == pytest.approx(0.32, abs=0.01)
    assert not res.passed
    for g in (KWiseGenerator(4096, n, 2), build_generator(4096, n, eps)):
        res = chernoff_tail_check(ChernoffSampler(pmfs, eps, g), tables, t,
                                  200_000)
        assert res.passed, res


class _Layout:
    """g with its output batches copied into one memory layout."""

    def __init__(self, g, order: str):
        self.g, self.order = g, order
        self.m, self.n, self.seed_bits = g.m, g.n, g.seed_bits

    def generate_batch(self, seeds):
        return np.asarray(self.g.generate_batch(seeds), order=self.order)


def test_float_consumers_round_alike_in_c_and_fortran_order():
    # sums of tables of tenths round by layout under a pairwise sum along
    # the contiguous axis: it puts 4 of these 4000 rows on different
    # sides of 4.8 in the two layouts
    rng = np.random.default_rng(15)
    n, m = 12, 4
    tables = rng.integers(0, 11, size=(n, m)) / 10
    xs = rng.integers(0, m, size=(4000, n))
    c, f = np.ascontiguousarray(xs), np.asfortranarray(xs)
    in_order = functools.reduce(
        lambda acc, j: acc + tables[j][xs[:, j]], range(1, n),
        tables[0][xs[:, 0]])
    for layout in (c, f):
        assert apps._table_sums(tables, layout).tobytes() == \
            in_order.tobytes()
    shape = random_shape(rng, n, m)
    assert eval_shape_batch(shape, c).tobytes() == \
        eval_shape_batch(shape, f).tobytes()
    # the Chernoff statistic, on the benchmark's index generator
    g = build_generator(4096, 64, 0.05)
    pmfs = rng.random((64, 2)) + 0.1
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    g_tables = rng.integers(-10, 11, size=(64, 2)) / 10
    checks = [chernoff_tail_check(ChernoffSampler(pmfs, 0.05, _Layout(g, o)),
                                  g_tables, 1.0, 5000, rng_seed=3)
              for o in "CF"]
    assert checks[0] == checks[1]
    z = g.generate_batch(np.arange(5000))
    values = ChernoffSampler(pmfs, 0.05, g)._rows(g_tables)
    assert apps._table_sums(values, np.ascontiguousarray(z)).tobytes() == \
        apps._table_sums(values, np.asfortranarray(z)).tobytes()
