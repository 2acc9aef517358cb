"""The shared estimator `shapes.expectation` against the per-test loops it
replaced.

The reference functions below are the earlier implementations: four
Monte-Carlo loops (shapes, indicator tests, modular tests, Chernoff tail)
and three enumeration paths (the shapes pmf path, the shapes seed loop and
the output-pmf seed loop). The new code must reproduce them field for
field, so every report stays byte-identical.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourierprg.apps import (ChernoffSampler, CombinatorialShape,
                             ErrorResult, GeneralizedHalfspace, Halfspace,
                             ModularResult, ModularTest, TailCheck,
                             chernoff_tail_check, comb_shape_error,
                             comb_shape_pmf, gen_halfspace_error,
                             halfspace_error, modular_error, modular_pmf)
from fourierprg.compose import build_generator
from fourierprg.core import (KWiseGenerator, SmallBiasLift, UniformStub,
                             sample_seeds)
from fourierprg.metrics import IntPMF, linear_pmf
from fourierprg.shapes import (EmpiricalResult, EnumerateMode, SampleMode,
                               empirical_expectation, eval_shape_batch,
                               expectation, linear_shape, random_shape,
                               values_on_all_patterns)

# ---------------------------------------------------------------------------
# reference implementations


def output_pmf_reference(g, pattern_cap=1 << 22, seed_cap=26):
    npat = g.m ** g.n
    if npat > pattern_cap:
        raise ValueError(f"{npat} patterns exceed cap {pattern_cap}")
    if g.exactly_uniform:
        return np.full(npat, 1.0 / npat)
    if g.seed_bits > seed_cap:
        raise ValueError("seed length exceeds enumeration cap")
    counts = np.zeros(npat, dtype=np.int64)
    total = 1 << g.seed_bits
    chunk = 1 << 18
    weights = g.m ** np.arange(g.n - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, chunk):
        seeds = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        codes = np.asarray(g.generate_batch(seeds), dtype=np.int64) @ weights
        counts += np.bincount(codes, minlength=npat)
    return counts / total


def all_patterns_reference(m, n):
    idx = np.arange(m ** n, dtype=np.int64)
    out = np.empty((m ** n, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % m
        idx //= m
    return out


def empirical_expectation_reference(f, g, mode, enumerate_cap=26,
                                    pattern_cap=1 << 22):
    if isinstance(mode, EnumerateMode):
        total = 1 << g.seed_bits
        if f.m ** f.n <= pattern_cap:
            pmf = output_pmf_reference(g, pattern_cap, enumerate_cap)
            return EmpiricalResult(complex(pmf @ values_on_all_patterns(f)),
                                   0.0, total)
        if g.seed_bits > enumerate_cap:
            raise ValueError("seed length exceeds enumeration cap")
        acc = 0j
        chunk = 1 << 16
        for lo in range(0, total, chunk):
            seeds = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            acc += eval_shape_batch(f, g.generate_batch(seeds)).sum()
        return EmpiricalResult(acc / total, 0.0, total)
    rng = np.random.default_rng(mode.rng_seed)
    acc = 0j
    acc2 = 0.0
    done = 0
    while done < mode.n_samples:
        batch = min(1 << 15, mode.n_samples - done)
        seeds = sample_seeds(rng, g.seed_bits, batch)
        vals = eval_shape_batch(f, g.generate_batch(seeds))
        acc += vals.sum()
        acc2 += float(np.sum(np.abs(vals) ** 2))
        done += batch
    mean = acc / done
    var = max(acc2 / done - abs(mean) ** 2, 0.0)
    return EmpiricalResult(complex(mean), math.sqrt(var / done), done)


def indicator_error_reference(g, eval_batch, uniform_prob, mode):
    if isinstance(mode, EnumerateMode):
        pmf = output_pmf_reference(g)
        p_gen = float(pmf @ eval_batch(all_patterns_reference(g.m, g.n)))
        return ErrorResult(abs(p_gen - uniform_prob), 0.0, 1 << g.seed_bits,
                           "enumerate", uniform_prob, p_gen)
    rng = np.random.default_rng(mode.rng_seed)
    hits = 0
    done = 0
    while done < mode.n_samples:
        batch = min(1 << 15, mode.n_samples - done)
        seeds = sample_seeds(rng, g.seed_bits, batch)
        hits += int(eval_batch(g.generate_batch(seeds)).sum())
        done += batch
    p_gen = hits / done
    stderr = math.sqrt(max(p_gen * (1 - p_gen), 0.0) / done)
    return ErrorResult(abs(p_gen - uniform_prob), stderr, done, "sample",
                       uniform_prob, p_gen)


def modular_error_reference(g, t, mode):
    unif = modular_pmf(t, g.m)
    if isinstance(mode, EnumerateMode):
        pmf = output_pmf_reference(g)
        residues = (all_patterns_reference(g.m, g.n) @ t.a) % t.M
        gen = np.bincount(residues, weights=pmf, minlength=t.M)
        return ModularResult(float(0.5 * np.abs(gen - unif).sum()), 0.0,
                             1 << g.seed_bits, "enumerate", gen, unif)
    rng = np.random.default_rng(mode.rng_seed)
    counts = np.zeros(t.M, dtype=np.int64)
    done = 0
    while done < mode.n_samples:
        batch = min(1 << 15, mode.n_samples - done)
        seeds = sample_seeds(rng, g.seed_bits, batch)
        r = (g.generate_batch(seeds) @ t.a) % t.M
        counts += np.bincount(r, minlength=t.M)
        done += batch
    gen = counts / done
    return ModularResult(float(0.5 * np.abs(gen - unif).sum()),
                         math.sqrt(t.M / (4 * done)), done, "sample", gen,
                         unif)


def chernoff_tail_check_reference(s, g_tables, t, trials, rng_seed=0):
    mean = float((g_tables * s.quantized_pmfs()).sum())
    rng = np.random.default_rng(rng_seed)
    hits = 0
    done = 0
    cols = np.arange(s.n)
    while done < trials:
        batch = min(1 << 15, trials - done)
        seeds = sample_seeds(rng, s.seed_bits, batch)
        y = s.sample_batch(seeds)
        sums = g_tables[cols[None, :], y].sum(axis=1)
        hits += int(np.sum(np.abs(sums - mean) >= t))
        done += batch
    emp = hits / done
    bound = 2 * math.exp(-t * t / (2 * s.n)) + s.eps
    stderr = math.sqrt(max(emp * (1 - emp), 1.0 / done) / done)
    return TailCheck(emp, bound, stderr, done, emp <= bound + 3 * stderr)


# uniform-side probabilities, as the public functions compute them


def halfspace_uniform(h):
    pmf = linear_pmf(h.w, 2)
    return sum(pmf.prob(j) for j in range(h.theta, pmf.hi + 1))


def gen_halfspace_uniform(gh, scale_bits=12):
    ih = gh.canonicalize(scale_bits)
    bases = [IntPMF(int(row.min()), np.bincount(row - row.min()) / gh.m)
             for row in ih.g]
    pmf = linear_pmf(np.ones(gh.n, dtype=np.int64), bases)
    return ih, float(sum(pmf.prob(j)
                         for j in range(max(ih.theta, pmf.lo), pmf.hi + 1)))


def comb_uniform(c):
    pmf = comb_shape_pmf(c)
    return float(sum(pmf.prob(s) * int(c.h[s]) for s in range(c.n + 1)))


def assert_same(got, want):
    """Field-for-field equality of two result dataclasses, exact."""
    assert type(got) is type(want)
    for fld in dataclasses.fields(want):
        a, b = getattr(got, fld.name), getattr(want, fld.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), fld.name
        else:
            assert a == b, fld.name


# ---------------------------------------------------------------------------
# field-for-field equality with the references


GENERATORS = {
    "uniform-stub": lambda: UniformStub(2, 8),
    "kwise": lambda: KWiseGenerator(2, 8, 2),
    "small-bias-lift": lambda: SmallBiasLift(10, 1 / 16),
    "composed": lambda: build_generator(2, 8, 0.1),
}
MODES = [EnumerateMode(), SampleMode(70_000, 5)]


def _instances(n, m, seed):
    rng = np.random.default_rng(seed)
    f = random_shape(rng, n, m)
    w = rng.integers(-n, n + 1, size=n)
    h = Halfspace(w, int(rng.integers(-int(abs(w).sum()),
                                      int(abs(w).sum()) + 1)))
    gh = GeneralizedHalfspace(rng.random((n, m)) * 2 - 1,
                              float(rng.random() - 0.5))
    c = CombinatorialShape(rng.integers(0, 2, size=(n, m)),
                           rng.integers(0, 2, size=n + 1))
    t = ModularTest(rng.integers(0, 5, size=n), 5, frozenset({0, 3}))
    return f, h, gh, c, t


@pytest.mark.parametrize("mode", MODES, ids=["enumerate", "sample"])
@pytest.mark.parametrize("name", list(GENERATORS))
def test_estimator_matches_reference_loops(name, mode):
    g = GENERATORS[name]()
    f, h, gh, c, t = _instances(g.n, g.m, 31)
    assert_same(empirical_expectation(f, g, mode),
                empirical_expectation_reference(f, g, mode))
    assert_same(halfspace_error(g, h, mode),
                indicator_error_reference(g, h.eval_batch,
                                          halfspace_uniform(h), mode))
    ih, p_unif = gen_halfspace_uniform(gh)
    assert_same(gen_halfspace_error(g, gh, mode),
                indicator_error_reference(g, ih.eval_batch, p_unif, mode))
    assert_same(comb_shape_error(g, c, mode),
                indicator_error_reference(g, c.eval_batch, comb_uniform(c),
                                          mode))
    assert_same(modular_error(g, t, mode),
                modular_error_reference(g, t, mode))


@pytest.mark.parametrize("name", list(GENERATORS))
def test_shapes_seed_loop_matches_reference(name):
    # pattern_cap below m^n forces the seed-enumeration branch
    g = GENERATORS[name]()
    f = random_shape(np.random.default_rng(32), g.n, g.m)
    got = empirical_expectation(f, g, EnumerateMode(), pattern_cap=4)
    want = empirical_expectation_reference(f, g, EnumerateMode(),
                                           pattern_cap=4)
    assert_same(got, want)


def test_shapes_seed_loop_across_chunks_matches_reference():
    # 2^18 seeds: the seed branch hands stat 2^16-row chunks, which bounds
    # its memory at large n, and sums them in the reference's order
    g = KWiseGenerator(2, 40, 3)
    assert g.seed_bits == 18
    f = random_shape(np.random.default_rng(33), g.n, g.m)
    assert_same(empirical_expectation(f, g, EnumerateMode()),
                empirical_expectation_reference(f, g, EnumerateMode()))
    rows = []

    def count_rows(xs):
        rows.append(len(xs))
        return np.ones(len(xs))

    assert expectation(g, count_rows, EnumerateMode()).mean == 1
    assert rows == [1 << 16] * 4


@pytest.mark.parametrize("make", [
    lambda: UniformStub(64, 8),
    lambda: KWiseGenerator(64, 8, 2),
    lambda: build_generator(64, 8, 0.25),
], ids=["uniform-stub", "kwise", "composed"])
def test_chernoff_tail_matches_reference(make):
    rng = np.random.default_rng(33)
    pmfs = rng.random((8, 2)) + 0.1
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    tables = rng.random((8, 2)) * 2 - 1
    s = ChernoffSampler(pmfs, 0.25, make())
    for t in (0.5, 2.0 * math.sqrt(8)):
        assert_same(chernoff_tail_check(s, tables, t, 40_000, rng_seed=7),
                    chernoff_tail_check_reference(s, tables, t, 40_000,
                                                  rng_seed=7))


def test_output_pmf_matches_reference():
    for make in GENERATORS.values():
        g = make()
        assert np.array_equal(g.output_pmf(), output_pmf_reference(g))


def test_pattern_matrix_matches_reference():
    for m, n in [(2, 1), (2, 9), (3, 5), (5, 3)]:
        got = np.indices((m,) * n).reshape(n, -1).T
        assert np.array_equal(got, all_patterns_reference(m, n))


@pytest.mark.parametrize("m, n", [(2, 1), (2, 10), (2, 16), (3, 7), (4, 5)])
def test_batch_on_all_patterns_equals_kron_values(m, n):
    # the shapes pmf branch evaluates eval_shape_batch on every pattern,
    # and the pinned golden errors (about 1e-19) need it to equal the kron
    # products bit for bit: both multiply f_0 * ... * f_{n-1} left to right
    rng = np.random.default_rng(1000 * m + n)
    pats = np.indices((m,) * n).reshape(n, -1).T
    for f in (random_shape(rng, n, m),
              linear_shape(rng.integers(-40, 40, n), rng.random(), m)):
        assert np.array_equal(eval_shape_batch(f, pats),
                              values_on_all_patterns(f))


def test_expectation_refusals_and_unknown_mode():
    g = KWiseGenerator(2, 8, 2)
    with pytest.raises(ValueError, match="enumeration cap"):
        expectation(g, lambda xs: xs[:, 0], EnumerateMode(),
                    enumerate_cap=g.seed_bits - 1, pattern_cap=4)
    with pytest.raises(TypeError):
        expectation(g, lambda xs: xs[:, 0], "enumerate")


# ---------------------------------------------------------------------------
# the seed-enumeration branch agrees with the pmf branch


_small_generators = st.one_of(
    st.builds(KWiseGenerator, st.sampled_from([2, 3, 4]),
              st.integers(2, 6), st.integers(1, 3)),
    st.builds(SmallBiasLift, st.integers(2, 9),
              st.sampled_from([1 / 4, 1 / 16])),
    st.builds(lambda n: build_generator(2, n, 0.2), st.integers(2, 8)),
)


@settings(max_examples=40, deadline=None)
@given(g=_small_generators, seed=st.integers(0, 2 ** 32 - 1))
def test_seed_branch_matches_pmf_branch(g, seed):
    assume(g.seed_bits <= 16)
    f, h, gh, c, t = _instances(g.n, g.m, seed)
    exact = EnumerateMode()
    by_seeds = {"pattern_cap": 1}
    for by_pmf, by_seed in [
        (empirical_expectation(f, g, exact),
         empirical_expectation(f, g, exact, **by_seeds)),
        (gen_halfspace_error(g, gh, exact),
         gen_halfspace_error(g, gh, exact, **by_seeds)),
        (comb_shape_error(g, c, exact),
         comb_shape_error(g, c, exact, **by_seeds)),
        (modular_error(g, t, exact),
         modular_error(g, t, exact, **by_seeds)),
    ]:
        for fld in dataclasses.fields(by_pmf):
            a, b = getattr(by_pmf, fld.name), getattr(by_seed, fld.name)
            if isinstance(a, str):
                assert a == b
            else:
                assert np.allclose(a, b, rtol=0, atol=1e-12), fld.name
    if g.m == 2:
        assert halfspace_error(g, h, exact).err == pytest.approx(
            halfspace_error(g, h, exact, **by_seeds).err, abs=1e-12)
    # Chernoff tail indicator over an index generator over [2^r_x]^n
    if g.m & (g.m - 1) == 0:
        rng = np.random.default_rng(seed)
        pmfs = rng.random((g.n, 2)) + 0.1
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        tables = rng.random((g.n, 2)) * 2 - 1
        # eps = 2n/m makes r_x = log2(m)
        s = ChernoffSampler(pmfs, 2 * g.n / g.m, g)
        mean = float((tables * s.quantized_pmfs()).sum())

        def tail(z):
            sums = tables[np.arange(g.n), s.map_batch(z)].sum(axis=1)
            return np.abs(sums - mean) >= 0.5

        assert float(expectation(g, tail, exact).mean) == pytest.approx(
            float(expectation(g, tail, exact, pattern_cap=1).mean),
            abs=1e-12)
