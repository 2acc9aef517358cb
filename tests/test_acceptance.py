"""Acceptance suite: the twelve package-level guarantees, each measured
against an exact oracle (full enumeration or exact convolution) wherever
the instance is small enough, with Monte-Carlo 3-sigma slack elsewhere."""

import itertools
import math
import pathlib

import numpy as np
import pytest

from fourierprg.apps import (ChernoffSampler, Halfspace, ModularTest,
                             chernoff_tail_check, halfspace_error,
                             modular_error)
from fourierprg.compose import build_generator
from fourierprg.core import KWiseGenerator
from fourierprg.families import KWiseFamily, SmallBiasFamily
from fourierprg.fields import gf2
from fourierprg.metrics import IntPMF, fourier_lemma_check
from fourierprg.robp import ROBP, inw_for_robp
from fourierprg.shapes import (EnumerateMode, fooling_error, random_shape,
                               scale_toward_mean, tvar, uniform_expectation)

REPO = pathlib.Path(__file__).resolve().parent.parent


def marginal_counts(samples, coords, q):
    code = np.zeros(len(samples), dtype=np.int64)
    for c in coords:
        code = code * q + samples[:, c]
    return np.bincount(code, minlength=q ** len(coords))


def test_01_kwise_marginals_exactly_uniform():
    for q, n, kmax in ((8, 8, 3), (16, 16, 2)):
        for k in range(1, kmax + 1):
            fam = KWiseFamily(q, n, k, q)
            assert fam.field is gf2(q.bit_length() - 1)
            samples = fam.sample_batch(
                np.arange(1 << fam.seed_bits, dtype=np.int64))
            expected = (1 << fam.seed_bits) // q ** k
            for coords in itertools.combinations(range(n), k):
                assert np.all(
                    marginal_counts(samples, coords, q) == expected)


def test_02_small_bias_exact_bound():
    fam = SmallBiasFamily(16, 1 / 8)
    bits = fam.sample_batch(np.arange(1 << fam.seed_bits, dtype=np.int64))
    packed = bits @ (1 << np.arange(fam.n - 1, -1, -1, dtype=np.int64))
    counts = np.bincount(packed, minlength=1 << 16).astype(float)
    counts /= counts.sum()
    h = counts.copy()
    step = 1
    while step < len(h):
        for lo in range(0, len(h), 2 * step):
            a = h[lo:lo + step].copy()
            b = h[lo + step:lo + 2 * step].copy()
            h[lo:lo + step] = a + b
            h[lo + step:lo + 2 * step] = a - b
        step *= 2
    assert np.abs(h[1:]).max() <= 1 / 8 + 1e-12


def test_03_variance_bound_thousand_shapes():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(2, 6))
        f = random_shape(rng, n, m)
        assert abs(uniform_expectation(f)) <= math.exp(-tvar(f) / 2) + 1e-10


def test_04_kwise_discrepancy_scaling():
    # k = 4 fixed; shrinking all coordinate variances 100x must shrink
    # the exact fooling error at least 10x
    g = KWiseGenerator(2, 12, 4)
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(6, 13))
        f = random_shape(rng, 12, 2) if n == 12 else None
        if f is None:
            # embed an n-coordinate shape into 12 coordinates
            t = np.ones((12, 2), dtype=complex)
            t[:n] = random_shape(rng, n, 2).table
            from fourierprg.shapes import FourierShape
            f = FourierShape(t)
        base, _ = fooling_error(f, g, EnumerateMode())
        if base < 1e-7:
            continue
        scaled, _ = fooling_error(scale_toward_mean(f, 0.1), g,
                                  EnumerateMode())
        assert scaled <= base / 10 + 1e-12
        checked += 1
    assert checked >= 30


def test_05_subsampling_success_probability():
    # exact success probability over the whole affine permutation family
    # of [256]: the selected dyadic bucket retains Theta(1) squared norm.
    # Entries are capped at 1/4 so that the pairwise-independence variance
    # bound (Var <= max_i v_i^2 <= 1/16) actually yields the 7/16
    # guarantee; unit-height spikes escape it (measured 0.4235 < 7/16).
    n = 256
    tbits = 8
    cap = 0.25
    field = gf2(tbits)
    rng = np.random.default_rng(102)
    a_all = np.repeat(np.arange(1, n, dtype=np.int64), n)
    b_all = np.tile(np.arange(n, dtype=np.int64), n - 1)
    for _ in range(50):
        # norm^2 target uniform on a log scale in [1, n * cap^2]
        s = float(2 ** rng.uniform(0, 4))
        full = int(s / cap ** 2)
        v = np.zeros(n)
        pos = rng.choice(n, size=full + 1, replace=False)
        v[pos[:full]] = cap
        v[pos[full]] = math.sqrt(s - full * cap ** 2)
        norm2 = float(np.sum(v * v))
        assert np.abs(v).max() <= cap + 1e-12
        assert 1 <= norm2 <= n
        t = max(0, min(tbits - 1, int(math.floor(math.log2(n / norm2)))))
        assert n / 2 ** (t + 1) <= norm2 + 1e-9
        interval = np.arange(1 << t, 1 << (t + 1), dtype=np.int64)
        coords = field.mul_vec(a_all[:, None], interval[None, :]) \
            ^ b_all[:, None]
        mass = (v * v)[coords].sum(axis=1)
        success = np.mean((mass >= 1 / 6 - 1e-12) & (mass <= 4 / 3 + 1e-12))
        assert success >= 7 / 16 - 0.01


def test_06_end_to_end_fooling_shapes():
    g = build_generator(2, 8, 0.1)
    rng = np.random.default_rng(103)
    errs = []
    for _ in range(200):
        f = random_shape(rng, 8, 2)
        err, _ = fooling_error(f, g, EnumerateMode())
        errs.append(err)
    errs = np.asarray(errs)
    assert np.mean(errs <= 0.1) >= 0.95
    assert errs.max() <= 0.2


def test_07_halfspaces():
    n, eps = 12, 0.05
    g = build_generator(2, n, eps)
    assert g.seed_bits <= 26  # enumerate mode throughout
    rng = np.random.default_rng(104)
    for _ in range(100):
        w = rng.integers(-n, n + 1, size=n)
        bound = int(np.abs(w).sum())
        theta = int(rng.integers(-bound, bound + 1)) if bound else 0
        res = halfspace_error(g, Halfspace(w, theta), EnumerateMode())
        assert res.err <= eps


def test_08_modular_tests():
    n, eps = 10, 0.05
    g = build_generator(2, n, eps)
    rng = np.random.default_rng(105)
    count = 0
    for M in (3, 5, 6):
        for _ in range(17):
            a = rng.integers(0, M, size=n)
            size = int(rng.integers(1, M))
            S = frozenset(int(s) for s in
                          rng.choice(M, size=size, replace=False))
            res = modular_error(g, ModularTest(a, M, S), EnumerateMode())
            assert res.err <= eps
            count += 1
    assert count >= 50


def test_09_chernoff_tail():
    n, eps = 64, 0.05
    r_x = max(1, math.ceil(math.log2(2 * n / eps)))
    g = build_generator(1 << r_x, n, eps)
    s = ChernoffSampler(np.full((n, 2), 0.5), eps, g)
    tables = np.tile([-1.0, 1.0], (n, 1))
    for t in (8.0, 16.0, 24.0):
        res = chernoff_tail_check(s, tables, t, trials=1_000_000,
                                  rng_seed=int(t))
        assert res.passed, res
        assert res.empirical <= res.bound + 3 * res.std_err


def test_10_metric_lemmas_audit():
    rng = np.random.default_rng(106)
    for _ in range(500):
        pmfs = []
        for _ in range(2):
            lo = int(rng.integers(-256, 1))
            width = int(rng.integers(1, min(100, 257 - lo)))
            p = rng.random(width) + 1e-3
            pmfs.append(IntPMF(lo, p / p.sum()))
        res = fourier_lemma_check(pmfs[0], pmfs[1], eta=1e-2)
        assert res["pass"], res


def test_11_inw_fools_robps():
    S, D, T, delta = 4, 2, 4, 0.1
    gen = inw_for_robp(S, D, T, delta)
    seeds = np.arange(1 << gen.seed_bits, dtype=np.int64)
    blocks = gen.expand_batch(seeds)
    codes = blocks @ ((1 << D) ** np.arange(T - 1, -1, -1))
    pmf = np.bincount(codes, minlength=(1 << D) ** T) / len(seeds)
    all_inputs = np.array(
        [[(c >> (D * (T - 1 - t))) & ((1 << D) - 1) for t in range(T)]
         for c in range((1 << D) ** T)])
    rng = np.random.default_rng(107)
    for _ in range(50):
        width = 1 << S
        trans = rng.integers(0, width, size=(T, width, 1 << D))
        mags = rng.random(width)
        phases = rng.random(width) * 2 * math.pi
        p = ROBP(width, D, T, trans, mags * np.exp(1j * phases))
        vals = p.eval_batch(all_inputs)
        assert abs(pmf @ vals - vals.mean()) <= delta


def test_12_reproducibility_golden_file(tmp_path, run_python):
    campaign = REPO / "campaigns" / "golden.json"
    golden = REPO / "campaigns" / "golden.expected.jsonl"
    outputs = []
    for i in range(2):
        out = tmp_path / f"run{i}.jsonl"
        proc = run_python("-m", "fourierprg.cli", "verify",
                          "--campaign", str(campaign), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == golden.read_bytes()
