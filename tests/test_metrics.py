"""Integer pmfs, convolution oracle, and the three distances."""

import itertools
import math

import numpy as np
import pytest

from fourierprg import metrics
from fourierprg.core import Refused
from fourierprg.metrics import (IntPMF, WindowCapError, d_ft, d_k, d_tv,
                                fourier_lemma_check, linear_pmf)


def random_pmf(rng, max_radius=20):
    lo = int(rng.integers(-max_radius, 1))
    width = int(rng.integers(1, max_radius - lo + 1))
    p = rng.random(width) + 1e-3
    return IntPMF(lo, p / p.sum())


def point_mass(j):
    return IntPMF(j, np.array([1.0]))


def test_intpmf_validation():
    with pytest.raises(ValueError):
        IntPMF(0, np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        IntPMF(0, np.array([1.5, -0.5]))


def test_intpmf_window_and_prob():
    p = IntPMF(-1, np.array([0.25, 0.5, 0.25]))
    assert p.hi == 1
    assert p.radius == 1
    assert p.prob(0) == 0.5
    assert p.prob(7) == 0.0
    assert np.allclose(p.on_window(-2, 2), [0, 0.25, 0.5, 0.25, 0])
    with pytest.raises(ValueError):
        p.on_window(0, 5)


def test_point_mass_and_uniform():
    assert point_mass(5).prob(5) == 1.0
    u = IntPMF.uniform(2, 5)
    assert np.allclose(u.probs, 0.25)
    with pytest.raises(ValueError):
        IntPMF.uniform(3, 2)


# ---------------------------------------------------------------------------
# exact convolution


def brute_linear_pmf(w, m):
    counts = {}
    for x in itertools.product(range(m), repeat=len(w)):
        s = sum(wi * xi for wi, xi in zip(w, x))
        counts[s] = counts.get(s, 0) + 1
    lo, hi = min(counts), max(counts)
    probs = np.zeros(hi - lo + 1)
    for s, c in counts.items():
        probs[s - lo] = c / m ** len(w)
    return IntPMF(lo, probs)


def test_linear_pmf_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 5))
        w = rng.integers(-4, 5, n)
        p = linear_pmf(w, m)
        q = brute_linear_pmf(list(w), m)
        assert p.lo == q.lo
        assert np.allclose(p.probs, q.probs, atol=1e-12)


def test_linear_pmf_zero_weights_point_mass():
    p = linear_pmf([0, 0, 0], 4)
    assert p.lo == 0 and np.allclose(p.probs, [1.0])


def test_linear_pmf_custom_base():
    base = [IntPMF(1, np.array([0.5, 0.5])), IntPMF(-1, np.array([1.0]))]
    p = linear_pmf([2, 3], base)
    # 2*{1,2} + 3*(-1) = {-1, 1} each with probability 1/2
    assert p.prob(-1) == pytest.approx(0.5)
    assert p.prob(1) == pytest.approx(0.5)


def test_linear_pmf_window_cap():
    with pytest.raises(WindowCapError) as e:
        linear_pmf([10 ** 5] * 3, 100, window_cap=10 ** 6)
    assert e.value.needed > e.value.cap


def test_linear_pmf_length_mismatch():
    with pytest.raises(ValueError):
        linear_pmf([1, 2], [point_mass(0)])


# ---------------------------------------------------------------------------
# distances


def test_d_tv_basics():
    a = point_mass(0)
    b = point_mass(3)
    assert d_tv(a, a) == 0.0
    assert d_tv(a, b) == 1.0
    u = IntPMF.uniform(0, 1)
    assert d_tv(a, u) == pytest.approx(0.5)


def test_d_k_basics():
    a = point_mass(0)
    u = IntPMF.uniform(0, 3)
    assert d_k(a, a) == 0.0
    assert d_k(a, u) == pytest.approx(0.75)
    assert d_k(u, a) == pytest.approx(0.75)


def test_d_k_le_d_tv():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, q = random_pmf(rng), random_pmf(rng)
        assert d_k(p, q) <= d_tv(p, q) + 1e-12


def test_d_ft_identical_is_zero():
    p = IntPMF.uniform(-4, 4)
    assert d_ft(p, p) == 0.0


def test_d_ft_matches_direct_grid_scan():
    # independent oracle: direct characteristic functions on the grid
    rng = np.random.default_rng(2)
    p, q = random_pmf(rng, 8), random_pmf(rng, 8)
    eta = 0.05
    N = max(p.radius, q.radius, 1)
    # the least power of two above 4 pi N / eta
    grid = 1
    while grid <= 4 * math.pi * N / eta:
        grid *= 2
    direct = 0.0
    for g in range(grid):
        a = g / grid
        cp = sum(p.probs[j] * np.exp(-2j * np.pi * a * (p.lo + j))
                 for j in range(len(p.probs)))
        cq = sum(q.probs[j] * np.exp(-2j * np.pi * a * (q.lo + j))
                 for j in range(len(q.probs)))
        direct = max(direct, abs(cp - cq))
    assert d_ft(p, q, eta) == pytest.approx(direct, abs=1e-9)


def test_d_ft_grid_is_a_power_of_two_within_the_spacing_bound(monkeypatch):
    # spacing 1 / grid_points <= eta / (4 pi N) keeps the certified slack
    # eta; a power of two is the least such length, so no finer grid
    seen = []
    real = metrics._char_gap_on_grid

    def record(p, q, grid_points):
        seen.append(grid_points)
        return real(p, q, grid_points)

    monkeypatch.setattr(metrics, "_char_gap_on_grid", record)
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q = random_pmf(rng, 60), random_pmf(rng, 60)
        eta = float(rng.choice([1e-3, 0.01, 0.05, 0.3, 1.0]))
        N = max(p.radius, q.radius, 1)
        d_ft(p, q, eta)
        grid = seen.pop()
        assert grid & (grid - 1) == 0
        assert 1 / grid <= eta / (4 * math.pi * N)
        assert 2 / grid >= eta / (4 * math.pi * N)


def test_d_ft_refuses_a_grid_above_the_cap(monkeypatch):
    # two point masses 10^6 apart at eta = 1e-3 need the least power of
    # two above 4 pi 10^6 / 1e-3 = 1.26e10, 2^34 grid points (256 GiB of
    # complex128); refused before any window or grid is built
    assert 1 << (math.floor(4 * math.pi * 10 ** 6 / 1e-3).bit_length()) \
        == 1 << 34
    p, q = IntPMF(0, [1.0]), IntPMF(10 ** 6, [1.0])

    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(metrics, "_char_gap_on_grid", no_grid)
    with pytest.raises(Refused, match=r"N = 1000000, eta = 0\.001 needs "
                       r"17179869184 grid points, cap is 16777216"):
        d_ft(p, q, 1e-3)
    with pytest.raises(Refused):
        fourier_lemma_check(p, q, 1e-3)


def test_d_ft_at_the_grid_cap(monkeypatch):
    # the largest N at eta = 1e-3 whose grid is 2^24 points still runs
    seen = []
    monkeypatch.setattr(metrics, "_char_gap_on_grid",
                        lambda p, q, grid_points: seen.append(grid_points)
                        or np.zeros(1))
    N = math.floor((1 << 24) * 1e-3 / (4 * math.pi))
    d_ft(IntPMF(0, [1.0]), IntPMF(N, [1.0]), 1e-3)
    assert seen == [1 << 24]
    with pytest.raises(Refused):
        d_ft(IntPMF(0, [1.0]), IntPMF(N + 1, [1.0]), 1e-3)


def test_d_ft_bounded_by_tv():
    # |char gap| <= 2 * d_tv at every frequency
    rng = np.random.default_rng(3)
    for _ in range(50):
        p, q = random_pmf(rng), random_pmf(rng)
        assert d_ft(p, q, 0.05) <= 2 * d_tv(p, q) + 1e-9


def test_distance_triple_fields():
    # the three distances fourier_lemma_check reports
    p = point_mass(0)
    q = IntPMF.uniform(0, 1)
    res = fourier_lemma_check(p, q, eta=0.01)
    assert res["eta"] == 0.01
    assert res["d_tv"] == pytest.approx(0.5)
    assert (res["d_ft"], res["d_tv"], res["d_k"]) == (
        d_ft(p, q, 0.01), d_tv(p, q), d_k(p, q))
    assert 0 <= res["d_ft"] <= 2 and 0 <= res["d_tv"] <= 1
    assert 0 <= res["d_k"] <= 1


def test_fourier_lemma_check_random_audit():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p, q = random_pmf(rng), random_pmf(rng)
        res = fourier_lemma_check(p, q, eta=0.01)
        assert res["pass"], res


def test_fourier_lemma_check_reports_ratios():
    p = point_mass(0)
    q = IntPMF.uniform(-2, 2)
    res = fourier_lemma_check(p, q, eta=0.01)
    assert 0 <= res["tv_ratio"] <= 1
    assert 0 <= res["k_ratio"] <= 1
    assert res["d_tv"] == pytest.approx(0.8)
