"""Distances between integer-valued random variables and the exact
convolution oracles behind them.

An IntPMF is a probability vector on a contiguous integer window.
Distances: Fourier (characteristic-function gap over a frequency grid
with a certified Lipschitz slack), total variation (exact half-L1), and
Kolmogorov (exact CDF sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Refused

_SUM_TOL = 1e-10
GRID_CAP = 1 << 24  # d_ft's FFT grid: 256 MiB of complex128


@dataclass(frozen=True)
class IntPMF:
    """Probabilities on the integer window [lo, lo + len(probs) - 1]."""

    lo: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("probs must be a nonempty vector")
        if np.any(p < -1e-15):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def hi(self) -> int:
        return self.lo + len(self.probs) - 1

    @property
    def radius(self) -> int:
        """N with support contained in [-N, N]."""
        return max(abs(self.lo), abs(self.hi))

    def prob(self, j: int) -> float:
        if self.lo <= j <= self.hi:
            return float(self.probs[j - self.lo])
        return 0.0

    def on_window(self, lo: int, hi: int) -> np.ndarray:
        """Probabilities re-indexed onto [lo, hi] (zero-padded)."""
        if lo > self.lo or hi < self.hi:
            raise ValueError("window does not cover the support")
        out = np.zeros(hi - lo + 1)
        out[self.lo - lo:self.lo - lo + len(self.probs)] = self.probs
        return out

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "IntPMF":
        if hi < lo:
            raise ValueError("empty window")
        width = hi - lo + 1
        return cls(lo, np.full(width, 1.0 / width))


class WindowCapError(Refused):
    """Raised when an exact DP would exceed the configured state window."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"linear-form support needs {needed} states, cap is {cap}")


def int_weights(w, name: str = "w") -> np.ndarray:
    """w as an int64 array, 0-d for a scalar; a value that is not a whole
    number is refused, not truncated."""
    w = np.asarray(w)
    ints = w.astype(np.int64)
    bad = np.flatnonzero(ints != w)
    if len(bad):
        at = f"[{bad[0]}]" if w.ndim else ""
        raise ValueError(f"{name}{at} = {w.flat[bad[0]]} is not a whole "
                         "number")
    return ints


def linear_pmf(w, base, window_cap: int = 10 ** 6) -> IntPMF:
    """Exact pmf of sum_i w_i * X_i by coordinatewise convolution.

    base is either an int m (each X_i uniform on [m]) or a list of
    per-coordinate IntPMFs. Refuses instances whose support window would
    exceed window_cap states.
    """
    w = [int(v) for v in int_weights(w)]
    if isinstance(base, int):
        if base < 1:
            raise ValueError("alphabet must be nonempty")
        base = [IntPMF.uniform(0, base - 1)] * len(w)
    if len(base) != len(w):
        raise ValueError("one base pmf per weight required")

    lo = sum(min(wi * b.lo, wi * b.hi) for wi, b in zip(w, base))
    hi = sum(max(wi * b.lo, wi * b.hi) for wi, b in zip(w, base))
    width = hi - lo + 1
    if width > window_cap:
        raise WindowCapError(width, window_cap)

    acc = np.array([1.0])
    acc_lo = 0
    for wi, b in zip(w, base):
        term = wi * (b.lo + np.arange(len(b.probs)))
        if wi == 0:
            continue
        step_lo = int(term.min())
        step = np.zeros(int(term.max()) - step_lo + 1)
        # wi*support may be an arithmetic progression with gaps
        np.add.at(step, (term - step_lo).astype(np.int64), b.probs)
        acc = np.convolve(acc, step)
        acc_lo += step_lo
    acc = acc / acc.sum()
    return IntPMF(acc_lo, acc)


def d_tv(p: IntPMF, q: IntPMF) -> float:
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    return float(0.5 * np.abs(p.on_window(lo, hi) - q.on_window(lo, hi)).sum())


def d_k(p: IntPMF, q: IntPMF) -> float:
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    diff = np.cumsum(p.on_window(lo, hi) - q.on_window(lo, hi))
    return float(np.abs(diff).max())


def _char_gap_on_grid(p: IntPMF, q: IntPMF, grid_points: int) -> np.ndarray:
    """|E_p[e^{2 pi i a Z}] - E_q[...]| at a = g / grid_points.

    The common phase factor e^{2 pi i a lo} has modulus one, so the
    difference vector can be transformed from window offset zero.
    """
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    diff = p.on_window(lo, hi) - q.on_window(lo, hi)
    return np.abs(np.fft.fft(diff, n=max(grid_points, len(diff))))


def d_ft(p: IntPMF, q: IntPMF, eta: float = 1e-3) -> float:
    """Grid maximum of the characteristic-function gap.

    Each characteristic function is (2 pi N)-Lipschitz in the frequency,
    so a grid of spacing at most eta / (4 pi N) under-approximates the
    true supremum by at most eta. The grid has the least power-of-two
    number of points above 4 pi N / eta, a fast FFT length, refused
    above GRID_CAP points before anything is allocated.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    N = max(p.radius, q.radius, 1)
    grid_points = 1 << math.floor(4 * math.pi * N / eta).bit_length()
    if grid_points > GRID_CAP:
        raise Refused(f"d_ft at N = {N}, eta = {eta} needs {grid_points} "
                      f"grid points, cap is {GRID_CAP}")
    return float(_char_gap_on_grid(p, q, grid_points).max())


def fourier_lemma_check(p: IntPMF, q: IntPMF, eta: float = 1e-3,
                        c_k: float = 10.0) -> dict:
    """Numerical check of the metric comparison inequalities.

    Asserts d_tv <= 2*sqrt(4N+1)*(d_ft + eta) and
    d_k <= c_k*log2(2N+2)*(d_ft + eta), returning both ratios. The
    constants 2 and c_k are configured safety constants validated by a
    randomized audit, not derived values.
    """
    N = max(p.radius, q.radius)
    ft, tv, k = d_ft(p, q, eta), d_tv(p, q), d_k(p, q)
    slack = ft + eta
    tv_bound = 2.0 * math.sqrt(4 * N + 1) * slack
    k_bound = c_k * math.log2(2 * N + 2) * slack
    tv_ratio = tv / tv_bound if tv_bound > 0 else 0.0
    k_ratio = k / k_bound if k_bound > 0 else 0.0
    return {
        "N": N, "eta": eta, "c_k": c_k,
        "d_ft": ft, "d_tv": tv, "d_k": k,
        "tv_bound": tv_bound, "k_bound": k_bound,
        "tv_ratio": tv_ratio, "k_ratio": k_ratio,
        "pass": tv <= tv_bound + 1e-12 and k <= k_bound + 1e-12,
    }
