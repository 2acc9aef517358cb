"""Fourier shapes: product tests f(x) = prod_j f_j(x_j) with each f_j
mapping [m] into the complex unit disk, stored as explicit n x m tables."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Generator, sample_seeds

_DISK_TOL = 1e-12
# eval_shape_batch runs on row blocks of about 1 MB of int64 input (2048
# rows at n = 64), so each column gather reads from cache; a block keeps
# at least 1024 rows, below which numpy's per-call cost outweighs the gain
_BLOCK_BYTES = 1 << 20
_BLOCK_MIN_ROWS = 1024


@dataclass(frozen=True)
class FourierShape:
    table: np.ndarray  # (n, m) complex

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        if t.ndim != 2 or t.shape[1] < 1:
            raise ValueError("table must be n x m")
        if np.any(np.abs(t) > 1 + _DISK_TOL):
            raise ValueError("table entries must lie in the unit disk")
        object.__setattr__(self, "table", t)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def m(self) -> int:
        return self.table.shape[1]


def tvar(f: FourierShape) -> float:
    """Sum over coordinates of E|f_j|^2 - |E f_j|^2."""
    means = f.table.mean(axis=1)
    second = (np.abs(f.table) ** 2).mean(axis=1)
    return float(np.maximum(second - np.abs(means) ** 2, 0.0).sum())


def uniform_expectation(f: FourierShape) -> complex:
    return complex(np.prod(f.table.mean(axis=1)))


def eval_shape_batch(f: FourierShape, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64)
    # column by column: np.prod(axis=1) rounds C- and F-ordered xs apart.
    # No product overwrites an operand: numpy rounds an in-place complex
    # product of one element differently from a longer one. An out-of-place
    # product rounds the same at every length and offset, so running the
    # chain block by block leaves every bit as it was
    out = np.empty(len(xs), dtype=complex)
    step = max(_BLOCK_MIN_ROWS, _BLOCK_BYTES // (8 * f.n))
    buf = np.empty(min(step, len(xs)), dtype=complex)
    for lo in range(0, len(xs), step):
        blk = xs[lo:lo + step]
        # row j then its symbols: a 1-D gather, faster than table[j, col]
        prod, spare = f.table[0][blk[:, 0]], buf[:len(blk)]
        for j in range(1, f.n):
            np.multiply(prod, f.table[j][blk[:, j]], out=spare)
            prod, spare = spare, prod
        out[lo:lo + len(blk)] = prod
    return out


def linear_shape(w, alpha: float, m: int) -> FourierShape:
    """f_j(x) = exp(2 pi i * alpha * w_j * x)."""
    w = np.asarray(w, dtype=float)
    x = np.arange(m)
    return FourierShape(np.exp(2j * math.pi * alpha * w[:, None] * x[None, :]))


def random_shape(rng: np.random.Generator, n: int, m: int) -> FourierShape:
    """Uniform modulus in [0,1], uniform phase."""
    r = rng.random((n, m))
    phi = rng.random((n, m)) * 2 * math.pi
    return FourierShape(r * np.exp(1j * phi))


def scale_toward_mean(f: FourierShape, s: float) -> FourierShape:
    """f_j <- mu_j + s*(f_j - mu_j); variances scale by s^2 and the table
    stays in the unit disk for 0 <= s <= 1."""
    mu = f.table.mean(axis=1, keepdims=True)
    return FourierShape(mu + s * (f.table - mu))


def values_on_all_patterns(f: FourierShape) -> np.ndarray:
    """f evaluated on every point of [m]^n, indexed by the base-m code
    with coordinate 0 most significant."""
    out = np.ones(1, dtype=complex)
    for j in range(f.n):
        out = np.kron(out, f.table[j])
    return out


@dataclass(frozen=True)
class EnumerateMode:
    name = "enumerate"


@dataclass(frozen=True)
class SampleMode:
    n_samples: int
    rng_seed: int = 0
    name = "sample"

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, not "
                             f"{self.n_samples!r}")


@dataclass(frozen=True)
class Estimate:
    mean: np.ndarray      # E[stat] per statistic column
    sq_mean: np.ndarray   # E[|stat|^2] per column; 0.0 when exact
    count: int            # seeds enumerated or drawn


@functools.lru_cache(maxsize=4)
def _pattern_digits(m: int, n: int, k: int) -> np.ndarray:
    """np.indices((m,) * n).reshape(n, -1)[:, :m^k]; shared, so read-only."""
    digits = np.indices((1,) * (n - k) + (m,) * k).reshape(n, m ** k)
    digits.flags.writeable = False
    return digits


def expectation(g: Generator, stat, mode, enumerate_cap: int = 26,
                pattern_cap: int = 1 << 22) -> Estimate:
    """E[stat(G(seed))] under a uniform seed, where stat maps an (N, n)
    output batch to (N,) or (N, k) values.

    Enumerate mode is exact: the output pmf against stat on every pattern
    when m^n <= pattern_cap, otherwise a pass over all 2^r seeds, refused
    above enumerate_cap. Sample mode draws mode.n_samples seeds in
    batches of 2^15 rows."""
    if isinstance(mode, EnumerateMode):
        total = 1 << g.seed_bits
        if g.m ** g.n <= pattern_cap:
            pmf = g.output_pmf(pattern_cap, enumerate_cap)
            # stat on chunks of m^k patterns sharing n - k leading digits
            # (coordinate 0 first), k <= n the largest with m^k <= 2^16, or 1
            k = 1
            while k < g.n and g.m ** (k + 1) <= 1 << 16:
                k += 1
            size = g.m ** k
            parts = []
            for c, top in enumerate(np.ndindex((g.m,) * (g.n - k))):
                digits = _pattern_digits(g.m, g.n, k)
                if c:  # chunk 0's leading digits are the cached zeros
                    digits = digits.copy()
                    digits[:g.n - k] = np.array(top)[:, None]
                parts.append(pmf[c * size:(c + 1) * size] @ stat(digits.T))
            return Estimate(sum(parts[1:], parts[0]), 0.0, total)
        acc = 0
        for out in g.enumerate_outputs(enumerate_cap):
            acc = acc + stat(out).sum(axis=0)
            del out  # free this chunk before the next one is built
        return Estimate(acc / total, 0.0, total)
    if isinstance(mode, SampleMode):
        rng = np.random.default_rng(mode.rng_seed)
        acc = acc2 = 0
        done = 0
        while done < mode.n_samples:
            batch = min(1 << 15, mode.n_samples - done)
            vals = stat(g.generate_batch(
                sample_seeds(rng, g.seed_bits, batch)))
            acc = acc + vals.sum(axis=0)
            acc2 = acc2 + (np.abs(vals) ** 2).sum(axis=0)
            done += batch
        return Estimate(acc / done, acc2 / done, done)
    raise TypeError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class EmpiricalResult:
    estimate: complex
    std_err: float
    seeds_used: int


def empirical_expectation(f: FourierShape, g: Generator, mode,
                          enumerate_cap: int = 26,
                          pattern_cap: int = 1 << 22) -> EmpiricalResult:
    """E[f(G(seed))] under a uniform seed: exact over all 2^r seeds in
    enumerate mode, Monte-Carlo with a standard error in sample mode."""
    if g.m != f.m or g.n != f.n:
        raise ValueError("generator and shape disagree on (m, n)")
    est = expectation(g, lambda xs: eval_shape_batch(f, xs), mode,
                      enumerate_cap, pattern_cap)
    std_err = 0.0
    if isinstance(mode, SampleMode):
        var = max(est.sq_mean - abs(est.mean) ** 2, 0.0)
        std_err = math.sqrt(var / est.count)
    return EmpiricalResult(complex(est.mean), std_err, est.count)


def fooling_error(f: FourierShape, g: Generator, mode, **kw) -> tuple[float, float]:
    """|empirical - uniform| and the standard error of the estimate."""
    res = empirical_expectation(f, g, mode, **kw)
    return abs(res.estimate - uniform_expectation(f)), res.std_err
