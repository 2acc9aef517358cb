"""Application-layer tests measured against exact oracles: halfspaces,
generalized halfspaces, modular linear tests, combinatorial shapes, and
a randomness-efficient sampler with a Chernoff-style tail guarantee.

Uniform-side probabilities come from the exact convolution oracles in
metrics; generator-side probabilities come from full seed enumeration
(exact) or Monte-Carlo sampling with a reported standard error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# sample_seeds stays importable here: perfbench/spans.py patches it by
# module name
from .core import Generator, sample_seeds  # noqa: F401
from .metrics import IntPMF, WindowCapError, linear_pmf
from .shapes import EnumerateMode, SampleMode, expectation

_DEFAULT_WINDOW_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# test families


@dataclass(frozen=True)
class Halfspace:
    """1 iff <w, x> - theta >= 0, integer weights and threshold."""

    w: np.ndarray
    theta: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.int64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "theta", int(self.theta))

    @property
    def n(self) -> int:
        return len(self.w)

    def eval(self, x) -> int:
        return int(np.dot(self.w, np.asarray(x, dtype=np.int64))
                   >= self.theta)

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        return (np.asarray(xs, dtype=np.int64) @ self.w
                >= self.theta).astype(np.int64)

    def to_json(self) -> str:
        return json.dumps({"w": self.w.tolist(), "theta": self.theta})

    @classmethod
    def from_json(cls, text: str) -> "Halfspace":
        d = json.loads(text)
        return cls(np.asarray(d["w"]), d["theta"])


@dataclass(frozen=True)
class GeneralizedHalfspace:
    """1 iff sum_j g_j(x_j) - theta >= 0 with real per-symbol tables."""

    g: np.ndarray  # (n, m) real
    theta: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2:
            raise ValueError("tables must be n x m")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.g.shape[1]

    def eval(self, x) -> int:
        x = np.asarray(x, dtype=np.int64)
        return int(self.g[np.arange(self.n), x].sum() >= self.theta)

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        sums = self.g[np.arange(self.n)[None, :], xs].sum(axis=1)
        return (sums >= self.theta).astype(np.int64)

    def canonicalize(self, scale_bits: int = 20) -> "IntegerHalfspace":
        """Equivalent instance with integer tables and threshold.

        Entries are scaled by 2^scale_bits and rounded to the nearest
        integer; exact (pointwise-agreeing) whenever the inputs are
        dyadic rationals at that resolution, and off by at most
        n * 2^-(scale_bits+1) in the linear form otherwise.
        """
        scale = 1 << scale_bits
        tables = np.rint(self.g * scale).astype(np.int64)
        return IntegerHalfspace(tables, int(round(self.theta * scale)))


@dataclass(frozen=True)
class IntegerHalfspace:
    """Canonical form consumed by the convolution oracle."""

    g: np.ndarray  # (n, m) int
    theta: int

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        n = self.g.shape[0]
        sums = self.g[np.arange(n)[None, :], xs].sum(axis=1)
        return (sums >= self.theta).astype(np.int64)


@dataclass(frozen=True)
class ModularTest:
    """1 iff sum_i a_i x_i mod M lies in the accepting set S."""

    a: np.ndarray
    M: int
    S: frozenset

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("modulus must be >= 2")
        a = np.asarray(self.a, dtype=np.int64) % self.M
        S = frozenset(int(s) % self.M for s in self.S)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "S", S)

    @property
    def n(self) -> int:
        return len(self.a)

    def eval(self, x) -> int:
        return int((np.dot(self.a, np.asarray(x, dtype=np.int64)) % self.M)
                   in self.S)

    def to_json(self) -> str:
        return json.dumps({"a": self.a.tolist(), "M": self.M,
                           "S": sorted(self.S)})

    @classmethod
    def from_json(cls, text: str) -> "ModularTest":
        d = json.loads(text)
        return cls(np.asarray(d["a"]), d["M"], frozenset(d["S"]))


@dataclass(frozen=True)
class CombinatorialShape:
    """h(sum_j g_j(x_j)) with 0/1 tables g_j and h on {0..n}."""

    g: np.ndarray  # (n, m) in {0,1}
    h: np.ndarray  # (n+1,) in {0,1}

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.int64)
        h = np.asarray(self.h, dtype=np.int64)
        if g.ndim != 2 or not np.all((g == 0) | (g == 1)):
            raise ValueError("g tables must be 0/1 of shape n x m")
        if h.shape != (g.shape[0] + 1,) or not np.all((h == 0) | (h == 1)):
            raise ValueError("h must be a 0/1 table on {0..n}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.g.shape[1]

    def eval(self, x) -> int:
        x = np.asarray(x, dtype=np.int64)
        return int(self.h[self.g[np.arange(self.n), x].sum()])

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        sums = self.g[np.arange(self.n)[None, :], xs].sum(axis=1)
        return self.h[sums]


def rectangle_shape(sets: list[set], m: int = 2) -> CombinatorialShape:
    """Combinatorial rectangle: indicator that every x_j lies in A_j."""
    n = len(sets)
    g = np.zeros((n, m), dtype=np.int64)
    for j, A in enumerate(sets):
        for a in A:
            g[j, a] = 1
    h = np.zeros(n + 1, dtype=np.int64)
    h[n] = 1
    return CombinatorialShape(g, h)


# ---------------------------------------------------------------------------
# generator-side pmfs


@dataclass(frozen=True)
class ErrorResult:
    err: float
    std_err: float
    seeds_evaluated: int
    mode: str
    uniform_prob: float
    generator_prob: float


def _indicator_error(g: Generator, eval_batch, uniform_prob: float,
                     mode, pattern_cap: int, enumerate_cap: int
                     ) -> ErrorResult:
    """|Pr_seed[test] - Pr_uniform[test]| with the generator side exact
    (enumerate) or estimated (sample)."""
    est = expectation(g, eval_batch, mode, enumerate_cap, pattern_cap)
    p_gen = float(est.mean)
    std_err = (math.sqrt(max(p_gen * (1 - p_gen), 0.0) / est.count)
               if isinstance(mode, SampleMode) else 0.0)
    return ErrorResult(abs(p_gen - uniform_prob), std_err, est.count,
                       mode.name, uniform_prob, p_gen)


def halfspace_error(g: Generator, h: Halfspace, mode,
                    window_cap: int = _DEFAULT_WINDOW_CAP,
                    pattern_cap: int = 1 << 22,
                    enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error of g against one halfspace over {0,1}^n."""
    if g.m != 2:
        raise ValueError("halfspaces are defined over {0,1}^n")
    if g.n != h.n:
        raise ValueError("generator and halfspace disagree on n")
    pmf = linear_pmf(h.w, 2, window_cap)
    p_unif = sum(pmf.prob(j) for j in range(h.theta, pmf.hi + 1))
    return _indicator_error(g, h.eval_batch, p_unif, mode, pattern_cap,
                            enumerate_cap)


def gen_halfspace_error(g: Generator, gh: GeneralizedHalfspace, mode,
                        window_cap: int = _DEFAULT_WINDOW_CAP,
                        scale_bits: int = 12, pattern_cap: int = 1 << 22,
                        enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error against a generalized halfspace over [m]^n, via its
    integer canonical form."""
    if (g.m, g.n) != (gh.m, gh.n):
        raise ValueError("generator and halfspace disagree on (m, n)")
    ih = gh.canonicalize(scale_bits)
    for row in ih.g:
        if int(row.max()) - int(row.min()) >= window_cap:
            raise WindowCapError(int(row.max()) - int(row.min()) + 1,
                                 window_cap)
    bases = [IntPMF(int(row.min()),
                    np.bincount(row - row.min()) / gh.m)
             for row in ih.g]
    pmf = linear_pmf(np.ones(gh.n, dtype=np.int64), bases, window_cap)
    p_unif = float(sum(pmf.prob(j)
                       for j in range(max(ih.theta, pmf.lo), pmf.hi + 1)))
    return _indicator_error(g, ih.eval_batch, p_unif, mode, pattern_cap,
                            enumerate_cap)


def modular_pmf(t: ModularTest, m: int = 2,
                window_cap: int = _DEFAULT_WINDOW_CAP) -> np.ndarray:
    """Exact pmf of <a, X> mod M under uniform X in [m]^n."""
    lp = linear_pmf(t.a, m, window_cap)
    out = np.zeros(t.M)
    for j in range(lp.lo, lp.hi + 1):
        out[j % t.M] += lp.prob(j)
    return out


@dataclass(frozen=True)
class ModularResult:
    err: float
    std_err: float
    seeds_evaluated: int
    mode: str
    gen_pmf: np.ndarray
    uniform_pmf: np.ndarray


def modular_error(g: Generator, t: ModularTest, mode=EnumerateMode(),
                  window_cap: int = _DEFAULT_WINDOW_CAP,
                  pattern_cap: int = 1 << 22,
                  enumerate_cap: int = 26) -> ModularResult:
    """Total-variation distance between <a, X> mod M under g and under
    uniform input, exact in enumerate mode."""
    if g.n != t.n:
        raise ValueError("generator and test disagree on n")
    unif = modular_pmf(t, g.m, window_cap)
    est = expectation(
        g, lambda xs: ((xs @ t.a) % t.M)[:, None] == np.arange(t.M), mode,
        enumerate_cap, pattern_cap)
    # confidence radius on the TV estimate: sum of per-cell errors
    std_err = (math.sqrt(t.M / (4 * est.count))
               if isinstance(mode, SampleMode) else 0.0)
    return ModularResult(float(0.5 * np.abs(est.mean - unif).sum()),
                         std_err, est.count, mode.name, est.mean, unif)


def comb_shape_pmf(c: CombinatorialShape) -> IntPMF:
    """Exact pmf of sum_j g_j(X_j) on {0..n} under uniform input."""
    bases = [IntPMF(0, np.bincount(row, minlength=2) / c.m) for row in c.g]
    return linear_pmf(np.ones(c.n, dtype=np.int64), bases)


def comb_shape_error(g: Generator, c: CombinatorialShape, mode,
                     pattern_cap: int = 1 << 22,
                     enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error |E[h(sum g_j)] under g - same under uniform|."""
    if (g.m, g.n) != (c.m, c.n):
        raise ValueError("generator and shape disagree on (m, n)")
    pmf = comb_shape_pmf(c)
    p_unif = float(sum(pmf.prob(s) * int(c.h[s]) for s in range(c.n + 1)))
    return _indicator_error(g, c.eval_batch, p_unif, mode, pattern_cap,
                            enumerate_cap)


# ---------------------------------------------------------------------------
# derandomized sampler


def quantize_pmf(p: np.ndarray, bits: int) -> np.ndarray:
    """Integer weights summing to exactly 2^bits, by largest-remainder
    rounding of p * 2^bits."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("not a pmf")
    total = 1 << bits
    scaled = p * total
    base = np.floor(scaled).astype(np.int64)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:short]] += 1
    return base


class ChernoffSampler:
    """Seed-efficient sampler for n independent coordinates.

    Each coordinate pmf is quantized to r_x = ceil(log2(m*n/eps)) bits
    and realized by an inverse-CDF table over [2^r_x]; the underlying
    generator supplies the n table indices. With exactly uniform
    generator marginals each output marginal equals its quantized pmf
    exactly.
    """

    def __init__(self, pmfs: np.ndarray, eps: float, generator: Generator):
        pmfs = np.asarray(pmfs, dtype=float)
        if pmfs.ndim != 2:
            raise ValueError("pmfs must be n x m")
        self.n, self.m = pmfs.shape
        self.eps = eps
        self.pmfs = pmfs
        self.r_x = max(1, math.ceil(math.log2(self.m * self.n / eps)))
        if generator.m != 1 << self.r_x or generator.n != self.n:
            raise ValueError(
                f"need a generator over [2^{self.r_x}]^{self.n}")
        self.generator = generator
        self.weights = np.stack([quantize_pmf(p, self.r_x) for p in pmfs])
        # h_i(z) = smallest symbol whose cumulative weight exceeds z
        self.cuts = np.cumsum(self.weights, axis=1)
        # row i's cuts shifted by i * 2^r_x make one sorted table, so one
        # searchsorted maps every coordinate; row i starts at index i * m
        self._offsets = np.arange(self.n, dtype=np.int64) << self.r_x
        self._flat_cuts = (self.cuts + self._offsets[:, None]).ravel()
        self._starts = np.arange(self.n, dtype=np.int64) * self.m

    @property
    def seed_bits(self) -> int:
        return self.generator.seed_bits

    def quantized_pmfs(self) -> np.ndarray:
        return self.weights / (1 << self.r_x)

    def map_batch(self, z: np.ndarray) -> np.ndarray:
        """Inverse-CDF tables applied coordinatewise to (N, n) indices."""
        z = np.asarray(z, dtype=np.int64)
        return np.searchsorted(self._flat_cuts, z + self._offsets,
                               side="right") - self._starts

    def sample(self, seed: int) -> np.ndarray:
        return self.map_batch(self.generator.generate(seed)[None, :])[0]

    def sample_batch(self, seeds) -> np.ndarray:
        return self.map_batch(self.generator.generate_batch(seeds))


@dataclass(frozen=True)
class TailCheck:
    empirical: float
    bound: float
    std_err: float
    trials: int
    passed: bool


def chernoff_tail_check(s: ChernoffSampler, g_tables: np.ndarray, t: float,
                        trials: int, rng_seed: int = 0) -> TailCheck:
    """Empirical Pr[|sum_i g_i(Y_i) - E| >= t] against the deviation
    bound 2*exp(-t^2 / 2n) + eps, with a 3-sigma Monte-Carlo allowance."""
    g_tables = np.asarray(g_tables, dtype=float)
    if g_tables.shape != (s.n, s.m) or np.any(np.abs(g_tables) > 1 + 1e-12):
        raise ValueError("need n tables [m] -> [-1, 1]")
    mean = float((g_tables * s.quantized_pmfs()).sum())
    cols = np.arange(s.n)
    est = expectation(
        s.generator,
        lambda z: np.abs(g_tables[cols, s.map_batch(z)].sum(axis=1) - mean)
        >= t, SampleMode(trials, rng_seed))
    emp = float(est.mean)
    bound = 2 * math.exp(-t * t / (2 * s.n)) + s.eps
    std_err = math.sqrt(max(emp * (1 - emp), 1.0 / est.count) / est.count)
    return TailCheck(emp, bound, std_err, est.count,
                     emp <= bound + 3 * std_err)
