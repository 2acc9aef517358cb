"""Application-layer tests measured against exact oracles: halfspaces,
generalized halfspaces, modular linear tests, combinatorial shapes, and
a randomness-efficient sampler with a Chernoff-style tail guarantee.

Each of the four tests is a rule applied to one integer linear form
S = sum_j tables[j, x_j]. The uniform side of its error is one exact
convolution of the table rows (metrics.linear_pmf); the generator side
applies the same rule to the same sums under full seed enumeration
(exact) or Monte-Carlo sampling with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# sample_seeds stays importable here: perfbench/spans.py patches it by
# module name
from .core import Generator, sample_seeds  # noqa: F401
from .metrics import IntPMF, WindowCapError, int_weights, linear_pmf
from .shapes import EnumerateMode, SampleMode, expectation

_DEFAULT_WINDOW_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# test families


def _columns(table: np.ndarray, xs):
    """table[j][xs[:, j]] for j = 0, 1, ...: one 1-D gather per coordinate,
    each reading one contiguous column when xs is Fortran-ordered, as
    generator output may be."""
    xs = np.asarray(xs, dtype=np.int64)
    return (np.take(row, xs[:, j]) for j, row in enumerate(table))


def _table_sums(g: np.ndarray, xs) -> np.ndarray:
    """sum_j g[j, x_j] for every row x of xs, added j = 0, 1, ... in turn,
    so every memory layout of xs rounds the same."""
    return sum(_columns(g, xs))


@dataclass(frozen=True)
class Halfspace:
    """1 iff <w, x> - theta >= 0, integer weights and threshold."""

    w: np.ndarray
    theta: int

    def __post_init__(self):
        object.__setattr__(self, "w", int_weights(self.w))
        object.__setattr__(self, "theta",
                           int(int_weights(self.theta, "theta")))

    @property
    def n(self) -> int:
        return len(self.w)


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

    def canonicalize(self, scale_bits: int = 20) -> tuple[np.ndarray, int]:
        """Equivalent integer tables and threshold.

        Entries are scaled by 2^scale_bits and rounded to the nearest
        integer; exact (pointwise-agreeing) whenever the inputs are
        dyadic rationals at that resolution, and off by at most
        n * 2^-(scale_bits+1) in the linear form otherwise.
        """
        scale = 1 << scale_bits
        return (np.rint(self.g * scale).astype(np.int64),
                int(round(self.theta * scale)))


@dataclass(frozen=True)
class ModularTest:
    """1 iff sum_i a_i x_i mod M lies in the accepting set S. S is never
    read: modular_error bounds every accepting set S' at once."""

    a: np.ndarray
    M: int
    S: frozenset

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("modulus must be >= 2")
        a = int_weights(self.a, "a") % self.M
        S = frozenset((int_weights(list(self.S), "S") % self.M).tolist())
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "S", S)

    @property
    def n(self) -> int:
        return len(self.a)


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


# ---------------------------------------------------------------------------
# fooling errors: every test above is rule(S) for one integer linear form
# S = sum_j tables[j, x_j]


@dataclass(frozen=True)
class ErrorResult:
    err: float
    std_err: float
    seeds_evaluated: int
    mode: str
    uniform_prob: float
    generator_prob: float


def _linear_form(g: Generator, tables: np.ndarray, rule, mode,
                 window_cap: int, pattern_cap: int, enumerate_cap: int):
    """E[rule(S)] for S = sum_j tables[j, x_j] under uniform x in [m]^n,
    exact by one convolution of the rows' pmfs and added over s in
    ascending order, and the Estimate of E[rule(S)] under g."""
    if tables.shape != (g.n, g.m):
        raise ValueError(f"generator over [{g.m}]^{g.n} and test tables "
                         f"of shape {tables.shape} disagree on (m, n)")
    bases = []
    for row in tables:
        lo = int(row.min())
        if int(row.max()) - lo >= window_cap:
            raise WindowCapError(int(row.max()) - lo + 1, window_cap)
        bases.append(IntPMF(lo, np.bincount(row - lo) / g.m))
    pmf = linear_pmf(np.ones(g.n, dtype=np.int64), bases, window_cap)
    uniform = sum(pmf.prob(s) * rule(s) for s in range(pmf.lo, pmf.hi + 1))
    est = expectation(g, lambda xs: rule(_table_sums(tables, xs)), mode,
                      enumerate_cap, pattern_cap)
    return uniform, est


def _indicator_error(g: Generator, tables: np.ndarray, rule, mode,
                     window_cap: int, pattern_cap: int, enumerate_cap: int
                     ) -> ErrorResult:
    """|Pr_seed[rule(S)] - Pr_uniform[rule(S)]| for a 0/1 rule, with the
    generator side exact (enumerate) or estimated (sample)."""
    uniform, est = _linear_form(g, tables, rule, mode, window_cap,
                                pattern_cap, enumerate_cap)
    p_unif, p_gen = float(uniform), float(est.mean)
    std_err = (math.sqrt(max(p_gen * (1 - p_gen), 0.0) / est.count)
               if isinstance(mode, SampleMode) else 0.0)
    return ErrorResult(abs(p_gen - p_unif), std_err, est.count,
                       mode.name, p_unif, p_gen)


def halfspace_error(g: Generator, h: Halfspace, mode,
                    window_cap: int = _DEFAULT_WINDOW_CAP,
                    pattern_cap: int = 1 << 22,
                    enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error of g against one halfspace over [m]^n."""
    return _indicator_error(g, h.w[:, None] * np.arange(g.m),
                            lambda s: s >= h.theta, mode, window_cap,
                            pattern_cap, enumerate_cap)


def gen_halfspace_error(g: Generator, gh: GeneralizedHalfspace, mode,
                        window_cap: int = _DEFAULT_WINDOW_CAP,
                        scale_bits: int = 12, pattern_cap: int = 1 << 22,
                        enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error against a generalized halfspace over [m]^n, via its
    integer canonical form."""
    tables, theta = gh.canonicalize(scale_bits)
    return _indicator_error(g, tables, lambda s: s >= theta, mode,
                            window_cap, pattern_cap, enumerate_cap)


def comb_shape_error(g: Generator, c: CombinatorialShape, mode,
                     pattern_cap: int = 1 << 22,
                     enumerate_cap: int = 26) -> ErrorResult:
    """Fooling error |E[h(sum g_j)] under g - same under uniform|."""
    return _indicator_error(g, c.g, lambda s: c.h[s], mode,
                            _DEFAULT_WINDOW_CAP, pattern_cap, enumerate_cap)


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
    uniform input, exact in enumerate mode. It is the maximum over every
    accepting set S' of |Pr_G[S'] - Pr_U[S']|, so t.S is not read."""
    # the rule is the residue's one-hot over the M cells
    unif, est = _linear_form(
        g, t.a[:, None] * np.arange(g.m),
        lambda s: np.equal.outer(s % t.M, np.arange(t.M)), mode,
        window_cap, pattern_cap, enumerate_cap)
    # confidence radius on the TV estimate: sum of per-cell errors
    std_err = (math.sqrt(t.M / (4 * est.count))
               if isinstance(mode, SampleMode) else 0.0)
    return ModularResult(float(0.5 * np.abs(est.mean - unif).sum()),
                         std_err, est.count, mode.name, est.mean, unif)


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

    `table` holds every h_i outright: an (n, 2^r_x) array of
    n * 2^r_x entries in the narrowest unsigned dtype that holds m - 1
    (256 KB for n = 64, r_x = 12, m = 2), so mapping a batch is one
    gather per coordinate from that coordinate's row.
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
        self.table = self._rows(
            np.arange(self.m, dtype=np.min_scalar_type(self.m - 1)))

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """(n, 2^r_x) table whose row i repeats values[i, j] (or values[j])
        weights[i, j] times, i.e. values[i, h_i(z)] at column z."""
        values = np.broadcast_to(values, (self.n, self.m))
        return np.repeat(values.ravel(), self.weights.ravel()).reshape(
            self.n, 1 << self.r_x)

    @property
    def seed_bits(self) -> int:
        return self.generator.seed_bits

    def quantized_pmfs(self) -> np.ndarray:
        return self.weights / (1 << self.r_x)

    def map_batch(self, z: np.ndarray) -> np.ndarray:
        """Inverse-CDF tables applied coordinatewise to (N, n) indices."""
        return np.stack(list(_columns(self.table, z))).T.astype(np.int64)

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
    # values[i, z] = g_i(h_i(z)): the statistic skips the symbols
    values = s._rows(g_tables)
    est = expectation(
        s.generator,
        lambda z: np.abs(_table_sums(values, z) - mean) >= t,
        SampleMode(trials, rng_seed))
    emp = float(est.mean)
    bound = 2 * math.exp(-t * t / (2 * s.n)) + s.eps
    std_err = math.sqrt(max(emp * (1 - emp), 1.0 / est.count) / est.count)
    return TailCheck(emp, bound, std_err, est.count,
                     emp <= bound + 3 * std_err)
