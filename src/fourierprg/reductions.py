"""Structural reductions.

Alphabet reduction replaces symbols from [m] by table lookups into a
pairwise-per-column, k-wise-across-columns matrix, indexed by an inner
generator over the reduced alphabet [D], D = floor(sqrt(m)).

Dimension reduction hashes coordinates into t = ceil(sqrt(n)) buckets and
fills each bucket from a k-wise string whose seed is one symbol of an
inner generator over the blown-up alphabet [2^r0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import as_bits
from .core import Generator, check_int64_symbols, register_plan
from .families import CombinedHashFamily, KWiseFamily, deviation_q_min
# next_prime stays importable here: perfbench/spans.py patches it by
# module name
from .fields import next_prime  # noqa: F401


@register_plan("alphabet-step")
@dataclass(eq=False)
class AlphabetStepPlan(Generator):
    """One m -> floor(sqrt(m)) reduction step around an inner generator."""

    m: int
    n: int
    delta: float
    inner: Generator
    C: float = 4.0
    plan_info = ("D", "k")

    def __post_init__(self):
        m, n, inner = self.m, self.n, self.inner
        if m <= n ** 4:
            raise ValueError("step not applicable: m <= n^4")
        self.D = math.isqrt(m)
        if inner.m != self.D or inner.n != n:
            raise ValueError(f"inner generator must produce [{self.D}]^{n}")
        self.k = max(1, math.ceil(
            self.C * math.log2(1 / self.delta) / math.log2(m)))
        self.col_family = KWiseFamily(m, self.D, 2, m)
        self.col_seed_bits = self.col_family.seed_bits
        # column seeds drawn k-wise from their own power-of-two space: the
        # field is GF(2^t) whatever q_min says
        self.cross_family = KWiseFamily(1 << self.col_seed_bits, n, self.k, 0)
        self.local_bits = self.cross_family.seed_bits
        self.seed_bits = self.local_bits + inner.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        check_int64_symbols(self)
        bits = as_bits(seeds, self.seed_bits)
        # column seeds from the high (local) bits, inner seed below
        col_seeds = self.cross_family.sample_batch(
            bits[:, :self.local_bits])  # (N, n)
        Y = self.inner.generate_batch(bits[:, self.local_bits:])  # over [D]
        # evaluate each column polynomial only at the selected row, never
        # materializing the D x n lookup matrix: one call for all columns
        return self.col_family.eval_points_batch(
            col_seeds.reshape(-1), Y.reshape(-1)).reshape(Y.shape)


def alphabet_reduce(m: int, n: int, delta: float, base_factory,
                    C: float = 4.0) -> Generator:
    """Chain of alphabet steps down to alphabet <= n^4; base_factory(m',
    n, delta') supplies the terminal generator."""
    chain = []
    mm = m
    while mm > n ** 4:
        chain.append(mm)
        mm = math.isqrt(mm)
    steps = len(chain)
    if steps == 0:
        return base_factory(m, n, delta)
    per_step = delta / (2 * steps)
    gen = base_factory(mm, n, delta / 2)
    for mv in reversed(chain):
        gen = AlphabetStepPlan(mv, n, per_step, gen, C)
    return gen


def dim_step_params(m: int, n: int, delta: float, C: float = 4.0):
    """(t, k, r0) a DimStepPlan would use, computable before the inner
    generator exists."""
    t = math.isqrt(n) if math.isqrt(n) ** 2 == n else math.isqrt(n) + 1
    k = max(1, math.ceil(
        C * math.log2(max(n, 2) / delta) / math.log2(max(n, 2))))
    r0 = KWiseFamily(m, n, k, deviation_q_min(m, n)).seed_bits
    return t, k, r0


@register_plan("dim-step")
@dataclass(eq=False)
class DimStepPlan(Generator):
    """n -> t = ceil(sqrt(n)) dimension reduction around an inner
    generator over [2^r0]^t."""

    m: int
    n: int
    delta: float
    inner: Generator
    C: float = 4.0
    plan_info = ("t", "k", "r0", "m_inner")

    def __post_init__(self):
        m, n, inner = self.m, self.n, self.inner
        if m > n ** 4:
            raise ValueError("dimension step requires m <= n^4")
        self.t, self.k, self.r0 = dim_step_params(m, n, self.delta, self.C)
        self.bucket_hash = CombinedHashFamily(n, self.t, self.k)
        self.within = KWiseFamily(m, n, self.k, deviation_q_min(m, n))
        self.m_inner = 1 << self.r0
        if inner.m != self.m_inner or inner.n != self.t:
            raise ValueError(
                f"inner generator must produce [{self.m_inner}]^{self.t}")
        self.local_bits = self.bucket_hash.seed_bits
        self.seed_bits = self.local_bits + inner.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        bits = as_bits(seeds, self.seed_bits)
        # bucket hash seed in the high (local) bits, inner seed below
        tables = self.bucket_hash.table_batch(
            bits[:, :self.local_bits])  # (N, n)
        blocks = self.inner.generate_batch(
            bits[:, self.local_bits:])  # (N, t) in [2^r0]
        # each inner symbol seeds one bucket's polynomial; evaluate each
        # coordinate at its bucket's, gathering one coefficient per step
        # from the flat (N, t) coefficients: row i's bucket j is at i t + j
        coeffs = self.within.coefficients(blocks.ravel()).reshape(
            -1, *blocks.shape)
        tables += np.arange(len(tables))[:, None] * self.t
        return self.within.horner((c.take(tables) for c in coeffs[::-1]),
                                  np.arange(self.n, dtype=np.int64))
