"""Primitive pseudorandom families.

All samplers are deterministic functions of (family descriptor, seed).
Seed layout within a family is fixed: coefficients / components are read
MSB-first in declaration order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bitseq import as_bits, bit_fields
from .fields import GF2Field, gf2, next_prime, prime_field


def kwise_field(m: int, points: int, q_min: int):
    """The one field rule of the k-wise families over [m]: GF(2^t) when m
    is a power of two (m = 1 included), so reducing mod m is exact, with
    at least max(m, points, 2) elements; otherwise GF(p) for the smallest
    prime p >= max(points, q_min), where the caller's q_min bounds the
    deviation of the reduction mod m."""
    if m & (m - 1) == 0:
        return gf2(max(1, (m - 1).bit_length(),
                       (max(points, 2) - 1).bit_length()))
    return prime_field(next_prime(max(points, q_min)))


def deviation_q_min(m: int, n: int, delta_map: float = 1e-3) -> int:
    """q_min for a k-wise family of n symbols over [m] within delta_map of
    k-wise uniform: reducing a field of size q >= m * ceil(4n / delta_map)
    mod m moves each string by at most n * m / q <= delta_map / 4, and by
    nothing when m divides q."""
    return m * max(1, math.ceil(4 * n / delta_map))


def log_step(acc, log_points, c, log, exp):
    """One Horner step over GF(2^t <= 16) in the log domain, acc * x + c as
    exp[log[acc] + log x] ^ c, on a field's `tables` or on
    `stacked_tables`; log(0) indexes exp's zero padding, so zero points
    and zero values need no masks. take, not fancy indexing: it skips the
    index checks."""
    return exp.take(log.take(acc) + log_points) ^ c


@functools.lru_cache(maxsize=None)
def stacked_tables(fields: tuple):
    """(log, exp, tag, start): the `tables` of GF(2^t <= 16) fields stacked
    for `log_step` on values of several fields at once, Q the largest q.
    Field e's log sits at tag[e] + a, tag[e] = e * Q, and its exp from
    start[e] on, each value plus tag[e]: so a value tagged tag[e] stays
    in field e step after step, and the tag drops out mod any m that
    divides Q. The log of point x of field e is log[tag[e] + x] + start[e]."""
    Q = max(f.q for f in fields)
    log = np.zeros((len(fields), Q), dtype=np.int32)
    exp = []
    for e, f in enumerate(fields):
        log[e, :f.q] = f.tables[0]
        exp.append(f.tables[1] + np.int64(e * Q))
    start = np.cumsum([0] + [len(x) for x in exp[:-1]])
    out = (log.reshape(-1), np.concatenate(exp), np.arange(len(fields)) * Q,
           start)
    for a in out:  # read-only, since every caller shares them
        a.flags.writeable = False
    return out


class KWiseFamily:
    """k-wise independent vectors over [m]: a seed-decoded polynomial of
    degree < k over kwise_field(m, n, q_min), evaluated at the first n
    field elements and reduced mod m. Exactly uniform marginals when m
    divides q. Values are int64 up to m = 2^63, uint64 at m = 2^64 and
    python ints above."""

    def __init__(self, m: int, n: int, k: int, q_min: int):
        if m < 1:
            raise ValueError("range must be nonempty")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.m = m
        self.n = n
        self.k = k
        self.field = kwise_field(m, n, q_min)
        self.q = self.field.q
        self.coeff_bits = max(1, (self.q - 1).bit_length())
        self.seed_bits = k * self.coeff_bits

    def coefficients(self, seeds) -> np.ndarray:
        """(k, N) coefficients, constant term first: the coeff_bits-wide
        seed fields MSB first, reduced mod q (over GF(2^t) coeff_bits = t,
        so they already are), in `bit_fields`' dtype."""
        coeffs = bit_fields(as_bits(seeds, self.seed_bits), self.coeff_bits)
        return coeffs if isinstance(self.field, GF2Field) else coeffs % self.q

    def horner(self, coeffs, points) -> np.ndarray:
        """sum_j c_j * points^j over the field, elementwise and reduced mod
        m, in k - 1 steps: coeffs is any iterable, highest degree first,
        so a caller can gather each coefficient when it is needed. Over
        GF(2^t <= 16) each step is one `log_step`, with the points' logs
        looked up once; other fields make one `mul_vec` product a step.
        Reducing mod m is skipped when m >= q, which leaves every value
        as it is."""
        f, coeffs = self.field, iter(coeffs)
        acc = next(coeffs)  # one name only, so the first step frees it
        if self.k == 1:  # no step broadcasts it against the points
            acc = np.broadcast_to(acc, np.broadcast(acc, points).shape).copy()
        elif isinstance(f, GF2Field) and f.t <= 16:
            log, exp, _ = f.tables
            log_points = log.take(points)
            for c in coeffs:
                acc = log_step(acc, log_points, c, log, exp)
        else:  # prime fields and t > 16: one product a step
            for c in coeffs:
                acc = f.add(f.mul_vec(acc, points), c)
        if self.m < self.q:
            acc = acc % self.m
        return acc if self.m > 1 << 63 else acc.astype(np.int64, copy=False)

    def eval_points_batch(self, seeds, points) -> np.ndarray:
        """Value at points[i] under seed seeds[i], one output per row;
        avoids materializing all n evaluation points."""
        return self.horner(self.coefficients(seeds)[::-1],
                           np.asarray(points, dtype=np.int64))

    def sample_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) array of values in [m]."""
        return self.horner(self.coefficients(seeds)[::-1, :, None],
                           np.arange(self.n, dtype=np.int64))


class SmallBiasFamily:
    """delta-biased bits by the powering construction over GF(2^t):
    bit i = lsb(x^i * y) for seed (x, y), t = ceil(log2(n/delta)) + 1 <= 64.

    Bit i fills row i of an (n, N) uint8 array, cast once to int64 on its
    transpose. For t <= 16 a row's exponent e = i log x + log y steps as
    e <- min(e + log x, e + log x - (2^t - 1)), whose unsigned subtraction
    wraps exactly when no reduction is due, in uint16 (uint32 at t = 16),
    and indexes a uint8 lsb table. Rows with y = 0 are all zeros, and rows
    with x = 0 are (lsb y, 0, ..., 0) since x^0 = 1. Wider fields multiply
    y * x^i up by x, one bit at a time."""

    def __init__(self, n: int, delta: float):
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        self.n = n
        self.delta = delta
        self.t = max(1, math.ceil(math.log2(max(n, 1) / delta))) + 1
        if self.t > 64:
            raise ValueError(f"small-bias-lift n={n}, delta={delta:g} needs "
                             f"GF(2^{self.t}), past the t <= 64 limit")
        self.field = gf2(self.t)
        self.seed_bits = 2 * self.t
        # worst-case parity bias: a nonzero polynomial of degree < n has
        # at most n-1 roots among the 2^t choices of x
        self.bias_bound = (n - 1) / (1 << self.t) if n > 1 else 0.0

    def sample_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) array of bits, F-ordered."""
        x, y = bit_fields(as_bits(seeds, self.seed_bits), self.t)
        bits = np.empty((self.n, len(x)), dtype=np.uint8)
        f = self.field
        if self.t > 16:  # no log tables: y * x^i as v <- v * x
            v = y
            for i in range(self.n):
                bits[i] = v & 1
                if i + 1 < self.n:
                    v = f.mul_vec(v, x)
        else:
            log, exp, _ = f.tables
            q1 = f.q - 1
            # log(0) mod (q - 1) reads 0 as 1; the fixes below undo that
            log = (log % q1).astype(np.uint16 if q1 < 1 << 15 else np.uint32)
            lsb = (exp[:q1] & 1).astype(np.uint8)
            lx, e = log.take(x), log.take(y)
            for i in range(self.n):
                # in range, so "clip" skips take's bounds copy
                np.take(lsb, e, out=bits[i], mode="clip")
                if i + 1 < self.n:
                    e += lx
                    np.minimum(e, e - q1, out=e)
            bits[:, y == 0] = 0
            bits[1:, x == 0] = 0  # x^0 = 1: row 0 already reads lsb(y)
        return bits.T.astype(np.int64)


class CombinedHashFamily(KWiseFamily):
    """Hash functions [n] -> [t] read from a k-wise independent family;
    with t a power of two the joint distribution of any <= k point
    evaluations is exactly uniform."""

    def __init__(self, n: int, t: int, k: int):
        super().__init__(t, n, k, t * t)
        self.t = t

    def table_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) tables of values in [t]: sample_batch under its
        own name, so perfbench traces hash tables apart from the other
        k-wise samples."""
        return self.sample_batch(seeds)
