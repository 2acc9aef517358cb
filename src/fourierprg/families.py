"""Primitive pseudorandom families.

All samplers are deterministic functions of (family descriptor, seed).
Seed layout within a family is fixed: coefficients / components are read
MSB-first in declaration order.
"""

from __future__ import annotations

import math

import numpy as np

from .bitseq import as_bits, bit_fields
from .fields import gf2, next_prime, prime_field


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


class KWiseFamily:
    """k-wise independent vectors over [q]: seed-decoded polynomial of
    degree < k evaluated at the first n field elements."""

    def __init__(self, field, n: int, k: int):
        if n > field.q:
            raise ValueError(f"n={n} exceeds field size {field.q}: "
                             "not enough evaluation points")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.field = field
        self.n = n
        self.k = k
        self.q = field.q
        self.coeff_bits = max(1, (field.q - 1).bit_length())
        self.seed_bits = k * self.coeff_bits

    def coefficients(self, seeds) -> np.ndarray:
        """(k, N) coefficients, constant term first: the coeff_bits-wide
        seed fields MSB first, reduced mod q; python ints from 63 bits,
        which is exactly when q > 2^62."""
        bits = as_bits(seeds, self.seed_bits)
        return bit_fields(bits, self.coeff_bits) % self.q

    def horner(self, coeffs, points) -> np.ndarray:
        """sum_j c_j * points^j over the field, elementwise, in k - 1
        products: coeffs is any iterable, highest degree first, so a caller
        can gather each coefficient when it is needed."""
        f, coeffs = self.field, iter(coeffs)
        acc = next(coeffs)  # one name only, so the first step frees it
        acc = np.broadcast_to(acc, np.broadcast(acc, points).shape)
        for c in coeffs:
            acc = f.add(f.mul_vec(acc, points), c)
        return acc if acc.flags.writeable else acc.copy()  # k = 1

    def eval_points_batch(self, seeds, points) -> np.ndarray:
        """Value at points[i] under seed seeds[i], one output per row;
        avoids materializing all n evaluation points."""
        return self.horner(self.coefficients(seeds)[::-1],
                           np.asarray(points, dtype=np.int64))

    def sample_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) array of values in [q]."""
        return self.horner(self.coefficients(seeds)[::-1, :, None],
                           np.arange(self.n, dtype=np.int64))


class KWiseVectors:
    """k-wise independent vectors over [m], built over a field of size q
    and reduced mod m. Exactly uniform marginals when m divides q;
    otherwise the per-string deviation is at most n*m/q (delta_map)."""

    def __init__(self, n: int, m: int, k: int, delta_map: float = 1e-3):
        self.n = n
        self.m = m
        self.k = k
        f = kwise_field(m, n, m * max(1, math.ceil(4 * n / delta_map)))
        self.delta_map_actual = 0.0 if f.q % m == 0 else n * m / f.q
        self.inner = KWiseFamily(f, n, k)
        self.seed_bits = self.inner.seed_bits

    def sample_batch(self, seeds: np.ndarray) -> np.ndarray:
        return self.inner.sample_batch(seeds) % self.m


class SmallBiasFamily:
    """delta-biased bits by the powering construction over GF(2^t):
    bit i = lsb(x^i * y) for seed (x, y), t = ceil(log2(n/delta)) + 1.

    For t <= 16 every bit comes from one exponent through the field's
    log/exp tables: x^i * y = exp((i log x + log y) mod (2^t - 1)). Rows
    with y = 0 are all zeros, and rows with x = 0 are (lsb y, 0, ..., 0)
    since x^0 = 1. Wider fields multiply y * x^i up by x, one bit at a time."""

    def __init__(self, n: int, delta: float):
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        self.n = n
        self.delta = delta
        self.t = max(1, math.ceil(math.log2(max(n, 1) / delta))) + 1
        self.field = gf2(self.t)
        self.seed_bits = 2 * self.t
        # worst-case parity bias: a nonzero polynomial of degree < n has
        # at most n-1 roots among the 2^t choices of x
        self.bias_bound = (n - 1) / (1 << self.t) if n > 1 else 0.0

    def sample_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) array of bits."""
        x, y = bit_fields(as_bits(seeds, self.seed_bits), self.t)
        out = np.empty((len(x), self.n), dtype=np.int64)
        f = self.field
        if self.t > 16:  # no log tables: y * x^i as v <- v * x
            v = y
            for i in range(self.n):
                out[:, i] = v & 1
                if i + 1 < self.n:
                    v = f.mul_vec(v, x)
            return out
        log, exp, _ = f.tables
        # log(0) mod (q - 1) reads 0 as 1; the fixes below undo that.
        # n <= 2^(t-1), so i * log x + log y < 2^(2t-1) fits int32
        log, lsb = log % (f.q - 1), (exp[:f.q - 1] & 1).astype(np.int64)
        cols = np.arange(self.n, dtype=np.int32)
        for lo in range(0, len(x), 1 << 13):  # int32 blocks bound the RSS
            hi = lo + (1 << 13)
            e = np.multiply.outer(log[x[lo:hi]], cols)
            e += log[y[lo:hi], None]
            e %= f.q - 1  # in range, so "clip" skips take's bounds copy
            np.take(lsb, e, out=out[lo:hi], mode="clip")
        out[y == 0] = 0
        out[x == 0, 1:] = 0  # x^0 = 1: column 0 already reads lsb(y)
        return out


class CombinedHashFamily:
    """Hash functions [n] -> [t] read from a k-wise independent family;
    with t a power of two the joint distribution of any <= k point
    evaluations is exactly uniform."""

    def __init__(self, n: int, t: int, k: int):
        if t < 1:
            raise ValueError("range must be nonempty")
        self.n = n
        self.t = t
        self.k = k
        self.kwise = KWiseFamily(kwise_field(t, n, t * t), n, k)
        self.seed_bits = self.kwise.seed_bits

    def table_batch(self, seeds) -> np.ndarray:
        """(len(seeds), n) tables of values in [t]."""
        return self.kwise.sample_batch(seeds) % self.t
