"""Generators for high-total-variance shapes.

G1: constant fooling error via dyadic bucketing by a pairwise-independent
permutation x -> a*x + b over GF(2^t), a p-wise independent string per
bucket, and the bucket seeds recycled through the INW generator.

GLarge: error amplification by a spreading hash whose buckets each get an
independent-looking G1 output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import as_bits, bit_fields, read_fields
from .core import Generator, register_plan, unique_keys
from .families import (CombinedHashFamily, KWiseFamily, deviation_q_min,
                       log_step, stacked_tables)
from .fields import gf2
from .robp import INWGenerator

# GLargePlan runs chunks of _CHUNK_BYTES // (8 * stream bits) rows (132 rows
# of the n = 128 tree's 15,872-bit recycled streams): a chunk unpacks its
# streams at a byte per bit, and the bucket seeds it gathers, G1's own streams
# and the int64 coordinates come to about as much again, so a chunk peaks
# near half the budget (7.6 MB under tracemalloc for 1024 rows at n = 128)
_CHUNK_BYTES = 1 << 24


class SeedRecycler:
    """Supplies total_bits of expanded seed material: the 8-bit blocks of
    INW(8, T, 10), T the least power of two with 8T >= total_bits, read
    MSB first and truncated to total_bits."""

    def __init__(self, total_bits: int):
        self.total_bits = total_bits
        nblocks = max(1, math.ceil(total_bits / 8))
        self.inw = INWGenerator(8, 1 << (nblocks - 1).bit_length(), 10)
        self.seed_bits = self.inw.seed_bits

    def bitstream_batch(self, seeds) -> np.ndarray:
        """(N, total_bits) bit matrix of the concatenated blocks."""
        blocks = self.inw.expand_batch(seeds)
        # the C-order copy transposes the (T, N) states into rows
        raw = blocks.astype(np.uint8, order="C")
        return np.unpackbits(raw, axis=1, count=self.total_bits)

    def config(self) -> dict:
        return {**self.inw.config(), "seed_bits": self.seed_bits}


@register_plan("g1")
@dataclass(eq=False)
class G1Plan(Generator):
    """Constant-error generator for shapes with total variance >= 1."""

    m: int
    n: int
    p: int = 8
    delta_map: float = 1e-3
    plan_info = ("recycler",)

    def __post_init__(self):
        self.n_padded = 1 << max(1, (self.n - 1).bit_length())
        if self.n_padded > 1 << 16:
            raise ValueError(f"g1: n_padded = {self.n_padded} exceeds 2^16, "
                             "the GF(2^16) log/exp table limit")
        self.tlog = self.n_padded.bit_length() - 1
        self.perm_bits = 2 * self.tlog
        sizes = [2] + [1 << j for j in range(1, self.tlog)]
        self.bucket_families = [KWiseFamily(
            self.m, sz, self.p, deviation_q_min(self.m, sz, self.delta_map))
            for sz in sizes]
        self.bucket_seed_bits = [fam.seed_bits for fam in self.bucket_families]
        self.recycler = SeedRecycler(sum(self.bucket_seed_bits))
        self.seed_bits = self.perm_bits + self.recycler.seed_bits
        # the recycled stream's coefficient widths, and the buckets' first
        # domain points
        self._widths = tuple(fam.coeff_bits for fam in self.bucket_families
                             for _ in range(self.p))
        self._starts = np.cumsum([0] + sizes[:-1])
        # GF(p_e) buckets' moduli: Horner's acc * x + c stays below
        # p_e (|bucket| + 1), since x < |bucket| and c < 2^coeff_bits <
        # 2 p_e, so int64 is exact unless that bound passes 2^63
        q = [fam.q for fam in self.bucket_families]
        wide = max(p * (sz + 1) for p, sz in zip(q, sizes)) > 1 << 63
        self._moduli = np.array(q, dtype=object if wide else np.int64)

    def generate_batch(self, seeds) -> np.ndarray:
        rows, coords = np.divmod(np.arange(len(seeds) * self.n), self.n)
        return self.eval_points(seeds, rows, coords).reshape(-1, self.n)

    def eval_points(self, seeds, rows, coords) -> np.ndarray:
        """Entry e: G1 under seeds[rows[e]] at coordinate coords[e] only.
        One Horner pass over all entries: each gathers its bucket's
        coefficients, read for every bucket by one `read_fields` call."""
        bits = as_bits(seeds, self.seed_bits)
        # perm seed (a_raw, b) in the high bits, recycler seed below
        a_raw, b = bit_fields(bits[:, :self.perm_bits], self.perm_bits,
                              self.tlog)
        inw = self.recycler.inw
        coeffs = read_fields(inw.expand_batch(bits[:, self.perm_bits:]).T,
                             inw.D, self._widths).reshape(-1)
        # domain point x lands on coordinate a*x + b, where a = a_raw mod
        # (q - 1) + 1 is never 0, so coordinate j reads x = a^-1 (j ^ b)
        f = gf2(self.tlog)
        log, exp, _ = f.tables
        a_inv = exp[-log[a_raw % (f.q - 1) + 1] % (f.q - 1)]
        x = f.mul_vec(a_inv[rows], coords ^ b[rows])
        # x's bucket, its point in it, and its coefficients highest first:
        # coefficient j of bucket e under seed i is at (e * p + j) * N + i
        fam = np.searchsorted(self._starts, x, side="right") - 1
        pts, fams, N = x - self._starts[fam], self.bucket_families, len(bits)
        at = fam * (self.p * N) + rows
        gathered = (coeffs.take(at + j * N) for j in reversed(range(self.p)))
        if self.m & (self.m - 1):  # GF(p_e)
            acc, q = 0, self._moduli[fam]
            for c in gathered:
                acc = (acc * pts + c.astype(q.dtype)) % q
        elif fams[-1].field.t <= 16:
            log, exp, tag, start = stacked_tables(
                tuple(bucket.field for bucket in fams))
            tag, start = tag[fam], start[fam]
            acc, lx = next(gathered) | tag, log.take(pts + tag) + start
            for c in gathered:
                acc = log_step(acc, lx, c, log, exp)
        else:  # m > 2^16: every bucket's field is GF(m), whose products
            # are int64 up to m = 2^63
            return fams[0].horner((c.astype(np.int64) for c in gathered),
                                  pts)
        return (acc % self.m).astype(np.int64)


class SpreadingFamily(CombinedHashFamily):
    """Hash family [n] -> [T] meant to spread any heavy vector's squared
    mass over at least ell buckets with probability 1 - delta.

    T = min(max(16, ceil(c_T * log2(1/delta)^5)), n_padded), n_padded the
    least power of two >= max(n, 2) (G1's padding); threshold B = 2T,
    ell = ceil(2 * log2(1/delta)). n coordinates hashed into T <= n_padded
    buckets fill about 1 - e^(-n/T) >= 39% of them; past n_padded most
    buckets stay empty, and a larger T only lengthens the recycled stream
    glarge cuts its bucket seeds from. The constants are knobs validated
    empirically (the spreading spot checks in the tests), not derived
    values.
    """

    def __init__(self, n: int, delta: float, c_T: float = 0.125):
        self.delta = delta
        log1d = max(1.0, math.log2(1 / delta))
        self.T = min(max(16, math.ceil(c_T * log1d ** 5)),
                     1 << max(1, (n - 1).bit_length()))
        self.B = 2 * self.T
        self.ell = math.ceil(2 * log1d)
        super().__init__(n, self.T, min(n, 2 + math.ceil(2 * log1d)))

    def config(self) -> dict:
        return {"n": self.n, "delta": self.delta, "T": self.T, "B": self.B,
                "ell": self.ell, "k": self.k, "seed_bits": self.seed_bits}


@register_plan("glarge")
@dataclass(eq=False)
class GLargePlan(Generator):
    """Amplified generator: spreading hash plus per-bucket G1 outputs,
    bucket seeds recycled.

    Bucket j of a row reads the j-th g1_bits slice of that row's recycled
    stream. A chunk of rows expands its streams whole and gathers the
    seeds of only the (row, bucket) pairs some coordinate hashes to, and
    G1 evaluates each coordinate under its own pair's seed at that
    coordinate alone."""

    m: int
    n: int
    delta: float
    p: int = 8
    c_T: float = 0.125
    delta_map: float = 1e-3
    plan_info = ("spreading", "recycler")

    def __post_init__(self):
        self.spreading = SpreadingFamily(self.n, self.delta, self.c_T)
        self.g1 = G1Plan(self.m, self.n, self.p, self.delta_map)
        self.recycler = SeedRecycler(self.spreading.T * self.g1.seed_bits)
        self.seed_bits = self.spreading.seed_bits + self.recycler.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        bits = as_bits(seeds, self.seed_bits)
        out = np.empty((len(bits), self.n), dtype=np.int64)
        step = max(1, _CHUNK_BYTES // (8 * self.recycler.total_bits))
        for lo in range(0, len(bits), step):
            out[lo:lo + step] = self._chunk(bits[lo:lo + step])
        return out

    def _chunk(self, bits: np.ndarray) -> np.ndarray:
        N, hbits, T = len(bits), self.spreading.seed_bits, self.spreading.T
        # hash seed in the high bits, recycler seed below
        tables = self.spreading.table_batch(bits[:, :hbits])  # (N, n)
        # one G1 seed per (row, bucket) pair that some coordinate uses: the
        # bucket's slice of the row's recycled stream, pairs in key order
        # row * T + bucket
        pairs, index = unique_keys(
            (np.arange(N)[:, None] * T + tables).reshape(-1), N * T)
        rows, buckets = np.divmod(pairs, T)
        bucket_seeds = self.recycler.bitstream_batch(bits[:, hbits:]).reshape(
            N, T, self.g1.seed_bits)[rows, buckets]
        return self.g1.eval_points(bucket_seeds, index, np.tile(
            np.arange(self.n), N)).reshape(N, self.n)
