"""Finite fields: binary extension fields GF(2^t) and prime fields GF(p).

A field is an object with q, add, mul and mul_vec; gf2() and
prime_field() cache one object per field. GF(2^t) elements are ints
whose bits are polynomial coefficients, reduced by a fixed modulus per
degree so outputs are bit-exact across runs: the lexicographically
smallest irreducible polynomial of degree t, found on first use by
Ben-Or's test over the odd candidates in ascending order. For t <= 16
one cached table set serves every vectorized product with no zero
masks: the powers of the smallest primitive element, which the table
walk finds itself, give log and exp; with log(0) = 2(q - 1) and exp
padded with zeros, exp[log a + log b] is the product even when a or b
is 0, and for t <= 8 a flat uint8 q x q product table built from these
is one lookup. Products of uint8/uint16 operands stay uint8/uint16; any
other operand gives int64. For 16 < t <= 64 products are words: one
carry-less kernel on 64-bit lanes multiplies byte by byte through a
shared 256 x 256 table and folds by the modulus through per-field byte
tables, giving int64 up to t = 63 and uint64 at t = 64. Wider fields
multiply only one pair at a time, through `mul`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product: one shifted copy of the larger
    operand per set bit of the smaller, highest bit first."""
    if a > b:
        a, b = b, a
    r = 0
    while a:
        i = a.bit_length() - 1
        r ^= b << i
        a ^= 1 << i
    return r


def clmod(a: int, b: int) -> int:
    """Remainder of carry-less division."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _clgcd(a: int, b: int) -> int:
    while b:
        a, b = b, clmod(a, b)
    return a


def _is_irreducible(f: int, t: int) -> bool:
    # Ben-Or (1981): f of degree t is irreducible iff it shares no factor
    # with x^(2^i) - x for any i <= t/2
    h = 2  # x
    for _ in range(t // 2):
        h = clmod(clmul(h, h), f)
        if _clgcd(h ^ 2, f) != 1:
            return False
    return True


_MODULI: dict[int, int] = {}

_BYTE_SHIFTS = np.arange(0, 64, 8)
_FOLD_OFFSETS = np.arange(0, 256 * 16, 256, dtype=np.uint16)


@lru_cache(maxsize=None)
def clmul8_table() -> np.ndarray:
    """uint16 carry-less products of two bytes, a * b at (a << 8) | b:
    built by doubling, the rows of the a with bit i set are the rows
    below them XOR b << i."""
    b = np.arange(256, dtype=np.uint16)
    table = np.zeros((1, 256), dtype=np.uint16)
    for i in range(8):
        table = np.concatenate([table, table ^ (b << i)])
    table = table.reshape(-1)
    table.flags.writeable = False  # shared by every field
    return table


def _words(a) -> np.ndarray:
    """int64 view of elements of GF(2^t <= 64): the same 64 bits, with
    values from 2^63 on read as negative."""
    a = np.asarray(a)
    if a.dtype.kind == "O":
        a = a.astype(np.uint64)
    return a.view(np.int64) if a.dtype.itemsize == 8 else a.astype(np.int64)


def _nbytes(words: np.ndarray) -> int:
    """Low bytes, at least one, that hold every word of an int64 array."""
    top = int(np.bitwise_or.reduce(words, axis=None))
    return 8 if top < 0 else max(1, (top.bit_length() + 7) // 8)


def irreducible_modulus(t: int) -> int:
    """Fixed modulus per degree t >= 1: the lexicographically smallest
    irreducible polynomial of degree t, searched once and cached."""
    if t not in _MODULI:  # every degree has one, so next() finds it
        _MODULI[t] = next(f for f in range((1 << t) | 1, 2 << t, 2)
                          if _is_irreducible(f, t))
    return _MODULI[t]


class GF2Field:
    """GF(2^t): ints in [0, q) whose bits are polynomial coefficients."""

    def __init__(self, t: int):
        if t < 1:
            raise ValueError("degree must be positive")
        self.t = t
        self.q = 1 << t

    @cached_property
    def modulus(self) -> int:
        """Found on the first product, so a k = 1 family never looks."""
        return irreducible_modulus(self.t)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        # x^t = low (mod modulus) with low = modulus ^ x^t, so r = H x^t + L
        # folds to L ^ H * low: low is short, so each fold is a few shifts
        # where clmod shifts once per bit of r above t
        r, t, low = clmul(a, b), self.t, self.modulus ^ self.q
        while r >> t:
            r = (r & (self.q - 1)) ^ clmul(r >> t, low)
        return r

    @cached_property
    def fold_table(self) -> np.ndarray:
        """uint64 table, t <= 64: v * x^(8k) mod modulus at 256k + v, for
        each byte position k < 2 ceil(t/8) of a carry-less product. Each
        position's entries are XORs of its 8 powers x^(8k + i) mod
        modulus, built by doubling as in `clmul8_table`."""
        nbytes, t = 2 * -(-self.t // 8), self.t
        powers, x = [], 1
        for _ in range(8 * nbytes):
            powers.append(x)
            x <<= 1
            if x >> t:
                x ^= self.modulus
        basis = np.array(powers, dtype=np.uint64).reshape(nbytes, 8)
        table = np.zeros((nbytes, 1), dtype=np.uint64)
        for i in range(8):
            table = np.concatenate([table, table ^ basis[:, i:i + 1]], axis=1)
        table = table.reshape(-1)
        table.flags.writeable = False
        return table

    @cached_property
    def tables(self):
        """(log, exp, prod) over a multiplicative generator g, t <= 16:
        int32 log with log(0) = 2(q - 1), uint16 exp of length 4q - 3
        with exp[i] = g^i for i < 2(q - 1) and zeros after, so a zero
        factor sends log a + log b into the padding; and for t <= 8 the
        uint8 product table indexed by (a << t) | b, else None."""
        if self.t > 16:
            raise ValueError("log/exp tables limited to t <= 16")
        q = self.q
        log = np.full(q, 2 * (q - 1), dtype=np.int32)
        exp = np.zeros(4 * q - 3, dtype=np.uint16)
        # g is the smallest element whose powers reach all q - 1 units
        # before returning to 1; a walk that returns early tries g + 1
        for g in range(1 if q == 2 else 2, q):
            x = 1
            for i in range(q - 1):
                exp[i] = exp[i + q - 1] = x
                log[x] = i
                x = self.mul(x, g)
                if x == 1 and i < q - 2:
                    break
            else:
                break
        prod = (exp[log[:, None] + log].astype(np.uint8).reshape(-1)
                if self.t <= 8 else None)
        return log, exp, prod

    def mul_vec(self, a, b):
        """Elementwise product of int arrays (values in [0, q)), broadcast.
        For t <= 16 uint8 or uint16 if both operands are, wide enough for
        q - 1, else int64; for 16 < t <= 64 `_mul_words`, int64 up to
        t = 63 and uint64 at t = 64. Wider fields are refused."""
        if self.t > 16:
            return self._mul_words(a, b)
        a, b = np.asarray(a), np.asarray(b)
        dtype = np.promote_types(np.result_type(a, b),
                                 np.min_scalar_type(self.q - 1))
        if a.dtype.kind != "u" or b.dtype.kind != "u" or dtype.itemsize > 2:
            dtype = np.dtype(np.int64)
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        log, exp, prod = self.tables
        if self.t <= 8:
            idx = (a.astype(np.uint16, copy=False) << self.t) | b
            return np.take(prod, idx).astype(dtype, copy=False)
        return np.take(exp, log[a] + log[b]).astype(dtype, copy=False)

    def _mul_words(self, a, b):
        """Product on 64-bit words for t <= 64. Byte i of a times byte j of
        b is one `clmul8_table` lookup of 16 bits at bit 8(i + j); the
        lookups are summed per byte position, looping only over the bytes
        the shorter operand uses, and each byte k of the sum folds by one
        `fold_table` lookup, all XORed together."""
        if self.t > 64:
            raise ValueError(f"GF(2^{self.t}) products are limited to "
                             "t <= 64")
        a, b = _words(a), _words(b)
        nd = max(a.ndim, b.ndim)
        a, b = (x.reshape((1,) * (nd - x.ndim) + x.shape) for x in (a, b))
        na, nb = _nbytes(a), _nbytes(b)
        if na < nb:
            a, b, na, nb = b, a, nb, na
        lanes = (-1,) + (1,) * nd
        a = a >> _BYTE_SHIFTS[:na].reshape(lanes) & 255
        b = b >> _BYTE_SHIFTS[:nb].reshape(lanes) & 255
        pieces = clmul8_table().take((a[:, None] << 8) | b)
        prod = np.zeros((na + nb,) + pieces.shape[2:], dtype=np.uint16)
        for j in range(nb):
            prod[j:j + na] ^= pieces[:, j]
        # carry each position's high byte into the next, then offset each
        # byte to its position's fold entries
        high = prod >> 8
        prod &= 255
        prod[1:] ^= high[:-1]
        prod += _FOLD_OFFSETS[:na + nb].reshape(lanes)
        out = np.bitwise_xor.reduce(self.fold_table.take(prod), axis=0)
        return out if self.t == 64 else out.view(np.int64)


class PrimeField:
    """GF(p): ints in [0, p) with arithmetic mod p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        # int64 products of residues wrap once (p-1)^2 reaches 2^63
        self._exact = (p - 1) ** 2 >= 1 << 63

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def mul_vec(self, a, b):
        """Elementwise product mod p, in int64 for p <= 2^62 when the
        operands' largest values multiply below 2^63, as they always do
        for (p - 1)^2 < 2^63; otherwise through python ints, and int64
        again for p <= 2^62, whose residues add without wrapping."""
        a, b = np.asarray(a), np.asarray(b)
        if self._exact and (self.p > 1 << 62
                            or not _products_fit_int64(a, b)):
            prod = (a.astype(object) * b.astype(object)) % self.p
            return prod.astype(np.int64) if self.p <= 1 << 62 else prod
        return (a.astype(np.int64, copy=False)
                * b.astype(np.int64, copy=False)) % self.p


def _products_fit_int64(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every product of the nonnegative ints a and b is < 2^63."""
    return (a.dtype.kind in "iu" and b.dtype.kind in "iu"
            and int(a.max(initial=0)) * int(b.max(initial=0)) < 1 << 63)


@lru_cache(maxsize=None)
def gf2(t: int) -> GF2Field:
    return GF2Field(t)


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below MR_EXACT_BELOW (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} >= {MR_EXACT_BELOW} "
                         "is not decided deterministically")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p
