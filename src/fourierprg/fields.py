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
other operand gives int64. Wider fields give object arrays of python ints.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
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
        return clmod(clmul(a, b), self.modulus)

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
        """Elementwise product of int arrays (values in [0, q)). For t <= 16
        uint8 or uint16 if both operands are, wide enough for q - 1, else
        int64; for t > 16 an object array of python ints, one scalar
        product each."""
        if self.t > 16:
            return np.frompyfunc(self.mul, 2, 1)(a, b)
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
        if self._exact:
            prod = (np.asarray(a, dtype=object)
                    * np.asarray(b, dtype=object)) % self.p
            return prod.astype(np.int64) if self.p <= 1 << 63 else prod
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p


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
