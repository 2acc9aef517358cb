"""Finite fields: binary extension fields GF(2^t) and prime fields GF(p).

A field is an object with q, add, mul and mul_vec; gf2() and
prime_field() cache one object per field. GF(2^t) elements are ints
whose bits are polynomial coefficients, reduced by a fixed irreducible
modulus per degree so outputs are bit-exact across runs. For t <= 16 one
cached table set serves every vectorized product with no zero masks:
with log(0) = 2(q - 1) and exp padded with zeros, exp[log a + log b] is
the product even when a or b is 0, and for t <= 8 a flat uint8 q x q
product table built from these is one lookup. Products of uint8/uint16
operands stay uint8/uint16; any other operand gives int64.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

# Lexicographically smallest irreducible polynomial of each degree.
IRREDUCIBLE = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x20000004B, 34: 0x40000001B, 35: 0x800000005, 36: 0x1000000035,
    37: 0x200000003F, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
    41: 0x20000000009, 42: 0x40000000027, 43: 0x80000000059,
    44: 0x100000000021, 45: 0x20000000001B, 46: 0x400000000003,
    47: 0x800000000021, 48: 0x100000000002D, 49: 0x2000000000071,
    50: 0x400000000001D, 51: 0x800000000004B, 52: 0x10000000000009,
    53: 0x20000000000047, 54: 0x4000000000007D, 55: 0x80000000000047,
    56: 0x100000000000095, 57: 0x200000000000011, 58: 0x400000000000063,
    59: 0x80000000000007B, 60: 0x1000000000000003, 61: 0x2000000000000027,
    62: 0x4000000000000069, 63: 0x8000000000000003, 64: 0x1000000000000001B,
}


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


def _prime_factors(n: int) -> list:
    """Distinct prime factors of n by trial division, ascending."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def _is_irreducible(f: int, t: int) -> bool:
    # Rabin's test: x^(2^t) = x mod f, and gcd(x^(2^(t/p)) - x, f) = 1
    # for every prime p dividing t
    x = 2
    h = x
    for _ in range(t):
        h = clmod(clmul(h, h), f)
    if h != clmod(x, f):
        return False
    for p in _prime_factors(t):
        h = x
        for _ in range(t // p):
            h = clmod(clmul(h, h), f)
        if _clgcd(h ^ x, f) != 1:
            return False
    return True


def irreducible_modulus(t: int) -> int:
    """Fixed modulus per degree t >= 1: the table for t <= 64, the
    lexicographically smallest irreducible (same rule) beyond it."""
    if t not in IRREDUCIBLE:  # every degree has one, so next() finds it
        IRREDUCIBLE[t] = next(f for f in range((1 << t) | 1, 2 << t, 2)
                              if _is_irreducible(f, t))
    return IRREDUCIBLE[t]


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

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1  # trivial multiplicative group
        n = self.q - 1
        primes = _prime_factors(n)
        for g in range(2, self.q):
            if all(self.pow(g, n // p) != 1 for p in primes):
                return g
        raise RuntimeError("no generator found")  # pragma: no cover

    @cached_property
    def tables(self):
        """(log, exp, prod) over a multiplicative generator g, t <= 16:
        int32 log with log(0) = 2(q - 1), uint16 exp of length 4q - 3
        with exp[i] = g^i for i < 2(q - 1) and zeros after, so a zero
        factor sends log a + log b into the padding; and for t <= 8 the
        uint8 product table indexed by (a << t) | b, else None."""
        if self.t > 16:
            raise ValueError("log/exp tables limited to t <= 16")
        g = self._find_generator()
        q = self.q
        log = np.full(q, 2 * (q - 1), dtype=np.int32)
        exp = np.zeros(4 * q - 3, dtype=np.uint16)
        x = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = x
            log[x] = i
            x = self.mul(x, g)
        prod = (exp[log[:, None] + log].astype(np.uint8).reshape(-1)
                if self.t <= 8 else None)
        return log, exp, prod

    def mul_vec(self, a, b):
        """Elementwise product of int arrays (values in [0, q)): uint8 or
        uint16 if both operands are, wide enough for q - 1, else int64."""
        if self.t > 16:
            aa, bb = np.broadcast_arrays(np.asarray(a, dtype=object),
                                         np.asarray(b, dtype=object))
            out = np.empty(aa.shape, dtype=object)
            flat = out.reshape(-1)
            for i, (x, y) in enumerate(zip(aa.reshape(-1), bb.reshape(-1))):
                flat[i] = self.mul(int(x), int(y))
            return out
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
