"""Finite fields: binary extension fields GF(2^t) and prime fields GF(p).

GF(2^t) elements are ints whose bits are polynomial coefficients, reduced
by a fixed irreducible modulus per degree so outputs are bit-exact across
runs. Vectorized multiply uses a full product table for t <= 8 and
log/exp tables for t <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _is_irreducible(f: int, t: int) -> bool:
    # Rabin's test: x^(2^t) = x mod f, and gcd(x^(2^(t/p)) - x, f) = 1
    # for every prime p dividing t
    x = 2
    h = x
    for _ in range(t):
        h = clmod(clmul(h, h), f)
    if h != clmod(x, f):
        return False
    primes, n, d = set(), t, 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    for p in primes:
        h = x
        for _ in range(t // p):
            h = clmod(clmul(h, h), f)
        if _clgcd(h ^ x, f) != 1:
            return False
    return True


def irreducible_modulus(t: int) -> int:
    """Fixed modulus per degree: the table for t <= 64, the
    lexicographically smallest irreducible (same rule) beyond it."""
    if t in IRREDUCIBLE:
        return IRREDUCIBLE[t]
    if t < 1:
        raise ValueError("degree must be positive")
    base = 1 << t
    for low in range(1, base, 2):
        if _is_irreducible(base | low, t):
            IRREDUCIBLE[t] = base | low
            return base | low
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


class Field:
    """Common interface: ints in [0, q) with field arithmetic."""

    q: int

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def elem(self, value: int) -> "FieldElem":
        return FieldElem(value, self)


class GF2Field(Field):
    def __init__(self, t: int):
        self.t = t
        self.q = 1 << t
        self.modulus = irreducible_modulus(t)
        self._log = None
        self._exp = None
        self._prod = None

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        return clmod(clmul(a, b), self.modulus)

    def _tables(self):
        # log/exp over a multiplicative generator; only for small t
        if self._log is None:
            if self.t > 16:
                raise ValueError("log/exp tables limited to t <= 16")
            g = self._find_generator()
            q = self.q
            log = np.zeros(q, dtype=np.int64)
            exp = np.zeros(2 * (q - 1), dtype=np.int64)
            x = 1
            for i in range(q - 1):
                exp[i] = x
                exp[i + q - 1] = x
                log[x] = i
                x = self.mul(x, g)
            log[0] = -1
            self._log, self._exp = log, exp
        return self._log, self._exp

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1  # trivial multiplicative group
        n = self.q - 1
        primes = []
        m, d = n, 2
        while d * d <= m:
            if m % d == 0:
                primes.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.append(m)
        for g in range(2, self.q):
            if all(self.pow(g, n // p) != 1 for p in primes):
                return g
        raise RuntimeError("no generator found")  # pragma: no cover

    def mul_vec(self, a, b):
        """Elementwise product of int arrays (values in [0, q))."""
        if self.t > 16:
            aa, bb = np.broadcast_arrays(np.asarray(a, dtype=object),
                                         np.asarray(b, dtype=object))
            out = np.empty(aa.shape, dtype=object)
            flat = out.reshape(-1)
            for i, (x, y) in enumerate(zip(aa.reshape(-1), bb.reshape(-1))):
                flat[i] = self.mul(int(x), int(y))
            return out
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.t <= 8:
            return np.take(self._products(), (a << self.t) | b)
        return self._mul_logexp(a, b)

    def _mul_logexp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        log, exp = self._tables()
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        la = log[a * nz]
        lb = log[b * nz]
        np.copyto(out, exp[la + lb], where=nz)
        return out

    def _products(self) -> np.ndarray:
        # flat q x q product table, indexed by (a << t) | b; 512 KB at t = 8
        if self._prod is None:
            elems = np.arange(self.q, dtype=np.int64)
            self._prod = self._mul_logexp(elems[:, None],
                                          elems[None, :]).reshape(-1)
        return self._prod

    def mul_scalar_vec(self, a: int, b):
        """a * b_i for a fixed nonzero scalar a."""
        if self.t > 16:
            return self.mul_vec(a, b)
        if a == 0:
            return np.zeros_like(np.asarray(b, dtype=np.int64))
        log, exp = self._tables()
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(b.shape, dtype=np.int64)
        nz = b != 0
        np.copyto(out, exp[log[a] + log[b * nz]], where=nz)
        return out

    def __repr__(self):
        return f"GF2Field(t={self.t})"

    def __eq__(self, other):
        return isinstance(other, GF2Field) and other.t == self.t

    def __hash__(self):
        return hash(("gf2", self.t))


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        # int64 products of residues wrap once (p-1)^2 reaches 2^63
        self._exact = (p - 1) ** 2 >= 1 << 63

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def mul_vec(self, a, b):
        if self._exact:
            prod = (np.asarray(a, dtype=object)
                    * np.asarray(b, dtype=object)) % self.p
            return prod.astype(np.int64) if self.p <= 1 << 63 else prod
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p

    def mul_scalar_vec(self, a: int, b):
        if self._exact:
            return self.mul_vec(a, b)
        return (a * np.asarray(b, dtype=np.int64)) % self.p

    def __repr__(self):
        return f"PrimeField(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gfp", self.p))


@dataclass(frozen=True)
class FieldElem:
    value: int
    field: Field

    def __post_init__(self):
        if not 0 <= self.value < self.field.q:
            raise ValueError(f"value {self.value} not in [0, {self.field.q})")

    def _check(self, other: "FieldElem"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field.mul(self.value, other.value), self.field)


def field_mul(a: FieldElem, b: FieldElem) -> FieldElem:
    return a * b


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
