"""Generator abstraction.

A generator is a deterministic map from r-bit seeds to [m]^n, described by
an immutable plan tree. Plans serialize to JSON so any output stream is
reproducible from (plan JSON, seed hex).
"""

from __future__ import annotations

import math

import numpy as np

from .bitseq import as_bits, check_seed, to_ints
from .families import KWiseVectors, SmallBiasFamily

PLAN_REGISTRY: dict[str, type] = {}


def register_plan(name: str):
    def deco(cls):
        cls.plan_type = name
        PLAN_REGISTRY[name] = cls
        return cls
    return deco


class Generator:
    """Base class. Subclasses set m, n, seed_bits and implement
    generate_batch; plans round-trip through plan()/from_plan().

    generate_batch takes any seed batch `bitseq.as_bits` accepts, turns it
    into an (N, seed_bits) bit matrix with one as_bits call and returns an
    (N, n) array of output symbols."""

    m: int
    n: int
    seed_bits: int
    plan_type: str
    # exactly uniform output for every marginal; lets the enumeration
    # harness short-circuit
    exactly_uniform = False

    def generate(self, seed: int) -> np.ndarray:
        check_seed(seed, self.seed_bits)
        return self.generate_batch(as_bits(seed, self.seed_bits))[0]

    def generate_batch(self, seeds) -> np.ndarray:
        raise NotImplementedError

    def plan(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_plan(cls, d: dict) -> "Generator":
        raise NotImplementedError

    # -- enumeration support ------------------------------------------

    def output_pmf(self, pattern_cap: int = 1 << 22,
                   seed_cap: int = 26) -> np.ndarray:
        """Exact pmf over all m^n output patterns under a uniform seed,
        computed by full seed enumeration (cached)."""
        npat = self.m ** self.n
        if npat > pattern_cap:
            raise ValueError(f"{npat} patterns exceed cap {pattern_cap}")
        if self.exactly_uniform:
            return np.full(npat, 1.0 / npat)
        cached = getattr(self, "_pmf_cache", None)
        if cached is not None:
            return cached
        if self.seed_bits > seed_cap:
            raise ValueError(
                f"seed length {self.seed_bits} exceeds enumeration cap "
                f"{seed_cap}; use sampling instead")
        counts = np.zeros(npat, dtype=np.int64)
        total = 1 << self.seed_bits
        chunk = 1 << 18
        weights = self.m ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        for lo in range(0, total, chunk):
            seeds = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
            out = self.generate_batch(seeds)
            codes = np.asarray(out, dtype=np.int64) @ weights
            counts += np.bincount(codes, minlength=npat)
        pmf = counts / total
        self._pmf_cache = pmf
        return pmf


def plan_to_generator(d: dict) -> Generator:
    cls = PLAN_REGISTRY.get(d.get("type"))
    if cls is None:
        raise ValueError(f"unknown plan type {d.get('type')!r}")
    return cls.from_plan(d)


def plan_seed_bits(d: dict) -> int:
    """Seed length by independent traversal of a serialized plan: sum of
    child seed lengths plus declared local material."""
    total = int(d.get("local_seed_bits", 0))
    for child in d.get("children", []):
        total += plan_seed_bits(child)
    return total


@register_plan("uniform-stub")
class UniformStub(Generator):
    """Seed reinterpreted in base m. Exactly uniform in enumerate mode
    (the harness draws on the uniform pmf directly)."""

    exactly_uniform = True

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.seed_bits = n * max(1, (m - 1).bit_length())

    def generate_batch(self, seeds) -> np.ndarray:
        rem = to_ints(as_bits(seeds, self.seed_bits)) % (self.m ** self.n)
        out = np.empty((len(rem), self.n), dtype=np.int64)
        for j in range(self.n - 1, -1, -1):
            out[:, j] = (rem % self.m).astype(np.int64)
            rem //= self.m
        return out

    def plan(self) -> dict:
        return {"type": "uniform-stub", "m": self.m, "n": self.n,
                "local_seed_bits": self.seed_bits, "seed_bits": self.seed_bits}

    @classmethod
    def from_plan(cls, d):
        return cls(d["m"], d["n"])


@register_plan("constant-stub")
class ConstantStub(Generator):
    """Fixed output; zero seed bits. Test scaffolding."""

    def __init__(self, m: int, n: int, value: int = 0):
        if not 0 <= value < m:
            raise ValueError("value out of range")
        self.m = m
        self.n = n
        self.value = value
        self.seed_bits = 0

    def generate_batch(self, seeds) -> np.ndarray:
        bits = as_bits(seeds, self.seed_bits)
        return np.full((len(bits), self.n), self.value, dtype=np.int64)

    def plan(self) -> dict:
        return {"type": "constant-stub", "m": self.m, "n": self.n,
                "value": self.value, "local_seed_bits": 0, "seed_bits": 0}

    @classmethod
    def from_plan(cls, d):
        return cls(d["m"], d["n"], d["value"])


@register_plan("kwise")
class KWiseGenerator(Generator):
    def __init__(self, m: int, n: int, k: int, delta_map: float = 1e-3):
        self.m = m
        self.n = n
        self.k = k
        self.delta_map = delta_map
        self.family = KWiseVectors(n, m, k, delta_map)
        self.seed_bits = self.family.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        return self.family.sample_batch(as_bits(seeds, self.seed_bits))

    def plan(self) -> dict:
        return {"type": "kwise", "m": self.m, "n": self.n, "k": self.k,
                "delta_map": self.delta_map,
                "local_seed_bits": self.seed_bits, "seed_bits": self.seed_bits}

    @classmethod
    def from_plan(cls, d):
        return cls(d["m"], d["n"], d["k"], d["delta_map"])


@register_plan("small-bias-lift")
class SmallBiasLift(Generator):
    """delta-biased bit vectors viewed as a generator over {0,1}^n."""

    def __init__(self, n: int, delta: float):
        self.m = 2
        self.n = n
        self.delta = delta
        self.family = SmallBiasFamily(n, delta)
        self.seed_bits = self.family.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        return self.family.sample_batch(as_bits(seeds, self.seed_bits))

    def plan(self) -> dict:
        return {"type": "small-bias-lift", "n": self.n, "delta": self.delta,
                "local_seed_bits": self.seed_bits, "seed_bits": self.seed_bits}

    @classmethod
    def from_plan(cls, d):
        return cls(d["n"], d["delta"])


def sample_seeds(rng: np.random.Generator, nbits: int, count: int):
    """count independent uniform nbits-long seeds, as a (count, nbits)
    bit matrix.

    Up to 62 bits a seed is one bounded int64 draw; a wider seed is the
    low nbits bits of ceil(nbits / 32) 32-bit limbs drawn most
    significant first. Campaign outputs depend on these draws."""
    if nbits <= 62:
        return as_bits(
            rng.integers(0, 1 << nbits, size=count, dtype=np.int64), nbits)
    limbs = (nbits + 31) // 32
    raw = rng.integers(0, 1 << 32, size=(count, limbs), dtype=np.int64)
    bits = np.unpackbits(raw.astype(">u4").view(np.uint8), axis=1)
    return bits[:, 32 * limbs - nbits:]
