"""Generator abstraction.

A generator is a deterministic map from r-bit seeds to [m]^n, described by
an immutable plan tree. Plans serialize to JSON so any output stream is
reproducible from (plan JSON, seed hex).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .bitseq import as_bits, check_seed, to_ints
from .families import KWiseFamily, SmallBiasFamily, deviation_q_min

PLAN_REGISTRY: dict[str, type] = {}

# seeds per chunk: n = 16 outputs fill 8 MiB, below the 32 MiB mmap threshold
ENUM_CHUNK = 1 << 16


class Refused(ValueError):
    """A well-formed instance that an exact evaluation cap turns away; a
    campaign records it as refused, while any other ValueError is a usage
    error."""


def check_int64_symbols(g) -> None:
    """Refuse a node whose alphabet int64 symbols cannot hold: the leaves
    at build, the alphabet step when it generates, so a tree above 2^63
    still builds and reports its seed bits."""
    if g.m > 1 << 63:
        raise ValueError(f"{g.plan_type} symbols are int64: m = {g.m} "
                         "exceeds the limit 2^63")


def unique_keys(keys, size: int):
    """(distinct values, ascending, and each key's index among them) of an
    int array keys with values in [0, size): np.unique's answer from a
    flag array, without its sort or its lazy import of numpy.ma."""
    used = np.zeros(size, dtype=bool)
    used[keys] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[keys]


def register_plan(name: str):
    def deco(cls):
        cls.plan_type = name
        PLAN_REGISTRY[name] = cls
        return cls
    return deco


class Generator:
    """Base class. A plan node is a registered @dataclass(eq=False)
    subclass whose fields are its plan parameters, in constructor order;
    a field annotated `Generator` is a child. __post_init__ sets m, n,
    seed_bits and whatever generate_batch needs.

    plan() writes the type, every non-child field, each attribute named in
    the class tuple plan_info (as its config() dict when it has one),
    local_seed_bits (seed_bits minus the children's), seed_bits and, when
    there are any, the children's plans in field order. from_plan() reads
    the fields back, rebuilds the children through plan_to_generator and
    refuses a plan with a key or a value the rebuilt node's plan() lacks.

    generate_batch takes any seed batch `bitseq.as_bits` accepts, makes at
    most one as_bits call (none where `bit_fields` cuts 1-D int seeds) and
    returns an (N, n) int64 array of output symbols in an unspecified
    memory layout (the INW nodes return Fortran order). A consumer that
    reduces floats across coordinates must add them in a fixed order, not
    with a sum whose rounding follows the layout."""

    m: int
    n: int
    seed_bits: int
    plan_type: str
    plan_info: tuple = ()
    # exactly uniform output for every marginal; lets the enumeration
    # harness short-circuit
    exactly_uniform = False

    def generate(self, seed: int) -> np.ndarray:
        check_seed(seed, self.seed_bits)
        return self.generate_batch(as_bits(seed, self.seed_bits))[0]

    def generate_batch(self, seeds) -> np.ndarray:
        raise NotImplementedError

    def plan(self) -> dict:
        d = {"type": self.plan_type}
        kids = []
        for f in fields(self):
            v = getattr(self, f.name)
            if _is_child(f):
                kids.append(v)
            else:
                d[f.name] = v
        for name in self.plan_info:
            v = getattr(self, name)
            d[name] = v.config() if hasattr(v, "config") else v
        d["local_seed_bits"] = self.seed_bits - sum(k.seed_bits for k in kids)
        d["seed_bits"] = self.seed_bits
        if kids:
            d["children"] = [k.plan() for k in kids]
        return d

    @classmethod
    def from_plan(cls, d: dict) -> "Generator":
        kids = iter(d.get("children", []))
        args = {}
        for f in fields(cls):
            child = _is_child(f)
            v = next(kids, MISSING) if child else d.get(f.name, MISSING)
            if v is MISSING:
                raise ValueError(
                    f"{cls.plan_type} plan lacks field {f.name!r}")
            args[f.name] = plan_to_generator(v) if child else v
        if next(kids, None) is not None:
            raise ValueError(
                f"{cls.plan_type} plan has more children than child fields")
        g = cls(**args)
        # every other key the plan carries must be one the rebuilt node
        # writes, with the same value; derived keys may be left out
        want = g.plan()
        for key, v in d.items():
            if key == "children":
                continue  # each child was checked when it was rebuilt
            if key not in want:
                raise ValueError(
                    f"{cls.plan_type} plan has unknown field {key!r}")
            if v != want[key]:
                raise ValueError(
                    f"{cls.plan_type} plan field {key!r} is {v!r}, "
                    f"but the rebuilt node has {want[key]!r}")
        return g

    # -- enumeration support ------------------------------------------

    def enumerate_outputs(self, seed_cap: int = 26):
        """Outputs of all 2^seed_bits seeds in seed order, lazily in
        chunks of ENUM_CHUNK rows; refused at once above seed_cap."""
        if self.seed_bits > seed_cap:
            raise Refused(
                f"seed length {self.seed_bits} exceeds enumeration cap "
                f"{seed_cap}; use sampling instead")
        total = 1 << self.seed_bits
        return (self.generate_batch(np.arange(
                    lo, min(lo + ENUM_CHUNK, total), dtype=np.int64))
                for lo in range(0, total, ENUM_CHUNK))

    def output_pmf(self, pattern_cap: int = 1 << 22,
                   seed_cap: int = 26) -> np.ndarray:
        """Exact pmf over all m^n output patterns under a uniform seed,
        computed by full seed enumeration, one chunk at a time (cached)."""
        npat = self.m ** self.n
        if npat > pattern_cap:
            raise Refused(f"{npat} patterns exceed cap {pattern_cap}")
        if self.exactly_uniform:
            return np.full(npat, 1.0 / npat)
        outputs = self.enumerate_outputs(seed_cap)  # refuses above the cap
        cached = getattr(self, "_pmf_cache", None)
        if cached is not None:
            return cached
        counts = np.zeros(npat, dtype=np.int64)
        weights = self.m ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        for out in outputs:
            codes = np.einsum("ij,j->i", out, weights)
            del out  # else it lives on while the next chunk is generated
            counts += np.bincount(codes, minlength=npat)
        pmf = counts / (1 << self.seed_bits)
        self._pmf_cache = pmf
        return pmf


def _is_child(f) -> bool:
    return f.type in ("Generator", Generator)


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
@dataclass(eq=False)
class UniformStub(Generator):
    """Seed reinterpreted in base m. Exactly uniform when m is a power of
    two; otherwise the n*ceil(log2 m) seed bits read mod m^n favour the
    low codes."""

    m: int
    n: int

    def __post_init__(self):
        check_int64_symbols(self)
        self.seed_bits = self.n * max(1, (self.m - 1).bit_length())
        self.exactly_uniform = self.m & (self.m - 1) == 0

    def generate_batch(self, seeds) -> np.ndarray:
        rem = to_ints(as_bits(seeds, self.seed_bits)) % (self.m ** self.n)
        out = np.empty((len(rem), self.n), dtype=np.int64)
        for j in range(self.n - 1, -1, -1):
            out[:, j] = (rem % self.m).astype(np.int64)
            rem //= self.m
        return out


@register_plan("kwise")
@dataclass(eq=False)
class KWiseGenerator(Generator):
    m: int
    n: int
    k: int
    delta_map: float = 1e-3

    def __post_init__(self):
        check_int64_symbols(self)
        q_min = deviation_q_min(self.m, self.n, self.delta_map)
        self.family = KWiseFamily(self.m, self.n, self.k, q_min)
        self.seed_bits = self.family.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        return self.family.sample_batch(seeds)


@register_plan("small-bias-lift")
@dataclass(eq=False)
class SmallBiasLift(Generator):
    """delta-biased bit vectors viewed as a generator over {0,1}^n."""

    n: int
    delta: float
    m = 2

    def __post_init__(self):
        self.family = SmallBiasFamily(self.n, self.delta)
        self.seed_bits = self.family.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        return self.family.sample_batch(seeds)


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
