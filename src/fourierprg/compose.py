"""Top-level generator: xor-composition of the high- and low-variance
paths, recursion by simultaneous alphabet and dimension reduction, and an
INW-backed base case for small dimension."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import as_bits, read_fields
from .core import Generator, check_int64_symbols, register_plan
from .highvar import GLargePlan
from .reductions import DimStepPlan, alphabet_reduce, dim_step_params
from .robp import INWGenerator

# INWBase runs chunks of about 2 MB of int64 output (4096 rows at n = 64),
# so a chunk's blocks and symbols stay in cache from expansion to output
_CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class ComposePlan:
    """Knobs for build_generator. The construction only pins these
    constants up to asymptotics, so they are exposed here; the
    verification campaigns echo them into every report."""

    n0: int = 64                # base-case dimension threshold
    inw_block_bits: int = 6     # target INW block size in the base case
    inw_state_extra: int = 2    # base-case INW state slack beyond the block
    bucket_p: int = 8           # per-bucket independence in G1
    c_T: float = 0.125          # spreading bucket-count constant
    C_alpha: float = 4.0        # k-constant for alphabet steps
    C_dim: float = 4.0          # k-constant for dimension steps
    delta_map: float = 1e-3     # non-power-of-two mapping budget
    max_levels: int = 12


DEFAULT_PLAN = ComposePlan()


@register_plan("inw-base")
@dataclass(eq=False)
class INWBase(Generator):
    """Shape-oblivious base case: INW output bits sliced into symbols.

    Each coordinate consumes bits_per_symbol bits reduced mod m; for
    non-power-of-two m the extra bits push the per-coordinate deviation
    below delta_map / (4n).

    Symbol j is bits [j*b, (j+1)*b) of the stream of T blocks of D bits,
    MSB first, cut by `read_fields` from the (T, N) blocks of each chunk.
    The output is the (N, n) view of (n, N) int64 symbols.
    """

    m: int
    n: int
    delta: float
    block_bits: int = 6
    state_extra: int = 2
    delta_map: float = 1e-3
    plan_info = ("inw",)

    def __post_init__(self):
        check_int64_symbols(self)
        m, n = self.m, self.n
        if self.state_extra < 1:
            raise ValueError(f"state_extra must be >= 1, not "
                             f"{self.state_extra!r}")
        base = max(1, (m - 1).bit_length())
        if m & (m - 1) == 0:
            self.bits_per_symbol = base
        else:
            budget = max(2, math.ceil(math.log2(4 * n * m / self.delta_map)))
            self.bits_per_symbol = budget
        self.total_bits = n * self.bits_per_symbol
        if math.ceil(self.total_bits / 2) <= 14:
            # two-block instance with state width exactly D: the block
            # pair (x, a*x + b) is jointly uniform, so the bit stream is
            # exactly uniform and the seed is as short as possible
            T = 2
            D = max(1, math.ceil(self.total_bits / 2))
            w = D
        else:
            nblocks = max(2, math.ceil(self.total_bits / self.block_bits))
            T = 1 << (nblocks - 1).bit_length()
            D = math.ceil(self.total_bits / T)
            w = D + self.state_extra
            if w > 16:
                raise ValueError(f"inw-base state of {D} + {self.state_extra}"
                                 " bits exceeds 16; lower the knob "
                                 "inw_block_bits or inw_state_extra")
        self.inw = INWGenerator(D, T, w)
        self.seed_bits = self.inw.seed_bits
        if T == 2 and w == D and m & (m - 1) == 0:
            self.exactly_uniform = True

    def generate_batch(self, seeds) -> np.ndarray:
        bits = as_bits(seeds, self.seed_bits)
        out = np.empty((self.n, len(bits)), dtype=np.int64)
        step = max(1, _CHUNK_BYTES // (8 * self.n))
        for lo in range(0, len(bits), step):
            blocks = self.inw.expand_batch(bits[lo:lo + step]).T
            sym = read_fields(blocks, self.inw.D, self.bits_per_symbol,
                              self.n)
            if self.m != 1 << self.bits_per_symbol:  # else already in [m]
                sym %= self.m
            out[:, lo:lo + step] = sym
        return out.T


@register_plan("xor-compose")
@dataclass(eq=False)
class XorCompose(Generator):
    """Coordinatewise (a + b) mod m of two children on disjoint seed
    slices; the left child owns the high bits."""

    left: Generator
    right: Generator
    plan_info = ("m", "n")

    def __post_init__(self):
        left, right = self.left, self.right
        if (left.m, left.n) != (right.m, right.n):
            raise ValueError("children disagree on (m, n)")
        self.m = left.m
        self.n = left.n
        self.seed_bits = left.seed_bits + right.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        bits = as_bits(seeds, self.seed_bits)
        lbits = self.left.seed_bits
        # the right child (the tree's dimension step) first: a tree whose
        # alphabet step refuses its symbols refuses before glarge runs
        right = self.right.generate_batch(bits[:, lbits:])
        return (self.left.generate_batch(bits[:, :lbits]) + right) % self.m


def _delta_schedule(n: int, eps: float) -> float:
    loglog = max(1, math.ceil(math.log2(max(2.0, math.log2(max(n, 2))))))
    return eps / (4 * loglog)


def build_generator(m: int, n: int, eps: float,
                    plan: ComposePlan = DEFAULT_PLAN) -> Generator:
    """Generator fooling (m, n)-Fourier shapes to target error eps, built
    as a plan tree; the fooling quality at desk scale is established by
    the verification campaigns, not by the asymptotic constants."""
    if m < 2 or n < 1 or not 0 < eps < 1:
        raise ValueError("need m >= 2, n >= 1, 0 < eps < 1")
    delta = _delta_schedule(n, eps)
    if delta < 2.0 ** -40:
        raise ValueError(
            f"target error {eps} needs per-level budget {delta:.3g}, below "
            "the double-precision verification floor 2^-40")
    return _build_level(m, n, delta, plan, plan.max_levels)


def _build_level(m: int, n: int, delta: float, plan: ComposePlan,
                 levels_left: int) -> Generator:
    if n <= plan.n0 or levels_left == 0:
        return INWBase(m, n, delta, plan.inw_block_bits,
                       plan.inw_state_extra, plan.delta_map)
    if m > n ** 4:
        return alphabet_reduce(
            m, n, delta,
            lambda mm, nn, dd: _build_level(mm, nn, dd, plan, levels_left),
            plan.C_alpha)

    # low-variance path: dimension reduction with a recursively built
    # inner generator, alphabet-reduced when its alphabet overshoots
    t, _k, r0 = dim_step_params(m, n, delta / 2, plan.C_dim)
    m_inner = 1 << r0
    inner = alphabet_reduce(
        m_inner, t, delta / 2,
        lambda mm, nn, dd: _build_level(mm, nn, dd, plan, levels_left - 1),
        plan.C_alpha)
    g_s = DimStepPlan(m, n, delta / 2, inner, plan.C_dim)
    g_l = GLargePlan(m, n, delta, plan.bucket_p, plan.c_T, plan.delta_map)
    return XorCompose(g_l, g_s)

