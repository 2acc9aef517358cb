"""Top-level generator: xor-composition of the high- and low-variance
paths, recursion by simultaneous alphabet and dimension reduction, and an
INW-backed base case for small dimension."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Generator, plan_to_generator, register_plan
from .highvar import GLargePlan
from .reductions import (AlphabetStepPlan, DimStepPlan, alphabet_reduce,
                         dim_step_params)
from .robp import INWGenerator


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


def symbol_pieces(n: int, b: int, D: int, dtype=np.uint32):
    """Piece schedule for cutting n b-bit symbols out of a stream of
    D-bit blocks, MSB first.

    Returns (block, rshift, mask, lshift), each of shape (P, n) with P the
    largest number of blocks a symbol overlaps: symbol j is the OR over
    k of ((blocks[block[k, j]] >> rshift[k, j]) & mask[k, j])
    << lshift[k, j]. Unused pieces have mask 0.
    """
    start = np.arange(n, dtype=np.int64) * b
    stop = start + b
    npieces = (stop - 1) // D - start // D + 1
    t = start // D + np.arange(npieces.max(), dtype=np.int64)[:, None]
    lo = np.maximum(start, t * D)
    hi = np.minimum(stop, (t + 1) * D)
    used = hi > lo
    width = np.where(used, hi - lo, 0)
    block = np.where(used, t, 0)
    rshift = np.where(used, (t + 1) * D - hi, 0)
    lshift = np.where(used, stop - hi, 0)
    mask = ((1 << width) - 1).astype(dtype)
    return block, rshift.astype(dtype), mask, lshift.astype(dtype)


@register_plan("inw-base")
class INWBase(Generator):
    """Shape-oblivious base case: INW output bits sliced into symbols.

    Each coordinate consumes bits_per_symbol bits reduced mod m; for
    non-power-of-two m the extra bits push the per-coordinate deviation
    below delta_map / (4n).

    Symbol j is bits [j*b, (j+1)*b) of the stream of T blocks of D bits,
    MSB first. It overlaps at most ceil(b/D) + 1 blocks, so it is the OR
    of that many pieces, each one block shifted right, masked and shifted
    left into place. The pieces come from a schedule fixed per plan, so a
    batch costs one gather-shift-mask-shift pass per piece position.
    """

    def __init__(self, m: int, n: int, delta: float,
                 block_bits: int = 6, state_extra: int = 2,
                 delta_map: float = 1e-3):
        self.m = m
        self.n = n
        self.delta = delta
        self.block_bits = block_bits
        self.state_extra = state_extra
        self.delta_map = delta_map
        base = max(1, (m - 1).bit_length())
        if m & (m - 1) == 0:
            self.bits_per_symbol = base
        else:
            budget = max(2, math.ceil(math.log2(4 * n * m / delta_map)))
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
            nblocks = max(2, math.ceil(self.total_bits / block_bits))
            T = 1 << (nblocks - 1).bit_length()
            D = math.ceil(self.total_bits / T)
            w = min(16, D + max(1, state_extra))
        self.inw = INWGenerator(D, T, w)
        self.seed_bits = self.inw.seed_bits
        if T == 2 and w == D and m & (m - 1) == 0:
            self.exactly_uniform = True
        self._dtype = np.uint32 if self.bits_per_symbol <= 32 else np.uint64
        self._pieces = symbol_pieces(n, self.bits_per_symbol, D, self._dtype)

    def generate_batch(self, seeds) -> np.ndarray:
        blocks = self.inw.expand_batch(seeds).astype(self._dtype)
        block, rshift, mask, lshift = self._pieces
        out = np.zeros((len(blocks), self.n), dtype=self._dtype)
        piece = np.empty_like(out)
        for k in range(len(block)):
            np.take(blocks, block[k], axis=1, out=piece)
            piece >>= rshift[k]
            piece &= mask[k]
            piece <<= lshift[k]
            out |= piece
        if self.m & (self.m - 1) == 0:
            out &= self._dtype(self.m - 1)
        else:
            out %= self._dtype(self.m)
        return out.astype(np.int64)

    def plan(self) -> dict:
        return {"type": "inw-base", "m": self.m, "n": self.n,
                "delta": self.delta, "block_bits": self.block_bits,
                "state_extra": self.state_extra,
                "delta_map": self.delta_map,
                "inw": {"D": self.inw.D, "T": self.inw.T,
                        "state_bits": self.inw.state_bits},
                "local_seed_bits": self.seed_bits,
                "seed_bits": self.seed_bits}

    @classmethod
    def from_plan(cls, d):
        return cls(d["m"], d["n"], d["delta"], d["block_bits"],
                   d["state_extra"], d["delta_map"])


@register_plan("xor-compose")
class XorCompose(Generator):
    """Coordinatewise (a + b) mod m of two children on disjoint seed
    slices; the left child owns the high bits."""

    def __init__(self, left: Generator, right: Generator):
        if (left.m, left.n) != (right.m, right.n):
            raise ValueError("children disagree on (m, n)")
        self.m = left.m
        self.n = left.n
        self.left = left
        self.right = right
        self.seed_bits = left.seed_bits + right.seed_bits

    def generate_batch(self, seeds) -> np.ndarray:
        seeds = np.asarray(seeds)
        ls = seeds >> self.right.seed_bits
        rs = seeds & ((1 << self.right.seed_bits) - 1)
        return (self.left.generate_batch(ls)
                + self.right.generate_batch(rs)) % self.m

    def plan(self) -> dict:
        return {"type": "xor-compose", "m": self.m, "n": self.n,
                "local_seed_bits": 0, "seed_bits": self.seed_bits,
                "children": [self.left.plan(), self.right.plan()]}

    @classmethod
    def from_plan(cls, d):
        return cls(plan_to_generator(d["children"][0]),
                   plan_to_generator(d["children"][1]))


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


def _base_case(m: int, n: int, delta: float, plan: ComposePlan) -> Generator:
    return INWBase(m, n, delta, plan.inw_block_bits, plan.inw_state_extra,
                   plan.delta_map)


def _build_level(m: int, n: int, delta: float, plan: ComposePlan,
                 levels_left: int) -> Generator:
    if n <= plan.n0 or levels_left == 0:
        return _base_case(m, n, delta, plan)
    if m > n ** 4:
        return alphabet_reduce(
            m, n, delta,
            lambda mm, nn, dd: _build_level(mm, nn, dd, plan, levels_left),
            plan.C_alpha)

    # low-variance path: dimension reduction with a recursively built
    # inner generator, alphabet-reduced when its alphabet overshoots
    t, _k, r0 = dim_step_params(m, n, delta / 2, plan.C_dim)
    m_inner = 1 << r0
    inner = _build_for_alphabet(m_inner, t, delta / 2, plan, levels_left - 1)
    g_s = DimStepPlan(m, n, delta / 2, inner, plan.C_dim)
    g_l = GLargePlan(m, n, delta, plan.bucket_p, "inw", plan.c_T,
                     plan.delta_map)
    return XorCompose(g_l, g_s)


def _build_for_alphabet(m: int, n: int, delta: float, plan: ComposePlan,
                        levels_left: int) -> Generator:
    if m > n ** 4:
        return alphabet_reduce(
            m, n, delta,
            lambda mm, nn, dd: _build_level(mm, nn, dd, plan, levels_left),
            plan.C_alpha)
    return _build_level(m, n, delta, plan, levels_left)
