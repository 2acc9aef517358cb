"""Read-once branching programs with complex terminal labels, and the
INW-style seed-recycling generator used wherever a PRG for space-bounded
computation is needed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import bit_fields
from .core import Generator, register_plan
from .families import log_step
from .fields import gf2


class ROBP:
    """Layered program: width states per layer, T steps of D bits each.
    transitions[t][state][block] is the state entered in layer t+1;
    labels are unit-disk complex values on the final layer."""

    def __init__(self, width: int, D: int, T: int, transitions, labels,
                 start: int = 0):
        transitions = np.asarray(transitions, dtype=np.int64)
        labels = np.asarray(labels, dtype=complex)
        if transitions.shape != (T, width, 1 << D):
            raise ValueError("transition table has wrong shape")
        if np.any(transitions < 0) or np.any(transitions >= width):
            raise ValueError("transition out of range")
        if labels.shape != (width,):
            raise ValueError("labels must cover the final layer")
        if np.any(np.abs(labels) > 1 + 1e-12):
            raise ValueError("labels must lie in the unit disk")
        if not 0 <= start < width:
            raise ValueError("bad start state")
        self.width = width
        self.D = D
        self.T = T
        self.transitions = transitions
        self.labels = labels
        self.start = start

    def eval_batch(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.ndim != 2 or blocks.shape[1] != self.T:
            raise ValueError(f"need {self.T} blocks per input")
        if np.any(blocks < 0) or np.any(blocks >= 1 << self.D):
            raise ValueError("block value out of range")
        state = np.full(len(blocks), self.start, dtype=np.int64)
        for t in range(self.T):
            state = self.transitions[t, state, blocks[:, t]]
        return self.labels[state]


@register_plan("inw")
@dataclass(eq=False)
class INWGenerator(Generator):
    """Recycling generator: T blocks of D bits from a seed of
    state_bits + levels * 2*state_bits bits.

    The seed is (x, hL, ..., h1) where each hi encodes an affine map
    y -> a*y + b over GF(2^state_bits) (a pairwise independent hash).
    Level i+1 emits (expand(x), expand(hi(x))); each block is the D
    most significant bits of its state.

    expand_batch keeps the states coordinate-major, as a (T, N) array with
    one contiguous row per block position, in block order: with s = T >>
    (l + 1), level l maps the rows so far, at the multiples of 2s, to the
    odd multiples of s, each seed's (a, b) a row broadcast down them. It
    returns the transposed (N, T) view. States, and so the blocks, are
    uint8 for state_bits <= 8, uint16 to 16 and int64 beyond. A level
    multiplies through `mul_vec` (one product-table lookup for t <= 8,
    the word kernel above 16), and for 8 < t <= 16 is one `log_step`
    with each seed's log a looked up once.
    """

    D: int
    T: int
    state_bits: int

    def __post_init__(self):
        D, T, state_bits = self.D, self.T, self.state_bits
        if T < 1 or T & (T - 1):
            raise ValueError("T must be a power of two")
        if state_bits < D:
            raise ValueError("state must hold at least one block")
        self.levels = T.bit_length() - 1
        self.field = gf2(state_bits)
        self.seed_bits = state_bits + self.levels * 2 * state_bits
        self._dtype = (np.uint8 if state_bits <= 8 else
                       np.uint16 if state_bits <= 16 else np.int64)
        # generator view: alphabet [2^D], dimension T
        self.m = 1 << D
        self.n = T

    def expand_batch(self, seeds) -> np.ndarray:
        """(len(seeds), T) blocks of D bits, in the state dtype."""
        # x, then (a, b) per level: one row per w-bit seed field, MSB first
        w = self.state_bits
        fields = bit_fields(seeds, self.seed_bits, w).astype(
            self._dtype, copy=False)
        states = np.empty((self.T, fields.shape[1]), dtype=self._dtype)
        states[0] = fields[0]
        f, log_domain = self.field, 8 < w <= 16
        if log_domain:
            log, exp, _ = f.tables
        for lvl in range(self.levels):
            s = self.T >> (lvl + 1)
            a, b = fields[1 + 2 * lvl], fields[2 + 2 * lvl]
            if log_domain:
                states[s::2 * s] = log_step(states[::2 * s], log.take(a), b,
                                            log, exp)
            else:
                states[s::2 * s] = f.mul_vec(a, states[::2 * s]) ^ b
        states >>= w - self.D
        return states.T

    def generate_batch(self, seeds) -> np.ndarray:
        return self.expand_batch(seeds).astype(np.int64)

    def config(self) -> dict:
        return {"D": self.D, "T": self.T, "state_bits": self.state_bits}


def inw_for_robp(S: int, D: int, T: int, delta: float,
                 state_extra: int = -2) -> INWGenerator:
    """INW instance sized for (S, D, T)-ROBPs.

    The state carries the block plus S + state_extra >= 1 recycled bits,
    a desk-scale substitution for the asymptotic parameterization.
    state_extra is a calibrated knob (default -2, validated by the
    width-16 ROBP fooling campaign at delta = 0.1); delta itself enters
    only through that empirical validation, not a formula.
    """
    if S + state_extra < 1:
        raise ValueError(f"S + state_extra = {S} + {state_extra} leaves no "
                         "recycled state bit; need at least 1")
    Tp = 1 << max(0, (T - 1).bit_length())
    return INWGenerator(D, Tp, D + S + state_extra)

