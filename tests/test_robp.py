"""Branching programs and the recycling generator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg.bitseq import to_ints
from fourierprg.core import sample_seeds
from fourierprg.robp import INWGenerator, ROBP, inw_for_robp


def random_robp(rng, width, D, T):
    trans = rng.integers(0, width, size=(T, width, 1 << D))
    mags = rng.random(width)
    phases = rng.random(width) * 2 * math.pi
    labels = mags * np.exp(1j * phases)
    return ROBP(width, D, T, trans, labels)


def test_single_state_program():
    p = ROBP(1, 1, 3, np.zeros((3, 1, 2), dtype=int), np.array([1.0 + 0j]))
    for bits in itertools.product([0, 1], repeat=3):
        assert p.eval_batch([bits])[0] == pytest.approx(1.0)


def parity_robp(nbits):
    """Reads nbits 1-bit blocks; label (-1)^parity."""
    trans = np.zeros((nbits, 2, 2), dtype=np.int64)
    trans[:, 0] = [0, 1]
    trans[:, 1] = [1, 0]
    return ROBP(2, 1, nbits, trans, np.array([1.0, -1.0]))


def test_parity_program():
    p = parity_robp(5)
    for bits in itertools.product([0, 1], repeat=5):
        expected = (-1.0) ** (sum(bits) % 2)
        assert p.eval_batch([bits])[0] == pytest.approx(expected)


def test_robp_validation():
    with pytest.raises(ValueError):
        ROBP(2, 1, 2, np.zeros((2, 2, 2), dtype=int) + 5, np.ones(2))
    with pytest.raises(ValueError):
        ROBP(1, 1, 1, np.zeros((1, 1, 2), dtype=int), np.array([3.0]))


# ---------------------------------------------------------------------------
# INW generator


def test_inw_t1_returns_data_block():
    g = INWGenerator(3, 1, 5)
    for seed in range(32):
        assert g.expand_batch(seed)[0, 0] == seed >> 2


def test_inw_t2_identity_hash_repeats_block():
    # hash (a=1, b=0) maps the state to itself, so both blocks agree
    g = INWGenerator(3, 2, 3)
    for x in range(8):
        seed = (x << 6) | (1 << 3) | 0
        blocks = g.expand_batch(seed)[0]
        assert blocks[0] == blocks[1] == x


def reference_expand_batch(g: INWGenerator, seeds) -> np.ndarray:
    """The expansion as first written: 2*levels+1 shift-and-mask passes
    over the seed array, scalar field products, and one interleave of
    (states, h(states)) per level."""
    seeds = np.asarray(seeds)
    w = g.state_bits
    mask = (1 << w) - 1
    shift = g.seed_bits - w
    x = ((seeds >> shift) & mask).astype(np.int64)
    hashes = []
    for _ in range(g.levels):
        shift -= w
        a = ((seeds >> shift) & mask).astype(np.int64)
        shift -= w
        b = ((seeds >> shift) & mask).astype(np.int64)
        hashes.append((a, b))
    states = x[:, None]
    for a, b in hashes:
        mapped = np.array([[g.field.mul(int(ai), int(s)) for s in row]
                           for ai, row in zip(a, states)],
                          dtype=np.int64).reshape(states.shape) ^ b[:, None]
        merged = np.empty((states.shape[0], 2 * states.shape[1]),
                          dtype=np.int64)
        merged[:, 0::2] = states
        merged[:, 1::2] = mapped
        states = merged
    return states >> (w - g.D)


def edge_seeds(nbits: int, count: int, rng) -> np.ndarray:
    """Full-width random seeds plus zero, all ones and top-bit-set seeds,
    as an object array of python ints."""
    seeds = list(to_ints(sample_seeds(rng, nbits, count)))
    top = 1 << (nbits - 1)
    seeds += [0, (1 << nbits) - 1, top, top | 1, top | int(seeds[0])]
    out = np.empty(len(seeds), dtype=object)
    out[:] = seeds
    return out


@pytest.mark.parametrize("D,T,w", [
    (3, 1, 5), (2, 4, 3), (3, 8, 5), (6, 128, 8), (8, 64, 10),
    (16, 64, 16), (4, 4, 20), (1, 2, 1),
])
def test_inw_expand_matches_reference(D, T, w):
    g = INWGenerator(D, T, w)
    rng = np.random.default_rng(D * 1000 + T + w)
    seeds = edge_seeds(g.seed_bits, 60, rng)
    want = reference_expand_batch(g, seeds)
    got = g.expand_batch(seeds)
    assert got.dtype == (np.uint8 if w <= 8 else
                         np.uint16 if w <= 16 else np.int64)
    gen = g.generate_batch(seeds)
    assert gen.dtype == np.int64 and np.array_equal(gen, got)
    assert np.array_equal(got, want)
    # the int64 carrier gives the same blocks as python ints
    if g.seed_bits <= 62:
        assert np.array_equal(g.expand_batch(seeds.astype(np.int64)), want)
    for seed, row in zip(seeds[-5:], want[-5:]):
        assert np.array_equal(g.expand_batch(int(seed))[0], row)


@settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 16), data=st.data(), log_T=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inw_expand_narrow_states_property(w, data, log_T, seed):
    D = data.draw(st.integers(1, w))
    g = INWGenerator(D, 1 << log_T, w)
    seeds = edge_seeds(g.seed_bits, 12, np.random.default_rng(seed))
    got = g.expand_batch(seeds)
    assert got.dtype == (np.uint8 if w <= 8 else np.uint16)
    assert np.array_equal(got, reference_expand_batch(g, seeds))


def test_inw_expand_reads_low_seed_bits_only():
    # bits above seed_bits are ignored, as in the shift-and-mask reading
    for g in (INWGenerator(3, 8, 5), INWGenerator(6, 128, 8)):
        rng = np.random.default_rng(g.seed_bits)
        seeds = edge_seeds(g.seed_bits, 20, rng)
        wide = seeds + (rng.integers(1, 1 << 20) << g.seed_bits)
        assert np.array_equal(g.expand_batch(wide),
                              reference_expand_batch(g, seeds))


def test_inw_block_marginals_exactly_uniform():
    g = INWGenerator(2, 4, 3)
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    blocks = g.expand_batch(seeds)
    for t in range(4):
        counts = np.bincount(blocks[:, t], minlength=4)
        assert np.all(counts == len(seeds) // 4)


def test_inw_seed_bits_formula():
    g = INWGenerator(2, 8, 5)
    assert g.levels == 3
    assert g.seed_bits == 5 + 3 * 2 * 5


def test_inw_plan_roundtrip():
    g = INWGenerator(2, 4, 4)
    g2 = INWGenerator.from_plan(g.plan())
    seeds = np.arange(200, dtype=np.int64)
    assert np.array_equal(g.expand_batch(seeds), g2.expand_batch(seeds))


def test_inw_fools_small_robps():
    # reduced version of the fooling campaign: 10 random width-4
    # programs, exact enumeration, with one recycled state bit (S = 2
    # leaves none at the default state_extra = -2)
    gen = inw_for_robp(2, 2, 4, 0.1, state_extra=-1)
    assert (gen.D, gen.T, gen.state_bits) == (2, 4, 3)
    seeds = np.arange(1 << gen.seed_bits, dtype=np.int64)
    blocks = gen.expand_batch(seeds)
    codes = blocks @ (4 ** np.arange(3, -1, -1))
    pmf = np.bincount(codes, minlength=256) / len(seeds)
    all_inputs = np.array([[(c >> (2 * (3 - t))) & 3 for t in range(4)]
                           for c in range(256)])
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_robp(rng, 4, 2, 4)
        vals = p.eval_batch(all_inputs)
        assert abs(pmf @ vals - vals.mean()) <= 0.1


@pytest.mark.parametrize("extra", [-2, -5, -10])
def test_inw_for_robp_refuses_empty_state(extra):
    # no recycled state bit is refused, not raised to one
    with pytest.raises(ValueError, match="state_extra"):
        inw_for_robp(2, 2, 4, 0.1, state_extra=extra)


def test_inw_for_robp_state_width():
    for S, extra in ((2, -1), (4, -2), (3, 0)):
        gen = inw_for_robp(S, 2, 5, 0.1, state_extra=extra)
        assert (gen.T, gen.state_bits) == (8, 2 + S + extra)
