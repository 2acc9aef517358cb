"""Branching programs, the recycling generator, and shape discretization."""

import itertools
import math

import numpy as np
import pytest

from fourierprg.core import sample_seeds
from fourierprg.robp import (INWGenerator, ROBP, default_precision_bits,
                             inw_for_robp, parity_robp, shape_to_robp)
from fourierprg.shapes import (FourierShape, eval_shape, linear_shape,
                               random_shape, constant_shape)


def random_robp(rng, width, D, T):
    trans = rng.integers(0, width, size=(T, width, 1 << D))
    mags = rng.random(width)
    phases = rng.random(width) * 2 * math.pi
    labels = mags * np.exp(1j * phases)
    return ROBP(width, D, T, trans, labels)


def test_single_state_program():
    p = ROBP(1, 1, 3, np.zeros((3, 1, 2), dtype=int), np.array([1.0 + 0j]))
    for bits in itertools.product([0, 1], repeat=3):
        assert p.eval(list(bits)) == pytest.approx(1.0)


def test_parity_program():
    p = parity_robp(5)
    for bits in itertools.product([0, 1], repeat=5):
        expected = (-1.0) ** (sum(bits) % 2)
        assert p.eval(list(bits)) == pytest.approx(expected)


def test_linear_form_tracking_program():
    # ROBP accumulating a linear form at fixed precision vs direct shape
    # evaluation
    rng = np.random.default_rng(0)
    f = linear_shape(rng.integers(-3, 4, 8), 0.37, 2)
    p = shape_to_robp(f, precision_bits=8)
    for _ in range(100):
        x = rng.integers(0, 2, 8)
        direct = eval_shape(f, x)
        assert abs(p.eval(list(x)) - direct) <= 8 * 2 ** -6


def test_robp_validation():
    with pytest.raises(ValueError):
        ROBP(2, 1, 2, np.zeros((2, 2, 2), dtype=int) + 5, np.ones(2))
    with pytest.raises(ValueError):
        ROBP(1, 1, 1, np.zeros((1, 1, 2), dtype=int), np.array([3.0]))


def test_robp_serialization_roundtrip():
    p = random_robp(np.random.default_rng(1), 3, 2, 4)
    q = ROBP.from_dict(p.to_dict())
    blocks = np.random.default_rng(2).integers(0, 4, size=(10, 4))
    assert np.allclose(p.eval_batch(blocks), q.eval_batch(blocks))


# ---------------------------------------------------------------------------
# INW generator


def test_inw_t1_returns_data_block():
    g = INWGenerator(3, 1, 5)
    for seed in range(32):
        assert g.expand(seed)[0] == seed >> 2


def test_inw_t2_identity_hash_repeats_block():
    # hash (a=1, b=0) maps the state to itself, so both blocks agree
    g = INWGenerator(3, 2, 3)
    for x in range(8):
        seed = (x << 6) | (1 << 3) | 0
        blocks = g.expand(seed)
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
    seeds = [int(s) for s in sample_seeds(rng, nbits, count)]
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
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the int64 carrier gives the same blocks as python ints
    if g.seed_bits <= 62:
        assert np.array_equal(g.expand_batch(seeds.astype(np.int64)), want)
    for seed, row in zip(seeds[-5:], want[-5:]):
        assert np.array_equal(g.expand(int(seed)), row)


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
    # programs, exact enumeration
    gen = inw_for_robp(2, 2, 4, 0.1)
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


# ---------------------------------------------------------------------------
# shape -> ROBP discretization


def test_shape_to_robp_constant():
    p = shape_to_robp(constant_shape(4, 2), 8)
    assert np.allclose(p.labels, 1.0)


def test_shape_to_robp_parity():
    f = FourierShape(np.tile([1.0, -1.0], (4, 1)))
    p = shape_to_robp(f, 8)
    for bits in itertools.product([0, 1], repeat=4):
        expected = (-1.0) ** (sum(bits) % 2)
        assert p.eval(list(bits)) == pytest.approx(expected, abs=1e-9)


def test_shape_to_robp_error_bound():
    rng = np.random.default_rng(4)
    f = random_shape(rng, 6, 2)
    p = shape_to_robp(f, 16)
    for code in range(64):
        x = [(code >> (5 - j)) & 1 for j in range(6)]
        assert abs(p.eval(x) - eval_shape(f, x)) <= 6 * 2 ** -14


def test_shape_to_robp_zero_entries_absorb():
    t = np.ones((3, 2), dtype=complex)
    t[1, 0] = 0.0
    p = shape_to_robp(FourierShape(t), 8)
    assert p.eval([0, 0, 1]) == pytest.approx(0.0)
    assert p.eval([0, 1, 1]) == pytest.approx(1.0)


def test_discretization_pointwise_bound():
    # precision >= 2*log2(n/delta) keeps the truncated shape within
    # delta of the original pointwise
    rng = np.random.default_rng(5)
    for n, delta in ((4, 0.1), (8, 0.05)):
        bits = default_precision_bits(n, delta)
        f = random_shape(rng, n, 2)
        p = shape_to_robp(f, bits)
        for code in range(1 << n):
            x = [(code >> (n - 1 - j)) & 1 for j in range(n)]
            assert abs(p.eval(x) - eval_shape(f, x)) <= delta


def test_shape_to_robp_requires_pow2_alphabet():
    with pytest.raises(ValueError):
        shape_to_robp(constant_shape(2, 3), 8)
