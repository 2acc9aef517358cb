"""Composed generator: base case, xor composition, recursive build."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg.compose import (ComposePlan, INWBase, XorCompose,
                                build_generator, symbol_pieces)
from fourierprg.core import (ConstantStub, UniformStub, plan_seed_bits,
                             plan_to_generator, sample_seeds)
from fourierprg.shapes import EnumerateMode, fooling_error, random_shape
from test_robp import edge_seeds


def test_inw_base_small_instance_exactly_uniform():
    g = INWBase(2, 8, 0.1)
    assert g.exactly_uniform
    assert g.seed_bits == 12
    pmf = g.output_pmf()
    assert np.allclose(pmf, 1 / 256)


def test_inw_base_pow2_symbol_width():
    g = INWBase(4, 8, 0.1)
    assert g.bits_per_symbol == 2
    assert g.seed_bits == 24
    out = g.generate_batch(np.arange(1024, dtype=np.int64))
    assert out.min() >= 0 and out.max() < 4


def test_inw_base_nonpow2_mapping_budget():
    g = INWBase(3, 4, 0.1, delta_map=1e-2)
    assert g.bits_per_symbol >= 9  # ceil(log2(4*4*3/1e-2))
    seeds = np.arange(1 << min(g.seed_bits, 20), dtype=np.int64)
    out = g.generate_batch(seeds)
    assert out.min() >= 0 and out.max() < 3


def test_inw_base_plan_roundtrip():
    g = INWBase(2, 10, 0.05)
    g2 = plan_to_generator(json.loads(json.dumps(g.plan())))
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def reference_inw_base(g: INWBase, seeds) -> np.ndarray:
    """Symbols as first written: unpack every block into an (N, T*D)
    matrix of stream bits one bit at a time, then read each symbol with
    a weighted sum of its bits, mod m."""
    blocks = g.inw.expand_batch(seeds)
    D, T = g.inw.D, g.inw.T
    bits = np.zeros((len(blocks), T * D), dtype=np.int64)
    for t in range(T):
        for d in range(D):
            bits[:, t * D + d] = (blocks[:, t] >> (D - 1 - d)) & 1
    b = g.bits_per_symbol
    out = np.zeros((len(blocks), g.n), dtype=np.int64)
    for j in range(g.n):
        chunk = bits[:, j * b:(j + 1) * b]
        weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
        out[:, j] = (chunk @ weights) % g.m
    return out


# (m, n, block_bits): b = bits_per_symbol against the block width D
INW_BASE_CASES = [
    (2, 8, 6),          # T = 2, w = D: the exactly uniform case
    (3, 1, 6),          # T = 2 with a non-power-of-two m
    (2, 64, 6),         # b = 1 < D = 4
    (64, 16, 6),        # b = D = 6
    (4096, 64, 6),      # b = 12 = 2D, two blocks per symbol
    (3, 10, 6),         # b = 17, D = 6: three and four blocks per symbol
    (5, 20, 6),         # non-power-of-two m, b = 19 > D
    (8, 64, 12),        # D = 12 > 8
    (1000, 5, 6),       # b = 25
    (1 << 40, 3, 6),    # b = 40 > 32: 64-bit temporaries
    (10 ** 9 + 7, 2, 6),  # b = 44, non-power-of-two
]


@pytest.mark.parametrize("m,n,block_bits", INW_BASE_CASES)
def test_inw_base_matches_reference(m, n, block_bits):
    g = INWBase(m, n, 0.1, block_bits)
    rng = np.random.default_rng(m % 1000 + n)
    seeds = edge_seeds(g.seed_bits, 100, rng)
    want = reference_inw_base(g, seeds)
    got = g.generate_batch(seeds)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got.min() >= 0 and got.max() < m
    if g.seed_bits <= 62:
        assert np.array_equal(g.generate_batch(seeds.astype(np.int64)), want)
    for seed, row in zip(seeds[-5:], want[-5:]):
        assert np.array_equal(g.generate(int(seed)), row)


def test_inw_base_case_shapes():
    # the cases above really cover the schedule shapes they claim
    spans = {}
    for m, n, block_bits in INW_BASE_CASES:
        g = INWBase(m, n, 0.1, block_bits)
        block, _, mask, _ = symbol_pieces(n, g.bits_per_symbol, g.inw.D)
        spans[(m, n)] = (g.bits_per_symbol, g.inw.D, g.inw.T,
                         int((mask > 0).sum(axis=0).max()))
    assert spans[(2, 8)][2] == spans[(3, 1)][2] == 2
    assert spans[(2, 64)][0] < spans[(2, 64)][1]
    assert spans[(64, 16)][0] == spans[(64, 16)][1]
    assert spans[(3, 10)][3] >= 3
    assert spans[(8, 64)][1] > 8
    assert spans[(1 << 40, 3)][0] > 32


def test_symbol_pieces_cover_stream():
    # every stream bit a symbol needs comes from exactly one piece
    for n, b, D in ((5, 3, 4), (7, 17, 6), (4, 6, 6), (3, 44, 6), (9, 1, 5)):
        block, rshift, mask, lshift = symbol_pieces(n, b, D, np.uint64)
        assert len(block) <= -(-b // D) + 1
        for j in range(n):
            covered = []
            for k in range(len(block)):
                width = int(mask[k, j]).bit_length()
                if width == 0:
                    continue
                first = block[k, j] * D + D - int(rshift[k, j]) - width
                covered += range(first, first + width)
                assert int(lshift[k, j]) == (j + 1) * b - first - width
            assert covered == list(range(j * b, (j + 1) * b))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 300), n=st.integers(1, 24),
       block_bits=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_inw_base_batch_scalar_replay_agree(m, n, block_bits, seed):
    g = INWBase(m, n, 0.1, block_bits)
    seeds = edge_seeds(g.seed_bits, 6, np.random.default_rng(seed))
    out = g.generate_batch(seeds)
    assert out.shape == (len(seeds), n)
    assert out.min() >= 0 and out.max() < m
    assert np.array_equal(out, reference_inw_base(g, seeds))
    for s, row in zip(seeds, out):
        assert np.array_equal(g.generate(int(s)), row)
    replay = plan_to_generator(json.loads(json.dumps(g.plan())))
    assert np.array_equal(replay.generate_batch(seeds), out)


def test_xor_compose_mismatch():
    with pytest.raises(ValueError):
        XorCompose(UniformStub(2, 4), UniformStub(2, 5))


def test_xor_compose_constant_shift():
    # xor with a constant-1 child is a cyclic shift of the other child
    left = UniformStub(3, 2)
    right = ConstantStub(3, 2, 1)
    g = XorCompose(left, right)
    assert g.seed_bits == left.seed_bits
    for seed in range(9):
        assert np.array_equal(g.generate(seed),
                              (left.generate(seed) + 1) % 3)


def test_xor_compose_uniform_child_gives_uniform_output():
    g = XorCompose(UniformStub(2, 3), ConstantStub(2, 3, 1))
    codes = [int("".join(map(str, g.generate(s))), 2) for s in range(8)]
    assert sorted(codes) == list(range(8))


def test_xor_compose_plan_roundtrip():
    g = XorCompose(UniformStub(2, 4), INWBase(2, 4, 0.1))
    g2 = plan_to_generator(g.plan())
    assert g2.seed_bits == g.seed_bits
    seeds = np.arange(256, dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator(1, 4, 0.1)
    with pytest.raises(ValueError):
        build_generator(2, 0, 0.1)
    with pytest.raises(ValueError):
        build_generator(2, 4, 1.5)


def test_build_generator_refuses_sub_float_budget():
    with pytest.raises(ValueError):
        build_generator(2, 8, 1e-14)


def test_build_generator_base_case_small_n():
    g = build_generator(2, 8, 0.1)
    assert isinstance(g, INWBase)
    assert (g.m, g.n) == (2, 8)


def test_build_generator_recursive_case():
    g = build_generator(2, 128, 0.2)
    assert isinstance(g, XorCompose)
    assert (g.m, g.n) == (2, 128)
    seeds = np.arange(10, dtype=object)
    out = g.generate_batch(seeds)
    assert out.shape == (10, 128)
    assert out.min() >= 0 and out.max() < 2
    # full-width seeds: batch, scalar and plan replay agree
    wide = np.empty(4, dtype=object)
    wide[:] = [int(s) for s in sample_seeds(np.random.default_rng(5),
                                            g.seed_bits, 3)] \
        + [(1 << g.seed_bits) - 1]
    out = g.generate_batch(wide)
    assert out.shape == (4, 128)
    assert out.min() >= 0 and out.max() < 2
    for seed, row in zip(wide, out):
        assert np.array_equal(g.generate(seed), row)
    replay = plan_to_generator(json.loads(json.dumps(g.plan())))
    assert np.array_equal(replay.generate_batch(wide), out)


def test_build_generator_plan_replay():
    g = build_generator(2, 128, 0.2)
    d = json.loads(json.dumps(g.plan()))
    g2 = plan_to_generator(d)
    assert g2.seed_bits == g.seed_bits == plan_seed_bits(d)
    seeds = np.arange(5, dtype=object)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_build_generator_alphabet_reduction_path():
    # m far above n^4 forces alphabet steps on top
    g = build_generator(1 << 16, 2, 0.1)
    assert (g.m, g.n) == (1 << 16, 2)
    out = g.generate_batch(np.arange(4, dtype=object))
    assert out.min() >= 0 and out.max() < 1 << 16


def test_composed_generator_fools_small_shapes_exactly():
    # the (2, 8) build is exactly uniform, so every shape is fooled to
    # numerical precision
    g = build_generator(2, 8, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        err, _ = fooling_error(random_shape(rng, 8, 2), g, EnumerateMode())
        assert err <= 1e-10


def test_compose_plan_knobs_reach_base_case():
    plan = ComposePlan(n0=4, inw_block_bits=4)
    g = build_generator(2, 4, 0.1, plan)
    assert isinstance(g, INWBase)
    assert g.block_bits == 4
