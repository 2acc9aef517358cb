"""Composed generator: base case, xor composition, recursive build."""

import json

import numpy as np
import pytest

from fourierprg.compose import (ComposePlan, INWBase, XorCompose,
                                build_generator, seed_length,
                                seed_length_from_plan)
from fourierprg.core import (ConstantStub, UniformStub, plan_to_generator,
                             sample_seeds)
from fourierprg.shapes import EnumerateMode, fooling_error, random_shape


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
    assert seed_length(g2) == seed_length(g) == seed_length_from_plan(d)
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
