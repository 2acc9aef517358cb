"""Generator abstraction: stubs, plan round-trips, seed handling."""

import hashlib
import json

import numpy as np
import pytest

from fourierprg.bitseq import (bit_fields, bit_matrix, bit_slice, check_seed,
                               seed_from_hex, seed_to_hex)
from fourierprg.core import (ConstantStub, KWiseGenerator, SmallBiasLift,
                             UniformStub, plan_seed_bits, plan_to_generator,
                             sample_seeds)


def test_bit_slice_msb_first():
    # 0b1011 0100 as an 8-bit seed
    seed = 0b10110100
    assert bit_slice(seed, 8, 0, 4) == 0b1011
    assert bit_slice(seed, 8, 4, 8) == 0b0100
    with pytest.raises(ValueError):
        bit_slice(seed, 8, 4, 9)


def test_bit_matrix_and_fields_match_bit_slice():
    rng = np.random.default_rng(1)
    for nbits, width in ((12, 4), (54, 6), (62, 31), (64, 16), (120, 8),
                         (176, 16), (100, 7)):
        seeds = [int(s) for s in sample_seeds(rng, min(nbits, 62), 30)]
        seeds = [s << (nbits - min(nbits, 62)) | (s & 0xFF) for s in seeds]
        seeds += [0, (1 << nbits) - 1, 1 << (nbits - 1)]
        obj = np.empty(len(seeds), dtype=object)
        obj[:] = seeds
        bits = bit_matrix(obj, nbits)
        assert bits.shape == (len(seeds), nbits) and bits.dtype == np.uint8
        if nbits <= 62:
            assert np.array_equal(bit_matrix(obj.astype(np.int64), nbits),
                                  bits)
        fields = bit_fields(bits, width)
        k = nbits // width
        assert fields.shape == (len(seeds), k) and fields.dtype == np.int64
        for seed, brow, frow in zip(seeds, bits, fields):
            assert [int(v) for v in brow] == \
                [bit_slice(seed, nbits, i, i + 1) for i in range(nbits)]
            assert [int(v) for v in frow] == \
                [bit_slice(seed, nbits, i * width, (i + 1) * width)
                 for i in range(k)]


def test_bit_matrix_reads_low_bits_of_wider_seeds():
    seeds = np.array([(5 << 20) | 0xABCDE, 0xFFFFF, (1 << 90) | 7],
                     dtype=object)
    want = bit_matrix(np.array([0xABCDE, 0xFFFFF, 7], dtype=object), 20)
    assert np.array_equal(bit_matrix(seeds, 20), want)
    assert np.array_equal(bit_matrix(seeds[:2].astype(np.int64), 20),
                          want[:2])


def test_seed_hex_roundtrip():
    for nbits in (4, 8, 12, 26, 77):
        seed = (1 << nbits) - 3
        text = seed_to_hex(seed, nbits)
        assert text == text.lower()
        assert seed_from_hex(text, nbits) == seed


def test_check_seed():
    check_seed(15, 4)
    with pytest.raises(ValueError):
        check_seed(16, 4)


def test_uniform_stub_is_base_m_seed():
    g = UniformStub(3, 4)
    out = g.generate(2 * 27 + 1 * 9 + 0 * 3 + 2)
    assert np.array_equal(out, [2, 1, 0, 2])


def test_uniform_stub_pmf_exactly_uniform():
    g = UniformStub(2, 4)
    assert np.allclose(g.output_pmf(), 1 / 16)


def test_constant_stub():
    g = ConstantStub(4, 3, value=2)
    assert np.array_equal(g.generate(0), [2, 2, 2])
    assert g.seed_bits == 0


@pytest.mark.parametrize("g", [
    UniformStub(3, 4),
    ConstantStub(4, 3, 1),
    KWiseGenerator(2, 8, 3),
    SmallBiasLift(8, 0.25),
])
def test_plan_roundtrip(g):
    d = json.loads(json.dumps(g.plan()))
    g2 = plan_to_generator(d)
    assert g2.seed_bits == g.seed_bits
    assert (g2.m, g2.n) == (g.m, g.n)
    seeds = np.arange(min(64, 1 << g.seed_bits), dtype=np.int64)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_plan_seed_bits_independent_walk():
    for g in (UniformStub(3, 4), KWiseGenerator(2, 8, 3)):
        assert plan_seed_bits(g.plan()) == g.seed_bits


def test_unknown_plan_type():
    with pytest.raises(ValueError):
        plan_to_generator({"type": "nope"})


def test_output_pmf_refusals():
    g = UniformStub(2, 30)
    g.exactly_uniform = False
    with pytest.raises(ValueError):
        g.output_pmf(pattern_cap=1 << 22)
    g2 = KWiseGenerator(2, 4, 2)
    g2.seed_bits = 40  # simulate an over-cap seed
    with pytest.raises(ValueError):
        g2.output_pmf(seed_cap=26)


def reference_sample_seeds(rng: np.random.Generator, nbits: int,
                           count: int):
    """Wide seeds as first written: one python loop per row joining its
    32-bit limbs, most significant first."""
    if nbits <= 62:
        return rng.integers(0, 1 << nbits, size=count, dtype=np.int64)
    limbs = (nbits + 31) // 32
    raw = rng.integers(0, 1 << 32, size=(count, limbs), dtype=np.int64)
    out = np.empty(count, dtype=object)
    mask = (1 << nbits) - 1
    for i in range(count):
        v = 0
        for limb in raw[i]:
            v = (v << 32) | int(limb)
        out[i] = v & mask
    return out


@pytest.mark.parametrize("nbits", [1, 54, 62, 63, 64, 65, 96, 120, 1175])
def test_sample_seeds_matches_reference(nbits):
    got = sample_seeds(np.random.default_rng(nbits), nbits, 300)
    want = reference_sample_seeds(np.random.default_rng(nbits), nbits, 300)
    assert got.dtype == want.dtype
    assert [int(v) for v in got] == [int(v) for v in want]
    if got.dtype == object:
        assert all(type(v) is int for v in got)


def test_sample_seeds_wide_stream_pinned():
    # the golden stream depends on these draws; pinned from the per-row
    # loop above
    seeds = sample_seeds(np.random.default_rng(0), 120, 1000)
    digest = hashlib.sha256(
        b"".join(int(v).to_bytes(15, "big") for v in seeds)).hexdigest()
    assert digest == ("de422f2b967c4fb33a85b763e08b3d7c"
                      "a742876450efe17dbc6b492b806f3dbb")


def test_sample_seeds_small_and_big():
    rng = np.random.default_rng(0)
    small = sample_seeds(rng, 10, 100)
    assert small.dtype == np.int64
    assert small.min() >= 0 and small.max() < 1 << 10
    big = sample_seeds(rng, 100, 50)
    assert big.dtype == object
    assert all(0 <= s < 1 << 100 for s in big)
    # high bits must actually vary
    assert len({int(s) >> 64 for s in big}) > 1
