"""Generator abstraction: stubs, plan round-trips, seed handling."""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg.bitseq import (as_bits, bit_fields, check_seed, read_fields,
                               to_ints)
from fourierprg.core import (KWiseGenerator, Refused, SmallBiasLift,
                             UniformStub, plan_seed_bits, plan_to_generator,
                             sample_seeds)


def bit_slice(seed, nbits, start, stop):
    """Bits [start, stop) of an nbits-long seed, bit 0 the MSB."""
    return (seed >> (nbits - stop)) & ((1 << (stop - start)) - 1)


def test_bit_slice_msb_first():
    # 0b1011 0100 as an 8-bit seed: bit_fields reads its slices MSB first,
    # one row per field
    bits = as_bits(0b10110100, 8)
    assert np.array_equal(bit_fields(bits, 8, 4), [[0b1011], [0b0100]])
    assert np.array_equal(bit_fields(bits, 8, 3), [[0b101], [0b101]])
    # 64-bit fields come back as python ints
    wide = bit_fields(as_bits([(1 << 64) - 2], 64), 64, 64)
    assert wide.shape == (1, 1) and wide[0, 0] == (1 << 64) - 2


def test_bit_matrix_and_fields_match_bit_slice():
    rng = np.random.default_rng(1)
    for nbits, width in ((12, 4), (54, 6), (62, 31), (64, 16), (120, 8),
                         (176, 16), (100, 7)):
        seeds = list(to_ints(sample_seeds(rng, min(nbits, 62), 30)))
        seeds = [s << (nbits - min(nbits, 62)) | (s & 0xFF) for s in seeds]
        seeds += [0, (1 << nbits) - 1, 1 << (nbits - 1)]
        obj = np.empty(len(seeds), dtype=object)
        obj[:] = seeds
        bits = as_bits(obj, nbits)
        assert bits.shape == (len(seeds), nbits) and bits.dtype == np.uint8
        if nbits <= 62:
            assert np.array_equal(as_bits(obj.astype(np.int64), nbits),
                                  bits)
        fields = bit_fields(bits, nbits, width)
        k = nbits // width
        assert fields.shape == (k, len(seeds)) and fields.dtype == np.int64
        for seed, brow, frow in zip(seeds, bits, fields.T):
            assert [int(v) for v in brow] == \
                [bit_slice(seed, nbits, i, i + 1) for i in range(nbits)]
            assert [int(v) for v in frow] == \
                [bit_slice(seed, nbits, i * width, (i + 1) * width)
                 for i in range(k)]


def test_read_fields_mixed_widths_match_bit_fields():
    # widths 1 to 16 in one read, as G1 reads its buckets' coefficients;
    # the 16-bit field starts at bit 4 of a byte and spans 3 blocks
    widths = (3, 1, 16, *range(1, 17), 7, 16)
    assert sum(widths[:2]) % 8 == 4
    rng = np.random.default_rng(28)
    nbits = sum(widths) + 5
    bits = np.concatenate([np.zeros((1, nbits)), np.ones((1, nbits)),
                           rng.integers(0, 2, (6, nbits))]).astype(np.uint8)
    blocks = np.packbits(bits, axis=1).T
    got = read_fields(blocks, 8, widths)
    assert got.shape == (len(widths), len(bits)) and got.dtype == np.uint16
    start = 0
    for j, w in enumerate(widths):
        assert np.array_equal(got[j], bit_fields(bits[:, start:start + w],
                                                 w, w)[0])
        start += w
    # a field of 63 bits or more turns the whole read into python ints
    wide = read_fields(blocks, 8, (5, 70, 3))
    assert wide.dtype == object
    assert [[int(v) for v in row] for row in wide] == \
        [[int(v) for v in bit_fields(bits[:, lo:lo + w], w, w)[0]]
         for lo, w in ((0, 5), (5, 70), (75, 3))]


@settings(max_examples=300, deadline=None)
@given(D=st.sampled_from([*range(1, 17), 64]), data=st.data())
def test_read_fields_matches_int_slicing(D, data):
    # the one field reader against shift-and-mask slicing of python ints:
    # streams of B blocks of D bits, held coordinate-major as (B, N)
    B = data.draw(st.integers(1, 24))
    width = data.draw(st.one_of(st.integers(1, 200),
                                st.sampled_from([62, 63, 64, 65, 126]),
                                st.just(B * D)))
    count = data.draw(st.integers(0, B * D // width))
    N = data.draw(st.integers(0, 4))
    total = B * D
    rows = [data.draw(st.one_of(st.just(0), st.just((1 << total) - 1),
                                st.integers(0, (1 << total) - 1),
                                st.integers(1 << (total - 1),
                                            (1 << total) - 1)))
            for _ in range(N)]
    dtype = (np.uint8 if D <= 8 else np.uint16 if D <= 16 else
             data.draw(st.sampled_from([np.uint64, np.int64])))
    blocks = np.array([[(v >> (total - (t + 1) * D)) & ((1 << D) - 1)
                        for v in rows] for t in range(B)], dtype=np.uint64)
    blocks = blocks.reshape(B, N).astype(dtype)
    got = read_fields(blocks, D, width, count)
    assert got.shape == (count, N)
    assert got.dtype == object if width > 64 else got.dtype.kind == "u"

    def field(v, j, nbits):
        return (v >> (nbits - (j + 1) * width)) & ((1 << width) - 1)
    assert [[int(x) for x in r] for r in got] == \
        [[field(v, j, total) for v in rows] for j in range(count)]
    if width > 64:
        assert all(type(x) is int for x in got.reshape(-1))
    # bit_fields reads all total // width fields of the same bits
    bits = np.array([[(v >> (total - 1 - i)) & 1 for i in range(total)]
                     for v in rows], dtype=np.uint8).reshape(N, total)
    assert [[int(x) for x in r] for r in bit_fields(bits, total, width)] == \
        [[field(v, j, total) for v in rows] for j in range(total // width)]


@settings(max_examples=100, deadline=None)
@given(nbits=st.integers(1, 63), data=st.data())
def test_bit_fields_int_seeds_match_bit_matrix(nbits, data):
    # shift and mask on 1-D int64 and uint64 seeds against the packed bit
    # matrix, for every width: seeds of 2^nbits and above and negative
    # int64 seeds keep their low nbits bits, as as_bits reads them
    value = st.one_of(
        st.sampled_from([0, (1 << nbits) - 1, 1 << nbits, 1 << 63,
                         (1 << 64) - 1]),
        st.integers(0, (1 << nbits) - 1), st.integers(0, (1 << 64) - 1))
    raw = np.array(data.draw(st.lists(value, max_size=6)), dtype=np.uint64)
    for seeds in (raw, raw.view(np.int64)):
        bits = as_bits(seeds, nbits)
        for width in range(1, nbits + 1):
            got = bit_fields(seeds, nbits, width)
            assert got.dtype == np.int64
            assert np.array_equal(got, bit_fields(bits, nbits, width))


def test_bit_matrix_reads_low_bits_of_wider_seeds():
    seeds = np.array([(5 << 20) | 0xABCDE, 0xFFFFF, (1 << 90) | 7],
                     dtype=object)
    want = as_bits(np.array([0xABCDE, 0xFFFFF, 7], dtype=object), 20)
    assert np.array_equal(as_bits(seeds, 20), want)
    assert np.array_equal(as_bits(seeds[:2].astype(np.int64), 20),
                          want[:2])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 62, 63, 64, 65, 1175]), st.data())
def test_as_bits_same_matrix_for_every_carrier(nbits, data):
    top = 1 << (nbits - 1)
    value = st.one_of(st.sampled_from([0, (1 << nbits) - 1, top, top | 1]),
                      st.integers(0, (1 << nbits) - 1))
    values = data.draw(st.lists(value, min_size=1, max_size=4))
    want = np.array([[int(c) for c in format(v, f"0{nbits}b")]
                     for v in values], dtype=np.uint8)
    obj = np.empty(len(values), dtype=object)
    obj[:] = values
    carriers = [values, obj, want]
    if max(values) < 1 << 63:
        carriers.append(np.array(values, dtype=np.int64))
    for seeds in carriers:
        bits = as_bits(seeds, nbits)
        assert bits.dtype == np.uint8 and np.array_equal(bits, want)
    for v, row in zip(values, want):
        assert np.array_equal(as_bits(v, nbits), row[None, :])
    assert list(to_ints(want)) == values


def test_as_bits_rejects_wrong_width_matrix_and_non_ints():
    with pytest.raises(ValueError):
        as_bits(np.zeros((2, 5), dtype=np.uint8), 6)
    with pytest.raises(TypeError):
        as_bits(np.array([0.0, 2.0 ** 64]), 64)


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


@pytest.mark.parametrize("make", [
    lambda: KWiseGenerator(1 << 63, 4, 2),
    lambda: KWiseGenerator(1 << 40, 4, 2),  # GF(2^40): word products
    lambda: UniformStub(1 << 63, 2),
])
def test_leaf_generators_return_int64_up_to_m_2_63(make):
    # up to the widest alphabet int64 holds, on random, all-zero and
    # all-ones seeds
    g = make()
    rng = np.random.default_rng(5)
    for bits in (rng.integers(0, 2, (6, g.seed_bits), dtype=np.uint8),
                 np.zeros((2, g.seed_bits), dtype=np.uint8),
                 np.ones((2, g.seed_bits), dtype=np.uint8)):
        out = g.generate_batch(bits)
        assert out.dtype == np.int64 and out.shape == (len(bits), g.n)
        assert out.min() >= 0


@pytest.mark.parametrize("m", [(1 << 63) + 1, 1 << 64])
@pytest.mark.parametrize("cls,name,args", [
    (KWiseGenerator, "kwise", (4, 2)),
    (UniformStub, "uniform-stub", (2,)),
])
def test_leaf_generators_refuse_m_above_2_63_at_build(m, cls, name, args):
    with pytest.raises(ValueError, match=f"{name} symbols are int64"):
        cls(m, *args)


@pytest.mark.parametrize("g", [
    UniformStub(3, 4),
    UniformStub(4, 3),
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


def test_output_pmf_cache_keeps_the_seed_cap():
    # a fresh 12-bit generator refuses seed_cap = 10; one that has
    # already enumerated its pmf must refuse it too
    g = SmallBiasLift(8, 0.25)
    assert g.seed_bits == 12
    g.output_pmf()
    with pytest.raises(Refused):
        g.output_pmf(seed_cap=10)
    assert g.output_pmf(seed_cap=12) is g.output_pmf()


def test_output_pmf_holds_one_chunk_at_a_time():
    # a 2^16-row int64 chunk of n = 16 symbols is 8 MiB; 2^18-row chunks
    # peaked at 48 MiB, and holding the previous chunk while the next was
    # generated at 80 MB
    g = plan_to_generator({"type": "small-bias-lift", "n": 16,
                           "delta": 1 / 64})
    assert g.seed_bits == 22
    tracemalloc.start()
    try:
        pmf = g.output_pmf()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pmf.shape == (1 << 16,) and abs(pmf.sum() - 1) < 1e-9
    assert peak < 32 * 2 ** 20


def test_enum_exact_pmf_is_pinned():
    # sha256 of the float64 pmf bytes of perfbench's enum-exact plan,
    # computed before the small-bias bits were built column by column
    g = plan_to_generator({"type": "small-bias-lift", "n": 16,
                           "delta": 1 / 64})
    assert hashlib.sha256(g.output_pmf().tobytes()).hexdigest() == (
        "0cb9b7835fba731af784a5912470e0d92f4629ed2e09186a0850d2a7b4451272")


def test_enum_exact_chunk_makes_no_as_bits_call(monkeypatch):
    # int64 seeds reach the small-bias fields by shift and mask: a chunk of
    # exact enumeration never unpacks them into a bit matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return as_bits(*args)
    for name, module in list(sys.modules.items()):
        if name.startswith("fourierprg") and hasattr(module, "as_bits"):
            monkeypatch.setattr(module, "as_bits", counted)
    g = plan_to_generator({"type": "small-bias-lift", "n": 16,
                           "delta": 1 / 64})
    seeds = np.arange(1 << 16, dtype=np.int64)
    assert g.generate_batch(seeds).shape == (1 << 16, 16)
    assert calls == []
    g.generate_batch(as_bits(seeds[:4], 22))  # the count is live
    assert len(calls) == 1


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
    assert got.dtype == np.uint8 and got.shape == (300, nbits)
    assert [int(v) for v in to_ints(got)] == [int(v) for v in want]


def test_sample_seeds_wide_stream_pinned():
    # the golden stream depends on these draws; pinned from the per-row
    # loop above
    seeds = sample_seeds(np.random.default_rng(0), 120, 1000)
    digest = hashlib.sha256(
        b"".join(int(v).to_bytes(15, "big") for v in to_ints(seeds))
    ).hexdigest()
    assert digest == ("de422f2b967c4fb33a85b763e08b3d7c"
                      "a742876450efe17dbc6b492b806f3dbb")


def test_sample_seeds_small_and_big():
    rng = np.random.default_rng(0)
    small = sample_seeds(rng, 10, 100)
    assert small.dtype == np.uint8 and small.shape == (100, 10)
    small = to_ints(small)
    assert small.min() >= 0 and small.max() < 1 << 10
    big = sample_seeds(rng, 100, 50)
    assert big.dtype == np.uint8 and big.shape == (50, 100)
    big = to_ints(big)
    assert all(0 <= s < 1 << 100 for s in big)
    # high bits must actually vary
    assert len({int(s) >> 64 for s in big}) > 1
