"""High-variance generators: bucketing conventions, recycling, fooling."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg import highvar
from fourierprg.bitseq import as_bits, bit_fields, to_ints
from fourierprg.compose import build_generator
from fourierprg.core import plan_to_generator, sample_seeds
from fourierprg.fields import gf2
from fourierprg.highvar import (G1Plan, GLargePlan, SeedRecycler,
                                SpreadingFamily)
from fourierprg.shapes import (EnumerateMode, SampleMode, fooling_error,
                               random_shape, scale_toward_mean, tvar)


def test_dyadic_buckets_sizes():
    # G1's buckets are the domain indices {0, 1}, then [2^j, 2^(j+1)) for
    # j >= 1, so together they cover all of [n_padded]
    g = G1Plan(2, 12)
    assert g.n_padded == 16
    assert [fam.n for fam in g.bucket_families] == [2, 2, 4, 8]


def test_recycler_inw_deterministic_and_in_range():
    r = SeedRecycler(400)
    seeds = np.arange(50, dtype=np.int64)
    out1 = r.bitstream_batch(seeds)
    out2 = r.bitstream_batch(seeds)
    assert out1.dtype == np.uint8 and out1.shape == (50, 400)
    out1, out2 = to_ints(out1), to_ints(out2)
    assert all(a == b for a, b in zip(out1, out2))
    assert all(0 <= int(v) < 1 << 400 for v in out1)
    assert r.seed_bits < 400  # recycling must actually save seed


def test_recycler_is_one_inw_configuration():
    # 8-bit blocks on 10-bit states, T the least power of two covering
    # total_bits; 16 bits fit one block pair
    for total, T in ((1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (400, 64)):
        r = SeedRecycler(total)
        assert (r.inw.D, r.inw.T, r.inw.state_bits) == (8, T, 10)
        assert r.seed_bits == 10 + 20 * (T.bit_length() - 1)
        assert r.config() == {"D": 8, "T": T, "state_bits": 10,
                              "seed_bits": r.seed_bits}


def test_g1_marginals_uniform():
    # fully enumerable instance (6 permutation bits and INW(8, 1, 10)):
    # every coordinate marginal is uniform
    g = G1Plan(2, 8, p=2)
    assert g.seed_bits == 16
    seeds = np.arange(1 << g.seed_bits, dtype=np.int64)
    out = g.generate_batch(seeds)
    for c in range(8):
        counts = np.bincount(out[:, c], minlength=2)
        assert np.all(counts == len(seeds) // 2)


def test_g1_scalar_matches_batch():
    g = G1Plan(2, 8, p=2)
    for seed in (0, 3, 1 << (g.seed_bits - 1)):
        assert np.array_equal(g.generate(seed),
                              g.generate_batch([seed])[0])


def test_g1_plan_roundtrip():
    g = G1Plan(3, 8, p=4)
    g2 = plan_to_generator(g.plan())
    assert g2.seed_bits == g.seed_bits
    seeds = sample_seeds(np.random.default_rng(0), g.seed_bits, 20)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))


def test_g1_constant_error_high_variance_shapes():
    # unit-or-more total variance shapes: fooling error bounded away
    # from the trivial bound 1
    g = G1Plan(2, 8, p=2)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        f = random_shape(rng, 8, 2)
        if tvar(f) < 1.0:
            continue
        err, _ = fooling_error(f, g, EnumerateMode())
        worst = max(worst, err)
    assert worst <= 0.9


def test_spreading_family_parameters():
    s = SpreadingFamily(64, 0.1)
    assert s.B == 2 * s.T
    assert s.T >= 16
    assert s.ell == math.ceil(2 * math.log2(10))


def spot_check(s: SpreadingFamily, v: np.ndarray, rng, trials=2000):
    """Fraction of sampled hash seeds with fewer than ell heavy buckets,
    for a vector with squared norm >= B."""
    v2 = np.asarray(v, dtype=float) ** 2
    if float(np.sum(v2)) < s.B:
        raise ValueError("vector too light for the spreading property")
    tables = np.asarray(
        s.table_batch(sample_seeds(rng, s.seed_bits, trials)),
        dtype=np.int64)
    thresh = s.B / (2 * s.T)
    bad = sum(int(np.sum(np.bincount(h, weights=v2, minlength=s.T)
                         >= thresh)) < s.ell for h in tables)
    return bad / trials


def test_spreading_spot_check_rejects_light_vectors():
    s = SpreadingFamily(64, 0.1)
    with pytest.raises(ValueError):
        spot_check(s, np.ones(64) * 0.1, np.random.default_rng(0))


def test_spreading_spot_check_within_budget():
    s = SpreadingFamily(256, 0.1)
    frac = spot_check(s, np.ones(256), np.random.default_rng(2), trials=500)
    assert frac <= 2 * s.delta


def test_spreading_spot_check_capped_n128_tree_hash():
    # the n = 128 tree's hash, T capped at n_padded = 128, on a flat
    # vector of squared norm B
    s = SpreadingFamily(128, 0.1 / 12)
    assert s.T == 128
    frac = spot_check(s, np.full(128, math.sqrt(s.B / 128)),
                      np.random.default_rng(12), trials=500)
    assert frac <= 2 * s.delta


def test_spreading_spot_check_draws_full_width_seeds():
    # the n = 128 tree's hash: 16 coefficients of 7 bits
    s = SpreadingFamily(128, 0.1 / 12)
    assert s.seed_bits == 112
    drawn = []
    table_batch = s.table_batch

    def record(seeds):
        drawn.extend(to_ints(as_bits(seeds, s.seed_bits)))
        return table_batch(seeds)

    s.table_batch = record
    spot_check(s, np.full(128, math.sqrt(s.B / 128) + 0.01),
               np.random.default_rng(0), trials=64)
    assert len(drawn) == 64
    # bits above position 62 are set, so every coefficient is random,
    # the constant term (the top 7 bits) included
    assert any(v >> 62 for v in drawn)
    assert len({v >> (112 - 7) for v in drawn}) > 1


def test_glarge_plan_roundtrip_and_scalar():
    g = GLargePlan(2, 16, 0.2, p=2)
    g2 = plan_to_generator(g.plan())
    seeds = sample_seeds(np.random.default_rng(3), g.seed_bits, 10)
    assert np.array_equal(g.generate_batch(seeds), g2.generate_batch(seeds))
    s = int(to_ints(seeds)[0])
    assert np.array_equal(g.generate(s), g.generate_batch([s])[0])
    # a small value of a wide seed, given as a python int
    small = np.empty(1, dtype=object)
    small[0] = 5
    assert np.array_equal(g.generate(5), g.generate_batch(small)[0])


def test_glarge_fools_high_variance_shapes_sampled():
    g = GLargePlan(2, 16, 0.2, p=2)
    rng = np.random.default_rng(4)
    for _ in range(3):
        f = random_shape(rng, 16, 2)
        if tvar(f) < 1.0:
            f = scale_toward_mean(f, 1.0)  # no-op; keep as drawn
        err, std_err = fooling_error(f, g, SampleMode(20000, 5))
        assert err <= 2 * g.delta + 3 * std_err


# Reference implementations: the per-block and per-bucket loops the
# vectorized code replaced. The new code must match them bit for bit.

def _bitstream_reference(r: SeedRecycler, seeds) -> list[int]:
    blocks = r.inw.expand_batch(np.asarray(seeds))
    drop = r.inw.T * r.inw.D - r.total_bits
    out = []
    for row in blocks:
        v = 0
        for b in row:
            v = (v << r.inw.D) | int(b)
        out.append(v >> drop)
    return out


def _g1_reference(g: G1Plan, seeds) -> np.ndarray:
    """G1 as first written: perm and recycler seeds, then each bucket's
    seed, cut from python ints by shift and mask."""
    rec_bits = g.recycler.seed_bits
    out = np.zeros((len(seeds), g.n), dtype=np.int64)
    rec = np.empty(len(seeds), dtype=object)
    rec[:] = [int(s) & ((1 << rec_bits) - 1) for s in seeds]
    stream = _bitstream_reference(g.recycler, rec)
    total = g.recycler.total_bits
    t = g.tlog
    for i, s in enumerate(seeds):
        # perm seed (a_raw, b): pi(x) = a*x + b over GF(2^t), with
        # a = a_raw mod (2^t - 1) + 1 never 0
        a_raw, b = divmod((int(s) >> rec_bits) & ((1 << g.perm_bits) - 1),
                          1 << t)
        a = a_raw % ((1 << t) - 1) + 1 if t > 1 else 1
        offset = 0
        for j, fam in enumerate(g.bucket_families):
            sbits = g.bucket_seed_bits[j]
            bseed = (stream[i] >> (total - offset - sbits)) \
                & ((1 << sbits) - 1)
            vals = fam.sample_batch(bseed)[0]
            interval = [0, 1] if j == 0 else range(1 << j, 1 << (j + 1))
            for x, v in zip(interval, vals):
                c = gf2(t).mul(a, x) ^ b
                if c < g.n:
                    out[i, c] = v
            offset += sbits
    return out


@pytest.mark.parametrize("args,kwargs", [
    ((2, 8), {"p": 2}), ((2, 16), {"p": 2}),
    ((3, 32), {}), ((5, 12), {"p": 3})])
def test_g1_matches_reference(args, kwargs):
    g = G1Plan(*args, **kwargs)
    seeds = _full_width_seeds(g.seed_bits, g.n + g.p)
    assert np.array_equal(g.generate_batch(seeds), _g1_reference(g, seeds))


def _perm_offsets(g: G1Plan, seeds) -> np.ndarray:
    """The b of each seed's permutation x -> a*x + b: the low half of the
    permutation bits, just above the recycler seed."""
    return np.array([(int(s) >> g.recycler.seed_bits) & (g.n_padded - 1)
                     for s in seeds])


@pytest.mark.parametrize("args,kwargs", [
    ((2, 8), {"p": 2}), ((2, 16), {}), ((3, 32), {}), ((5, 12), {"p": 3}),
    ((2, 100), {})])
def test_g1_eval_points_matches_reference(args, kwargs):
    # full-width random, top-bit-set, all-ones and all-zero seeds
    g = G1Plan(*args, **kwargs)
    seeds = np.concatenate([_full_width_seeds(g.seed_bits, g.n), [0]])
    ref = _g1_reference(g, seeds)
    rng = np.random.default_rng(g.n + g.p)
    # every (row, coordinate) pair once, shuffled
    rows, coords = np.divmod(rng.permutation(len(seeds) * g.n), g.n)
    # coordinates j with j ^ b in {0, 1} read bucket 0's two points
    edge = [(i, b ^ d) for i, b in enumerate(_perm_offsets(g, seeds))
            for d in (0, 1) if b ^ d < g.n]
    assert edge
    erows, ecoords = np.array(edge).T
    # one row repeated, coordinates repeated too
    rrows = np.full(3 * g.n, len(seeds) // 2)
    rcoords = rng.integers(0, g.n, 3 * g.n)
    rows = np.concatenate([rows, erows, rrows])
    coords = np.concatenate([coords, ecoords, rcoords])
    out = g.eval_points(seeds, rows, coords)
    assert out.dtype == np.int64 and out.shape == rows.shape
    assert np.array_equal(out, ref[rows, coords])
    none = np.zeros(0, dtype=np.int64)
    empty = g.eval_points(seeds, none, none)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def _g1_per_family_reference(g: G1Plan, seeds, rows, coords) -> np.ndarray:
    """G1Plan.eval_points as one Horner per bucket family: the recycled
    stream unpacked to bits, each family's coefficients decoded on their
    own, and each bucket's entries evaluated by its `KWiseFamily.horner`."""
    bits = as_bits(seeds, g.seed_bits)
    a_raw, b = bit_fields(bits[:, :g.perm_bits], g.perm_bits, g.tlog)
    stream = g.recycler.bitstream_batch(bits[:, g.perm_bits:])
    f = gf2(g.tlog)
    log, exp, _ = f.tables
    a_inv = exp[-log[a_raw % (f.q - 1) + 1] % (f.q - 1)]
    x = f.mul_vec(a_inv[rows], coords ^ b[rows])
    out = np.empty(len(x), dtype=np.int64)
    pos = offset = 0
    for fam, sbits in zip(g.bucket_families, g.bucket_seed_bits):
        sel = np.flatnonzero((x >= pos) & (x < pos + fam.n))
        coeffs = fam.coefficients(stream[:, offset:offset + sbits])
        out[sel] = fam.horner(
            (c[rows[sel]] for c in coeffs[::-1]), x[sel] - pos)
        pos, offset = pos + fam.n, offset + sbits
    return out


@pytest.mark.parametrize("args,kwargs,top", [
    ((2, 2 ** 16), {}, 1 << 15),         # bucket fields up to GF(2^15)
    ((3, 32), {}, 192007),              # int64 primes
    ((5, 12), {"p": 3}, 160001),
    ((30000, 64), {"p": 3}, 3840000041)],  # top p^2 >= 2^63, still int64
    ids=["gf2-15", "m3", "m5-p3", "m30000-p3"])
def test_g1_one_pass_matches_per_family_reference(args, kwargs, top):
    g = G1Plan(*args, **kwargs)
    assert g.bucket_families[-1].q == top
    # full-width random, top-bit-set, all-ones and all-zero seeds
    seeds = np.concatenate([_full_width_seeds(g.seed_bits, g.n % 997), [0]])
    rng = np.random.default_rng(g.n + g.p)
    N = len(seeds)
    if N * g.n <= 1 << 12:  # every (row, coordinate) once, shuffled
        rows, coords = np.divmod(rng.permutation(N * g.n), g.n)
    else:
        rows = rng.integers(0, N, 1 << 12)
        coords = rng.integers(0, g.n, 1 << 12)
    none = np.zeros(0, dtype=np.int64)
    requests = [
        (rows, coords), (none, none),
        # the zero and the all-ones seed, one coordinate repeated
        (np.repeat([N - 1, N - 2], 50), np.full(100, g.n - 1)),
        (rows[::-1], coords[::-1])]
    for rows, coords in requests:
        got = g.eval_points(seeds, rows, coords)
        assert got.dtype == np.int64 and got.shape == rows.shape
        assert np.array_equal(got,
                              _g1_per_family_reference(g, seeds, rows, coords))


@pytest.mark.parametrize("m,n,p,dtype", [
    (30000, 64, 3, np.int64),        # 3,840,000,041 * 33 < 2^63
    ((1 << 50) + 1, 8, 2, object)])  # 18,014,398,509,482,000,027 * 5 is not
def test_g1_prime_buckets_int64_below_the_accumulator_bound(m, n, p, dtype):
    # the prime buckets' Horner pass is int64 exactly when every
    # acc * x + c < p_e (|bucket| + 1) fits, not only when p_e^2 does
    g = G1Plan(m, n, p=p)
    assert g._moduli.dtype == dtype
    seeds = np.concatenate([_full_width_seeds(g.seed_bits, 5), [0]])
    rng = np.random.default_rng(m % 1000)
    rows, coords = np.divmod(rng.permutation(len(seeds) * n), n)
    none = np.zeros(0, dtype=np.int64)
    for rows, coords in [(rows, coords), (none, none),
                         (np.full(20, len(seeds) - 1), np.full(20, n - 1)),
                         (rows[::-1], coords[::-1])]:
        got = g.eval_points(seeds, rows, coords)
        assert got.dtype == np.int64 and got.shape == rows.shape
        assert np.array_equal(got,
                              _g1_per_family_reference(g, seeds, rows, coords))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 7), n=st.integers(1, 40), p=st.integers(1, 4),
       data=st.data())
def test_g1_eval_points_property(m, n, p, data):
    # full-width random seeds from a drawn generator seed, then the edges
    g = G1Plan(m, n, p=p)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    seeds = np.concatenate([to_ints(sample_seeds(rng, g.seed_bits, 3)),
                            [0, (1 << g.seed_bits) - 1]])
    entries = data.draw(st.lists(st.tuples(
        st.integers(0, len(seeds) - 1), st.integers(0, n - 1)), max_size=40))
    rows, coords = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    assert np.array_equal(g.eval_points(seeds, rows, coords),
                          _g1_reference(g, seeds)[rows, coords])


@pytest.mark.parametrize("build,reason", [
    (lambda: G1Plan(2, 2 ** 17), r"g1.*GF\(2\^16\)"),
    (lambda: GLargePlan(2, 2 ** 17, 0.1), r"g1.*GF\(2\^16\)"),
    # the dimension step is built first and is refused by is_prime
    (lambda: build_generator(2, 2 ** 17, 0.1), None)],
    ids=["g1", "glarge", "build_generator"])
def test_g1_refuses_past_the_gf2_16_tables_at_build(build, reason):
    # G1's permutation runs on the GF(2^t) log/exp tables, which stop at
    # t = 16; a wider G1 is refused when it is built, not at generate
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=reason):
        build()
    assert time.perf_counter() - t0 < 1.0


def test_g1_generates_at_the_gf2_16_limit():
    g = G1Plan(2, 2 ** 16)
    assert g.tlog == 16
    seeds = np.concatenate([_full_width_seeds(g.seed_bits, 16)[:1],
                            [0, (1 << g.seed_bits) - 1]])
    out = g.generate_batch(seeds)
    assert out.shape == (3, 2 ** 16) and out.dtype == np.int64
    assert np.array_equal(out, _g1_reference(g, seeds))


def test_glarge_memory_at_n1024():
    # G1 runs only at the coordinates glarge reads; evaluating it in full
    # for every (row, bucket) pair peaked at 351 MB here
    g = build_generator(2, 1024, 0.1).left
    seeds = sample_seeds(np.random.default_rng(8), g.seed_bits, 16)
    tracemalloc.start()
    try:
        g.generate_batch(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6


def test_glarge_evaluates_g1_at_the_coordinates_it_reads(monkeypatch):
    # one 4-row batch of the n = 128 tree's glarge reads 4 * 128 symbols,
    # one per (row, coordinate); full G1 rows per pair would be ~63,500.
    # G1's one Horner pass evaluates exactly the entries it is asked for
    g = build_generator(2, 128, 0.1).left
    points = []
    eval_points = G1Plan.eval_points

    def counted(self, seeds, rows, coords):
        out = eval_points(self, seeds, rows, coords)
        if self is g.g1:
            points.append(out.size)
        return out

    monkeypatch.setattr(G1Plan, "eval_points", counted)
    g.generate_batch(sample_seeds(np.random.default_rng(9), g.seed_bits, 4))
    assert 0 < sum(points) <= 4 * 128


def _glarge_reference(g: GLargePlan, seeds) -> np.ndarray:
    seeds = np.asarray(seeds)
    N = len(seeds)
    hseed = (seeds >> g.recycler.seed_bits) \
        & ((1 << g.spreading.seed_bits) - 1)
    if g.spreading.seed_bits <= 62:
        hseed = hseed.astype(np.int64)
    rec_seed = seeds & ((1 << g.recycler.seed_bits) - 1)
    tables = g.spreading.table_batch(hseed)
    stream = _bitstream_reference(g.recycler, rec_seed)
    g1_bits = g.g1.seed_bits
    out = np.zeros((N, g.n), dtype=np.int64)
    for j in range(g.spreading.T):
        mask = tables == j
        if not mask.any():
            continue
        shift = g.recycler.total_bits - (j + 1) * g1_bits
        bucket_seeds = np.empty(N, dtype=object)
        bucket_seeds[:] = [(s >> shift) & ((1 << g1_bits) - 1)
                           for s in stream]
        vals = g.g1.generate_batch(bucket_seeds)
        out[mask] = vals[mask]
    return out


def _full_width_seeds(nbits: int, rng_seed: int) -> np.ndarray:
    """Random seeds, the same seeds with the top bit set, and all-ones."""
    rng = np.random.default_rng(rng_seed)
    rand = list(to_ints(sample_seeds(rng, nbits, 6)))
    top = [s | (1 << (nbits - 1)) for s in rand[:3]]
    out = np.empty(len(rand) + len(top) + 1, dtype=object)
    out[:] = rand + top + [(1 << nbits) - 1]
    return out


@pytest.mark.parametrize("total_bits,block_bits", [
    (403, 8), (77, 8), (250, 8), (7, 8)])
def test_recycler_matches_blockwise_reference(total_bits, block_bits):
    assert total_bits % block_bits  # the stream ends inside a block
    r = SeedRecycler(total_bits)
    assert r.inw.D == block_bits
    seeds = _full_width_seeds(r.seed_bits, total_bits + block_bits)
    out = r.bitstream_batch(seeds)
    assert out.dtype == np.uint8 and out.shape == (len(seeds), total_bits)
    out = to_ints(out)
    assert list(out) == _bitstream_reference(r, seeds)
    assert all(v >> total_bits == 0 for v in out)


@pytest.mark.parametrize("block_bits,state_extra", [(8, 2)])
def test_recycler_batch_sizes_match_reference(block_bits, state_extra):
    # the recycler's one configuration, at the batch sizes that bracket
    # INWBase's 4096-row chunk, from edge and full-width seeds
    r = SeedRecycler(3 * block_bits + 1)
    assert (r.inw.D, r.inw.state_bits) == (block_bits,
                                           block_bits + state_extra)
    rng = np.random.default_rng(block_bits)
    edges = [0] + list(_full_width_seeds(r.seed_bits, block_bits))
    for size in (1, 4095, 4096, 4097, 3 * 4096 + 5):
        seeds = np.concatenate(
            [edges, to_ints(sample_seeds(rng, r.seed_bits, size))])[:size]
        assert list(to_ints(r.bitstream_batch(seeds))) == \
            _bitstream_reference(r, seeds)


@pytest.mark.parametrize("args,kwargs", [
    ((2, 16, 0.2), {"p": 2}), ((3, 32, 0.2), {}),
    # the n = 128 tree's glarge, whose T is capped at n_padded
    ((2, 128, 0.1 / 12), {})])
def test_glarge_matches_per_bucket_reference(args, kwargs):
    g = GLargePlan(*args, **kwargs)
    seeds = _full_width_seeds(g.seed_bits, g.n)
    out = g.generate_batch(seeds)
    assert out.dtype == np.int64
    assert np.array_equal(out, _glarge_reference(g, seeds))
    for r in (g.recycler, g.g1.recycler):
        rs = _full_width_seeds(r.seed_bits, r.total_bits)
        assert list(to_ints(r.bitstream_batch(rs))) == \
            _bitstream_reference(r, rs)


@pytest.mark.parametrize("delta", [0.1 / 12, 1e-3])
@pytest.mark.parametrize("n", [1, 8, 100, 128, 129, 1024, 4096])
def test_glarge_buckets_fill_a_quarter_of_the_stream(n, delta):
    # T <= n_padded, so the (row, bucket) pairs a 4-row batch hashes to
    # hold a quarter of its recycled streams or more: glarge expands the
    # streams whole and wastes at most three quarters of them
    g = GLargePlan(2, n, delta)
    assert g.spreading.T <= g.g1.n_padded
    tables = g.spreading.table_batch(sample_seeds(
        np.random.default_rng(n), g.spreading.seed_bits, 4))
    used = sum(len(np.unique(row)) for row in tables) * g.g1.seed_bits
    streams = 4 * g.recycler.total_bits
    assert 4 * used >= streams


def test_glarge_chunks_match_rows_one_at_a_time(monkeypatch):
    # a 3-row budget puts chunk edges inside the 10-row batch of random,
    # top-bit-set and all-ones seeds
    g = GLargePlan(3, 32, 0.2)
    monkeypatch.setattr(highvar, "_CHUNK_BYTES",
                        3 * 8 * g.recycler.total_bits)
    seeds = _full_width_seeds(g.seed_bits, 3)
    out = g.generate_batch(seeds)
    assert out.shape == (10, g.n) and out.dtype == np.int64
    for i, row in enumerate(out):
        assert np.array_equal(row, g.generate_batch(seeds[i:i + 1])[0])


def test_glarge_batch_memory_is_bounded():
    # the n = 128 tree's glarge needs about 0.8 MB per row for its
    # 243,660-bit recycled stream and INW states, so 300 rows held at
    # once would peak near 231 MB
    g = build_generator(2, 128, 0.1).left
    assert isinstance(g, GLargePlan)
    seeds = sample_seeds(np.random.default_rng(7), g.seed_bits, 300)
    tracemalloc.start()
    try:
        g.generate_batch(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_recursive_build_output_pinned():
    # sha256 of build_generator(2, 128, 0.1) outputs, computed as
    # (_glarge_reference, the per-block recycler and per-bucket GLarge
    # loops, on the left seed slice + the dimension step on the right
    # slice) mod 2
    g = build_generator(2, 128, 0.1)
    assert g.seed_bits == 855
    seeds = np.empty(4, dtype=object)
    seeds[:] = list(to_ints(sample_seeds(np.random.default_rng(20260),
                                         g.seed_bits, 3))) \
        + [(1 << g.seed_bits) - 1]
    out = np.ascontiguousarray(g.generate_batch(seeds), dtype="<i8")
    assert hashlib.sha256(out.tobytes()).hexdigest() == \
        "d4450be8664592ffa49c04c4325fd307cbf7a0965e5d21aba48c9fe77dd739c1"
