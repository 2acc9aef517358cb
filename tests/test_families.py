"""Primitive families against exhaustive enumeration oracles."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg.core import UniformStub, plan_to_generator
from fourierprg.families import (CombinedHashFamily, KWiseFamily,
                                 SmallBiasFamily, deviation_q_min,
                                 kwise_field, log_step)
from fourierprg.bitseq import as_bits, bit_fields
from fourierprg.fields import PrimeField, gf2, next_prime, prime_field
from fourierprg.reductions import AlphabetStepPlan
from test_robp import edge_seeds


def all_seeds(nbits: int) -> np.ndarray:
    return np.arange(1 << nbits, dtype=np.int64)


# ---------------------------------------------------------------------------
# k-wise families


def test_kwise_degree_zero_constant():
    fam = KWiseFamily(8, 5, 1, 8)
    out = fam.sample_batch(all_seeds(3))
    assert np.array_equal(out, np.repeat(np.arange(8)[:, None], 5, axis=1))


def test_kwise_zero_seed_zero_vector():
    fam = KWiseFamily(16, 8, 3, 16)
    assert np.all(fam.sample_batch(0) == 0)


def marginal_counts(samples: np.ndarray, coords, q: int) -> np.ndarray:
    """Joint histogram of the selected coordinates over all rows."""
    code = np.zeros(len(samples), dtype=np.int64)
    for c in coords:
        code = code * q + samples[:, c]
    return np.bincount(code, minlength=q ** len(coords))


@pytest.mark.parametrize("q,n,k", [(8, 8, 2), (8, 8, 3), (16, 16, 2)])
def test_kwise_exact_marginals(q, n, k):
    fam = KWiseFamily(q, n, k, q)
    assert fam.field is gf2(q.bit_length() - 1)
    samples = fam.sample_batch(all_seeds(fam.seed_bits))
    expected = (1 << fam.seed_bits) // q ** k
    for coords in itertools.combinations(range(n), k):
        counts = marginal_counts(samples, coords, q)
        assert np.all(counts == expected)


def test_kwise_eval_points_batch_matches_sample():
    rng = np.random.default_rng(7)
    for fam in (KWiseFamily(8, 8, 3, 8), KWiseFamily(1 << 40, 4, 2, 1 << 40)):
        seeds = rng.integers(0, 1 << min(fam.seed_bits, 30), 25)
        points = rng.integers(0, fam.n, 25)
        out = fam.eval_points_batch(seeds, points)
        full = fam.sample_batch(seeds)
        for i in range(25):
            assert out[i] == full[i, points[i]]


def test_kwise_sample_wrapper_deterministic():
    fam = KWiseFamily(8, 4, 2, 8)
    assert np.array_equal(fam.sample_batch([37]), fam.sample_batch([37]))


def test_kwise_vectors_nonpow2_deviation_budget():
    fam = KWiseFamily(3, 6, 2, deviation_q_min(3, 6, 0.01))
    deviation = 6 * 3 / fam.q  # n * m / q
    assert deviation <= 0.01
    samples = fam.sample_batch(all_seeds(min(fam.seed_bits, 24)))
    freqs = np.bincount(samples[:, 0], minlength=3) / len(samples)
    assert np.abs(freqs - 1 / 3).max() <= deviation


def test_kwise_big_field_scalar_path_matches_eval_at():
    fam = KWiseFamily(1 << 40, 4, 2, 1 << 40)
    seeds = np.array([123456789012345678901, 1, (1 << 80) - 1], dtype=object)
    out = fam.sample_batch(seeds)
    for x in range(4):
        at = fam.eval_points_batch(seeds, np.full(len(seeds), x))
        assert list(at) == list(out[:, x])


def kwise_reference(fam: KWiseFamily, seeds) -> np.ndarray:
    """KWiseFamily as first written for wide seeds: each coefficient cut
    from the python-int seed by shift and mask, then a per-seed scalar
    Horner evaluation at every point."""
    w = fam.coeff_bits
    out = np.empty((len(seeds), fam.n), dtype=object)
    for i, s in enumerate(seeds):
        c = [(int(s) >> (fam.seed_bits - (j + 1) * w)) % (1 << w) % fam.q
             for j in range(fam.k)]
        for x in range(fam.n):
            acc = 0
            for cj in reversed(c):
                acc = fam.field.add(fam.field.mul(acc, x), cj)
            out[i, x] = acc
    return out


def mul_vec_horner(field, coeffs, points):
    """Horner with one `GF2Field.mul_vec` product a step, highest degree
    first: the reference for `log_step` and `KWiseFamily.horner`."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = field.mul_vec(acc, points) ^ c
    return acc


@pytest.mark.parametrize("t", range(1, 6))
def test_log_step_matches_products_exhaustively(t):
    # every (acc, x, c) of GF(2^t), zeros included
    f = gf2(t)
    log, exp, _ = f.tables
    acc, x, c = (v.reshape(-1) for v in np.meshgrid(
        *[np.arange(f.q)] * 3, indexing="ij"))
    want = mul_vec_horner(f, [acc, c], x)
    assert np.array_equal(log_step(acc, log.take(x), c, log, exp), want)


@pytest.mark.parametrize("t", range(6, 17))
def test_log_step_and_horner_match_products(t):
    # random operands plus 0, 1 and q - 1: every pair of them as (acc, x),
    # then whole Horner evaluations with zero points and zero coefficients
    f = gf2(t)
    log, exp, _ = f.tables
    rng = np.random.default_rng(t)
    vals = np.concatenate([[0, 1, f.q - 1], rng.integers(0, f.q, 150)])
    acc, x = (v.reshape(-1) for v in np.meshgrid(vals, vals, indexing="ij"))
    c = rng.permutation(np.resize(vals, acc.size))
    want = mul_vec_horner(f, [acc, c], x)
    assert np.array_equal(log_step(acc, log.take(x), c, log, exp), want)
    fam = KWiseFamily(f.q, f.q, 6, f.q)
    assert fam.field is f
    coeffs = rng.choice(vals, (fam.k, 400))
    coeffs[:, :3] = 0                         # the zero polynomial
    coeffs[rng.integers(0, fam.k, 100), rng.integers(0, 400, 100)] = 0
    coeffs[-1, 3:6] = 0                       # a zero leading coefficient
    points = rng.choice(vals, 400)
    points[::7] = 0
    got = fam.horner(coeffs[::-1], points)
    assert got.dtype == np.int64
    assert np.array_equal(got, mul_vec_horner(f, coeffs[::-1], points))


@pytest.mark.parametrize("field,n,k", [
    (gf2(3), 8, 3), (gf2(8), 16, 4), (gf2(11), 20, 5),
    (gf2(7), 128, 9),        # 63-bit seed: the dim-step bucket strings
    (gf2(20), 6, 4), (gf2(40), 4, 2),
    (prime_field(149), 128, 9),  # 72-bit seed: the dim-step bucket hash
    (prime_field(next_prime(1965 ** 2)), 128, 16),  # the 352-bit spreading
    (prime_field(next_prime(3037000499)), 6, 2),     # products need 64 bits
    # q > 2^62; GF(2^70) only at k = 1, as products stop at t = 64
    (gf2(63), 4, 2), (gf2(70), 4, 1),
    (prime_field(next_prime(1 << 64)), 4, 3),
])
def test_kwise_matches_wide_seed_reference(field, n, k):
    # m = q: the field itself, and the reduction mod m changes nothing
    fam = KWiseFamily(field.q, n, k, field.q)
    assert fam.field is field
    rng = np.random.default_rng(n * k)
    seeds = edge_seeds(fam.seed_bits, 6, rng)
    want = kwise_reference(fam, seeds)
    got = fam.sample_batch(seeds)
    assert got.shape == want.shape
    assert [[int(v) for v in row] for row in got] == want.tolist()
    points = rng.integers(0, n, len(seeds))
    at = fam.eval_points_batch(seeds, points)
    assert [int(v) for v in at] == \
        [want[i, x] for i, x in enumerate(points)]
    # wide seeds over fields with int64 products stay on int64 arithmetic
    if field.q <= 1 << 16 or (isinstance(field, PrimeField)
                              and field.q <= 1 << 62):
        assert got.dtype == np.int64


@pytest.mark.parametrize("p", [next_prime(3 << 61), next_prime(3 << 62)])
def test_kwise_prime_fields_with_word_coefficients_match_reference(p):
    # 63- and 64-bit coefficients decode as words; residues of p > 2^62
    # would wrap int64 when Horner adds them, so the sums stay exact
    field = prime_field(p)
    fam = KWiseFamily(p, 4, 3, p)
    assert fam.field is field and fam.coeff_bits in (63, 64)
    seeds = edge_seeds(fam.seed_bits, 6, np.random.default_rng(p % 997))
    want = kwise_reference(fam, seeds)
    assert [[int(v) for v in row] for row in fam.sample_batch(seeds)] == \
        want.tolist()


@pytest.mark.parametrize("t,k", [(32, 3), (63, 2), (64, 2), (64, 1)])
def test_kwise_word_fields_stay_words(t, k):
    # the alphabet steps' GF(2^t) families: word coefficients and values,
    # int64 up to m = 2^63 and uint64 at m = 2^64, on edge seeds
    fam = KWiseFamily(1 << t, 12, k, 0)
    assert fam.field is gf2(t)
    seeds = edge_seeds(fam.seed_bits, 6, np.random.default_rng(t + k))
    want = kwise_reference(fam, seeds)
    dtype = np.uint64 if t == 64 else np.int64
    assert fam.coefficients(seeds).dtype == dtype
    got = fam.sample_batch(seeds)
    assert got.dtype == dtype and got.flags.writeable
    assert got.tolist() == want.tolist()
    points = np.arange(len(seeds)) % fam.n
    at = fam.eval_points_batch(seeds, points)
    assert at.dtype == dtype
    assert at.tolist() == [want[i, x] for i, x in enumerate(points)]


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.integers(1, 5000),
                 st.sampled_from([3037000499, (1 << 62) - 1, 1 << 62,
                                  (1 << 62) + 1, 1 << 63, 1 << 64,
                                  1 << 126])),
       st.integers(1, 64), st.integers(1, 4),
       st.sampled_from([1e-3, 0.3]), st.integers(0, 1 << 32))
def test_kwise_family_over_m_property(m, n, k, delta_map, rng_seed):
    # every m the families meet: powers of two up to the n = 128 tree's
    # [2^126] cross family, whose k is 1, and non-powers on either side of
    # the int64 limits
    k = 1 if m == 1 << 126 else k
    fam = KWiseFamily(m, n, k, deviation_q_min(m, n, delta_map))
    assert fam.q >= n
    rng = np.random.default_rng(rng_seed)
    seeds = edge_seeds(fam.seed_bits, 4, rng)
    want = kwise_reference(fam, seeds) % m
    got = fam.sample_batch(seeds)
    assert got.shape == want.shape
    assert [[int(v) for v in row] for row in got] == want.tolist()
    points = rng.integers(0, n, len(seeds))
    at = fam.eval_points_batch(seeds, points)
    assert [int(v) for v in at] == [want[i, x] for i, x in enumerate(points)]
    int64 = m <= 1 << 63
    assert (got.dtype == np.int64) == int64
    assert (at.dtype == np.int64) == int64


# ---------------------------------------------------------------------------
# small-bias family


def parity_biases(fam: SmallBiasFamily) -> np.ndarray:
    """|E[(-1)^<S,x>]| for every parity S, by Walsh-Hadamard transform."""
    bits = fam.sample_batch(all_seeds(fam.seed_bits))
    packed = bits @ (1 << np.arange(fam.n - 1, -1, -1, dtype=np.int64))
    counts = np.bincount(packed, minlength=1 << fam.n).astype(float)
    counts /= counts.sum()
    h = counts.copy()
    step = 1
    while step < len(h):
        for lo in range(0, len(h), 2 * step):
            a = h[lo:lo + step].copy()
            b = h[lo + step:lo + 2 * step].copy()
            h[lo:lo + step] = a + b
            h[lo + step:lo + 2 * step] = a - b
        step *= 2
    return np.abs(h)


def test_small_bias_single_bit_unbiased():
    fam = SmallBiasFamily(1, 0.5)
    bits = fam.sample_batch(all_seeds(fam.seed_bits))[:, 0]
    assert bits.mean() == 0.5


def test_small_bias_n16_bound():
    fam = SmallBiasFamily(16, 1 / 8)
    biases = parity_biases(fam)
    assert biases[1:].max() <= fam.bias_bound + 1e-12 <= 1 / 8 + 1e-12


def test_small_bias_deterministic():
    fam = SmallBiasFamily(10, 0.25)
    assert np.array_equal(fam.sample_batch([999]), fam.sample_batch([999]))


def test_small_bias_refuses_fields_above_64_bits_at_build():
    # n = 64, delta = 2^-60 needs t = 67, past the GF(2^t) products
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"small-bias-lift n=64, "
                       r"delta=8\.67362e-19 .*GF\(2\^67\).*t <= 64"):
        plan_to_generator({"type": "small-bias-lift", "n": 64,
                           "delta": 2.0 ** -60})
    assert time.perf_counter() - start < 0.1
    assert SmallBiasFamily(64, 2.0 ** -57).t == 64  # the widest it builds


def small_bias_reference(fam: SmallBiasFamily, seeds) -> np.ndarray:
    """SmallBiasFamily as first written: x^i built up by one field
    multiply per column, bit i = lsb(x^i * y)."""
    x, y = bit_fields(as_bits(seeds, fam.seed_bits), fam.seed_bits,
                      fam.t)
    out = np.empty((len(x), fam.n), dtype=np.int64)
    power = np.ones(len(x), dtype=np.int64)
    for i in range(fam.n):
        out[:, i] = fam.field.mul_vec(power, y) & 1
        power = fam.field.mul_vec(power, x)
    return out


def small_bias_edge_seeds(fam: SmallBiasFamily, count: int, rng):
    """Full-width random seeds plus x = 0, y = 0, both zero, all ones,
    and the seed whose x and y both have the largest log (2^t - 2); the
    field has log tables only for t <= 16, so beyond that x = y = 2^t - 1
    stands in."""
    t = fam.t
    x, y = rng.integers(1, 1 << t, 2)
    top = int(fam.field.tables[1][(1 << t) - 2]) if t <= 16 else (1 << t) - 1
    extra = [int(y), int(x) << t, 0, (1 << 2 * t) - 1, top << t | top]
    seeds = np.empty(count + len(extra), dtype=object)
    seeds[:] = list(edge_seeds(2 * t, count, rng)[:count]) + extra
    return seeds


@pytest.mark.parametrize("n,delta,t", [
    (1, 1.0, 2), (2, 1.0, 2), (3, 0.5, 4), (4, 1.0, 3), (16, 1.0, 5),
    (5, 0.4, 5), (128, 1.0, 8), (40, 0.5, 8),
])
def test_small_bias_matches_reference_on_all_seeds(n, delta, t):
    fam = SmallBiasFamily(n, delta)
    assert fam.t == t
    seeds = all_seeds(fam.seed_bits)
    assert np.array_equal(fam.sample_batch(seeds),
                          small_bias_reference(fam, seeds))


def test_small_bias_enum_exact_plan_matches_reference():
    # every seed of the 22-bit plan that exact enumeration walks
    g = plan_to_generator({"type": "small-bias-lift", "n": 16,
                           "delta": 1 / 64})
    assert (g.family.t, g.seed_bits) == (11, 22)
    for lo in range(0, 1 << 22, 1 << 18):
        seeds = np.arange(lo, lo + (1 << 18), dtype=np.int64)
        assert np.array_equal(g.generate_batch(seeds),
                              small_bias_reference(g.family, seeds))


@pytest.mark.parametrize("n,delta,t", [
    (16, 2.0 ** -10, 15),    # widest uint16 exponent: e + log x <= 65,532
    (1 << 14, 1.0, 15),      # every column of the widest uint16 field
    (16, 2.0 ** -11, 16),    # largest log/exp table, uint32 exponents
    (1 << 15, 1.0, 16),      # every column of GF(2^16)
    (64, 1e-3, 17),          # no tables: the multiply loop
    (64, 1 / 16, 11),        # 32 lsb periods: e %= q - 1 twice
])
def test_small_bias_matches_reference_on_wide_and_edge_seeds(n, delta, t):
    fam = SmallBiasFamily(n, delta)
    assert fam.t == t
    seeds = small_bias_edge_seeds(fam, 4 if n > 1000 else 40,
                                  np.random.default_rng(n))
    got = fam.sample_batch(seeds)
    assert np.array_equal(got, small_bias_reference(fam, seeds))
    assert got.dtype == np.int64
    assert np.array_equal(np.ascontiguousarray(got), got)
    assert not got[-3].any()                       # x = y = 0
    assert not got[-4].any()                       # y = 0
    assert not got[-5, 1:].any()                   # x = 0
    if 2 * t <= 63:  # int64 seeds skip the bit matrix
        assert np.array_equal(fam.sample_batch(seeds.astype(np.int64)), got)
    for i in (0, len(seeds) - 1):
        assert np.array_equal(fam.sample_batch(int(seeds[i]))[0], got[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.data())
def test_small_bias_matches_reference_property(n, data):
    delta = data.draw(st.floats(min_value=n / 2000, max_value=1.0))
    fam = SmallBiasFamily(n, delta)
    assert fam.t <= 12
    seeds = small_bias_edge_seeds(
        fam, 6, np.random.default_rng(data.draw(st.integers(0, 1 << 32))))
    got = fam.sample_batch(seeds)
    assert np.array_equal(got, small_bias_reference(fam, seeds))
    assert np.array_equal(fam.sample_batch(int(seeds[0]))[0], got[0])


# ---------------------------------------------------------------------------
# combined hash family


def test_hash_t1_constant_zero():
    fam = CombinedHashFamily(5, 1, 2)
    assert np.all(fam.table_batch(7) == 0)


def test_hash_k1_uniform_marginals():
    fam = CombinedHashFamily(4, 4, 1)
    tables = fam.table_batch(all_seeds(fam.seed_bits))
    for i in range(4):
        counts = np.bincount(tables[:, i], minlength=4)
        assert np.all(counts == len(tables) // 4)


def test_hash_exact_pair_marginals():
    fam = CombinedHashFamily(8, 4, 2)
    tables = fam.table_batch(all_seeds(fam.seed_bits))
    for i, j in itertools.combinations(range(8), 2):
        counts = marginal_counts(tables, (i, j), 4)
        assert np.all(counts == len(tables) // 16)


def test_hash_eval_matches_table():
    fam = CombinedHashFamily(6, 4, 2)
    table = fam.table_batch(45)[0]
    at = fam.eval_points_batch(np.full(6, 45), np.arange(6))
    assert np.array_equal(at, table)


# ---------------------------------------------------------------------------
# the pairwise-independent permutations x -> a*x + b over GF(2^t), a != 0,
# that G1 computes inline


def perm_table(t: int, a: int, b: int) -> np.ndarray:
    return gf2(t).mul_vec(a, np.arange(1 << t, dtype=np.int64)) ^ b


def test_perm_identity():
    assert np.array_equal(perm_table(3, 1, 0), np.arange(8))


@pytest.mark.parametrize("t", [2, 4, 6])
def test_perm_bijectivity_all_seeds(t):
    # G1's decoding of a 2t-bit seed (a_raw, b): a = a_raw mod (2^t - 1) + 1
    for seed in range(1 << 2 * t):
        a = (seed >> t) % ((1 << t) - 1) + 1
        table = perm_table(t, a, seed & ((1 << t) - 1))
        assert np.array_equal(np.sort(table), np.arange(1 << t))


def test_perm_pair_uniform_over_family():
    # enumerate the family (a != 0, b) directly: every ordered pair of
    # distinct points appears exactly once as (pi(0), pi(1))
    f = gf2(4)
    pairs = {(f.mul(a, 0) ^ b, f.mul(a, 1) ^ b)
             for a in range(1, 16) for b in range(16)}
    assert len(pairs) == 240


def test_perm_pairwise_independence_exhaustive():
    # (pi(x), pi(y)) uniform over ordered distinct pairs for fixed x != y
    f = gf2(3)
    counts = {}
    for a in range(1, 8):
        for b in range(8):
            key = (f.mul(a, 2) ^ b, f.mul(a, 5) ^ b)
            counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 56
    assert set(counts.values()) == {1}


# ---------------------------------------------------------------------------
# moment and load-balancing properties


def test_hash_moment_bound():
    # E[load(v, h)^p] at p = 2 over full seed enumeration, against the
    # safety-factor bound 64*((||v||_2^4 / t)^p + ||v||_4^{4p})
    n, t, p = 12, 4, 2
    fam = CombinedHashFamily(n, t, 2 * p)
    rng = np.random.default_rng(11)
    v = rng.random(n)
    tables = fam.table_batch(all_seeds(fam.seed_bits))
    v2 = v * v
    loads = np.zeros(len(tables))
    for j in range(t):
        mass = ((tables == j) * v2).sum(axis=1)
        loads += mass * mass
    moment = float((loads ** p).mean())
    l2 = float(np.sum(v2))
    l4 = float(np.sum(v2 * v2))
    bound = 64.0 * ((l2 ** 2 / t) ** p + l4 ** p)
    assert moment <= bound


def test_load_balancing_tail():
    # Pr[| ||v restricted to bucket 0||_1 - ||v||_1/t | >= t0] against
    # (C_p ||v||_2 / t0)^p with C_p = 4 sqrt(p)
    n, t, p = 12, 4, 4
    fam = CombinedHashFamily(n, t, p)
    rng = np.random.default_rng(5)
    v = rng.random(n)
    tables = fam.table_batch(all_seeds(fam.seed_bits))
    mass = ((tables == 0) * v).sum(axis=1)
    l1 = float(np.abs(v).sum())
    l2 = math.sqrt(float(np.sum(v * v)))
    for t0 in (1.0, 2.0, 3.0):
        tail = float(np.mean(np.abs(mass - l1 / t) >= t0))
        assert tail <= (4 * math.sqrt(p) * l2 / t0) ** p


# ---------------------------------------------------------------------------
# the field rule: kwise_field against the three rules it replaced, copied
# from the k-wise vectors over [m], CombinedHashFamily and
# reductions._column_field as they stood before it


def old_vectors_field(n: int, m: int, delta_map: float):
    if m >= 2 and m & (m - 1) == 0:
        t = max(m.bit_length() - 1, max(1, (max(n, 2) - 1).bit_length()))
        return gf2(t)
    return prime_field(
        next_prime(max(n, m * max(1, math.ceil(4 * n / delta_map)))))


def old_hash_field(n: int, t: int):
    if t & (t - 1) == 0:
        s = max(max(1, t.bit_length() - 1),
                max(1, (max(n, 2) - 1).bit_length()))
        return gf2(s)
    return prime_field(next_prime(max(n, t * t, 2 * t)))


def old_column_field(m: int):
    if m & (m - 1) == 0:
        return gf2(max(1, m.bit_length() - 1))
    return prime_field(next_prime(max(m, 3)))


def check_field_rule(m: int, n: int, delta_map: float) -> None:
    """The fields each k-wise user picks over [m] with n points are the
    old rules' objects; the vectors over [1] alone move, from a prime
    field to GF(2^t), and their output is all zeros either way."""
    f = KWiseFamily(m, n, 2, deviation_q_min(m, n, delta_map)).field
    if m == 1:
        assert f is gf2(max(1, (max(n, 2) - 1).bit_length()))
    else:
        assert f is old_vectors_field(n, m, delta_map)
    # the deviation of the reduction mod m: none when m divides q
    assert f.q % m == 0 if m & (m - 1) == 0 else n * m / f.q <= delta_map
    assert CombinedHashFamily(n, m, 2).field is old_hash_field(n, m)
    if m > n ** 4:
        D = math.isqrt(m)
        step = AlphabetStepPlan(m, n, 0.1, UniformStub(D, n))
        assert step.col_family.field is old_column_field(m)
        assert step.col_family.q >= D


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12, 1965, 55108, 3037000499,
                               1 << 63, 1 << 64, 1 << 126])
def test_kwise_field_is_the_old_rule_on_the_grid(m):
    for n in (1, 2, 5, 12, 128, 4096):
        for delta_map in (1e-3, 0.3):
            check_field_rule(m, n, delta_map)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 600), st.integers(1, 300),
       st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
def test_kwise_field_property(m, points, delta_map):
    check_field_rule(m, points, delta_map)
    q_min = m * max(1, math.ceil(4 * points / delta_map))
    f = kwise_field(m, points, q_min)
    assert f.q >= max(points, m)
    if m & (m - 1) == 0:
        assert f is gf2(f.t) and f.q % m == 0
    else:
        assert f is prime_field(f.q) and f.q >= q_min
