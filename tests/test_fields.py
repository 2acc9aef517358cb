"""Finite-field arithmetic against independent schoolbook oracles."""

import hashlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierprg.families import KWiseFamily
from fourierprg.fields import (MR_EXACT_BELOW, GF2Field, PrimeField,
                               _is_irreducible, clmod, clmul, clmul8_table,
                               gf2, irreducible_modulus, is_prime,
                               next_prime, prime_field)


def schoolbook_gf2_mul(a: int, b: int, modulus: int) -> int:
    """Polynomial multiply then long division, written independently."""
    prod = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            prod ^= a << i
        i += 1
    deg_m = modulus.bit_length() - 1
    while prod.bit_length() - 1 >= deg_m:
        prod ^= modulus << (prod.bit_length() - 1 - deg_m)
    return prod


def poly_divides(d: int, f: int) -> bool:
    return clmod(f, d) == 0


def gf2_pow(f, a: int, e: int) -> int:
    """a^e in field f by square and multiply over f.mul."""
    r = 1
    while e:
        if e & 1:
            r = f.mul(r, a)
        a = f.mul(a, a)
        e >>= 1
    return r


def test_field_mul_identity_gf8():
    f = gf2(3)
    assert f.mul(0b001, 0b101) == 0b101


def test_field_mul_x_squared_gf8():
    # modulus x^3 + x + 1
    f = gf2(3)
    assert f.modulus == 0b1011
    assert f.mul(0b010, 0b010) == 0b100


def test_field_mul_matches_schoolbook_gf8():
    f = gf2(3)
    expected = schoolbook_gf2_mul(0b110, 0b101, f.modulus)
    assert f.mul(0b110, 0b101) == expected


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_gf2_field_axioms_exhaustive(t):
    f = gf2(t)
    q = f.q
    elems = range(q)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == \
                    f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, gf2_pow(f, a, q - 2)) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_prime_field_axioms(p):
    f = prime_field(p)
    for a in range(p):
        for b in range(p):
            assert f.mul(a, b) == (a * b) % p
            assert f.add(a, b) == (a + b) % p
            for c in range(0, p, max(1, p // 5)):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    for a in range(1, p):
        assert f.mul(a, pow(a, p - 2, p)) == 1


def test_inverses_larger_fields():
    f = gf2(8)
    for a in range(1, 256):
        assert f.mul(a, gf2_pow(f, a, 254)) == 1
    g = prime_field(257)
    for a in range(1, 257):
        assert g.mul(a, pow(a, 255, 257)) == 1


def test_mul_vec_matches_scalar():
    for t in (3, 8, 12):
        f = gf2(t)
        rng = np.random.default_rng(t)
        a = rng.integers(0, f.q, 200)
        b = rng.integers(0, f.q, 200)
        out = f.mul_vec(a, b)
        for i in range(200):
            assert out[i] == f.mul(int(a[i]), int(b[i]))


@pytest.mark.parametrize("t", [1, 2, 5, 8])
def test_mul_vec_product_table_exhaustive(t):
    # t <= 8 multiplies through a full product table: check every pair
    # against the scalar product and the broadcast (N, 1) x (N, k) form
    f = gf2(t)
    elems = np.arange(f.q, dtype=np.int64)
    out = f.mul_vec(elems[:, None], elems[None, :])
    assert out.dtype == np.int64 and out.shape == (f.q, f.q)
    want = [[f.mul(a, b) for b in range(f.q)] for a in range(f.q)]
    assert out.tolist() == want


U8, U16, I64 = np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.int64)


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("da,db,want_dtype", [
    (U8, U8, U8), (U16, U16, U16), (U8, U16, U16), (I64, I64, I64),
    (U8, I64, I64), (I64, U16, I64),
])
def test_mul_vec_table_dtypes_exhaustive(t, da, db, want_dtype):
    # every pair of a t <= 8 field, both broadcast forms, and the dtype
    # rule: two narrow operands keep their common dtype, else int64
    f = gf2(t)
    want = np.array([[f.mul(a, b) for b in range(f.q)] for a in range(f.q)])
    elems = np.arange(f.q)
    out = f.mul_vec(elems.astype(da)[:, None], elems.astype(db)[None, :])
    assert out.dtype == want_dtype and np.array_equal(out, want)
    flat = f.mul_vec(np.repeat(elems, f.q).astype(da),
                     np.tile(elems, f.q).astype(db))
    assert flat.dtype == want_dtype
    assert np.array_equal(flat, want.reshape(-1))


@pytest.mark.parametrize("t", [9, 10, 12, 16])
def test_mul_vec_sentinel_tables(t):
    # random pairs plus every element times 0 and times 1, in both
    # operand orders, against the scalar product
    f = gf2(t)
    rng = np.random.default_rng(t)
    a = rng.integers(0, f.q, 3000)
    b = rng.integers(0, f.q, 3000)
    want = [f.mul(int(x), int(y)) for x, y in zip(a, b)]
    for dtype in (U16, I64):
        out = f.mul_vec(a.astype(dtype), b.astype(dtype))
        assert out.dtype == dtype and out.tolist() == want
    # uint8 operands of a t > 8 field widen to hold the product
    a8, b8 = (a & 255).astype(U8), (b & 255).astype(U8)
    out = f.mul_vec(a8, b8)
    assert out.dtype == U16
    assert out.tolist() == [f.mul(int(x), int(y)) for x, y in zip(a8, b8)]
    elems = np.arange(f.q)
    for c in (0, 1):
        want = [f.mul(c, x) for x in range(f.q)]
        for dtype in (U16, I64):
            col = np.full(f.q, c, dtype=dtype)
            for out in (f.mul_vec(col, elems.astype(dtype)),
                        f.mul_vec(elems.astype(dtype), col)):
                assert out.dtype == dtype and out.tolist() == want
        out = f.mul_vec(c, elems)
        assert out.dtype == I64 and out.tolist() == want


def test_mul_vec_refuses_products_above_degree_64():
    # vectorized products stop at word size, before any modulus search;
    # the scalar product still serves every degree
    for t in (65, 78, 126):
        f = GF2Field(t)
        with pytest.raises(ValueError, match="limited to t <= 64"):
            f.mul_vec(np.array([1, 2]), np.array([3, 4]))
        assert "modulus" not in vars(f)
    with pytest.raises(ValueError, match="limited to t <= 64"):
        KWiseFamily(1 << 70, 4, 2, 1 << 70).sample_batch(5)
    f = gf2(78)
    rng = np.random.default_rng(0)
    a = [int(x) << 30 | int(y) for x, y in
         zip(rng.integers(0, 1 << 48, 20), rng.integers(0, 1 << 30, 20))]
    for x, y in zip(a, reversed(a)):
        assert f.mul(x, y) == clmod(clmul(x, y), f.modulus)


def test_clmul8_table_exhaustive():
    table = clmul8_table()
    assert table.dtype == np.uint16 and table.shape == (1 << 16,)
    assert not table.flags.writeable
    assert table.tolist() == [clmul(a, b) for a in range(256)
                              for b in range(256)]


@pytest.mark.parametrize("t", [17, 24, 31, 32, 33, 40, 62, 63, 64])
def test_fold_table_matches_clmod(t):
    # entry 256 k + v is v x^(8k) reduced, for every byte position of a
    # product of two t-bit operands
    f = gf2(t)
    table = f.fold_table
    assert table.dtype == np.uint64 and not table.flags.writeable
    assert len(table) == 256 * 2 * -(-t // 8)
    assert table.tolist() == [clmod(v << 8 * k, f.modulus)
                              for k in range(len(table) // 256)
                              for v in range(256)]


def _word_operands(t: int, bits: int):
    """Operands of GF(2^t): uniform below 2^bits, 0, 1, q - 1 and the
    all-ones fields of whole bytes."""
    q = 1 << t
    return st.one_of(st.integers(0, (1 << min(bits, t)) - 1),
                     st.sampled_from([0, 1, q - 1]),
                     st.sampled_from([(1 << 8 * j) - 1
                                      for j in range(1, t // 8 + 1)]))


def _carriers(values, t: int):
    """values as object, uint64 and (where they fit) int64 arrays."""
    out = [np.array(values, dtype=object).reshape(np.shape(values)),
           np.array(values, dtype=np.uint64).reshape(np.shape(values))]
    if t < 64 or all(v < 1 << 63 for v in np.ravel(values)):
        out.append(np.array(values, dtype=np.int64).reshape(np.shape(values)))
    return out


@settings(max_examples=150, deadline=None)
@given(t=st.integers(17, 64), data=st.data())
def test_mul_vec_words_match_clmul_property(t, data):
    # the word kernel against clmod(clmul(a, b)) on flat, broadcast
    # (N, 1) x (1, M) and empty operands, each side short or full width
    f = gf2(t)
    want_dtype = np.uint64 if t == 64 else np.int64
    bits_a, bits_b = (data.draw(st.sampled_from([8, 32, t]))
                      for _ in range(2))
    n = data.draw(st.integers(0, 12))
    a = data.draw(st.lists(_word_operands(t, bits_a), min_size=n,
                           max_size=n))
    b = data.draw(st.lists(_word_operands(t, bits_b), min_size=n,
                           max_size=n))
    m = data.draw(st.integers(0, 5))
    for x, y in zip(_carriers(a, t), _carriers(b, t)):
        out = f.mul_vec(x, y)
        assert out.dtype == want_dtype and out.shape == (n,)
        assert out.tolist() == [clmod(clmul(u, v), f.modulus)
                                for u, v in zip(a, b)]
        outer = f.mul_vec(x[:, None], y[None, :m])
        assert outer.dtype == want_dtype and outer.shape == (n, min(m, n))
        assert outer.tolist() == [[clmod(clmul(u, v), f.modulus)
                                   for v in b[:m]] for u in a]


@pytest.mark.parametrize("t", [17, 24, 31, 32, 33, 62, 63, 64])
def test_mul_vec_above_the_tables_matches_clmul(t):
    # the word kernel against clmul/clmod: random operands with 0, 1 and
    # q - 1, in both orders, as int64 operands where they fit, as object
    # operands, and broadcast (N, 1) x (1, M)
    f = gf2(t)
    rng = random.Random(t)
    a = [rng.getrandbits(t) for _ in range(40)] + [0, 1, f.q - 1]
    b = a[::-1]
    want = [clmod(clmul(x, y), f.modulus) for x, y in zip(a, b)]
    operands = [(np.array(a, dtype=object), np.array(b, dtype=object))]
    if t <= 62:
        operands.append((np.array(a, dtype=np.int64),
                         np.array(b, dtype=np.int64)))
    for x, y in operands:
        for out in (f.mul_vec(x, y), f.mul_vec(y, x)):
            assert out.dtype == (np.uint64 if t == 64 else np.int64) \
                and out.tolist() == want
            assert all(type(v) is int for v in out.tolist())
        outer = f.mul_vec(x[:, None], y[None, :8])
        assert outer.shape == (len(a), 8)
        assert outer.tolist() == [[clmod(clmul(u, v), f.modulus)
                                   for v in b[:8]] for u in a]


def textbook_clmul(a: int, b: int) -> int:
    """The carry-less product as first written: one shift of each
    operand per bit of a."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def test_clmul_matches_textbook_loop():
    for a in range(256):
        for b in range(256):
            assert clmul(a, b) == textbook_clmul(a, b)
    rng = random.Random(130)
    for _ in range(2000):
        a = rng.getrandbits(rng.randint(1, 130))
        b = rng.getrandbits(rng.randint(1, 130))
        assert clmul(a, b) == clmul(b, a) == textbook_clmul(a, b)


@pytest.mark.parametrize("t", [17, 24, 31, 32, 33, 62, 63, 64, 126, 256])
def test_scalar_mul_fold_matches_clmod(t):
    # the fold by modulus ^ 2^t against clmod's bit-by-bit reduction, on
    # random and short operands (Horner's points), with 0, 1 and q - 1,
    # in both orders
    f = gf2(t)
    rng = random.Random(t)
    a = [rng.getrandbits(t) for _ in range(60)] + [0, 1, f.q - 1]
    b = a[::-1] + [rng.getrandbits(8) for _ in range(60)] + [2, f.q - 1, 0]
    for x in a:
        for y in b[:8] + b[-8:]:
            want = clmod(clmul(x, y), f.modulus)
            assert f.mul(x, y) == f.mul(y, x) == want < f.q
    for x, y in zip(a + a, b):
        assert f.mul(x, y) == clmod(clmul(x, y), f.modulus)


def test_table_moduli_irreducible_by_trial_division():
    # independent of the Ben-Or test used at generation time
    for t in range(2, 13):
        f = irreducible_modulus(t)
        assert f >> t == 1
        # irreducible iff no divisor of degree in [1, t/2]
        for d in range(2, 1 << (t // 2 + 1)):
            assert not poly_divides(d, f)


def test_table_moduli_lexicographically_smallest():
    for t in range(2, 11):
        f = irreducible_modulus(t)
        for cand in range((1 << t) + 1, f, 2):
            has_factor = any(
                poly_divides(d, cand)
                for d in range(2, 1 << (t // 2 + 1))
                if d.bit_length() - 1 >= 1)
            assert has_factor, f"{cand:#x} smaller than table entry for t={t}"


def test_on_demand_modulus_above_table():
    f65 = irreducible_modulus(65)
    assert f65 >> 65 == 1
    # x^(2^65) == x mod f is necessary for irreducibility; check directly
    g = gf2(65)
    h = 2
    for _ in range(65):
        h = g.mul(h, h)
    assert h == 2


def test_ben_or_matches_trial_division_on_every_odd_candidate():
    # every odd polynomial of degree 1..12, not only the chosen moduli
    for t in range(1, 13):
        for f in range((1 << t) | 1, 2 << t, 2):
            by_division = not any(poly_divides(d, f)
                                  for d in range(2, 1 << (t // 2 + 1)))
            assert _is_irreducible(f, t) == by_division, (t, hex(f))


def test_moduli_to_degree_64_pinned():
    # the lexicographically smallest irreducible of each degree 1..64
    text = ",".join(f"{irreducible_modulus(t):x}" for t in range(1, 65))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "64d3d06e3aca3c0cde1a74b6b9b32424f72e160dcbf47fbe806f0c4cf3571dcc")
    assert irreducible_modulus(8) == 0x11B
    assert irreducible_modulus(64) == 0x1000000000000001B


@pytest.mark.parametrize("t,f", [
    (65, 0x2000000000000001B), (66, 0x40000000000000009),
    (67, 0x80000000000000027), (68, 0x1000000000000000A3),
    (69, 0x200000000000000065), (70, 0x40000000000000002B),
    (71, 0x80000000000000002B), (72, 0x100000000000000005F),
    (73, 0x200000000000000001D), (74, 0x4000000000000000047),
    (75, 0x800000000000000004B), (76, 0x10000000000000000035),
    (77, 0x20000000000000000065), (78, 0x4000000000000000005F),
    (79, 0x8000000000000000001D), (80, 0x1000000000000000000AF),
    (126, (1 << 126) | 0x95), (256, (1 << 256) | 0x425),
])
def test_moduli_above_degree_64_pinned(t, f):
    assert irreducible_modulus(t) == f


def test_log_exp_tables_pinned():
    # log, exp and product tables of GF(2^1) .. GF(2^16), byte for byte
    digest = hashlib.sha256()
    for t in range(1, 17):
        log, exp, prod = gf2(t).tables
        assert (log.dtype, exp.dtype) == (np.int32, np.uint16)
        digest.update(log.tobytes())
        digest.update(exp.tobytes())
        if prod is not None:
            digest.update(prod.tobytes())
    assert digest.hexdigest() == (
        "b5c05cee59e1cde11e18a9f6d4ebb6f9358cbff2668948a092eb655ae6b70df5")


@pytest.mark.parametrize("t", range(1, 17))
def test_log_exp_generator_is_the_smallest_primitive_element(t):
    f = gf2(t)
    log, exp, _ = f.tables

    def order(a):
        x, i = a, 1
        while x != 1:
            x, i = f.mul(x, a), i + 1
        return i

    g = int(exp[1])
    assert order(g) == f.q - 1
    assert all(order(a) < f.q - 1 for a in range(2, g))
    assert sorted(int(x) for x in exp[:f.q - 1]) == list(range(1, f.q))
    assert all(log[int(exp[i])] == i for i in range(f.q - 1))


def test_degree_256_modulus_under_a_second_in_a_fresh_process(run_python):
    code = ("import time\n"
            "from fourierprg.fields import irreducible_modulus\n"
            "t0 = time.perf_counter()\n"
            "f = irreducible_modulus(256)\n"
            "print(time.perf_counter() - t0, f)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    seconds, f = proc.stdout.split()
    assert int(f) == (1 << 256) | 0x425
    assert float(seconds) < 1.0


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(14) == 17
    assert next_prime(100) == 101


def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if _trial_division_prime(n)]


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747,
    3474749660383, 341550071728321, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each is a strong pseudoprime to several of the smallest bases
    assert not is_prime(n)
    with pytest.raises(ValueError):
        PrimeField(n)


def test_is_prime_refuses_beyond_exact_range():
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BELOW)  # a strong pseudoprime to 12 bases


def test_next_prime_large_is_fast():
    t0 = time.perf_counter()
    assert next_prime(2**60) == 2**60 + 33
    assert next_prime(2**40) == 2**40 + 15
    assert time.perf_counter() - t0 < 1.0


def test_prime_field_vec_products_int64_when_operands_allow():
    # (p - 1)^2 passes 2^63, but Horner's points are short: the n = 128
    # tree's column family multiplies residues by points below 2^16
    p = next_prime(3037000499)
    f = prime_field(p)
    rng = np.random.default_rng(p)
    a = np.concatenate([rng.integers(0, p, 50), [0, p - 1, p - 1]])
    b = np.concatenate([rng.integers(0, 1 << 16, 50), [1 << 16, 0, 1]])
    out = f.mul_vec(a, b)
    assert out.dtype == np.int64
    assert out.tolist() == [int(x) * int(y) % p for x, y in zip(a, b)]
    wide = f.mul_vec(a, a[::-1])
    assert wide.tolist() == [int(x) * int(y) % p for x, y in zip(a, a[::-1])]
    assert f.mul_vec(a[:0], b[:0]).shape == (0,)


@pytest.mark.parametrize("p", [2**32 + 15, 2**61 - 1, 2**64 + 13])
def test_prime_field_vec_products_exact_for_wide_p(p):
    f = prime_field(p)
    a = [p - 1, p - 2, 12345, 0]
    b = [p - 1, p - 3, p - 1, p - 1]
    want = [x * y % p for x, y in zip(a, b)]
    assert [int(v) for v in f.mul_vec(a, b)] == want
    assert [int(v) for v in f.mul_vec(p - 1, b)] == \
        [(p - 1) * y % p for y in b]
