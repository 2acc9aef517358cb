"""Finite-field arithmetic against independent schoolbook oracles."""

import time

import numpy as np
import pytest

from fourierprg.fields import (MR_EXACT_BELOW, FieldElem, PrimeField, clmod,
                               clmul, field_mul, gf2, irreducible_modulus,
                               is_prime, next_prime, prime_field)


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


def test_field_mul_identity_gf8():
    f = gf2(3)
    assert field_mul(f.elem(0b001), f.elem(0b101)).value == 0b101


def test_field_mul_x_squared_gf8():
    # modulus x^3 + x + 1
    f = gf2(3)
    assert f.modulus == 0b1011
    assert field_mul(f.elem(0b010), f.elem(0b010)).value == 0b100


def test_field_mul_matches_schoolbook_gf8():
    f = gf2(3)
    expected = schoolbook_gf2_mul(0b110, 0b101, f.modulus)
    assert field_mul(f.elem(0b110), f.elem(0b101)).value == expected


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
        assert f.mul(a, f.inv(a)) == 1


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
        assert f.mul(a, f.inv(a)) == 1


def test_inverses_larger_fields():
    f = gf2(8)
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
    g = prime_field(257)
    for a in range(1, 257):
        assert g.mul(a, g.inv(a)) == 1


def test_field_elem_range_and_mismatch():
    f = gf2(3)
    with pytest.raises(ValueError):
        FieldElem(8, f)
    with pytest.raises(ValueError):
        f.elem(1) * gf2(4).elem(1)


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


def test_mul_vec_big_field_fallback():
    f = gf2(78)
    rng = np.random.default_rng(0)
    a = [int(x) << 30 | int(y) for x, y in
         zip(rng.integers(0, 1 << 48, 20), rng.integers(0, 1 << 30, 20))]
    b = list(reversed(a))
    out = f.mul_vec(np.array(a, dtype=object), np.array(b, dtype=object))
    for i in range(20):
        assert out[i] == f.mul(a[i], b[i])
        assert out[i] == clmod(clmul(a[i], b[i]), f.modulus)


def test_table_moduli_irreducible_by_trial_division():
    # independent of the Rabin test used at generation time
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


@pytest.mark.parametrize("p", [2**32 + 15, 2**61 - 1, 2**64 + 13])
def test_prime_field_vec_products_exact_for_wide_p(p):
    f = prime_field(p)
    a = [p - 1, p - 2, 12345, 0]
    b = [p - 1, p - 3, p - 1, p - 1]
    want = [x * y % p for x, y in zip(a, b)]
    assert [int(v) for v in f.mul_vec(a, b)] == want
    assert [int(v) for v in f.mul_scalar_vec(p - 1, b)] == \
        [(p - 1) * y % p for y in b]
