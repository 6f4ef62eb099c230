import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra.gf2poly import (is_irreducible, parse_poly, pdivmod, pgcd,
                                pmod, pmul, poly_degree, poly_str, ppowmod)


def test_degree():
    assert poly_degree(1) == 0
    assert poly_degree(0x43) == 6
    assert poly_degree(0) == float("-inf")


def test_mul_known():
    # (x+1)(x+1) = x^2+1 over GF(2)
    assert pmul(0b11, 0b11) == 0b101
    assert pmul(0, 0x43) == 0
    assert pmul(1, 0x43) == 0x43


def test_divmod_roundtrip():
    # a = q*b + r with deg r < deg b, so pmod(a, b) must give r back
    rng = random.Random(7)
    for _ in range(200):
        b = rng.randrange(1, 1 << 12)
        q = rng.randrange(1 << 12)
        r = rng.randrange(1 << (b.bit_length() - 1))
        assert pmod(pmul(q, b) ^ r, b) == r
        assert pdivmod(pmul(q, b) ^ r, b) == (q, r)


def test_pdivmod_property():
    # any a and nonzero f: a = q f + r with deg r < deg f, r = pmod(a, f);
    # sizes reach past one machine word, and a below f gives q = 0
    rng = random.Random(11)
    for _ in range(300):
        a = rng.getrandbits(rng.randrange(1, 300))
        f = rng.randrange(1, 1 << rng.randrange(1, 200))
        q, r = pdivmod(a, f)
        assert a == pmul(q, f) ^ r
        assert poly_degree(r) < poly_degree(f)
        assert r == pmod(a, f)
    assert pdivmod(0b101, 0b1011) == (0, 0b101)
    assert pdivmod(0, 0b11) == (0, 0)
    assert pdivmod(0b1011, 1) == (0b1011, 0)


def _long_division_remainder(a: int, f: int) -> int:
    """Schoolbook long division, one leading term at a time."""
    while a.bit_length() >= f.bit_length():
        a ^= f << (a.bit_length() - f.bit_length())
    return a


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 4000).flatmap(lambda n: st.integers(0, (1 << n) - 1)),
       st.integers(1, 700).flatmap(
           lambda n: st.integers(1 << (n - 1), (1 << n) - 1)))
def test_pmod_equals_long_division(a, f):
    # dividends up to 4000 bits over divisors up to 700 bits: both the
    # plain loop and the chunk-at-a-time reduction of a long dividend
    assert pmod(a, f) == _long_division_remainder(a, f)


def test_divmod_rejects_zero_divisor():
    for div in (pmod, pdivmod):
        with pytest.raises(ZeroDivisionError,
                           match="^polynomial division by zero$"):
            div(5, 0)


def test_gcd():
    # gcd((x+1)*f, (x+1)*g) with f,g coprime
    f = pmul(0b11, 0b111)
    g = pmul(0b11, 0b1011)
    assert pgcd(f, g) == 0b11
    assert pgcd(f, 0) == f


def test_powmod_matches_repeated_mul():
    rng = random.Random(11)
    mod = 0x43
    for _ in range(50):
        a = rng.randrange(1, 1 << 6)
        e = rng.randrange(0, 40)
        acc = 1
        for _ in range(e):
            acc = pmod(pmul(acc, a), mod)
        assert ppowmod(a, e, mod) == acc


def test_irreducibility_known_cases():
    assert is_irreducible(0b111)          # x^2+x+1
    assert not is_irreducible(0b101)      # x^2+1 = (x+1)^2
    assert is_irreducible(0xB)
    assert is_irreducible(0x43)
    assert not is_irreducible(pmul(0xB, 0xD))


def test_irreducible_count_degree_8():
    # necklace count: (2^8 - 2^4)/8 = 30 irreducible octics over GF(2)
    n = sum(1 for f in range(1 << 8, 1 << 9) if is_irreducible(f))
    assert n == 30


def test_poly_str():
    assert poly_str(0x57) == "x^6+x^4+x^2+x+1"
    assert poly_str(1) == "1"
    assert poly_str(0b10) == "x"
    assert poly_str(0) == "0"


def test_parse_poly_forms():
    assert parse_poly("0x57") == 0x57
    assert parse_poly("x^6+x^4+x^2+x+1") == 0x57
    assert parse_poly("1") == 1
    with pytest.raises(ValueError):
        parse_poly("x^2 - 1")
