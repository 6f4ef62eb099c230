import random
from math import gcd, isqrt

import pytest

from crtspectra.field import (PRIMITIVE_POLYS, CountingField, FieldElement,
                              FieldSpec, _ones, build_field, cyclotomic_cosets,
                              default_modulus, discrete_log, element_of_order, element_order,
                              factor_int, find_root_in_subgroup, has_order,
                              is_primitive, minimal_polynomial_of,
                              multiplicative_order_of_2, power_sum,
                              root_power_table)
from crtspectra.gf2poly import is_irreducible


F6 = build_field(6)


def test_build_field_basics():
    assert F6.m == 6
    assert F6.modulus == 0x43
    assert F6.group_order == 63
    assert F6.group_order_factors == (3, 7)
    assert F6.generator.order() == 63


def test_reducible_modulus_rejected_with_factor():
    with pytest.raises(ValueError) as e:
        build_field(4, 0b10101)   # x^4+x^2+1 = (x^2+x+1)^2
        # message must name a witness factor
    assert "0b" in str(e.value) or "x" in str(e.value) or "0x" in str(e.value)


def test_ring_axioms_sampled():
    rng = random.Random(3)
    for _ in range(300):
        a = F6.element(rng.randrange(64))
        b = F6.element(rng.randrange(64))
        c = F6.element(rng.randrange(64))
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == F6.zero


def test_inverse_and_pow():
    rng = random.Random(5)
    for _ in range(60):
        a = F6.element(rng.randrange(1, 64))
        assert a * a.inverse() == F6.one
        assert a ** 63 == F6.one
        assert a ** -1 == a.inverse()
    with pytest.raises(ZeroDivisionError):
        F6.zero.inverse()


def test_element_order_divides_group_order():
    for bits in range(1, 64):
        assert 63 % element_order(F6.element(bits)) == 0


def test_element_of_order():
    for n in (1, 3, 7, 9, 21, 63):
        assert element_of_order(F6, n).order() == n
    with pytest.raises(ValueError):
        element_of_order(F6, 5)   # 5 does not divide 63


def test_discrete_log():
    g = F6.generator
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randrange(63)
        assert discrete_log(g ** k, g, 63) == k
    with pytest.raises(ValueError):
        discrete_log(F6.zero, g, 63)


def test_discrete_log_bsgs_large_field():
    f = build_field(15)
    g = f.generator
    assert discrete_log(g ** 29999, g, f.group_order) == 29999


def test_cyclotomic_cosets_21():
    cosets = cyclotomic_cosets(21)
    leaders = sorted(c[0] for c in cosets)
    assert leaders == [0, 1, 3, 5, 7, 9]
    assert sum(len(c) for c in cosets) == 21
    for c in cosets:
        assert c[0] == min(c)
    # every odd N < 512 against the definition: the cosets partition
    # range(N), each is the set {k 2^i mod N} of its least element k,
    # sorted, and closed under doubling
    for N in range(1, 512, 2):
        cosets = cyclotomic_cosets(N)
        assert sorted(k for c in cosets for k in c) == list(range(N))
        for c in cosets:
            assert c == sorted(c)
            assert set(c) == {c[0] * pow(2, i, N) % N for i in range(len(c))}
            assert {2 * k % N for k in c} == set(c)
        assert [c[0] for c in cosets] == sorted(c[0] for c in cosets)
    for N in (8, 0, -3):
        with pytest.raises(ValueError, match=f"need odd N >= 1, got {N}"):
            cyclotomic_cosets(N)


def test_order_of_two():
    assert multiplicative_order_of_2(1) == 1
    assert multiplicative_order_of_2(21) == 6
    assert multiplicative_order_of_2(93) == 10
    assert multiplicative_order_of_2(217) == 15
    assert multiplicative_order_of_2(651) == 30
    # every odd N < 512 against a brute loop over n = 1, 2, ...
    for N in range(1, 512, 2):
        n = 1
        while pow(2, n, N) != 1 % N:
            n += 1
        assert multiplicative_order_of_2(N) == n
    for N in (6, 0):
        with pytest.raises(ValueError, match=f"need odd N >= 1, got {N}"):
            multiplicative_order_of_2(N)


def test_minimal_polynomial():
    # order-3 elements of GF(2^6) are the roots of x^2+x+1
    w = element_of_order(F6, 3)
    assert minimal_polynomial_of(w) == 0b111
    g3 = build_field(3).generator
    assert minimal_polynomial_of(g3) == 0xB
    # degree divides m and the polynomial vanishes nowhere obvious
    for n in (7, 9, 21, 63):
        p = minimal_polynomial_of(element_of_order(F6, n))
        assert 6 % (p.bit_length() - 1) == 0


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_factor_int():
    assert factor_int(63) == [3, 7]
    assert factor_int(2**15 - 1) == [7, 31, 151]
    assert factor_int(2**30 - 1) == [3, 7, 11, 31, 151, 331]
    assert factor_int(1) == []
    # every group order 2^m - 1 of a FieldSpec: sorted distinct primes
    # that, raised to their multiplicities, multiply back to n
    for m in range(1, 33):
        n = (1 << m) - 1
        primes = factor_int(n)
        assert primes == sorted(set(primes))
        assert all(_is_prime(p) for p in primes)
        rest = n
        for p in primes:
            while rest % p == 0:
                rest //= p
        assert rest == 1
    with pytest.raises(ValueError):
        factor_int(0)


def test_default_table_is_primitive():
    # re-derive the frozen table property from scratch
    for m, f in PRIMITIVE_POLYS.items():
        assert f.bit_length() - 1 == m
        assert is_irreducible(f)
        assert is_primitive(f)
    assert not is_primitive(0b10101)           # reducible
    assert not is_primitive(0b11111)           # irreducible, x of order 5
    # degrees above 32 are refused as FieldSpec refuses them, whether or
    # not the polynomial is irreducible
    for f in ((1 << 33) | 0b1010011, 1 << 33):
        with pytest.raises(ValueError,
                           match="extension degree 33 out of range 1..32"):
            is_primitive(f)


def test_poly_table_env_override(tmp_path, monkeypatch, clear_field_caches):
    # CRTSPECTRA_POLY_TABLE is not read: a table naming other moduli, or a
    # missing file, leaves every default modulus at PRIMITIVE_POLYS, for a
    # field already cached and for one built fresh
    alt = tmp_path / "table.txt"
    alt.write_text("# alt table\n4 0x19\n22 0x400039\n")
    monkeypatch.delenv("CRTSPECTRA_POLY_TABLE", raising=False)
    assert build_field(4).modulus == PRIMITIVE_POLYS[4] == 0x13
    for path in (alt, tmp_path / "missing.txt"):
        monkeypatch.setenv("CRTSPECTRA_POLY_TABLE", str(path))
        assert build_field(4).modulus == 0x13
        clear_field_caches()
        assert default_modulus(4) == 0x13
        assert build_field(4).modulus == 0x13
        assert default_modulus(22) == build_field(22).modulus == 0x400003


def test_fields_are_built_once_and_shared():
    assert build_field(9) is build_field(9)


def test_has_order():
    g = F6.generator
    for bits in range(1, 64):
        a = F6.element(bits)
        n = element_order(a)
        assert [d for d in range(1, 64) if has_order(a, d)] == [n]
    assert not has_order(g, 126) and not has_order(g, 0)
    assert not has_order(F6.zero, 1)
    # uncounted on a counting view, as element orders are
    from crtspectra.costs import OpCounter
    cf = CountingField(F6, OpCounter())
    assert has_order(cf.generator, 63)
    assert cf.counter.mul_count == 0


def _first_root_plain(poly, powers, field):
    """The first x of powers = [h^0, h^1, ...] with poly(x) = 0."""
    for x in powers:
        acc = 0
        for t in range(poly.bit_length() - 1, -1, -1):
            acc = field.mul_int(acc, x) ^ ((poly >> t) & 1)
        if acc == 0:
            return x
    return None


@pytest.mark.parametrize("n, m", [(7, 6), (7, 15), (31, 30), (63, 30),
                                  (1023, 30), (2047, 22)])
def test_root_scan_matches_plain_ascending_scan(n, m):
    # every minimal polynomial of an order-n element: one per coset leader
    # coprime to n
    fld = build_field(m)
    h = element_of_order(fld, n)
    powers = [(h ** j).bits for j in range(n)]
    polys = {minimal_polynomial_of(fld.element(powers[c[0]]))
             for c in cyclotomic_cosets(n) if gcd(c[0], n) == 1}
    for poly in sorted(polys):
        assert find_root_in_subgroup(poly, n, fld).bits == \
            _first_root_plain(poly, powers, fld)


def test_root_scan_without_a_root_names_the_subgroup():
    # the roots of x^3 + x + 1 have order 7, and 7 does not divide 9
    with pytest.raises(ValueError, match=r"^x\^3\+x\+1 has no root in the"
                       r" order-9 subgroup$"):
        find_root_in_subgroup(0xB, 9, F6)


def test_power_sum_is_the_polynomial_at_a_root_power():
    pw = root_power_table(F6.generator, 63)
    assert _ones(0) == [] and _ones(0b1011) == [0, 1, 3]
    # empty taps are the zero polynomial: 0 at every power
    assert [power_sum(pw, [], k, 63) for k in range(63)] == [0] * 63
    # at k = 0 every tap reads root^0 = 1, so the sum is the weight mod 2
    assert power_sum(pw, [0, 1, 3], 0, 63) == 1
    assert power_sum(pw, [0, 1, 3, 4], 0, 63) == 0
    for k in range(63):
        assert power_sum(pw, _ones(0b1011), k, 63) == \
            pw[3 * k % 63] ^ pw[k] ^ 1


def test_counting_field_tallies():
    from crtspectra.costs import OpCounter
    cf = CountingField(F6, OpCounter())
    a = cf.element(0b101)
    b = cf.element(0b11)
    _ = cf.mul_int(a.bits, b.bits)
    assert cf.counter.mul_count == 1
    assert cf == F6   # same field, different instrumentation
    assert isinstance(cf, FieldSpec)
    assert hash(cf) == hash(F6)
    assert cf.generator.order() == 63
    assert cf.counter.mul_count == 1   # element orders stay uncounted
    # a times map tallies one multiplication and one reduction per call,
    # none for building its tables
    times_a = cf.times(a.bits)
    assert (cf.counter.mul_count, cf.counter.reduction_count) == (1, 1)
    for n, x in enumerate((0, 1, 0b11, 63), 2):
        assert times_a(x) == F6.mul_int(a.bits, x)
        assert (cf.counter.mul_count, cf.counter.reduction_count) == (n, n)


def test_times_matches_mul_int_exhaustively_for_small_fields():
    for m in range(1, 9):
        fld = build_field(m)
        for c in range(1 << m):
            times_c = fld.times(c)
            assert [times_c(x) for x in range(1 << m)] == \
                [fld.mul_int(c, x) for x in range(1 << m)], (m, c)


@pytest.mark.parametrize("m", [9, 15, 16, 17, 23, 24, 25, 31, 32])
def test_times_matches_mul_int_at_byte_table_boundaries(m):
    fld = build_field(m)
    rng = random.Random(m)
    top = (1 << m) - 1
    cs = [0, 1, top] + [rng.randrange(1 << m) for _ in range(20)]
    xs = [0, 1, top] + [rng.randrange(1 << m) for _ in range(50)]
    for c in cs:
        times_c = fld.times(c)
        for x in xs:
            assert times_c(x) == fld.mul_int(c, x), (m, c, x)


def test_cross_field_element_mixing_rejected():
    f3 = build_field(3)
    with pytest.raises(ValueError):
        _ = F6.generator * f3.generator


def test_element_validation():
    with pytest.raises(ValueError):
        FieldElement(F6, 1 << 6)
    with pytest.raises(ValueError):
        FieldElement(F6, -1)
