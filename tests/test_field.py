import random

import pytest

from crtspectra.field import (PRIMITIVE_POLYS, CountingField, FieldElement,
                              FieldSpec, build_field, cyclotomic_cosets,
                              default_modulus, discrete_log, element_of_order,
                              element_order, factor_int, is_primitive,
                              minimal_polynomial_of, multiplicative_order_of_2)
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
        assert discrete_log(g ** k, g) == k
    with pytest.raises(ValueError):
        discrete_log(F6.zero, g)


def test_discrete_log_bsgs_large_field():
    f = build_field(15)
    g = f.generator
    assert discrete_log(g ** 29999, g) == 29999


def test_cyclotomic_cosets_21():
    cosets = cyclotomic_cosets(21)
    leaders = sorted(c[0] for c in cosets)
    assert leaders == [0, 1, 3, 5, 7, 9]
    assert sum(len(c) for c in cosets) == 21
    for c in cosets:
        assert c[0] == min(c)
    with pytest.raises(ValueError):
        cyclotomic_cosets(8)


def test_order_of_two():
    assert multiplicative_order_of_2(1) == 1
    assert multiplicative_order_of_2(21) == 6
    assert multiplicative_order_of_2(93) == 10
    assert multiplicative_order_of_2(217) == 15
    assert multiplicative_order_of_2(651) == 30
    with pytest.raises(ValueError):
        multiplicative_order_of_2(6)


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


def test_factor_int():
    assert factor_int(63) == [3, 7]
    assert factor_int(2**15 - 1) == [7, 31, 151]
    assert factor_int(2**30 - 1) == [3, 7, 11, 31, 151, 331]


def test_default_table_is_primitive():
    # re-derive the frozen table property from scratch
    for m, f in PRIMITIVE_POLYS.items():
        assert f.bit_length() - 1 == m
        assert is_irreducible(f)
        assert is_primitive(f)


def test_poly_table_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "table.txt"
    # x^4+x+1 over the built-in for degree 4, comment line ignored
    alt.write_text("# alt table\n4 0x13\n")
    monkeypatch.setenv("CRTSPECTRA_POLY_TABLE", str(alt))
    assert default_modulus(4) == 0x13
    assert default_modulus(6) == PRIMITIVE_POLYS[6]
    monkeypatch.delenv("CRTSPECTRA_POLY_TABLE")
    assert default_modulus(4) == PRIMITIVE_POLYS[4]


def test_counting_field_tallies():
    from crtspectra.costs import OpCounter
    cf = CountingField(F6, OpCounter())
    a = cf.element(0b101)
    b = cf.element(0b11)
    _ = cf.mul_int(a.bits, b.bits)
    _ = cf.add_int(a.bits, b.bits)
    assert cf.counter.mul_count == 1
    assert cf.counter.xor_count == 1
    assert cf == F6   # same field, different instrumentation
    assert isinstance(cf, FieldSpec)
    assert hash(cf) == hash(F6)
    assert cf.generator.order() == 63
    assert cf.counter.mul_count == 1   # element orders stay uncounted


def test_cross_field_element_mixing_rejected():
    f3 = build_field(3)
    with pytest.raises(ValueError):
        _ = F6.generator * f3.generator


def test_element_validation():
    with pytest.raises(ValueError):
        FieldElement(F6, 1 << 6)
    with pytest.raises(ValueError):
        FieldElement(F6, -1)
