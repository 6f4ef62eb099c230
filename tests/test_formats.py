import os

import pytest

from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import build_field
from crtspectra.formats import (FormatError, atomic_write, parse_field,
                                parse_sequence, parse_spectrum,
                                serialize_field, serialize_sequence,
                                serialize_spectrum)
from crtspectra.sequences import BitSequence, pointwise_product
from crtspectra.spectral import dft, default_field_for_period

import reference_values as rv


def _product_spectrum_21():
    a = BitSequence.from_string(rv.STREAM_A)
    b = BitSequence.from_string(rv.STREAM_B)
    specs = []
    for s in (a, b):
        fld, root = default_field_for_period(s.period)
        specs.append(dft(s, fld, root))
    return product_spectrum(specs, CrtBasis([3, 7]))


def test_field_roundtrip():
    f = build_field(6)
    text = serialize_field(f)
    assert text.strip() == "GF2m m=6 mod=0x43"
    assert parse_field(text, "x") == f
    with pytest.raises(FormatError):
        parse_field("GF2m m=6 mod=0x44", "x")      # reducible
    with pytest.raises(FormatError):
        parse_field("m=6 mod=0x43", "x")


def test_sequence_roundtrip():
    s = BitSequence.from_string(rv.STREAM_B)
    text = serialize_sequence(s)
    assert text == "period=7\n0010111\n"
    assert parse_sequence(text, "x") == s


@pytest.mark.parametrize("body,line,col", [
    ("period=x\n0010111\n", 1, 8),     # non-numeric period
    ("period=7\n00101x1\n", 2, 6),     # bad bit character
    ("period=9\n0010111\n", 2, 8),     # length mismatch
    ("0010111\n", 1, 1),               # missing header
])
def test_sequence_diagnostics_carry_position(body, line, col):
    with pytest.raises(FormatError) as e:
        parse_sequence(body, "seq.txt")
    assert e.value.line == line
    assert e.value.col == col
    assert str(e.value).startswith(f"seq.txt:{line}:{col}:")


def test_spectrum_roundtrip():
    S = _product_spectrum_21()
    text = serialize_spectrum(S)
    head = text.splitlines()[0]
    assert head.startswith("N=21 field=GF2m(6,0x43) root=g^")
    assert len(text.splitlines()) == 22      # header + all 21 indices
    T = parse_spectrum(text, "x")
    assert T == S


def test_spectrum_parse_rejections():
    S = _product_spectrum_21()
    lines = serialize_spectrum(S).splitlines()

    twice = lines + [lines[1]]
    with pytest.raises(FormatError):
        parse_spectrum("\n".join(twice), "x")          # duplicate index

    missing = lines[:-1]
    with pytest.raises(FormatError):
        parse_spectrum("\n".join(missing), "x")        # incomplete

    bad_exp = lines[:]
    bad_exp[6] = "5 21"
    with pytest.raises(FormatError):
        parse_spectrum("\n".join(bad_exp), "x")        # exponent >= N

    bad_root = lines[:]
    bad_root[0] = "N=21 field=GF2m(6,0x43) root=g^1"   # order 63, not 21
    with pytest.raises(FormatError):
        parse_spectrum("\n".join(bad_root), "x")

    huge = "N=1000000000000000 field=GF2m(2,0x7) root=g^1\n0 Z"
    with pytest.raises(FormatError, match=r"^x:1:1: N=1000000000000000"):
        parse_spectrum(huge, "x")                      # N does not divide 3

    conj = "N=3 field=GF2m(2,0x7) root=g^1\n0 Z\n1 0\n2 1"
    with pytest.raises(FormatError, match="indices 1 and 2"):
        parse_spectrum(conj, "x")                      # d(2) != 2 d(1)


def test_atomic_write(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write(str(p), "hello\n")
    assert p.read_text() == "hello\n"
    atomic_write(str(p), "replaced\n")
    assert p.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.txt"]    # no temp residue


def test_atomic_write_failure_leaves_no_residue(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    with pytest.raises(OSError):
        atomic_write(str(target), "x")
    assert os.listdir(tmp_path) == []
