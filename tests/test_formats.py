import os
import random
import stat
import threading
import tracemalloc
from math import gcd

import pytest

from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import (FieldSpec, _doubling_orbit, build_field,
                              discrete_log, element_of_order)
from crtspectra.formats import (FormatError, atomic_write, parse_field,
                                parse_sequence, parse_spectrum, read_text,
                                serialize_field, serialize_sequence,
                                serialize_spectrum)
from crtspectra.sequences import BitSequence
from crtspectra.spectral import (Spectrum, coset_expand,
                                 default_field_for_period, dft)

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
    # past the interpreter's 4300-digit limit: a positioned FormatError
    with pytest.raises(FormatError, match=r"^x:1:1: expected 'GF2m"):
        parse_field("GF2m m=" + "1" * 5000 + " mod=0x43", "x")
    # an Arabic-Indic six is a Unicode decimal digit, but not an ASCII one
    with pytest.raises(FormatError, match=r"^x:1:1: expected 'GF2m"):
        parse_field("GF2m m=\u0666 mod=0x43", "x")


def test_sequence_roundtrip():
    s = BitSequence.from_string(rv.STREAM_B)
    text = serialize_sequence(s)
    assert text == "period=7\n0010111\n"
    assert parse_sequence(text, "x") == s


@pytest.mark.parametrize("body,line,col", [
    ("period=x\n0010111\n", 1, 8),     # non-numeric period
    ("period=7_0\n0010111\n", 1, 8),   # digit separator
    ("period=+7\n0010111\n", 1, 8),    # signed period
    ("period= 7\n0010111\n", 1, 8),    # space inside the header
    ("period=\u0667\n0010111\n", 1, 8),  # Arabic-Indic seven
    ("period=7\n00101x1\n", 2, 6),     # bad bit character
    ("period=9\n0010111\n", 2, 8),     # length mismatch
    ("0010111\n", 1, 1),               # missing header
    # bits lines that int(text[::-1], 2) would read
    ("period=3\n1_0\n", 2, 2),         # digit separator
    ("period=3\n 10\n", 2, 3),         # the line is stripped: 2 bits
    ("period=3\n10 \n", 2, 3),
    ("period=2\n\u0661\u0660\n", 2, 1),  # Arabic-Indic one, zero
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


@pytest.mark.parametrize(
    "N", (1, 7, 9, 11, 99, 127, 1023, 1025, 10923, 16383, 32767, 131071))
def test_spectrum_text_is_one_line_per_index(N):
    # the bytes the writer has always written, one f-string per index, with
    # support at both ends and on both sides of each digit boundary;
    # 2^17 - 1 spans two of the zero body's 65,536-index blocks and a third
    fld, root = default_field_for_period(N)
    head = (f"N={N} field=GF2m({fld.m},0x{fld.modulus:x}) root=g^"
            f"{discrete_log(root, fld.generator, fld.group_order)}")
    edges = {0, N - 1} | {k for p in (10, 100, 1000, 10000, 100000)
                          for k in (p - 1, p) if k < N}
    rng = random.Random(N)
    reps = {}
    for k in edges:
        orbit = _doubling_orbit(k, N)
        step = N // gcd(N, (1 << len(orbit)) - 1)
        reps[min(orbit)] = step * rng.randrange(N // step)
    zero = Spectrum(N, fld, root, {})
    conjugate = coset_expand(reps, N, fld, root)
    edges_only = Spectrum(N, fld, root,
                          {k: rng.randrange(N) for k in sorted(edges)})
    for S in (zero, conjugate, edges_only):
        lines = [head] + [f"{k} {'Z' if d is None else d}"
                          for k, d in enumerate(S.values)]
        assert serialize_spectrum(S) == "\n".join(lines) + "\n"
    for S in (zero, conjugate):
        assert parse_spectrum(serialize_spectrum(S), "x") == S


@pytest.mark.parametrize("m,orders", [
    (22, (23, 89, 2047)),        # 2^22 - 1 = 3 * 23 * 89 * 683
    (24, (35, 241, 4095)),       # 2^24 - 1 = 3^2 * 5 * 7 * 13 * 17 * 241
    (30, (331, 651, 7161)),      # 2^30 - 1 = 3^2 * 7 * 11 * 31 * 151 * 331
])
def test_spectrum_header_is_generator_log(m, orders, random_log_spectrum,
                                         clear_field_caches):
    # each root is written twice: first from empty memos, as a one-shot
    # command does, then from the memoized exponent, as a server does
    clear_field_caches()
    fld = build_field(m)
    rng = random.Random(m)
    for N in orders:
        u = rng.randrange(1, N)
        while gcd(u, N) != 1:
            u += 1
        root = element_of_order(fld, N) ** u   # some order-N root
        e = discrete_log(root, fld.generator, fld.group_order)
        for _ in range(2):
            S = random_log_spectrum(fld, root, rng)
            text = serialize_spectrum(S)
            assert text.splitlines()[0] == (
                f"N={N} field=GF2m({m},0x{fld.modulus:x}) root=g^{e}")
            assert parse_spectrum(text, "x") == S


def test_spectrum_header_log_computes_no_order(monkeypatch,
                                               random_log_spectrum,
                                               clear_field_caches):
    # the root lies in <g^q> of order N, which the spectrum carries; the
    # order over the primes of 2^30 - 1 was most of the header's log
    fld = build_field(30)
    S = random_log_spectrum(fld, element_of_order(fld, 7161),
                            random.Random(7161))
    clear_field_caches()     # so the header's log runs, not its memo
    calls = [0]
    order_int = FieldSpec._order_int

    def counted(self, *args):
        calls[0] += 1
        return order_int(self, *args)
    monkeypatch.setattr(FieldSpec, "_order_int", counted)
    serialize_spectrum(S)
    assert calls[0] == 0


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

    # digit runs past the interpreter's 4300-digit limit
    long = "1" * 5000
    for text, line in (
            (f"N={long} field=GF2m(2,0x7) root=g^1\n0 Z", 1),
            (f"N=3 field=GF2m({long},0x7) root=g^1\n0 Z", 1),
            (f"N=3 field=GF2m(2,0x7) root=g^{long}\n0 Z", 1),
            (f"N=3 field=GF2m(2,0x7) root=g^1\n{long} Z\n1 Z\n2 Z", 2),
            (f"N=3 field=GF2m(2,0x7) root=g^1\n0 {long}\n1 Z\n2 Z", 2)):
        with pytest.raises(FormatError, match=f"^x:{line}:1: expected"):
            parse_spectrum(text, "x")


@pytest.mark.parametrize("text, digit", [
    ("N={} field=GF2m(2,0x7) root=g^1\n0 Z\n1 0\n2 0\n", "3"),   # header
    ("N=3 field=GF2m(2,0x7) root=g^1\n0 Z\n{} 0\n2 0\n", "1"),   # index
    ("N=3 field=GF2m(2,0x7) root=g^1\n0 Z\n1 {}\n2 0\n", "0"),   # exponent
], ids=["header", "index", "exponent"])
def test_spectrum_numbers_take_ascii_digits_only(text, digit):
    # int() reads Arabic-Indic digits as it reads ASCII ones; the parser
    # must refuse them where it refuses any other non-digit
    parse_spectrum(text.format(digit), "x")
    with pytest.raises(FormatError) as unicode_digit:
        parse_spectrum(text.format(chr(0x660 + int(digit))), "x")
    with pytest.raises(FormatError) as letter:
        parse_spectrum(text.format("x"), "x")
    assert str(unicode_digit.value) == str(letter.value)


def test_spectrum_short_text_rejected_before_allocating():
    # the header passes the group-order check, but one entry line cannot
    # fill N = 2^24 - 1 indices; no N-sized table may be built first
    big = "N=16777215 field=GF2m(24,0x100001B) root=g^1\n0 Z\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="missing entries"):
            parse_spectrum(big, "x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("data", [
    b"", b"period=3\n011\n", b"period=3\r\n011\r\n", b"period=3\r011\r",
    b"period=3\r\n011\n\r\r\n\n\r", b"no newline", b"\r", b"\r\n",
], ids=["empty", "lf", "crlf", "cr", "mixed", "no-newline", "lone-cr",
        "lone-crlf"])
def test_read_text_reads_as_text_mode_does(tmp_path, data):
    # universal newlines: CRLF and a lone CR each read as LF
    p = tmp_path / "f"
    p.write_bytes(data)
    with open(p, encoding="ascii") as fh:
        text_mode = fh.read()
    assert read_text(str(p)) == text_mode \
        == data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n")


def test_read_text_errors_name_the_path_and_the_cause(tmp_path):
    p = tmp_path / "f"
    p.write_bytes(b"period=3\n0\xe91\n")
    with pytest.raises(FormatError) as e:
        read_text(str(p))
    assert str(e.value) == f"{p}: file is not ASCII text"
    for path in (tmp_path / "missing", tmp_path):
        # the strerror text mode's open and read give for the same path
        with pytest.raises(OSError) as text_mode:
            with open(path, encoding="ascii") as fh:
                fh.read()
        with pytest.raises(FormatError) as e:
            read_text(str(path))
        assert str(e.value) == \
            f"{path}: cannot read: {text_mode.value.strerror}"


def test_read_text_reads_a_pipe_to_its_end(tmp_path):
    # a pipe's size is not its length (`--in /dev/stdin`): the text is
    # longer than one pipe buffer, so it takes several reads
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    data = b"period=3\r\n" + b"01\r" * 70000 + b"\n"
    writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    try:
        text = read_text(str(fifo))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert text == "period=3\n" + "01\n" * 70000


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


def test_atomic_write_leaves_the_mode_open_leaves(tmp_path):
    # as open(path, "w") leaves them: a new file gets 0666 less the umask,
    # a replaced one keeps its own mode
    def mode(p):
        return stat.S_IMODE(os.stat(p).st_mode)

    old_umask = os.umask(0o027)
    try:
        for name in ("old_opened", "old_written"):
            (tmp_path / name).write_text("old\n")
            os.chmod(tmp_path / name, 0o644)
        for name in ("new_opened", "old_opened"):   # open(path, "w")
            (tmp_path / name).write_text("new\n")
        atomic_write(str(tmp_path / "new_written"), "new\n")
        atomic_write(str(tmp_path / "old_written"), "new\n")
    finally:
        os.umask(old_umask)
    assert mode(tmp_path / "new_written") == mode(tmp_path / "new_opened") \
        == 0o640
    assert mode(tmp_path / "old_written") == mode(tmp_path / "old_opened") \
        == 0o644


def test_atomic_write_closes_its_temp_file(tmp_path, monkeypatch):
    # on success and on failure the temp file's descriptor is closed, and
    # a failed write leaves the old file and no temp file
    fds = []
    os_open = os.open

    def recording_open(*args, **kwargs):
        fds.append(os_open(*args, **kwargs))
        return fds[-1]
    monkeypatch.setattr(os, "open", recording_open)
    target = tmp_path / "out.txt"
    atomic_write(str(target), "old\n")

    def fchmod(fd, mode):
        raise PermissionError(1, "Operation not permitted")
    monkeypatch.setattr(os, "fchmod", fchmod)
    with pytest.raises(PermissionError):
        atomic_write(str(target), "new\n")
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert os.listdir(tmp_path) == ["out.txt"]
    assert target.read_text() == "old\n"


def test_atomic_write_never_sets_the_umask(tmp_path, monkeypatch):
    # reading the umask means setting it, and another thread's file made
    # in between would get none; the kernel applies it at creation instead
    def umask(mask):
        raise AssertionError("atomic_write set the process umask")
    monkeypatch.setattr(os, "umask", umask)
    target = tmp_path / "out.txt"
    atomic_write(str(target), "new\n")
    atomic_write(str(target), "replaced\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(target), "not ascii \u00e9\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(tmp_path / "never.txt"), "\u00e9\n")
    assert os.listdir(tmp_path) == ["out.txt"]     # no .tmp-* residue
    assert target.read_text() == "replaced\n"
