"""Property tests at the file-format boundary: serialize then parse is the
identity, a damaged file raises FormatError and nothing else, and any text
reads as the plain line walk below reads it."""

import random
import re
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crtspectra.field import build_field
from crtspectra.formats import (FormatError, parse_sequence, parse_spectrum,
                                serialize_sequence, serialize_spectrum)
from crtspectra.sequences import BitSequence
from crtspectra.spectral import Spectrum, default_field_for_period

# derandomized so tier-1 stays deterministic; the fixture only hands back
# a builder function, so sharing it across examples is safe
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

PERIODS = (7, 21, 63, 217)
bit_strings = st.text(alphabet="01", min_size=1, max_size=200)
ascii_chars = st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n")


@st.composite
def log_spectrum_texts(draw, builder):
    """Serialized random log-form spectrum over some order-N root."""
    N = draw(st.sampled_from(PERIODS))
    field, root = default_field_for_period(N)
    u = draw(st.integers(1, N - 1).filter(lambda u: gcd(u, N) == 1))
    S = builder(field, root ** u, random.Random(draw(st.integers(0, 2**32))))
    return S, serialize_spectrum(S)


@st.composite
def mutations(draw, text):
    """`text` with one flipped character, dropped or duplicated line, or
    edited header number."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(("flip", "drop", "duplicate", "header")))
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(ascii_chars) + text[i + 1:]
    if kind == "header":
        head = re.split(r"(\d+)", lines[0])
        j = draw(st.sampled_from(range(1, len(head), 2)))
        head[j] = str(draw(st.integers(0, 2**40)))
        lines[0] = "".join(head)
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@PROPERTY
@given(data=st.data())
def test_spectrum_roundtrip(random_log_spectrum, data):
    S, text = data.draw(log_spectrum_texts(random_log_spectrum))
    assert parse_spectrum(text, "x") == S


@PROPERTY
@given(bits=bit_strings)
def test_sequence_roundtrip(bits):
    s = BitSequence.from_string(bits)
    assert parse_sequence(serialize_sequence(s), "x") == s


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_damaged_spectrum_raises_only_format_error(random_log_spectrum, data):
    _, text = data.draw(log_spectrum_texts(random_log_spectrum))
    try:
        parse_spectrum(data.draw(mutations(text)), "x")
    except FormatError:
        pass


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_damaged_sequence_raises_only_format_error(data):
    text = serialize_sequence(BitSequence.from_string(data.draw(bit_strings)))
    try:
        parse_sequence(data.draw(mutations(text)), "x")
    except FormatError:
        pass


# The bits check as str.strip made it: a text is refused exactly when
# stripping every 0 and 1 from its ends leaves something, and the file
# error names the first character that is neither. int(., 2) alone would
# accept '_' between digits, surrounding whitespace and the digit U+0667
_BIT_TEXT = (st.text(alphabet="01", max_size=40)
             | st.text(alphabet="012_\u0667 \t", max_size=40))


def _strip_checked(bits, path):
    """The FormatError the strip-based check raised for a bits line, or
    None where it passed."""
    if bits.strip("01"):
        for j, ch in enumerate(bits):
            if ch not in "01":
                return FormatError(f"bad bit character {ch!r}", path, 2, j + 1)
    return None


@settings(PROPERTY, max_examples=200)
@given(line=_BIT_TEXT)
def test_bits_are_checked_as_the_strip_check_did(line):
    try:
        s = BitSequence.from_string(line)
    except ValueError:
        s = None
    assert (s is not None) == (line != "" and not line.strip("01"))
    if s is not None:
        assert str(s) == line
    bits = line.strip()
    if not bits:
        return   # the period and length checks come first
    want = _strip_checked(bits, "x")
    try:
        got = parse_sequence(f"period={len(bits)}\n{line}\n", "x")
    except FormatError as e:
        assert want is not None
        assert (str(e), e.line, e.col) == (str(want), want.line, want.col)
    else:
        assert want is None and str(got) == bits


# The spectrum reader as a walk over every line, with the conjugacy check as
# a loop over every index: the reference parse_spectrum must agree with on
# every text, in its value or in its error's message, line and column.
_DIGITS = r"\d{1,640}"
_HEAD_RE = re.compile(rf"^N=({_DIGITS}) field=GF2m\(({_DIGITS}),"
                      rf"0x([0-9A-Fa-f]+)\) root=g\^({_DIGITS})$")
_LINE_RE = re.compile(rf"^({_DIGITS}) (Z|{_DIGITS})$")


def _first_conjugacy_violation(values, N):
    for k, d in enumerate(values):
        k2 = (2 * k) % N
        d2 = values[k2]
        if d is None:
            if d2 is not None:
                return (k, k2)
        elif d2 is None or d2 != (2 * d) % N:
            return (k, k2)
    return None


def _line_walk_parse(text, path):
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing spectrum header", path, 1, 1)
    mo = _HEAD_RE.match(lines[0].strip())
    if not mo:
        raise FormatError(
            "expected 'N=<int> field=GF2m(m,0xMOD) root=g^<e>'", path, 1, 1)
    N = int(mo.group(1))
    m, modulus = int(mo.group(2)), int(mo.group(3), 16)
    e = int(mo.group(4))
    try:
        field = build_field(m, modulus)
    except ValueError as err:
        raise FormatError(str(err), path, 1, 1) from None
    if N < 1 or field.group_order % N:
        raise FormatError(
            f"N={N} does not divide the group order {field.group_order}"
            f" of GF(2^{m})", path, 1, 1)
    entries = sum(1 for raw in lines[1:] if raw.strip())
    if entries < N:
        raise FormatError(
            f"missing entries: {entries} entry lines for N={N} indices",
            path, len(lines) + 1, 1)
    root = field.generator ** e
    values: list = [None] * N
    line_of = [0] * N
    for lineno, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        lm = _LINE_RE.match(raw)
        if not lm:
            raise FormatError("expected '<k> <d|Z>'", path, lineno, 1)
        k = int(lm.group(1))
        if k >= N:
            raise FormatError(f"index {k} outside [0, {N})", path, lineno, 1)
        if line_of[k]:
            raise FormatError(f"duplicate index {k}", path, lineno, 1)
        line_of[k] = lineno
        if lm.group(2) != "Z":
            d = int(lm.group(2))
            if d >= N:
                raise FormatError(
                    f"exponent {d} outside [0, {N})", path, lineno,
                    len(lm.group(1)) + 2)
            values[k] = d
    try:
        S = Spectrum(N, field, root,
                     {k: d for k, d in enumerate(values) if d is not None})
    except ValueError as err:
        raise FormatError(str(err), path, 1, 1) from None
    bad = _first_conjugacy_violation(values, N)
    if bad is not None:
        raise FormatError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}:"
            " not the spectrum of a binary sequence", path, line_of[bad[0]], 1)
    return S


@st.composite
def layout_edits(draw, text):
    """`text` with up to three edits that keep or break its layout: a blank
    or padded line, CRLF, two lines swapped, an entry given an index or
    exponent drawn from [0, 2N), or the final newline dropped or doubled."""
    lines = text.split("\n")[:-1]
    N = len(lines) - 1
    end = "\n"
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("blank", "pad", "crlf", "swap", "index",
                                     "exponent", "no-newline", "newlines")))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(1, len(lines) - 1))
        if kind == "blank":
            lines.insert(i + 1, draw(st.sampled_from(("", " ", "\t"))))
        elif kind == "pad":
            lines[i] = (draw(st.sampled_from(("", " ", "\t"))) + lines[i]
                        + draw(st.sampled_from(("", " ", "\r", "\t"))))
        elif kind == "crlf":
            if draw(st.booleans()):
                lines = [line + "\r" for line in lines]
            else:
                lines[i] += "\r"
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("index", "exponent"):
            k, _, d = lines[j].partition(" ")
            v = str(draw(st.integers(0, 2 * N)))
            lines[j] = f"{v} {d}" if kind == "index" else f"{k} {v}"
        elif kind == "no-newline":
            end = ""
        else:
            end = "\n\n"
    return "\n".join(lines) + end


@settings(PROPERTY, max_examples=300)
@given(data=st.data())
def test_spectrum_reads_as_the_line_walk(random_log_spectrum, data):
    S, text = data.draw(log_spectrum_texts(random_log_spectrum))
    # the writer does not check conjugacy: one changed entry gives a text in
    # its exact layout that only the conjugacy check refuses
    points = dict(S.points)
    k = data.draw(st.integers(0, S.N - 1))
    points[k] = data.draw(st.none() | st.integers(0, S.N - 1))
    if points[k] is None:
        del points[k]
    edited = serialize_spectrum(Spectrum(S.N, S.field, S.root, points))
    text = data.draw(st.sampled_from((
        text, edited, data.draw(mutations(text)),
        data.draw(layout_edits(text)))))
    try:
        expected = _line_walk_parse(text, "x")
    except FormatError as err:
        with pytest.raises(FormatError) as got:
            parse_spectrum(text, "x")
        assert str(got.value) == str(err)
        assert (got.value.line, got.value.col) == (err.line, err.col)
    else:
        assert parse_spectrum(text, "x") == expected
