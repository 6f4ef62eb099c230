"""Flat-file formats: field specs, sequences, spectra. Atomic writes.

Every parser reports failures as FormatError carrying path, line, and
column, which the CLI turns into exit status 2.
"""

from __future__ import annotations

import os
import re
import tempfile

from .field import FieldSpec, build_field, discrete_log
from .sequences import BitSequence
from .spectral import Spectrum


class FormatError(Exception):
    def __init__(self, message: str, path: str = "<input>",
                 line: int | None = None, col: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self):
        loc = self.path
        if self.line is not None:
            loc += f":{self.line}"
            if self.col is not None:
                loc += f":{self.col}"
        return f"{loc}: {self.message}"


def atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# field spec: `GF2m m=<int> mod=0x<hex>`

# decimal runs are bounded so int() of a match never passes the interpreter's
# digit limit (640 is its least setting); a longer run fails the match
_DIGITS = r"\d{1,640}"
_FIELD_RE = re.compile(rf"^GF2m m=({_DIGITS}) mod=0x([0-9A-Fa-f]+)$")


def serialize_field(field: FieldSpec) -> str:
    return f"GF2m m={field.m} mod=0x{field.modulus:x}"


def parse_field(text: str, path: str = "<input>", line: int = 1) -> FieldSpec:
    mo = _FIELD_RE.match(text.strip())
    if not mo:
        raise FormatError(
            "expected 'GF2m m=<int> mod=0x<hex>'", path, line, 1)
    m, modulus = int(mo.group(1)), int(mo.group(2), 16)
    try:
        return build_field(m, modulus)
    except ValueError as e:
        raise FormatError(str(e), path, line, 1) from None


# --------------------------------------------------------------------------
# sequence: line 1 `period=<N>`, line 2 the N bits

def serialize_sequence(s: BitSequence) -> str:
    return f"period={s.period}\n{s}\n"


def parse_sequence(text: str, path: str = "<input>") -> BitSequence:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing 'period=<N>' header", path, 1, 1)
    head = lines[0].strip()
    if not head.startswith("period="):
        raise FormatError("first line must be 'period=<N>'", path, 1, 1)
    try:
        N = int(head[len("period="):])
    except ValueError:
        raise FormatError(f"bad period {head[7:]!r}", path, 1, 8) from None
    if N < 1:
        raise FormatError(f"period must be >= 1, got {N}", path, 1, 8)
    if len(lines) < 2:
        raise FormatError("missing bits line", path, 2, 1)
    bits = lines[1].strip()
    if len(bits) != N:
        raise FormatError(
            f"expected {N} bits, got {len(bits)}", path, 2, len(bits) + 1)
    for j, ch in enumerate(bits):
        if ch not in "01":
            raise FormatError(f"bad bit character {ch!r}", path, 2, j + 1)
    for extra, l in enumerate(lines[2:], start=3):
        if l.strip():
            raise FormatError("trailing content after bits line", path, extra, 1)
    return BitSequence.from_string(bits)


# --------------------------------------------------------------------------
# spectrum: header `N=<int> field=GF2m(m,0xMOD) root=g^<e>`, then `k <d|Z>`

_SPEC_HEAD_RE = re.compile(rf"^N=({_DIGITS}) field=GF2m\(({_DIGITS}),"
                           rf"0x([0-9A-Fa-f]+)\) root=g\^({_DIGITS})$")
_SPEC_LINE_RE = re.compile(rf"^({_DIGITS}) (Z|{_DIGITS})$")


def serialize_spectrum(S: Spectrum) -> str:
    # root has order N, so it lies in <g^q>, q = (2^m-1)/N: a log over N
    # elements, scaled by q, is the generator log (unique mod 2^m-1)
    q = S.field.group_order // S.N
    e = q * discrete_log(S.root, S.field.generator ** q, S.N)
    out = [f"N={S.N} field=GF2m({S.field.m},0x{S.field.modulus:x}) root=g^{e}"]
    for k, d in enumerate(S.values):
        out.append(f"{k} {'Z' if d is None else d}")
    return "\n".join(out) + "\n"


def parse_spectrum(text: str, path: str = "<input>") -> Spectrum:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FormatError("missing spectrum header", path, 1, 1)
    mo = _SPEC_HEAD_RE.match(lines[0].strip())
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
    # N sizes the tables below; only divisors of the group order have roots
    if N < 1 or field.group_order % N:
        raise FormatError(
            f"N={N} does not divide the group order {field.group_order}"
            f" of GF(2^{m})", path, 1, 1)
    # checked before the N-sized tables below are allocated; with at least
    # N entry lines, distinct and in range, every index has its entry
    entries = sum(1 for raw in lines[1:] if raw.strip())
    if entries < N:
        raise FormatError(
            f"missing entries: {entries} entry lines for N={N} indices",
            path, len(lines) + 1, 1)
    root = field.generator ** e
    values: list = [None] * N
    line_of = [0] * N   # line number of each index's entry, 0 if none yet
    for lineno, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        lm = _SPEC_LINE_RE.match(raw)
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
        S = Spectrum(N, field, root, tuple(values))
    except ValueError as err:
        raise FormatError(str(err), path, 1, 1) from None
    bad = S.conjugacy_violation()
    if bad is not None:
        raise FormatError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}:"
            " not the spectrum of a binary sequence", path, line_of[bad[0]], 1)
    return S


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read: {e.strerror}", path) from None
    except UnicodeDecodeError:
        raise FormatError("file is not ASCII text", path) from None
