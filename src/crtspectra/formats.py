"""Flat-file formats: field specs, sequences, spectra. Atomic writes: the
CLI's --out text is encoded to ASCII once and written as those bytes.

Every parser reports failures as FormatError carrying path, line, and
column, which the CLI turns into exit status 2.

A spectrum file is written in one layout, a header and one line per index,
built from a memoized all-zero body with the support lines spliced in. A
file byte-identical to that layout is read by comparison: its support lines
are read, the file is written again from them and compared whole. Any other
file is read by a walk over its lines, which alone words an error, so error
positions are the same whichever reader saw the file first. A spectrum
read is memoized by the exact text of its file, so a process that reads
that text again pays a hash of it and a comparison with the copy held, not
a second check (see parse_spectrum).
"""

from __future__ import annotations

import itertools
import os
import re
from functools import lru_cache
from stat import S_ISREG

from .field import FieldElement, FieldSpec, build_field, discrete_log
from .sequences import BitSequence
from .spectral import _PLAN_MAX_N, Spectrum


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


_tmp_names = itertools.count()   # with the pid, names atomic_write's temp files


def atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file. The file gets the permissions open(path, "w") would
    leave: those of the file it replaces, else 0666 less the umask, which
    the kernel applies when the temp file is created. The text is ASCII,
    encoded before the temp file exists, so a text that is not leaves no
    file behind, and its bytes go out by os.write on the temp file's own
    descriptor, closed before the rename."""
    data = memoryview(text.encode("ascii"))
    d = os.path.dirname(os.path.abspath(path))
    for n in _tmp_names:
        tmp = os.path.join(d, f".tmp-{os.getpid()}-{n}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        try:
            try:
                os.fchmod(fd, os.stat(path).st_mode & 0o777)
            except FileNotFoundError:
                pass
            while data:   # a write may take only part of what it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# field spec: `GF2m m=<int> mod=0x<hex>`

# ASCII decimal runs (\d would take any Unicode digit, and int() reads
# those too), bounded so int() of a match never passes the interpreter's
# digit limit (640 is its least setting); a longer run fails the match
_DIGITS = r"[0-9]{1,640}"
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
    digits = head[len("period="):]
    if not re.fullmatch(_DIGITS, digits):
        raise FormatError(f"bad period {digits!r}", path, 1, 8)
    N = int(digits)
    if N < 1:
        raise FormatError(f"period must be >= 1, got {N}", path, 1, 8)
    if len(lines) < 2:
        raise FormatError("missing bits line", path, 2, 1)
    bits = lines[1].strip()
    if len(bits) != N:
        raise FormatError(
            f"expected {N} bits, got {len(bits)}", path, 2, len(bits) + 1)
    try:
        s = BitSequence.from_string(bits)
    except ValueError:  # some character is neither 0 nor 1: find it
        for j, ch in enumerate(bits):
            if ch not in "01":
                raise FormatError(
                    f"bad bit character {ch!r}", path, 2, j + 1) from None
        raise
    for extra, l in enumerate(lines[2:], start=3):
        if l.strip():
            raise FormatError("trailing content after bits line", path, extra, 1)
    return s


# --------------------------------------------------------------------------
# spectrum: header `N=<int> field=GF2m(m,0xMOD) root=g^<e>`, then `k <d|Z>`

_SPEC_HEAD_RE = re.compile(rf"^N=({_DIGITS}) field=GF2m\(({_DIGITS}),"
                           rf"0x([0-9A-Fa-f]+)\) root=g\^({_DIGITS})$")
_SPEC_LINE_RE = re.compile(rf"^({_DIGITS}) (Z|{_DIGITS})$")
# the header's N, read ahead of the header match to choose the memo or not
_N_PREFIX_RE = re.compile(rf"N=({_DIGITS}) ")


def serialize_spectrum(S: Spectrum) -> str:
    e = _root_exponent(S.root, S.N)
    return _spectrum_text(_spectrum_head(S.N, S.field, e), S)


@lru_cache(maxsize=256)
def _root_exponent(root: FieldElement, N: int) -> int:
    """The header's e with g^e = root, for a root of order N; memoized per
    process, as a server writes the spectra of a few roots again and again.

    root lies in <g^q>, q = (2^m-1)/N: a log over N elements, scaled by q,
    is the generator log (unique mod 2^m-1)."""
    q = root.field.group_order // N
    return q * discrete_log(root, root.field.generator ** q, N)


def _spectrum_head(N: int, field: FieldSpec, e: int) -> str:
    return f"N={N} field=GF2m({field.m},0x{field.modulus:x}) root=g^{e}"


_ZERO_BLOCK = 1 << 16


@lru_cache(maxsize=32)
def _zero_body(N: int) -> str:
    """The entry lines of an all-zero spectrum, `0 Z` .. `N-1 Z`: one
    string per N, kept for the few periods a process reads and writes.
    Joined _ZERO_BLOCK indices at a time, so the small strings of one block,
    not of all N, are alive at once."""
    return "".join(" Z\n".join(map(str, range(N)[i:i + _ZERO_BLOCK])) + " Z\n"
                   for i in range(0, N, _ZERO_BLOCK))


def _line_offset(k: int) -> int:
    """Offset of line `k Z` in _zero_body: each line before it is its
    digits plus 3, and every j >= 10^p carries one digit more."""
    off, p = 4 * k, 10
    while p < k:
        off += k - p
        p *= 10
    return off


def _spectrum_text(head: str, S: Spectrum) -> str:
    """The one layout a spectrum is written in: the header, then the zero
    body with the line of each point of S, in increasing index order,
    replaced by `k d`."""
    body = _zero_body(S.N)
    parts = [head, "\n"]
    pos = 0
    for k, d in S.points.items():
        start = _line_offset(k)
        parts += (body[pos:start], f"{k} {d}\n")
        pos = _line_offset(k + 1)
    parts.append(body[pos:])
    return "".join(parts)


# where an entry line holds an exponent: a space and a digit, never ` Z`
_EXPONENT_AT = re.compile(r" [0-9]")


def _read_canonical(text: str, head: str, N: int, field: FieldSpec,
                    root: FieldElement) -> Spectrum | None:
    """The spectrum of a text byte-identical to what serialize_spectrum
    writes for it, or None for any other text.

    Values are taken from the lines that hold an exponent, then the text is
    written again from them and compared whole, so a match proves every
    index has exactly the entry read. Nothing here words an error: on any
    doubt the caller's line walk reads the text again."""
    # shorter than the all-zero layout cannot match; checked before the
    # N-sized body is built, so a short text never allocates it
    if len(text) < len(head) + 1 + _line_offset(N):
        return None
    # a written index or exponent has at most as many digits as N-1; the
    # searches stop there, so damaged text costs O(1) per match
    width = len(str(N)) + 1
    points = {}
    try:
        for mo in _EXPONENT_AT.finditer(text, len(head)):
            at = mo.start()
            start = text.rfind("\n", at - width, at)
            end = text.find("\n", at, at + width + 1)
            if start < 0 or end < 0:
                return None
            points[int(text[start + 1:at])] = int(text[at + 1:end])
        S = Spectrum(N, field, root, points)
    except ValueError:
        return None
    if (_spectrum_text(head, S) != text
            or S.conjugacy_violation() is not None):
        return None
    return S


def parse_spectrum(text: str, path: str = "<input>") -> Spectrum:
    """Read a spectrum file: by comparison (_read_canonical) when it is in
    serialize_spectrum's exact layout, else by _read_spectrum's line walk,
    which alone words an error.

    A text read before in this process, with N <= _PLAN_MAX_N, is answered
    from a memo keyed by the text alone, never by path or mtime, at the
    cost of one hash of it and one comparison with the copy held, both
    linear in its length: a Spectrum is immutable, so a text gives the
    same one every time. A text that fails is never held, and its error
    names the path it was read under. A larger N, or a text that does not
    begin `N=<int> `, is neither hashed nor held."""
    mo = _N_PREFIX_RE.match(text)
    if mo is None or int(mo.group(1)) > _PLAN_MAX_N:
        return _read_spectrum(text, path)
    try:
        return _read_spectrum_memo(text)
    except FormatError as err:   # worded under the memo's default path
        raise FormatError(err.message, path, err.line, err.col) from None


def _read_spectrum(text: str, path: str = "<input>") -> Spectrum:
    """parse_spectrum's reader, with no memo."""
    # the first of text.splitlines(), without splitting the whole text
    first = text.partition("\n")[0].splitlines()
    if not first or not first[0].strip():
        raise FormatError("missing spectrum header", path, 1, 1)
    mo = _SPEC_HEAD_RE.match(first[0].strip())
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
    root = field.generator ** e
    S = _read_canonical(text, _spectrum_head(N, field, e), N, field, root)
    if S is not None:
        return S
    lines = text.splitlines()
    # checked before the N-sized tables below are allocated; with at least
    # N entry lines, distinct and in range, every index has its entry
    entries = len(list(filter(str.strip, lines[1:])))
    if entries < N:
        raise FormatError(
            f"missing entries: {entries} entry lines for N={N} indices",
            path, len(lines) + 1, 1)
    points = {}
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
            points[k] = d
    try:
        S = Spectrum(N, field, root, points)
    except ValueError as err:
        raise FormatError(str(err), path, 1, 1) from None
    bad = S.conjugacy_violation()
    if bad is not None:
        raise FormatError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}:"
            " not the spectrum of a binary sequence", path, line_of[bad[0]], 1)
    return S


# Spectra read, memoized per process by the exact text of their file; only
# N <= _PLAN_MAX_N comes here (see parse_spectrum)
_read_spectrum_memo = lru_cache(maxsize=32)(_read_spectrum)


def read_text(path: str) -> str:
    """The file's text, as open(path, encoding="ascii").read() gives it:
    read in one os.read sized by fstat, decoded once, and with CRLF and a
    lone CR read as LF, as universal newlines read them. A file whose
    length fstat does not give, such as a pipe, is read on to its end."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            st = os.fstat(fd)
            data = os.read(fd, st.st_size + 1)
            if len(data) != st.st_size or not S_ISREG(st.st_mode):
                parts = [data]
                while parts[-1]:
                    parts.append(os.read(fd, 1 << 16))
                data = b"".join(parts)
        finally:
            os.close(fd)
        text = data.decode("ascii")
    except OSError as e:
        raise FormatError(f"cannot read: {e.strerror}", path) from None
    except UnicodeDecodeError:
        raise FormatError("file is not ASCII text", path) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text
