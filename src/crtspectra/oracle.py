"""Brute-force referees: independent DFT, spectrum diffing, end-to-end audit.

Nothing here shares kernels with spectral.dft or crtconv: multiplication
is a local shift-xor routine, powers of the root come from one explicit
repeated-multiplication walk, and every spectral point is the naive sum
over the sequence. Slow on purpose; trusted because it is simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bm import berlekamp_massey
from .crtconv import CrtBasis, product_spectrum
from .field import FieldElement, FieldSpec
from .sequences import BitSequence, Lfsr, sequence_period
from .spectral import ZERO, Spectrum, dft


@dataclass(frozen=True)
class Mismatch:
    index: int
    expected: object  # log-form: None or exponent
    actual: object

    def __post_init__(self):
        if self.expected == self.actual:
            raise ValueError("not a mismatch: values agree")


def _gfmul(a: int, b: int, modulus: int, m: int) -> int:
    # deliberately rewritten here; the oracle must not lean on field.py
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    while r and r.bit_length() - 1 >= m:
        r ^= modulus << (r.bit_length() - 1 - m)
    return r


def brute_dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum over t of s_t root^(tk), written as naively as possible."""
    N = s.period
    modulus, m = field.modulus, field.m
    # one walk of repeated multiplication gives every power and the order
    pw = [1]
    cur = _gfmul(1, root.bits, modulus, m)
    while cur != 1:
        pw.append(cur)
        cur = _gfmul(cur, root.bits, modulus, m)
        if len(pw) > field.group_order:
            raise ArithmeticError("power walk failed to cycle")
    if len(pw) != N:
        raise ValueError(f"root order {len(pw)} != sequence period {N}")
    dlog = {bits: d for d, bits in enumerate(pw)}
    ones = [t for t, bit in enumerate(s.bits) if bit]
    values: list = [ZERO] * N
    for k in range(N):
        acc = 0
        for t in ones:
            acc ^= pw[(t * k) % N]
        if acc:
            d = dlog.get(acc)
            if d is None:
                raise ValueError(
                    f"spectral value at k={k} lies outside the cyclic group"
                    " of the root; no log-form spectrum over this root")
            values[k] = d
    return Spectrum(N, field, root, tuple(values))


def compare_spectra(X: Spectrum, Y: Spectrum) -> list[Mismatch]:
    """Index-by-index diff; first argument is the reference side."""
    if X.N != Y.N:
        raise ValueError(f"incomparable: N {X.N} vs {Y.N}")
    if X.field != Y.field:
        raise ValueError("incomparable: different fields")
    if X.root != Y.root:
        raise ValueError("incomparable: different roots")
    out = []
    for k, (e, a) in enumerate(zip(X.values, Y.values)):
        if e != a:
            out.append(Mismatch(k, e, a))
    return out


@dataclass
class VerifyReport:
    ok: bool
    N: int
    moduli: tuple
    support_size: int
    linear_complexity: int
    blahut_ok: bool
    conjugacy_ok: bool
    mismatches: list

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        missed = sum(1 for m in self.mismatches if m.expected is not None)
        good = self.support_size - missed
        return (f"{verdict} N={self.N} moduli={list(self.moduli)}"
                f" points={good}/{self.support_size}"
                f" L={self.linear_complexity}"
                f" blahut={'ok' if self.blahut_ok else 'VIOLATED'}"
                f" conjugacy={'ok' if self.conjugacy_ok else 'VIOLATED'}"
                f" mismatches={len(self.mismatches)}")


def _one_period(connection: int, seed: int, bound: int) -> BitSequence:
    """Exact single period of an LFSR stream: run until the state recurs."""
    l = Lfsr(connection, seed)
    start = l.state
    out = [l.step()]
    while l.state != start:
        out.append(l.step())
        if len(out) > bound:
            raise ValueError(f"stream period exceeds bound {bound}")
    p = sequence_period(out)
    return BitSequence(tuple(out[:p]))


def verify_theorem1(lfsrs, bound: int = 100_000,
                    tamper_index: int | None = None) -> VerifyReport:
    """Both paths end to end on given (connection, seed) pairs.

    Generates the streams, takes each factor's spectrum, computes the
    product spectrum by CRT and by brute_dft of the actual bitwise
    product, and audits Blahut and conjugacy. A single LFSR degenerates
    to comparing a sequence's spectrum with itself.

    tamper_index flips the CRT value at that index (zero <-> g^0) before
    the comparison, so the report must come back failing; it proves the
    referee is not vacuous.
    """
    from .spectral import default_field_for_period
    if not lfsrs:
        raise ValueError("need at least one (connection, seed) pair")
    streams = [_one_period(conn, seed, bound) for conn, seed in lfsrs]
    periods = [s.period for s in streams]
    for i in range(len(periods)):
        for j in range(i + 1, len(periods)):
            g = gcd(periods[i], periods[j])
            if g != 1:
                raise ValueError(
                    f"periods {periods[i]} and {periods[j]} share factor {g}")
    N = 1
    for p in periods:
        N *= p
    if N > bound:
        raise ValueError(f"product period {N} exceeds bound {bound}")
    if tamper_index is not None and not 0 <= tamper_index < N:
        raise ValueError(f"tamper index {tamper_index} out of range for N={N}")

    factors = []
    for s in streams:
        fld, rt = default_field_for_period(s.period)
        factors.append(dft(s, fld, rt))
    basis = CrtBasis(periods)
    S_crt = product_spectrum(factors, basis)
    if tamper_index is not None:
        vals = list(S_crt.values)
        vals[tamper_index] = 0 if vals[tamper_index] is ZERO else ZERO
        S_crt = Spectrum(N, S_crt.field, S_crt.root, tuple(vals))

    u = streams[0]
    for s in streams[1:]:
        u = BitSequence(tuple(u.bit(t) & s.bit(t) for t in range(u.period * s.period)))
    u_ext = BitSequence(tuple(u.bit(t) for t in range(N)))
    S_ref = brute_dft(u_ext, S_crt.field, S_crt.root)

    mismatches = compare_spectra(S_ref, S_crt)
    r = berlekamp_massey(list(u_ext.bits) * 2)
    blahut_ok = S_ref.nonzero_count() == r.linear_complexity
    conjugacy_ok = (S_ref.conjugacy_violation() is None
                    and S_crt.conjugacy_violation() is None)
    return VerifyReport(
        ok=not mismatches and blahut_ok and conjugacy_ok,
        N=N,
        moduli=tuple(periods),
        support_size=S_ref.nonzero_count(),
        linear_complexity=r.linear_complexity,
        blahut_ok=blahut_ok,
        conjugacy_ok=conjugacy_ok,
        mismatches=mismatches,
    )
