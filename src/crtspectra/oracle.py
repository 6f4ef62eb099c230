"""Brute-force referees: independent DFT, exact inverse check, spectrum
diffing, end-to-end audit.

Nothing here shares kernels with spectral.dft or crtconv. What brute_dft
guarantees:
- every spectral point S_k is a full sum over one period of the sequence;
- its only field arithmetic is the local shift-xor multiply `_gfmul`, which
  also builds the byte tables of its one walk over the powers of the root;
- it takes no coset, conjugacy or CRT step, so the conjugacy audit of its
  output is a real check.

Two shortcuts keep it affordable without breaking those guarantees. The
sum for S_k folds s by residue mod N / gcd(k, N), the period of
t -> root^(tk); and x -> root*x is GF(2)-linear, so each step of the walk
is one table lookup per byte of x.

inverse_matches runs the transform the other way, on the same power walk:
for odd N the transform is a bijection on one period (Blahut, IBM J. Res.
Dev. 23(3), 1979), so a spectrum whose inverse equals s at every t of one
period is brute_dft(s), at N table lookups per point of its support.
verify_theorem1 decides by it and calls brute_dft only when it fails, to
name the mismatched indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import and_

from .bm import berlekamp_massey
from .crtconv import CrtBasis, product_spectrum
from .field import FieldElement, FieldSpec
from .sequences import (BitSequence, Lfsr, sequence_period,
                        warn_if_zero_seed)
from .spectral import Spectrum, dft


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


def _times_root(root_bits: int, modulus: int, m: int):
    """x -> root*x by table lookup: the map is GF(2)-linear, so root*x is
    the XOR over the bytes of x of root*(byte << 8j), tabulated from the
    images root*x^i."""
    tables = []
    for lo in range(0, m, 8):
        width = min(8, m - lo)
        table = [0] * (1 << width)
        for i in range(width):
            image = _gfmul(1 << (lo + i), root_bits, modulus, m)
            bit = 1 << i
            for low in range(bit):
                table[bit | low] = table[low] ^ image
        tables.append((lo, table))

    def times_root(x: int) -> int:
        y = 0
        for lo, table in tables:
            y ^= table[(x >> lo) & 0xFF]
        return y
    return times_root


def _power_walk(field: FieldSpec, root: FieldElement, N: int) -> list:
    """[root^0, ..., root^(N-1)] as bits: one walk of repeated
    multiplication gives every power and the order, which must be N."""
    times_root = _times_root(root.bits, field.modulus, field.m)
    pw = [1]
    cur = times_root(1)
    while cur != 1:
        pw.append(cur)
        cur = times_root(cur)
        if len(pw) > field.group_order:
            raise ArithmeticError("power walk failed to cycle")
    if len(pw) != N:
        raise ValueError(f"root order {len(pw)} != sequence period {N}")
    return pw


def brute_dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum over one period of s_t root^(tk), for k = 0..N-1."""
    N = s.period
    pw = _power_walk(field, root, N)
    dlog = {bits: d for d, bits in enumerate(pw)}
    # root^(tk) depends on t only through t mod n, n = N / gcd(k, N): fold
    # s once per n into the residues mod n that hold an odd number of ones
    folded: dict = {}
    points = {}
    for k in range(N):
        n = N // gcd(k, N)
        odd = folded.get(n)
        if odd is None:
            parity = [0] * n
            for t, bit in enumerate(s.bits):
                parity[t % n] ^= bit
            odd = folded[n] = [r for r in range(n) if parity[r]]
        acc = 0
        for r in odd:
            acc ^= pw[(r * k) % N]
        if acc:
            d = dlog.get(acc)
            if d is None:
                raise ValueError(
                    f"spectral value at k={k} lies outside the cyclic group"
                    " of the root; no log-form spectrum over this root")
            points[k] = d
    return Spectrum(N, field, root, points)


def inverse_matches(S: Spectrum, s: BitSequence) -> bool:
    """True exactly when the inverse transform of S is s over one period.

    N is odd, so the transform is a bijection on one period with inverse
    s_t = sum over k of S_k root^(-tk) (1/N is 1 in characteristic 2),
    and this holds exactly when
    S == brute_dft(s, S.field, S.root). Each s_t costs one table lookup
    per point of S; all m bits of the sum are compared with the bit s_t,
    so a sum outside GF(2) also fails. Stops at the first t that differs.
    """
    N = s.period
    pw = _power_walk(S.field, S.root, N)
    points = list(S.points.items())
    for t, bit in enumerate(s.bits):
        acc = 0
        for k, d in points:
            acc ^= pw[(d - t * k) % N]
        if acc != bit:
            return False
    return True


def compare_spectra(X: Spectrum, Y: Spectrum) -> list[Mismatch]:
    """Index-by-index diff; first argument is the reference side."""
    if X.N != Y.N:
        raise ValueError(f"incomparable: N {X.N} vs {Y.N}")
    if X.field != Y.field:
        raise ValueError("incomparable: different fields")
    if X.root != Y.root:
        raise ValueError("incomparable: different roots")
    x, y = X.points, Y.points
    return [Mismatch(k, x.get(k), y.get(k))
            for k in sorted(x.keys() | y.keys()) if x.get(k) != y.get(k)]


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
    warn_if_zero_seed(l)
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
    product spectrum by CRT and checks it against the actual bitwise
    product u: by inverse_matches, and only when that fails by brute_dft
    of u, whose diff names the mismatched indices. Then it audits Blahut
    and conjugacy on the reference spectrum. A single LFSR degenerates to
    comparing a sequence's spectrum with itself.

    tamper_index flips the CRT value at that index (zero <-> g^0) before
    the comparison, so the report must come back failing; it proves the
    referee is not vacuous.
    """
    from .spectral import default_field_for_period
    if not lfsrs:
        raise ValueError("need at least one (connection, seed) pair")
    streams = [_one_period(conn, seed, bound) for conn, seed in lfsrs]
    periods = [s.period for s in streams]
    basis = CrtBasis(periods)
    N = basis.N
    if N > bound:
        raise ValueError(f"product period {N} exceeds bound {bound}")
    if tamper_index is not None and not 0 <= tamper_index < N:
        raise ValueError(f"tamper index {tamper_index} out of range for N={N}")

    factors = []
    for s in streams:
        fld, rt = default_field_for_period(s.period)
        factors.append(dft(s, fld, rt))
    S_crt = product_spectrum(factors, basis)
    if tamper_index is not None:
        pts = S_crt.points
        S_crt = Spectrum(N, S_crt.field, S_crt.root, {
            k: pts.get(k, 0) for k in pts.keys() ^ {tamper_index}})

    u = streams[0]
    for s in streams[1:]:
        u = BitSequence(tuple(map(and_, u.bits * s.period, s.bits * u.period)))
    # the periods are pairwise coprime, so u now has period N
    if inverse_matches(S_crt, u):
        S_ref, mismatches = S_crt, []
    else:
        # only the forward transform names the indices that differ
        S_ref = brute_dft(u, S_crt.field, S_crt.root)
        mismatches = compare_spectra(S_ref, S_crt)
    r = berlekamp_massey(list(u.bits) * 2)
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
