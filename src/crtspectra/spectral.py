"""Finite-field DFT of periodic binary sequences, in log form.

A Spectrum stores, for each index k, either ZERO (encoded as None) or the
exponent d with S_k = root^d. Exponent arithmetic is what the CRT path in
crtconv operates on, so the log form is the primary representation and
full field values are derived from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (FieldElement, FieldSpec, build_field, cyclotomic_cosets,
                    discrete_log, element_of_order, element_order,
                    multiplicative_order_of_2)
from .sequences import BitSequence

ZERO = None  # spectral zero marker; never exponent-encoded


@dataclass(frozen=True)
class Spectrum:
    N: int
    field: FieldSpec
    root: FieldElement
    values: tuple

    def __post_init__(self):
        if self.N < 1 or len(self.values) != self.N:
            raise ValueError(f"need exactly N={self.N} entries")
        if not (self.root.field.m == self.field.m
                and self.root.field.modulus == self.field.modulus):
            raise ValueError("root does not live in the stated field")
        if element_order(self.root) != self.N:
            raise ValueError(
                f"root order {element_order(self.root)} != N = {self.N}")
        for k, d in enumerate(self.values):
            if d is not None and not 0 <= d < self.N:
                raise ValueError(f"exponent {d} at index {k} outside [0, {self.N})")

    def support(self) -> list[int]:
        return [k for k, d in enumerate(self.values) if d is not None]

    def nonzero_count(self) -> int:
        return sum(1 for d in self.values if d is not None)

    def point_value(self, k: int) -> FieldElement:
        d = self.values[k]
        if d is None:
            return FieldElement(self.field, 0)
        return self.root ** d

    def value_array(self) -> list[FieldElement]:
        return [self.point_value(k) for k in range(self.N)]

    def conjugacy_violation(self):
        """(k, 2k mod N) for the first index pair breaking the doubling law,
        or None if the spectrum is conjugate-consistent."""
        for k, d in enumerate(self.values):
            k2 = (2 * k) % self.N
            d2 = self.values[k2]
            if d is None:
                if d2 is not None:
                    return (k, k2)
            elif d2 is None or d2 != (2 * d) % self.N:
                return (k, k2)
        return None

    def __eq__(self, other):
        return (isinstance(other, Spectrum) and self.N == other.N
                and self.field == other.field and self.root == other.root
                and self.values == other.values)

    def __repr__(self):
        return (f"Spectrum(N={self.N}, GF(2^{self.field.m}),"
                f" {self.nonzero_count()} nonzero)")


def default_field_for_period(N: int):
    """Smallest home for a period-N spectrum: GF(2^n), n = ord of 2 mod N,
    and its canonical order-N root."""
    n = multiplicative_order_of_2(N)
    field = build_field(n)
    return field, element_of_order(field, N)


def root_power_table(root: FieldElement):
    """pw[d] = root^d as raw bits, plus the inverse lookup dict."""
    fld = root.field
    N = element_order(root)
    pw = [1]
    cur = 1
    for _ in range(N - 1):
        cur = fld.mul_int(cur, root.bits)
        pw.append(cur)
    dlog = {bits: d for d, bits in enumerate(pw)}
    return pw, dlog


def dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum_t s_t root^(tk), k = 0..N-1, positive-exponent kernel.

    Evaluates one Horner pass per cyclotomic coset leader and fills the
    rest of each coset by the conjugate square law d(2k) = 2 d(k) mod N.
    """
    N = s.period
    if element_order(root) != N:
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    fld = root.field
    pw, dlog = root_power_table(root)
    bits = s.bits
    values: list = [ZERO] * N
    for coset in cyclotomic_cosets(N):
        leader = coset[0]
        x = pw[leader]
        acc = 0
        for t in range(N - 1, -1, -1):  # Horner on sum s_t x^t
            acc = fld.mul_int(acc, x) ^ bits[t]
        if acc == 0:
            continue  # whole coset stays ZERO
        d = dlog.get(acc)
        if d is None:
            raise ValueError(
                f"spectral value at k={leader} lies outside the cyclic group"
                " of the root; no log-form spectrum over this root")
        k, dd = leader, d
        while True:
            values[k] = dd
            k = (2 * k) % N
            dd = (2 * dd) % N
            if k == leader:
                break
    return Spectrum(N, field, root, tuple(values))


def idft(S: Spectrum) -> BitSequence:
    """s_t = sum_k S_k root^(-tk); rejects spectra of non-binary sequences."""
    N = S.N
    if N % 2 == 0:
        raise ValueError(f"even period {N} rejected")
    pw, _ = root_power_table(S.root)
    supp = [(k, d) for k, d in enumerate(S.values) if d is not None]
    out = []
    for t in range(N):
        acc = 0
        for k, d in supp:
            acc ^= pw[(d - t * k) % N]
        if acc not in (0, 1):
            raise ValueError(
                f"reconstructed value at t={t} is not a bit; malformed spectrum")
        out.append(acc)
    return BitSequence(tuple(out))


def dft_point(s: BitSequence, root: FieldElement, k: int):
    """Single spectral point in log form, no full-transform work.

    Horner-evaluates sum_t s_t x^t at x = root^k. Field ops route through
    root.field, so handing in a counting view tallies them.
    """
    N = s.period
    if not 0 <= k < N:
        raise ValueError(f"index {k} outside [0, {N})")
    if element_order(root) != N:
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    fld = root.field
    x = fld.pow_int(root.bits, k)
    acc = 0
    for t in range(N - 1, -1, -1):
        acc = fld.mul_int(acc, x) ^ s.bits[t]
    if acc == 0:
        return ZERO
    return discrete_log(FieldElement(fld, acc), root)


def blahut_check(S: Spectrum, L: int) -> bool:
    """Blahut's theorem gate: nonzero spectral count equals linear complexity."""
    return S.nonzero_count() == L


def coset_reduce(S: Spectrum) -> dict:
    """Map each nonzero coset leader to its exponent; everything else is
    recoverable by squaring. Rejects spectra that break the doubling law."""
    bad = S.conjugacy_violation()
    if bad is not None:
        raise ValueError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}")
    reps = {}
    for coset in cyclotomic_cosets(S.N):
        d = S.values[coset[0]]
        if d is not None:
            reps[coset[0]] = d
    return reps


def coset_expand(reps: dict, N: int, field: FieldSpec,
                 root: FieldElement) -> Spectrum:
    """Rebuild a full Spectrum from leader representatives by squaring."""
    values: list = [ZERO] * N
    leaders = {c[0] for c in cyclotomic_cosets(N)}
    for leader, d0 in reps.items():
        if leader not in leaders:
            raise ValueError(f"{leader} is not a coset leader mod {N}")
        k, d = leader, d0
        while True:
            values[k] = d
            k = (2 * k) % N
            d = (2 * d) % N
            if k == leader:
                break
    return Spectrum(N, field, root, tuple(values))
