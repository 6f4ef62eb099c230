"""Finite-field DFT of periodic binary sequences, in log form.

A Spectrum stores, for each index k, either ZERO (encoded as None) or the
exponent d with S_k = root^d. Exponent arithmetic is what the CRT path in
crtconv operates on, so the log form is the primary representation and
full field values are derived from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (FieldElement, FieldSpec, _doubling_orbit, build_field,
                    cyclotomic_cosets, discrete_log, element_of_order,
                    element_order, has_order, multiplicative_order_of_2,
                    root_power_table)
from .sequences import BitSequence

ZERO = None  # spectral zero marker; never exponent-encoded


@dataclass(frozen=True)
class Spectrum:
    """values[k] is the exponent d of S_k = root^d, or ZERO.

    The root has order N, a divisor of the odd group order 2^m - 1, so N is
    odd; conjugacy_violation relies on that, since for odd N the doubling
    k -> 2k mod N permutes the indices."""

    N: int
    field: FieldSpec
    root: FieldElement
    values: tuple

    def __post_init__(self):
        if self.N < 1 or len(self.values) != self.N:
            raise ValueError(f"need exactly N={self.N} entries")
        if self.root.field != self.field:
            raise ValueError("root does not live in the stated field")
        if not has_order(self.root, self.N):
            raise ValueError(
                f"root order {element_order(self.root)} != N = {self.N}")
        present = [d for d in self.values if d is not None]
        if present and (min(present) < 0 or max(present) >= self.N):
            for k, d in enumerate(self.values):
                if d is not None and not 0 <= d < self.N:
                    raise ValueError(
                        f"exponent {d} at index {k} outside [0, {self.N})")

    def support(self) -> list[int]:
        return [k for k, d in enumerate(self.values) if d is not None]

    def nonzero_count(self) -> int:
        return self.N - self.values.count(None)

    def conjugacy_violation(self):
        """(k, 2k mod N) for the first index pair breaking the doubling law,
        or None if the spectrum is conjugate-consistent."""
        # N is odd, so evens then odds of values is values[2k mod N] in k
        # order; compare it whole with 2 d(k), and walk only on a mismatch
        v = self.values
        if [*v[0::2], *v[1::2]] == [d if d is None else 2 * d % self.N
                                    for d in v]:
            return None
        for k, d in enumerate(self.values):
            k2 = (2 * k) % self.N
            d2 = self.values[k2]
            if d is None:
                if d2 is not None:
                    return (k, k2)
            elif d2 is None or d2 != (2 * d) % self.N:
                return (k, k2)
        return None

    def __repr__(self):
        return (f"Spectrum(N={self.N}, GF(2^{self.field.m}),"
                f" {self.nonzero_count()} nonzero)")


def default_field_for_period(N: int):
    """Smallest home for a period-N spectrum: GF(2^n), n = ord of 2 mod N,
    and its canonical order-N root."""
    n = multiplicative_order_of_2(N)
    field = build_field(n)
    return field, element_of_order(field, N)


def dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum_t s_t root^(tk), k = 0..N-1, positive-exponent kernel.

    Table-driven: the root power table is the only field multiplication
    (N - 1 steps of FieldSpec.times(root)). Each cyclotomic coset leader k
    is the XOR of pw[t k mod N] over the 1-bits t of s, and the rest of
    each coset is filled by the conjugate square law d(2k) = 2 d(k) mod N.
    """
    N = s.period
    if not has_order(root, N):
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    pw = root_power_table(root, N)
    dlog = {bits: d for d, bits in enumerate(pw)}
    ones = [t for t, b in enumerate(s.bits) if b]
    reps = {}
    for coset in cyclotomic_cosets(N):
        leader = coset[0]
        acc = 0
        for t in ones:
            acc ^= pw[t * leader % N]
        if acc == 0:
            continue  # whole coset stays ZERO
        d = dlog.get(acc)
        if d is None:
            raise _outside_root_group(leader)
        reps[leader] = d
    return coset_expand(reps, N, field, root)


def idft(S: Spectrum) -> BitSequence:
    """s_t = sum_k S_k root^(-tk); rejects spectra of non-binary sequences."""
    N = S.N
    pw = root_power_table(S.root, N)
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

    Horner-evaluates sum_t s_t x^t at x = root^k, each step through
    FieldSpec.times(x). Field ops route through root.field, so handing in a
    counting view tallies them.
    """
    N = s.period
    if not 0 <= k < N:
        raise ValueError(f"index {k} outside [0, {N})")
    if not has_order(root, N):
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    fld = root.field
    times_x = fld.times(fld.pow_int(root.bits, k))
    acc = 0
    for b in reversed(s.bits):
        acc = times_x(acc) ^ b
    if acc == 0:
        return ZERO
    try:
        return discrete_log(FieldElement(fld, acc), root, N)
    except ValueError:
        raise _outside_root_group(k) from None


def _outside_root_group(k: int) -> ValueError:
    return ValueError(
        f"spectral value at k={k} lies outside the cyclic group of the root;"
        " no log-form spectrum over this root")


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
    """Rebuild a full Spectrum from leader representatives by squaring.
    A leader is the least index of its orbit under k -> 2k mod N."""
    values: list = [ZERO] * N
    for leader, d in reps.items():
        orbit = _doubling_orbit(leader, N)
        if min(orbit) != leader:
            raise ValueError(f"{leader} is not a coset leader mod {N}")
        for k in orbit:
            values[k] = d
            d = 2 * d % N
    return Spectrum(N, field, root, tuple(values))
