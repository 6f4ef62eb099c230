"""Finite-field DFT of periodic binary sequences, in log form.

A Spectrum stores only its nonzero points k -> d, S_k = root^d; every
other index is ZERO (encoded as None). Exponent arithmetic is what the CRT
path in crtconv operates on, so the log form is the primary representation
and full field values are derived from it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .field import (FieldElement, FieldSpec, _doubling_orbit, build_field,
                    cyclotomic_cosets, discrete_log, element_of_order,
                    element_order, has_order, multiplicative_order_of_2,
                    root_power_table)
from .sequences import BitSequence

ZERO = None  # spectral zero marker; never exponent-encoded


@dataclass(frozen=True)
class Spectrum:
    """points maps each nonzero index k to the exponent d of S_k = root^d.
    The Spectrum keeps its own copy, in ascending k, and never mutates it.

    The root has order N, a divisor of the odd group order 2^m - 1, so N is
    odd; the conjugacy check relies on that, since for odd N the doubling
    k -> 2k mod N permutes the indices."""

    N: int
    field: FieldSpec
    root: FieldElement
    points: dict
    _violation: tuple | None = dc_field(init=False, compare=False)

    def __post_init__(self):
        N, pts = self.N, dict(sorted(self.points.items()))
        if self.root.field != self.field:
            raise ValueError("root does not live in the stated field")
        if not has_order(self.root, N):
            raise ValueError(
                f"root order {element_order(self.root)} != N = {N}")
        # k breaks d(2k) = 2 d(k) exactly when k is in the support and its
        # double is not right, or k = j (N+1)/2 is zero and its double j is
        # in the support; the least such k is the first of an index walk
        bad = []
        for k, d in pts.items():
            if not 0 <= k < N:
                raise ValueError(f"index {k} outside [0, {N})")
            if d is ZERO or not 0 <= d < N:
                raise ValueError(
                    f"exponent {d} at index {k} outside [0, {N})")
            if pts.get(2 * k % N) != 2 * d % N:
                bad.append((k, 2 * k % N))
            h = k * (N + 1) // 2 % N
            if h not in pts:
                bad.append((h, k))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_violation", min(bad, default=None))

    @cached_property
    def values(self) -> tuple:
        """The dense view: values[k] is the exponent at k, or ZERO."""
        return tuple(map(self.points.get, range(self.N)))

    def support(self) -> list[int]:
        return list(self.points)

    def nonzero_count(self) -> int:
        return len(self.points)

    def conjugacy_violation(self):
        """(k, 2k mod N) for the least index k with d(2k) != 2 d(k) mod N,
        or None if the spectrum is conjugate-consistent."""
        return self._violation

    def __repr__(self):
        return (f"Spectrum(N={self.N}, GF(2^{self.field.m}),"
                f" {self.nonzero_count()} nonzero)")


def default_field_for_period(N: int):
    """Smallest home for a period-N spectrum: GF(2^n), n = ord of 2 mod N,
    and its canonical order-N root. Every GF(2^m)^* has odd order 2^m - 1,
    so an even period has no home."""
    if N % 2 == 0:
        raise ValueError(f"period {N} is even: GF(2^m) has no element of"
                         " even order")
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
    out = []
    for t in range(N):
        acc = 0
        for k, d in S.points.items():
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
    """Map each nonzero coset leader, ascending, to its exponent; the rest is
    recoverable by squaring. Rejects spectra that break the doubling law."""
    bad = S.conjugacy_violation()
    if bad is not None:
        raise ValueError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}")
    return {k: d for k, d in S.points.items()
            if min(_doubling_orbit(k, S.N)) == k}


def coset_expand(reps: dict, N: int, field: FieldSpec,
                 root: FieldElement) -> Spectrum:
    """Rebuild a full Spectrum from leader representatives by squaring.
    A leader is the least index of its orbit under k -> 2k mod N."""
    points = {}
    for leader, d in reps.items():
        orbit = _doubling_orbit(leader, N)
        if min(orbit) != leader:
            raise ValueError(f"{leader} is not a coset leader mod {N}")
        for k in orbit:
            points[k] = d
            d = 2 * d % N
    return Spectrum(N, field, root, points)
