"""Direct spectra of product and combiner sequences by CRT index/exponent maps.

The central fact: when sequences of pairwise-coprime periods n_i are
multiplied bitwise, the product's N-point spectrum (N = prod n_i) at index
k is the field product of the factor spectra at (k mod n_i) - so in log
form both the index and the exponent of each nonzero point are Chinese-
Remainder combinations of per-factor data, and no N-point transform is
ever run.

The one CRT map: each entry point takes the factor spectra alone, and the
basis is their periods, pairwise coprime. With its idempotents e_i = 1
mod n_i, 0 mod every other period, a tuple of nonzero factor points
(j_i, d_i) lands at index sum j_i e_i mod N with exponent sum d_i e_i mod
N. Every route here (one point, the full product, its support, each
combiner term) walks those tuples, so the work is one step per nonzero
point, not per index. A variable outside a combiner monomial contributes
residue 0, which is the lift of that term into the full index space.

Exponents only mean something relative to a root. The convention here:
each factor's exponents are relative to that factor's own root, and the
product spectrum's exponents are relative to the product of those roots
(embedded into a common field), which always has order N. Equivalently,
fixing the order-N root rho first, factor i's implied root is rho^(N/n_i).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .field import (FieldElement, FieldSpec, build_field, element_order,
                    find_root_in_subgroup, minimal_polynomial_of,
                    multiplicative_order_of_2)
from .sequences import AnfCombiner
from .spectral import ZERO, Spectrum


class CrtBasis:
    """Pairwise-coprime moduli n_1..n_r with N = prod n_i and idempotents
    e_i = (N/n_i) ((N/n_i)^-1 mod n_i) mod N."""

    __slots__ = ("moduli", "N", "idempotents")

    def __init__(self, moduli):
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise ValueError("need at least one modulus")
        for n in moduli:
            if n < 1:
                raise ValueError(f"modulus {n} < 1")
        for i in range(len(moduli)):
            for j in range(i + 1, len(moduli)):
                g = gcd(moduli[i], moduli[j])
                if g != 1:
                    raise ValueError(
                        f"moduli {moduli[i]} and {moduli[j]} share factor {g}")
        self.moduli = moduli
        N = 1
        for n in moduli:
            N *= n
        self.N = N
        self.idempotents = tuple(
            (N // n) * pow(N // n, -1, n) % N for n in moduli)

    def __repr__(self):
        return f"CrtBasis({list(self.moduli)}, N={self.N})"


def crt_combine(residues, basis: CrtBasis) -> int:
    """The unique x in [0, N) with x = residues[i] mod basis.moduli[i]."""
    if len(residues) != len(basis.moduli):
        raise ValueError(
            f"{len(residues)} residues for {len(basis.moduli)} moduli")
    for r, n in zip(residues, basis.moduli):
        if not 0 <= r < n:
            raise ValueError(f"residue {r} outside [0, {n})")
    return sum(r * e for r, e in zip(residues, basis.idempotents)) % basis.N


def _check_factors(factors) -> tuple[list[Spectrum], CrtBasis]:
    """Factor spectra and the CrtBasis of their periods."""
    factors = list(factors)
    for f in factors:
        if not isinstance(f, Spectrum):
            raise TypeError(f"expected Spectrum, got {type(f)!r}")
    basis = CrtBasis([f.N for f in factors])
    for f in factors:
        if f.points.get(0, 0) != 0:
            raise ValueError(
                f"factor of period {f.N} has exponent {f.points[0]} at index"
                " 0; a binary sequence's spectrum there is 0 or 1")
    return factors, basis


def _crt_points(factors, basis: CrtBasis, variables) -> list[tuple]:
    """(index, exponent) of every nonzero point of the bitwise product of
    the factors at positions `variables`, in the length-N index space:
    each tuple of nonzero factor points (j_i, d_i) maps to
    (sum j_i e_i mod N, sum d_i e_i mod N)."""
    N = basis.N
    points = [(0, 0)]
    for i in variables:
        e = basis.idempotents[i]
        nonzero = [(j * e, d * e) for j, d in factors[i].points.items()]
        points = [((k + a) % N, (x + b) % N)
                  for k, x in points for a, b in nonzero]
    return points


def product_spectrum_point(factors, k: int):
    """Log-form value of the product sequence's spectrum at one index.

    ZERO as soon as any factor is ZERO at (k mod n_i); otherwise the CRT
    combination of the factor exponents. Index 0 falls out of the same
    rule, no special casing.
    """
    factors, basis = _check_factors(factors)
    if not 0 <= k < basis.N:
        raise ValueError(f"index {k} outside [0, {basis.N})")
    residues = []
    for f in factors:
        d = f.points.get(k % f.N)
        if d is ZERO:
            return ZERO
        residues.append(d)
    return crt_combine(residues, basis)


def embed_root(root: FieldElement, field: FieldSpec) -> FieldElement:
    """Canonical image of `root` in another field: same minimal polynomial,
    same multiplicative order; the identity when the field already matches.
    Images are found once per process and returned in the caller's `field`
    object, so a counting view stays a counting view."""
    if root.field == field:
        return root
    return FieldElement(field, _image_bits(root.field, root.bits, field))


@lru_cache(maxsize=256)
def _image_bits(source: FieldSpec, bits: int, target: FieldSpec) -> int:
    root = FieldElement(source, bits)
    n = element_order(root)
    return find_root_in_subgroup(minimal_polynomial_of(root), n, target).bits


def aligned_product_root(roots, field: FieldSpec) -> FieldElement:
    """Product of the factor roots' canonical images; order = product of
    the (pairwise coprime) factor orders."""
    acc = field.one
    for r in roots:
        acc = acc * embed_root(r, field)
    return acc


def _assemble(factors, basis: CrtBasis, monomials) -> Spectrum:
    """Spectrum of the XOR of the bitwise products of the factors at each
    monomial's positions, under the product of every factor root.

    Two monomials reach the same index only where every factor in just one
    of them sits at its index 0, whose exponent is 0; so all terms at an
    index carry the same exponent and their field sum is that exponent or
    ZERO by the parity of the count."""
    N = basis.N
    field = build_field(multiplicative_order_of_2(N))
    root = aligned_product_root([f.root for f in factors], field)
    points = {}
    for mono in monomials:
        for k, d in _crt_points(factors, basis, mono):
            if points.pop(k, ZERO) is ZERO:
                points[k] = d
    return Spectrum(N, field, root, points)


def product_spectrum(factors) -> Spectrum:
    """Full length-N spectrum of the bitwise product, straight from the
    factor spectra; cost is modular arithmetic per nonzero point, not
    field work.

    The output root is the product of the factors' embedded roots, which
    makes the result equal dft(product stream) value for value.
    """
    factors, basis = _check_factors(factors)
    return _assemble(factors, basis, [range(len(factors))])


def support_indices(factors) -> list[int]:
    """Sorted nonzero indices of the product spectrum: CRT images of every
    tuple of per-factor nonzero indices."""
    factors, basis = _check_factors(factors)
    return sorted(k for k, _ in _crt_points(factors, basis,
                                            range(len(factors))))


def _check_combiner(f: AnfCombiner, factors):
    if len(factors) != f.n_vars:
        raise ValueError(f"{len(factors)} factors for {f.n_vars} variables")
    return _check_factors(factors)


def combiner_term_supports(f: AnfCombiner, factors) -> dict:
    """Length-N support of each ANF monomial under the combiner's shared
    root: k = 0 mod every factor period outside the term, k mod N_T
    ranging over the term's own product support.
    """
    factors, basis = _check_combiner(f, factors)
    return {mono: sorted(k for k, _ in _crt_points(
                factors, basis, [v - 1 for v in mono]))
            for mono in f.monomials}


def combiner_spectrum(f: AnfCombiner, factors) -> Spectrum:
    """Spectrum of f(inputs) assembled term by term, no length-N transform.

    Each ANF monomial is a bitwise product of its variables; under the
    shared root (product of ALL variable roots) its spectrum is the CRT
    map with residue 0 for every variable outside the monomial. Two terms
    overlap only if every factor in just one of them is nonzero at index
    0, and there equal terms cancel in pairs; otherwise the sum is a plain
    union.
    """
    factors, basis = _check_combiner(f, factors)
    return _assemble(factors, basis,
                     [[v - 1 for v in mono] for mono in f.monomials])
