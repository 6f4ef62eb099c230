"""Direct spectra of product and combiner sequences by CRT index/exponent maps.

The central fact: when sequences of pairwise-coprime periods n_i are
multiplied bitwise, the product's N-point spectrum (N = prod n_i) at index
k is the field product of the factor spectra at (k mod n_i) - so in log
form both the index and the exponent of each nonzero point are Chinese-
Remainder combinations of per-factor data, and no N-point transform is
ever run.

Exponents only mean something relative to a root. The convention here:
each factor's exponents are relative to that factor's own root, and the
product spectrum's exponents are relative to the product of those roots
(embedded into a common field), which always has order N. Equivalently,
fixing the order-N root rho first, factor i's implied root is rho^(N/n_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .field import (FieldElement, FieldSpec, build_field, discrete_log,
                    element_of_order, element_order, find_root_in_subgroup,
                    minimal_polynomial_of, multiplicative_order_of_2)
from .sequences import AnfCombiner
from .spectral import ZERO, Spectrum, root_power_table


class CrtBasis:
    """Pairwise-coprime moduli n_1..n_r with N = prod n_i."""

    __slots__ = ("moduli", "N")

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

    def __len__(self):
        return len(self.moduli)

    def __repr__(self):
        return f"CrtBasis({list(self.moduli)}, N={self.N})"


@dataclass(frozen=True)
class LogSpectrumFactor:
    """One factor's spectrum in field-free log form.

    values[j] is ZERO or the exponent of that factor's own root, a residue
    mod `modulus`. Built from a full Spectrum with from_spectrum, which
    forgets the field but keeps the numbers.
    """

    modulus: int
    values: tuple

    def __post_init__(self):
        if self.modulus < 1 or len(self.values) != self.modulus:
            raise ValueError(f"need exactly {self.modulus} entries")
        for j, d in enumerate(self.values):
            if d is not None and not 0 <= d < self.modulus:
                raise ValueError(
                    f"exponent {d} at index {j} outside [0, {self.modulus})")

    @classmethod
    def from_spectrum(cls, S: Spectrum) -> "LogSpectrumFactor":
        return cls(S.N, S.values)

    def support(self) -> list[int]:
        return [j for j, d in enumerate(self.values) if d is not None]


def crt_combine(residues, basis: CrtBasis) -> int:
    """The unique x in [0, N) with x = residues[i] mod basis.moduli[i].

    Garner's mixed-radix reconstruction; moduli coprimality is the basis
    constructor's job.
    """
    if len(residues) != len(basis.moduli):
        raise ValueError(
            f"{len(residues)} residues for {len(basis.moduli)} moduli")
    for r, n in zip(residues, basis.moduli):
        if not 0 <= r < n:
            raise ValueError(f"residue {r} outside [0, {n})")
    x = residues[0] % basis.moduli[0]
    M = basis.moduli[0]
    for r, n in zip(residues[1:], basis.moduli[1:]):
        t = ((r - x) * pow(M, -1, n)) % n
        x += M * t
        M *= n
    return x


def _as_factor(f) -> LogSpectrumFactor:
    if isinstance(f, LogSpectrumFactor):
        return f
    if isinstance(f, Spectrum):
        return LogSpectrumFactor.from_spectrum(f)
    raise TypeError(f"expected Spectrum or LogSpectrumFactor, got {type(f)!r}")


def _check_factors(factors, basis: CrtBasis) -> list[LogSpectrumFactor]:
    """Log-form factors, one per basis modulus with matching lengths."""
    facs = [_as_factor(f) for f in factors]
    if len(facs) != len(basis.moduli):
        raise ValueError(f"{len(facs)} factors for {len(basis.moduli)} moduli")
    for f, n in zip(facs, basis.moduli):
        if f.modulus != n:
            raise ValueError(f"factor modulus {f.modulus} != basis modulus {n}")
    return facs


def product_spectrum_point(factors, basis: CrtBasis, k: int):
    """Log-form value of the product sequence's spectrum at one index.

    ZERO as soon as any factor is ZERO at (k mod n_i); otherwise the CRT
    combination of the factor exponents. Index 0 falls out of the same
    rule, no special casing.
    """
    if not 0 <= k < basis.N:
        raise ValueError(f"index {k} outside [0, {basis.N})")
    return _log_point(_check_factors(factors, basis), basis, k)


def _log_point(facs, basis: CrtBasis, k: int):
    residues = []
    for f, n in zip(facs, basis.moduli):
        d = f.values[k % n]
        if d is ZERO:
            return ZERO
        residues.append(d)
    return crt_combine(residues, basis)


def embed_root(root: FieldElement, field: FieldSpec) -> FieldElement:
    """Canonical image of `root` in another field: same minimal polynomial,
    same multiplicative order; the identity when the field already matches."""
    if root.field == field:
        return root
    n = element_order(root)
    if n > 1 and field.group_order % n != 0:
        raise ValueError(
            f"GF(2^{field.m}) has no element of order {n}")
    return find_root_in_subgroup(minimal_polynomial_of(root), n, field)


def aligned_product_root(roots, field: FieldSpec) -> FieldElement:
    """Product of the factor roots' canonical images; order = product of
    the (pairwise coprime) factor orders."""
    acc = field.one
    for r in roots:
        acc = acc * embed_root(r, field)
    return acc


def _log_product_values(facs, basis: CrtBasis) -> list:
    return [_log_point(facs, basis, k) for k in range(basis.N)]


def product_spectrum(factors, basis: CrtBasis, field: FieldSpec | None = None,
                     root: FieldElement | None = None) -> Spectrum:
    """Full length-N spectrum of the bitwise product, straight from the
    factor spectra; cost is modular arithmetic per index, not field work.

    When the factors come in as full Spectrum objects and no root is
    given, the output root is the product of their embedded roots, which
    makes the result equal dft(product stream) value for value. Field-free
    factors with no explicit root get the field's designated order-N
    element instead; exponents are then correct relative to the aligned
    root, and the materialized root is a relabeling.
    """
    facs = _check_factors(factors, basis)
    N = basis.N
    if field is None:
        field = build_field(multiplicative_order_of_2(N))
    if root is None:
        if all(isinstance(f, Spectrum) for f in factors):
            root = aligned_product_root([f.root for f in factors], field)
        else:
            root = element_of_order(field, N)
    return Spectrum(N, field, root, tuple(_log_product_values(facs, basis)))


def support_indices(factors, basis: CrtBasis) -> list[int]:
    """Sorted nonzero indices of the product spectrum: CRT images of every
    tuple of per-factor nonzero indices."""
    from itertools import product as iproduct
    supports = [f.support() for f in _check_factors(factors, basis)]
    if any(not s for s in supports):
        return []
    return sorted(crt_combine(list(combo), basis)
                  for combo in iproduct(*supports))


def embed_spectrum(S: Spectrum, N: int, field: FieldSpec | None = None) -> Spectrum:
    """The same periodic sequence's spectrum at a multiple period N.

    Nonzero points move from m to (N/N_T) m and exponents scale by the
    same ratio; the output root rho is constructed so rho^(N/N_T) is the
    image of S.root, which is what makes the scaled exponents literally
    true. Equals the length-N DFT of the sequence, never recomputes it.
    """
    N_T = S.N
    if N < 1 or N % N_T != 0:
        raise ValueError(f"period {N_T} does not divide target {N}")
    if N % 2 == 0:
        raise ValueError(f"even target period {N} rejected")
    if field is None:
        field = build_field(multiplicative_order_of_2(N))
    if N > 1 and field.group_order % N != 0:
        raise ValueError(f"GF(2^{field.m}) has no element of order {N}")
    q = N // N_T
    r_img = embed_root(S.root, field)
    if q == 1:
        rho = r_img
    else:
        h = element_of_order(field, N)
        v = discrete_log(r_img, h ** q)
        e = None
        for k in range(q):
            cand = v + k * N_T
            if gcd(cand, N) == 1:
                e = cand
                break
        if e is None:
            raise ArithmeticError("no order-N root over the embedded image")
        rho = h ** e
        if rho ** q != r_img:
            raise AssertionError("embedding root construction failed")
    values: list = [ZERO] * N
    for m, d in enumerate(S.values):
        if d is not ZERO:
            values[q * m] = (q * d) % N
    return Spectrum(N, field, rho, tuple(values))


def combiner_term_supports(f: AnfCombiner, per_variable_factors,
                           basis: CrtBasis) -> dict:
    """Length-N support of each ANF monomial under the combiner's shared
    root: k = 0 mod N/N_T with k mod N_T ranging over the term's own
    sub-support. Note this differs from embed_spectrum's index map, which
    is relative to a root constructed for the single term alone; under
    the shared root the lift above is what actually appears.
    """
    facs = [_as_factor(x) for x in per_variable_factors]
    if len(facs) != f.n_vars or len(facs) != len(basis.moduli):
        raise ValueError("one factor per variable, matching the basis")
    N = basis.N
    out = {}
    for mono in f.monomials:
        mvars = sorted(mono)
        sub_basis = CrtBasis([basis.moduli[v - 1] for v in mvars])
        sub_supp = support_indices([facs[v - 1] for v in mvars], sub_basis)
        N_T = sub_basis.N
        q = N // N_T
        if q == 1:
            out[mono] = sorted(sub_supp)
        else:
            lift = CrtBasis([q, N_T])
            out[mono] = sorted(crt_combine([0, s], lift) for s in sub_supp)
    return out


def combiner_spectrum(f: AnfCombiner, per_variable_factors, basis: CrtBasis,
                      field: FieldSpec | None = None,
                      variable_roots=None) -> Spectrum:
    """Spectrum of f(inputs) assembled term by term, no length-N transform.

    Each ANF monomial is a bitwise product over its own sub-basis; its
    spectrum lands inside the length-N spectrum at indices = 0 mod N/N_T,
    because the shared root sigma (product of ALL variable roots) raised
    to N/N_T kills every root outside the monomial. Term values are added
    in the explicit field, so overlapping supports combine correctly;
    disjoint supports (the usual case) make the sum a plain union.

    Factors given as full Spectrum objects supply their own roots;
    field-free factors need variable_roots.
    """
    if len(per_variable_factors) != f.n_vars:
        raise ValueError(
            f"{len(per_variable_factors)} factors for {f.n_vars} variables")
    facs = _check_factors(per_variable_factors, basis)
    if variable_roots is None:
        if not all(isinstance(x, Spectrum) for x in per_variable_factors):
            raise ValueError(
                "field-free factors need variable_roots for alignment")
        variable_roots = [x.root for x in per_variable_factors]
    if len(variable_roots) != len(facs):
        raise ValueError("one root per variable required")
    N = basis.N
    if field is None:
        field = build_field(multiplicative_order_of_2(N))
    sigma = aligned_product_root(variable_roots, field)
    if element_order(sigma) != N:
        raise ValueError("variable root orders do not multiply out to N")

    # power table of sigma once; terms accumulate by XOR of raw values
    pw, dlog = root_power_table(sigma)

    acc = [0] * N
    for mono in f.monomials:
        mvars = sorted(mono)
        sub_basis = CrtBasis([basis.moduli[v - 1] for v in mvars])
        sub_vals = _log_product_values([facs[v - 1] for v in mvars], sub_basis)
        N_T = sub_basis.N
        q = N // N_T
        # lift: x_T = 1 mod each in-term modulus, 0 mod the rest; then
        # index q*j' and exponent x_T*d land exactly where the length-N
        # transform of this term is nonzero
        lift_basis = CrtBasis([q, N_T]) if q > 1 else None
        for j, d in enumerate(sub_vals):
            if d is ZERO:
                continue
            if lift_basis is None:
                k, e = j, d
            else:
                k = crt_combine([0, j], lift_basis)
                e = crt_combine([0, d], lift_basis)
            acc[k] ^= pw[e]

    values: list = [ZERO] * N
    for k, bits in enumerate(acc):
        if bits == 0:
            continue
        d = dlog.get(bits)
        if d is None:
            raise ValueError(
                f"combined value at k={k} lies outside the cyclic group of"
                " the shared root; no log-form spectrum for this combiner")
        values[k] = d
    return Spectrum(N, field, sigma, tuple(values))
