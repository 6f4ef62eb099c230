"""Canonical worked cases: three short LFSRs, their products, and a priced
benchmark point.

Everything downstream (CLI reports, demos, tests) builds these the same
way, so the objects here are the single source of truth for roots and
alignment choices.
"""

from __future__ import annotations

from .costs import OpCounter, measure
from .crtconv import product_spectrum, product_spectrum_point
from .field import CountingField
from .records import FrozenRecord
from .sequences import (BitSequence, _one_period, connection_degree,
                        pointwise_product)
from .spectral import ZERO, Spectrum, default_field_for_period, dft, dft_point

# degree-2, degree-3, degree-5 primitive connections with the standard seeds
LFSR_A = (0x7, 0b10)        # x^2+x+1, seed 01 -> period-3 stream 011
LFSR_B = (0xB, 0b100)       # x^3+x+1, seed 001 -> period-7 stream 0010111
LFSR_C = (0x25, 0b10000)    # x^5+x^2+1, seed 00001 -> period-31 stream


def _stream(spec) -> BitSequence:
    conn, seed = spec
    return _one_period(conn, seed, (1 << connection_degree(conn)) - 1)


def _factor_spectrum(s: BitSequence) -> Spectrum:
    field, root = default_field_for_period(s.period)
    return dft(s, field, root)


class PairCase(FrozenRecord):
    """One bitwise product of two LFSR streams, both spectral paths."""
    __slots__ = (
        "streams",
        "product",      # a BitSequence
        "factors",      # factor Spectrum objects
        "spectrum",     # CRT path, aligned product root
    )


def pair_case(spec1, spec2) -> PairCase:
    s1, s2 = _stream(spec1), _stream(spec2)
    u = pointwise_product(s1, s2)
    F1, F2 = _factor_spectrum(s1), _factor_spectrum(s2)
    S = product_spectrum([F1, F2])
    return PairCase((s1, s2), u, (F1, F2), S)


def priced_point(ex: PairCase, k: int) -> tuple[OpCounter, OpCounter]:
    """Field-op tallies for one spectral point of ex.product at index k.

    Direct: Horner over the whole product period in the product's field.
    CRT: Horner per factor at k mod n_i in each factor's own field, then
    the index/exponent recombination when no factor point is zero.
    """
    S = ex.spectrum

    def run_direct(counter: OpCounter):
        cf = CountingField(S.field, counter)
        dft_point(ex.product, cf.element(S.root.bits), k)

    def run_crt(counter: OpCounter):
        ds = []
        for s, F in zip(ex.streams, ex.factors):
            cf = CountingField(F.field, counter)
            ds.append(dft_point(s, cf.element(F.root.bits), k % s.period))
        if ZERO not in ds:
            product_spectrum_point(ex.factors, k)

    return measure(run_direct), measure(run_crt)


def example1() -> PairCase:
    """Period-3 times period-7: the six-point period-21 spectrum."""
    return pair_case(LFSR_A, LFSR_B)


def example2() -> dict[str, Spectrum]:
    """The spectra of b.c, a.c and a.b.c (periods 217, 93, 651), in report
    order."""
    A, B, C = (_factor_spectrum(_stream(spec))
               for spec in (LFSR_A, LFSR_B, LFSR_C))
    return {"bc": product_spectrum([B, C]), "ac": product_spectrum([A, C]),
            "abc": product_spectrum([A, B, C])}
