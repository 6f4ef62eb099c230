"""Canonical worked cases: three short LFSRs, their products, the
three-input majority-style combiner, and a priced benchmark point.

Everything downstream (CLI reports, demos, tests) builds these the same
way, so the objects here are the single source of truth for roots and
alignment choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bm import BmResult, berlekamp_massey
from .costs import OpCounter, measure
from .crtconv import (CrtBasis, combiner_spectrum, product_spectrum,
                      product_spectrum_point)
from .field import CountingField
from .sequences import (AnfCombiner, BitSequence, Lfsr, combiner_stream,
                        lfsr_stream, pointwise_product)
from .spectral import ZERO, Spectrum, default_field_for_period, dft, dft_point

# degree-2, degree-3, degree-5 primitive connections with the standard seeds
LFSR_A = (0x7, 0b10)        # x^2+x+1, seed 01 -> period-3 stream 011
LFSR_B = (0xB, 0b100)       # x^3+x+1, seed 001 -> period-7 stream 0010111
LFSR_C = (0x25, 0b10000)    # x^5+x^2+1, seed 00001 -> period-31 stream
COMBINER_ANF = "1*2+2*3+1*3"


def _stream(spec) -> BitSequence:
    conn, seed = spec
    m = conn.bit_length() - 1
    return lfsr_stream(Lfsr(conn, seed), (1 << m) - 1)


def _factor_spectrum(s: BitSequence) -> Spectrum:
    field, root = default_field_for_period(s.period)
    return dft(s, field, root)


@dataclass(frozen=True)
class PairCase:
    """One bitwise product of two LFSR streams, both spectral paths."""
    streams: tuple
    product: BitSequence
    factors: tuple          # factor Spectrum objects
    basis: CrtBasis
    spectrum: Spectrum      # CRT path, aligned product root
    bm: BmResult


def pair_case(spec1, spec2) -> PairCase:
    s1, s2 = _stream(spec1), _stream(spec2)
    u = pointwise_product(s1, s2)
    F1, F2 = _factor_spectrum(s1), _factor_spectrum(s2)
    basis = CrtBasis([s1.period, s2.period])
    S = product_spectrum([F1, F2], basis)
    r = berlekamp_massey(list(u.bits) * 2)
    return PairCase((s1, s2), u, (F1, F2), basis, S, r)


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
            product_spectrum_point(ex.factors, ex.basis, k)

    return measure(run_direct), measure(run_crt)


@dataclass(frozen=True)
class TripleCase:
    """The three-LFSR setup: triple product and the pairwise combiner."""
    streams: tuple                 # a, b, c
    factors: tuple                 # A, B, C spectra
    basis: CrtBasis                # N = 651
    triple_product: BitSequence    # a.b.c
    triple_spectrum: Spectrum      # CRT path
    combiner: AnfCombiner          # ab + bc + ac
    combiner_seq: BitSequence
    combiner_spec: Spectrum
    combiner_bm: BmResult


def triple_case() -> TripleCase:
    a, b, c = _stream(LFSR_A), _stream(LFSR_B), _stream(LFSR_C)
    A, B, C = _factor_spectrum(a), _factor_spectrum(b), _factor_spectrum(c)
    basis = CrtBasis([a.period, b.period, c.period])
    abc = pointwise_product(pointwise_product(a, b), c)
    ABC = product_spectrum([A, B, C], basis)
    f = AnfCombiner.parse(COMBINER_ANF)
    s = combiner_stream(f, [a, b, c])
    S = combiner_spectrum(f, [A, B, C], basis)
    r = berlekamp_massey(list(s.bits) * 2)
    return TripleCase((a, b, c), (A, B, C), basis, abc, ABC, f, s, S, r)


def example1() -> PairCase:
    """Period-3 times period-7: the six-point period-21 spectrum."""
    return pair_case(LFSR_A, LFSR_B)


@dataclass(frozen=True)
class Example2:
    bc: PairCase
    ac: PairCase
    triple: TripleCase


def example2() -> Example2:
    """The three pairwise/triple cases around periods 7, 31, and 651."""
    return Example2(
        bc=pair_case(LFSR_B, LFSR_C),
        ac=pair_case(LFSR_A, LFSR_C),
        triple=triple_case(),
    )
