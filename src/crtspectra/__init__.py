"""Spectra of LFSR product and combiner sequences via CRT index maps.

The package computes discrete Fourier transforms of binary sequences over
GF(2^m), and reconstructs product/combiner spectra directly from the factor
spectra by mapping indices and exponents through the Chinese remainder
theorem, without ever materializing the long sequence.
"""

from .bm import BmResult, berlekamp_massey, regenerate
from .costs import (CrtCostBreakdown, OpCounter, estimate_crt,
                    estimate_crt_breakdown, estimate_direct, eta, measure)
from .crtconv import (CrtBasis, aligned_product_root, combiner_spectrum,
                      combiner_term_supports, crt_combine, embed_root,
                      embed_spectrum, product_spectrum,
                      product_spectrum_point, support_indices)
from .field import (CountingField, FieldElement, FieldSpec, build_field,
                    cyclotomic_cosets, default_modulus, discrete_log,
                    element_of_order, element_order, factor_int,
                    is_primitive, minimal_polynomial_of,
                    multiplicative_order_of_2)
from .formats import (FormatError, atomic_write, parse_field, parse_sequence,
                      parse_spectrum, serialize_field, serialize_sequence,
                      serialize_spectrum)
from .gf2poly import is_irreducible, parse_poly, poly_degree, poly_str
from .oracle import (Mismatch, VerifyReport, brute_dft, compare_spectra,
                     verify_theorem1)
from .sequences import (AnfCombiner, BitSequence, Lfsr, combiner_stream,
                        cyclic_convolve, lfsr_stream, pointwise_product,
                        sequence_period)
from .spectral import (ZERO, Spectrum, blahut_check, coset_expand,
                       coset_reduce, default_field_for_period, dft, dft_point,
                       idft)

__version__ = "0.1.0"

__all__ = [
    "AnfCombiner", "BitSequence", "BmResult", "CountingField",
    "CrtBasis", "CrtCostBreakdown", "FieldElement", "FieldSpec",
    "FormatError", "Lfsr", "Mismatch", "OpCounter",
    "Spectrum", "VerifyReport", "ZERO",
    "aligned_product_root", "atomic_write", "berlekamp_massey",
    "blahut_check", "brute_dft", "build_field", "combiner_spectrum",
    "combiner_stream", "combiner_term_supports", "compare_spectra",
    "coset_expand", "coset_reduce", "crt_combine", "cyclic_convolve",
    "cyclotomic_cosets", "default_field_for_period", "default_modulus",
    "dft", "dft_point", "discrete_log", "element_of_order", "element_order",
    "embed_root", "embed_spectrum", "estimate_crt", "estimate_crt_breakdown",
    "estimate_direct", "eta", "factor_int", "idft", "is_irreducible",
    "is_primitive", "lfsr_stream", "measure", "minimal_polynomial_of",
    "multiplicative_order_of_2", "parse_field", "parse_poly",
    "parse_sequence", "parse_spectrum", "pointwise_product",
    "poly_degree", "poly_str", "product_spectrum", "product_spectrum_point",
    "regenerate", "sequence_period", "serialize_field", "serialize_sequence",
    "serialize_spectrum", "support_indices", "verify_theorem1",
]
