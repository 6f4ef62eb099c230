"""Spectra of LFSR product and combiner sequences via CRT index maps.

The package computes discrete Fourier transforms of binary sequences over
GF(2^m), and reconstructs product/combiner spectra directly from the factor
spectra by mapping indices and exponents through the Chinese remainder
theorem, without ever materializing the long sequence.

The names below are the ones the demos and the README use; everything else
is imported from its module.
"""

from .bm import berlekamp_massey
from .costs import estimate_crt_breakdown, estimate_direct
from .crtconv import (CrtBasis, combiner_spectrum, combiner_term_supports,
                      crt_combine, product_spectrum)
from .oracle import brute_dft, compare_spectra
from .sequences import (AnfCombiner, Lfsr, combiner_stream, lfsr_stream,
                        pointwise_product)
from .spectral import (blahut_check, coset_reduce, default_field_for_period,
                       dft, idft)

__version__ = "0.1.0"
