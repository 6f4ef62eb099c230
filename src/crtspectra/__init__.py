"""Spectra of LFSR product and combiner sequences via CRT index maps.

The package computes discrete Fourier transforms of binary sequences over
GF(2^m), and reconstructs product/combiner spectra directly from the factor
spectra by mapping indices and exponents through the Chinese remainder
theorem, without ever materializing the long sequence.

The names in __all__ are the ones the demos and the README use; everything
else is imported from its module. Importing the package loads no
submodule: each name loads its module on first use (PEP 562), so a CLI
command starts with only the modules it runs.
"""

from importlib import import_module

# re-exported name -> the submodule that defines it
_HOME = {
    "berlekamp_massey": "bm",
    "estimate_crt_breakdown": "costs",
    "estimate_direct": "costs",
    "CrtBasis": "crtconv",
    "combiner_spectrum": "crtconv",
    "combiner_term_supports": "crtconv",
    "crt_combine": "crtconv",
    "product_spectrum": "crtconv",
    "brute_dft": "oracle",
    "compare_spectra": "oracle",
    "AnfCombiner": "sequences",
    "Lfsr": "sequences",
    "combiner_stream": "sequences",
    "lfsr_stream": "sequences",
    "pointwise_product": "sequences",
    "blahut_check": "spectral",
    "coset_reduce": "spectral",
    "default_field_for_period": "spectral",
    "dft": "spectral",
    "idft": "spectral",
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        # also how `from crtspectra import oracle` finds an unloaded
        # submodule: the import system loads it on this AttributeError
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
