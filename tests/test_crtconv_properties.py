"""Property tests of the CRT route on random ANFs over m-sequences whose
inputs are complemented at random so that term supports can overlap: the
term-by-term combiner spectrum against the length-N oracle, and every
kernel output against the public constructor's full check."""

from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra.crtconv import combiner_spectrum, product_spectrum
from crtspectra.sequences import (AnfCombiner, Lfsr, lfsr_stream,
                                  pointwise_product)
from crtspectra.spectral import Spectrum

from test_crtconv import (_combiner_or_error, _complement, _oracle_or_error,
                          _spec)


# primitive connection polynomials for the m-sequences of each period
MSEQ_POLYS = {3: (0x7,), 7: (0xB, 0xD),
              31: (0x25, 0x29, 0x2F, 0x37, 0x3B, 0x3D)}


@st.composite
def combiner_cases(draw):
    """A random ANF over m-sequences of distinct periods from {3, 7, 31},
    each complemented at random so that term supports can overlap."""
    periods = draw(st.lists(st.sampled_from(sorted(MSEQ_POLYS)),
                            min_size=1, max_size=3, unique=True))
    seqs = []
    for n in periods:
        s = lfsr_stream(Lfsr(draw(st.sampled_from(MSEQ_POLYS[n])),
                             draw(st.integers(1, n))), n)
        seqs.append(_complement(s) if draw(st.booleans()) else s)
    monomials = draw(st.lists(st.sets(st.integers(1, len(seqs)), min_size=1),
                              min_size=1, max_size=6))
    return AnfCombiner(len(seqs), monomials), seqs


@settings(derandomize=True, deadline=None, max_examples=40)
@given(combiner_cases())
def test_combiner_spectrum_matches_oracle_property(case):
    f, seqs = case
    got, ref = _combiner_or_error(f, seqs), _oracle_or_error(f, seqs)
    if isinstance(ref, ValueError):
        assert isinstance(got, ValueError)
    else:
        assert got == ref


def _passes_the_public_check(S: Spectrum) -> bool:
    """S is what Spectrum(...) builds from its own data, with its points in
    ascending order, and neither it nor that rebuild breaks the doubling
    law: the rebuild scans every point, whatever route built S."""
    checked = Spectrum(S.N, S.field, S.root, S.points)
    return (S == checked and list(S.points) == sorted(S.points)
            and checked.conjugacy_violation() is None
            and S.conjugacy_violation() is None)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(combiner_cases())
def test_kernel_outputs_pass_the_public_check_property(case):
    # product_spectrum and combiner_spectrum build their outputs without
    # the constructor's scan, since the CRT map proves what it checks;
    # dft's go through coset_expand, which keeps it
    f, seqs = case
    factors = [_spec(s) for s in seqs]
    outputs = [*factors, _spec(reduce(pointwise_product, seqs)),
               product_spectrum(factors), combiner_spectrum(f, factors)]
    for S in outputs:
        assert _passes_the_public_check(S), S
