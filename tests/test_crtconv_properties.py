"""Property test of the term-by-term combiner spectrum against the
length-N oracle, on random ANFs over m-sequences whose inputs are
complemented at random so that term supports can overlap."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra.sequences import AnfCombiner, Lfsr, lfsr_stream

from test_crtconv import _combiner_or_error, _complement, _oracle_or_error


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
