import random
import tracemalloc

import pytest

from crtspectra.crtconv import (CrtBasis, aligned_product_root,
                                combiner_spectrum, combiner_term_supports,
                                crt_combine, embed_root, product_spectrum, product_spectrum_point,
                                support_indices)
from crtspectra.costs import OpCounter
from crtspectra.field import (CountingField, FieldSpec, build_field,
                              element_of_order, multiplicative_order_of_2)
from crtspectra.oracle import brute_dft
from crtspectra.sequences import (AnfCombiner, BitSequence, Lfsr,
                                  combiner_stream, lfsr_stream)
from crtspectra.spectral import (Spectrum, coset_expand, dft,
                                 default_field_for_period, idft)

import reference_values as rv

A = BitSequence.from_string(rv.STREAM_A)
B = BitSequence.from_string(rv.STREAM_B)
C = BitSequence.from_string(rv.STREAM_C)


# m-sequence of x^7+x+1, period 127
D = lfsr_stream(Lfsr(0x83, 1), 127)
# m-sequence of x^6+x+1, period 63
E = lfsr_stream(Lfsr(0x43, 1), 63)


def _spec(s):
    fld, root = default_field_for_period(s.period)
    return dft(s, fld, root)


def _complement(s):
    return BitSequence(tuple(1 - b for b in s.bits))


def test_basis_validation():
    basis = CrtBasis([3, 7, 31])
    assert basis.N == 651
    with pytest.raises(ValueError) as e:
        CrtBasis([6, 21])
    assert "3" in str(e.value)    # the shared factor is named
    with pytest.raises(ValueError):
        CrtBasis([])


def test_crt_combine_worked_values():
    assert crt_combine([0, 2], CrtBasis([3, 7])) == 9
    assert crt_combine([3, 15], CrtBasis([7, 31])) == 108
    assert crt_combine([0, 4, 29], CrtBasis([3, 7, 31])) == 60


def test_crt_combine_agrees_with_remainders():
    rng = random.Random(43)
    basis = CrtBasis([3, 7, 31])
    for _ in range(100):
        k = rng.randrange(651)
        assert crt_combine([k % 3, k % 7, k % 31], basis) == k


@pytest.mark.parametrize("moduli", [[1, 7], [3, 7, 31], [3, 7, 31, 127]])
def test_basis_idempotents(moduli):
    basis = CrtBasis(moduli)
    assert len(basis.idempotents) == len(moduli)
    for i, e in enumerate(basis.idempotents):
        assert 0 <= e < basis.N
        for j, n in enumerate(moduli):
            assert e % n == (1 if i == j else 0) % n
    rng = random.Random(len(moduli))
    for _ in range(200):
        residues = [rng.randrange(n) for n in moduli]
        x = crt_combine(residues, basis)
        assert 0 <= x < basis.N
        assert [x % n for n in moduli] == residues


def test_crt_combine_rejections():
    basis = CrtBasis([3, 7])
    with pytest.raises(ValueError):
        crt_combine([1], basis)           # residue count
    with pytest.raises(ValueError):
        crt_combine([3, 0], basis)        # out of range


def test_product_spectrum_reference_21():
    S = product_spectrum([_spec(A), _spec(B)])
    assert {k: S.values[k] for k in S.support()} == rv.TABLE_AB
    assert S.N == 21 and S.field.m == 6


def test_product_spectrum_point_zero_propagation():
    factors = [_spec(A), _spec(B)]
    assert product_spectrum_point(factors, 0) is None   # A part zero
    assert product_spectrum_point(factors, 5) == 9
    with pytest.raises(ValueError):
        product_spectrum_point(factors, 21)


def test_support_indices():
    assert support_indices([_spec(A), _spec(B)]) == sorted(rv.TABLE_AB)
    SA = _spec(A)
    empty = Spectrum(3, SA.field, SA.root, {})
    assert support_indices([empty, _spec(B)]) == []


def test_support_indices_four_factors():
    # N = 82677 is past every default field; the support needs none
    seqs = [A, B, C, D]
    factors = [_spec(s) for s in seqs]
    basis = CrtBasis([s.period for s in seqs])
    assert basis.N == 82677
    expected = [k for k in range(basis.N)
                if all(f.values[k % f.N] is not None for f in factors)]
    assert len(expected) == 2 * 3 * 5 * 7
    assert support_indices(factors) == expected


def test_product_spectrum_work_follows_the_support():
    # four single-coset factors give N = 10,845,877 in GF(2^30) but only
    # 3 * 5 * 15 * 30 = 6750 points; a dense length-N tuple alone would
    # take some 87 MB
    moduli = (7, 31, 151, 331)
    factors = [coset_expand({1: 0}, n, *default_field_for_period(n))
               for n in moduli]
    tracemalloc.start()
    try:
        S = product_spectrum(factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (S.N, S.nonzero_count()) == (10_845_877, 6750)
    assert peak < 8_000_000
    assert S.support() == support_indices(factors)
    rng = random.Random(14)
    sample = rng.sample(S.support(), 50) + [0, 1, S.N - 1] + [
        rng.randrange(S.N) for _ in range(50)]
    for k in sample:
        assert S.points.get(k) == product_spectrum_point(factors, k)


def test_factors_must_be_spectra():
    with pytest.raises(TypeError):
        support_indices([_spec(A).values, _spec(B)])


def test_factor_exponent_at_index_0_must_be_0():
    # a binary sequence sums to 0 or 1, so g^1 at index 0 is no spectrum
    s = _spec(_complement(C))
    assert s.points[0] == 0     # odd weight: S_0 = 1 = root^0
    bad = Spectrum(s.N, s.field, s.root, {**s.points, 0: 1})
    factors = [_spec(B), bad]
    with pytest.raises(ValueError, match="exponent 1 at index 0"):
        product_spectrum(factors)
    with pytest.raises(ValueError, match="exponent 1 at index 0"):
        combiner_spectrum(AnfCombiner.parse("1+1*2"), factors)


def test_reference_217_and_93():
    S_bc = product_spectrum([_spec(B), _spec(C)])
    assert {k: S_bc.values[k] for k in S_bc.support()} == rv.TABLE_BC
    S_ac = product_spectrum([_spec(A), _spec(C)])
    assert {k: S_ac.values[k] for k in S_ac.support()} == rv.TABLE_AC


def test_reference_651_triple():
    S = product_spectrum([_spec(A), _spec(B), _spec(C)])
    assert {k: S.values[k] for k in S.support()} == rv.TABLE_ABC


def test_product_spectrum_inverts_to_product_sequence():
    S = product_spectrum([_spec(A), _spec(B)])
    assert str(idft(S)) == rv.PRODUCT_AB


def test_embed_root():
    F15 = build_field(15)
    SB = _spec(B)
    r = embed_root(SB.root, F15)
    assert r.order() == 7
    assert r.field == F15
    # same field: identity
    assert embed_root(SB.root, SB.field) == SB.root
    F4 = build_field(4)
    with pytest.raises(ValueError,
                       match=r"GF\(2\^4\) has no element of order 7"):
        embed_root(SB.root, F4)    # 7 does not divide 15


def test_embed_root_into_a_larger_field_is_cheap(monkeypatch,
                                                 clear_field_caches):
    # the order-2047 root x of GF(2^11) into GF(2^22), from empty caches;
    # an evaluation at every subgroup index took 6188 mul_int calls
    root = element_of_order(build_field(11), 2047)
    F22 = build_field(22)
    calls = [0]
    mul_int = FieldSpec.mul_int

    def counted(self, a, b):
        calls[0] += 1
        return mul_int(self, a, b)
    monkeypatch.setattr(FieldSpec, "mul_int", counted)
    clear_field_caches()
    r = embed_root(root, F22)
    assert 0 < calls[0] <= 6188 // 2
    assert r.order() == 2047


def test_cached_embed_root_returns_the_callers_field(clear_field_caches):
    clear_field_caches()
    F15 = build_field(15)
    SB = _spec(B)
    plain = embed_root(SB.root, F15)
    cf = CountingField(F15, OpCounter())
    r = embed_root(SB.root, cf)    # a cache hit
    assert r.field is cf
    assert r.bits == plain.bits
    assert cf.counter.mul_count == 0


def test_aligned_product_root_is_product_of_embeds():
    F6 = build_field(6)
    SA, SB = _spec(A), _spec(B)
    lam = aligned_product_root([SA.root, SB.root], F6)
    assert lam == embed_root(SA.root, F6) * embed_root(SB.root, F6)
    assert lam.order() == 21


def test_combiner_term_supports_reference():
    f = AnfCombiner.parse(rv.COMBINER_ANF)
    lifts = combiner_term_supports(f, [_spec(A), _spec(B), _spec(C)])
    ab = frozenset((1, 2))
    assert lifts[ab] == rv.LIFT_AB_651
    sets = [set(v) for v in lifts.values()]
    assert sum(len(x) for x in sets) == len(set().union(*sets)) == 31


def test_combiner_spectrum_reference():
    f = AnfCombiner.parse(rv.COMBINER_ANF)
    factors = [_spec(A), _spec(B), _spec(C)]
    S = combiner_spectrum(f, factors)
    assert S.nonzero_count() == 31
    # spectrum inverts to the combiner keystream itself
    w = combiner_stream(f, [A, B, C])
    assert idft(S) == w


def test_combiner_cancellation_gives_zero_spectrum():
    f = AnfCombiner.parse("1*2+1*2", n_vars=2)
    S = combiner_spectrum(f, [_spec(A), _spec(B)])
    assert S.nonzero_count() == 0


def test_single_monomial_combiner_reduces_to_product():
    # f(x1,x2) = x1x2 over exactly its own variables: identical data
    f = AnfCombiner.parse("1*2")
    factors = [_spec(B), _spec(C)]
    S1 = combiner_spectrum(f, factors)
    assert S1 == product_spectrum(factors)


def test_combiner_arity_and_moduli_checks():
    f = AnfCombiner.parse(rv.COMBINER_ANF)
    with pytest.raises(ValueError):
        combiner_spectrum(f, [_spec(A), _spec(B)])
    with pytest.raises(ValueError, match="share factor"):
        combiner_spectrum(f, [_spec(A), _spec(B), _spec(A)])


def _combiner_or_error(f, seqs):
    try:
        return combiner_spectrum(f, [_spec(s) for s in seqs])
    except ValueError as e:
        return e


def _oracle_or_error(f, seqs):
    N = 1
    for s in seqs:
        N *= s.period
    field = build_field(multiplicative_order_of_2(N))
    root = aligned_product_root([_spec(s).root for s in seqs], field)
    w = combiner_stream(f, list(seqs))
    try:
        return brute_dft(BitSequence(tuple(w.bit(t) for t in range(N))),
                         field, root)
    except ValueError as e:
        return e


@pytest.mark.parametrize("anf,seqs", [
    ("1+1*2", (B, C)), ("1+2+1*2", (B, C)), ("1*2", (B, C)),
    ("1+1*2", (B, _complement(C))), ("1+2+1*2", (B, _complement(C))),
    ("1*2", (B, _complement(C))),
    ("1*2+2*3+1*3", (A, B, C)), ("1*2+2*3+1*3", (A, B, _complement(C))),
])
def test_combiner_spectrum_matches_oracle(anf, seqs):
    f = AnfCombiner.parse(anf, n_vars=len(seqs))
    got, ref = _combiner_or_error(f, seqs), _oracle_or_error(f, seqs)
    if isinstance(ref, ValueError):
        assert isinstance(got, ValueError)
    else:
        assert got == ref


def test_complemented_input_overlaps_term_supports():
    # ~C is nonzero at index 0, so x1 and x1x2 share the indices k = 0
    # mod 31, where their equal terms cancel
    seqs = (B, _complement(C))
    f = AnfCombiner.parse("1+1*2")
    lifts = combiner_term_supports(f, [_spec(s) for s in seqs])
    x1, x1x2 = lifts[frozenset((1,))], lifts[frozenset((1, 2))]
    assert set(x1) & set(x1x2)
    S = _combiner_or_error(f, seqs)
    assert S == _oracle_or_error(f, seqs)
    assert S.nonzero_count() == 15


def test_combiner_costs_what_a_product_costs(monkeypatch, clear_field_caches):
    # the combiner's only field work is the shared root, as the product's;
    # both calls start from empty field and root-image caches
    factors = [_spec(C), _spec(E)]
    f = AnfCombiner.parse("1+2+1*2")
    calls = [0]
    mul_int = FieldSpec.mul_int

    def counted(self, a, b):
        calls[0] += 1
        return mul_int(self, a, b)
    monkeypatch.setattr(FieldSpec, "mul_int", counted)
    clear_field_caches()
    product_spectrum(factors)
    product_calls, calls[0] = calls[0], 0
    clear_field_caches()
    S = combiner_spectrum(f, factors)
    assert calls[0] == product_calls > 0
    assert S.nonzero_count() == 5 + 6 + 5 * 6   # disjoint term supports

