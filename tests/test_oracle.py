import random
from math import gcd

import pytest

from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import build_field, default_modulus
from crtspectra.oracle import (Mismatch, brute_dft, compare_spectra,
                               verify_theorem1)
from crtspectra.sequences import (BitSequence, Lfsr, lfsr_stream,
                                  pointwise_product)
from crtspectra.spectral import Spectrum, default_field_for_period, dft, idft

import reference_values as rv

A = BitSequence.from_string(rv.STREAM_A)
B = BitSequence.from_string(rv.STREAM_B)
C = BitSequence.from_string(rv.STREAM_C)


def test_mismatch_invariant():
    with pytest.raises(ValueError):
        Mismatch(3, 5, 5)
    mm = Mismatch(3, 5, None)
    assert mm.index == 3


def test_brute_dft_equals_fast_dft():
    for s in (A, B, C, pointwise_product(A, B)):
        fld, root = default_field_for_period(s.period)
        assert brute_dft(s, fld, root) == dft(s, fld, root)


def test_brute_dft_constant_one():
    fld, root = default_field_for_period(1)
    S = brute_dft(BitSequence.from_string("1"), fld, root)
    assert S.points == {0: 0}   # S_0 = 1 = root^0


def test_brute_dft_rejects_order_mismatch():
    fld, root = default_field_for_period(21)
    with pytest.raises(ValueError):
        brute_dft(B, fld, root)    # root order 21, period 7


def test_compare_spectra_reports_tampering():
    fld, root = default_field_for_period(21)
    S = dft(pointwise_product(A, B), fld, root)
    assert compare_spectra(S, S) == []
    points = dict(S.points)
    del points[5]
    points[13] = (points[13] + 3) % 21
    T = Spectrum(21, fld, root, points)
    found = compare_spectra(S, T)
    assert [(m.index, m.expected, m.actual) for m in found] == [
        (5, 9, None), (13, 15, 18)]


def test_compare_spectra_rejects_different_conventions():
    fld, root = default_field_for_period(21)
    S = dft(pointwise_product(A, B), fld, root)
    fld7, root7 = default_field_for_period(7)
    SB = dft(B, fld7, root7)
    with pytest.raises(ValueError):
        compare_spectra(S, SB)


def test_verify_theorem1_worked_pairs():
    rep = verify_theorem1([rv.LFSR_A, rv.LFSR_B])
    assert rep.ok
    assert rep.summary() == ("PASS N=21 moduli=[3, 7] points=6/6 L=6 "
                             "blahut=ok conjugacy=ok mismatches=0")
    rep2 = verify_theorem1([rv.LFSR_B, rv.LFSR_C])
    assert rep2.ok
    assert rep2.N == 217 and rep2.support_size == 15
    assert rep2.linear_complexity == 15


def test_verify_theorem1_single_lfsr_vacuous():
    rep = verify_theorem1([rv.LFSR_B])
    assert rep.ok and rep.N == 7


def test_verify_theorem1_rejects_shared_period_factor():
    with pytest.raises(ValueError) as e:
        verify_theorem1([(0xB, 0b1), (0xB, 0b11)])
    assert "7" in str(e.value)


def test_verify_theorem1_respects_bound():
    with pytest.raises(ValueError):
        verify_theorem1([rv.LFSR_A, rv.LFSR_B], bound=10)


def _textbook_gfmul(a, b, modulus, m):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    while r and r.bit_length() - 1 >= m:
        r ^= modulus << (r.bit_length() - 1 - m)
    return r


def _textbook_dft(s, field, root):
    """The double loop: a shift-xor walk over the powers of the root, then
    every S_k summed over the ones of s."""
    N = s.period
    modulus, m = field.modulus, field.m
    pw = [1]
    cur = _textbook_gfmul(1, root.bits, modulus, m)
    while cur != 1:
        pw.append(cur)
        cur = _textbook_gfmul(cur, root.bits, modulus, m)
        if len(pw) > field.group_order:
            raise ArithmeticError("power walk failed to cycle")
    if len(pw) != N:
        raise ValueError(f"root order {len(pw)} != sequence period {N}")
    dlog = {bits: d for d, bits in enumerate(pw)}
    ones = [t for t, bit in enumerate(s.bits) if bit]
    points = {}
    for k in range(N):
        acc = 0
        for t in ones:
            acc ^= pw[(t * k) % N]
        if acc:
            d = dlog.get(acc)
            if d is None:
                raise ValueError(
                    f"spectral value at k={k} lies outside the cyclic group"
                    " of the root; no log-form spectrum over this root")
            points[k] = d
    return Spectrum(N, field, root, points)


def _outcome(transform, s, fld, root):
    try:
        return transform(s, fld, root)
    except ValueError as e:
        return f"ValueError: {e}"


def _mseq_product(*degrees):
    u = None
    for n in degrees:
        s = lfsr_stream(Lfsr(default_modulus(n), 1), (1 << n) - 1)
        u = s if u is None else pointwise_product(u, s)
    return u


# m-sequences and products of them whose period divides one of the N below
_TILES = [_mseq_product(*d) for d in ((2,), (3,), (4,), (6,), (2, 3), (3, 4))]


@pytest.mark.parametrize("N", [1, 7, 9, 21, 63, 315, 455, 585, 819])
def test_brute_dft_matches_textbook_double_loop(N, random_log_spectrum):
    fld, root = default_field_for_period(N)
    rng = random.Random(5000 + N)
    seqs = [BitSequence(tuple(rng.randrange(2) for _ in range(N)))
            for _ in range(3)]
    # an odd number of copies of a shorter period keeps its log form
    seqs += [BitSequence(u.bits * (N // u.period))
             for u in _TILES if N % u.period == 0]
    if N > 1:
        seqs.append(idft(random_log_spectrum(fld, root, rng)))
    v = rng.randrange(2, N) if N > 2 else 1
    while gcd(v, N) != 1:
        v += 1
    roots = [root, root ** v] + [root ** d for d in range(2, N + 1)
                                 if N % d == 0]
    for r in roots:
        for s in seqs:
            assert (_outcome(brute_dft, s, fld, r)
                    == _outcome(_textbook_dft, s, fld, r))


def test_brute_dft_matches_textbook_double_loop_on_wide_fields():
    # GF(2^8) fills one whole byte table, GF(2^28) four of them
    for degrees in ((8,), (4, 7)):
        u = _mseq_product(*degrees)
        fld, root = default_field_for_period(u.period)
        assert brute_dft(u, fld, root) == _textbook_dft(u, fld, root)
