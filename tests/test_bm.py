import random

import pytest

from crtspectra.bm import berlekamp_massey, BmResult, regenerate
from crtspectra.sequences import BitSequence, Lfsr, lfsr_stream, pointwise_product

import reference_values as rv


def _product_bits(x, y, n):
    a = BitSequence.from_string(x)
    b = BitSequence.from_string(y)
    u = pointwise_product(a, b)
    return [u.bit(t) for t in range(n)]


def test_reference_product_ab():
    r = berlekamp_massey(_product_bits(rv.STREAM_A, rv.STREAM_B, 42))
    assert r.linear_complexity == 6
    assert r.minimal_poly == rv.G_AB


def test_reference_product_bc():
    r = berlekamp_massey(_product_bits(rv.STREAM_B, rv.STREAM_C, 434))
    assert r.linear_complexity == 15
    assert r.minimal_poly == rv.G_BC


def test_reference_product_ac():
    r = berlekamp_massey(_product_bits(rv.STREAM_A, rv.STREAM_C, 186))
    assert r.linear_complexity == 10
    assert r.minimal_poly == rv.G_AC


def test_all_zero():
    r = berlekamp_massey([0] * 16)
    assert r.linear_complexity == 0
    assert r.minimal_poly == 1


def test_result_invariant():
    with pytest.raises(ValueError):
        BmResult(3, 0x3)    # degree 1 polynomial cannot claim L = 3


def test_lfsr_output_recovers_register_length():
    rng = random.Random(31)
    # primitive connections of a few degrees; nonzero seeds
    for conn in (0x7, 0xB, 0xD, 0x19, 0x25):
        m = conn.bit_length() - 1
        seed = rng.randrange(1, 1 << m)
        bits = list(lfsr_stream(Lfsr(conn, seed), 4 * m))
        r = berlekamp_massey(bits)
        assert r.linear_complexity == m
        assert regenerate(r, bits[:m], 4 * m) == bits


def test_regenerate_zero_complexity():
    r = berlekamp_massey([0, 0, 0, 0])
    assert regenerate(r, [], 6) == [0] * 6


def test_regenerate_needs_exactly_l_seed_bits():
    r = berlekamp_massey(_product_bits(rv.STREAM_A, rv.STREAM_B, 42))
    with pytest.raises(ValueError):
        regenerate(r, [0] * 5, 21)


def test_combiner_regeneration_full_period():
    seqs = [BitSequence.from_string(x)
            for x in (rv.STREAM_A, rv.STREAM_B, rv.STREAM_C)]
    from crtspectra.sequences import AnfCombiner, combiner_stream
    s = combiner_stream(AnfCombiner.parse(rv.COMBINER_ANF), seqs)
    bits = [s.bit(t) for t in range(1302)]
    r = berlekamp_massey(bits)
    assert r.linear_complexity == 31
    assert r.minimal_poly == rv.G_COMBINER
    assert regenerate(r, bits[:31], 651) == bits[:651]


def test_random_short_sequences_regenerate():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randrange(2, 40)
        bits = [rng.randrange(2) for _ in range(n)]
        r = berlekamp_massey(bits)
        assert r.linear_complexity <= n
        if r.linear_complexity * 2 <= n:
            # enough data for the profile to be trustworthy end to end
            assert regenerate(r, bits[:r.linear_complexity], n) == bits


def _textbook_bm(s):
    """The O(n L) loop: discrepancy summed tap by tap, then the forward
    connection polynomial x^L C(1/x)."""
    C, B = 1, 1
    L, m = 0, 1
    for n, sn in enumerate(s):
        d = sn
        for i in range(1, L + 1):
            d ^= ((C >> i) & 1) & s[n - i]
        if d == 0:
            m += 1
        elif 2 * L <= n:
            C, B = C ^ (B << m), C
            L = n + 1 - L
            m = 1
        else:
            C ^= B << m
            m += 1
    f = 0
    for j in range(L + 1):
        f |= ((C >> (L - j)) & 1) << j
    return L, f


def _answer(s):
    r = berlekamp_massey(s)
    return r.linear_complexity, r.minimal_poly


def test_matches_textbook_loop_on_random_strings():
    rng = random.Random(41)
    for density in (0.1, 0.5, 0.9):
        for n in range(1, 401):
            bits = [int(rng.random() < density) for _ in range(n)]
            assert _answer(bits) == _textbook_bm(bits), (density, bits)


def test_matches_textbook_loop_on_extreme_strings():
    for n in (1, 2, 3, 17, 64, 400):
        zeros = [0] * n
        assert _answer(zeros) == _textbook_bm(zeros) == (0, 1)
        last_one = [0] * (n - 1) + [1]
        assert _answer(last_one) == _textbook_bm(last_one)
        assert _answer(last_one)[0] == n


def test_four_register_product_complexity_is_product_of_degrees():
    # m-sequences of degrees 2, 3, 5 and 7 have pairwise coprime periods
    # 3, 7, 31 and 127; their product stream has period N = 82677 and
    # linear complexity 2*3*5*7 = 210 (Key, IEEE T-IT 22(6), 1976)
    streams = [lfsr_stream(Lfsr(conn, 1), (1 << m) - 1)
               for conn, m in ((0x7, 2), (0xB, 3), (0x25, 5), (0x83, 7))]
    u = streams[0]
    for s in streams[1:]:
        u = pointwise_product(u, s)
    assert u.period == 82677
    r = berlekamp_massey(list(u.bits) * 2)
    assert r.linear_complexity == 210
