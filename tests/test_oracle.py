import random
from math import gcd

import pytest

from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import build_field, default_modulus
import crtspectra.oracle as oracle
from crtspectra.oracle import (Mismatch, brute_dft, compare_spectra,
                               inverse_matches, verify_theorem1)
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
    S = dft(pointwise_product(A, B), fld, root)
    for check in (lambda: brute_dft(B, fld, root),
                  lambda: inverse_matches(S, B)):
        with pytest.raises(ValueError) as e:
            check()     # root order 21, period 7
        assert str(e.value) == "root order 21 != sequence period 7"


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


def _seeded_product(degrees, rng):
    """A product of m-sequences of the given degrees from random nonzero
    seeds, with its CRT product spectrum."""
    streams = [lfsr_stream(Lfsr(default_modulus(n), rng.randrange(1, 1 << n)),
                           (1 << n) - 1) for n in degrees]
    factors = [dft(s, *default_field_for_period(s.period)) for s in streams]
    S = product_spectrum(factors, CrtBasis([s.period for s in streams]))
    u = streams[0]
    for s in streams[1:]:
        u = pointwise_product(u, s)
    return u, S


def _one_change_each(S, rng):
    """S after each kind of single change: a zero <-> g^0 toggle, an
    exponent + 1, a deleted point and an added point."""
    N, pts = S.N, S.points
    support = sorted(pts)
    zeros = [k for k in range(N) if k not in pts]
    toggle = rng.randrange(N)
    bumped, deleted = rng.choice(support), rng.choice(support)
    added = rng.choice(zeros)
    changes = [
        {k: pts.get(k, 0) for k in pts.keys() ^ {toggle}},
        {**pts, bumped: (pts[bumped] + 1) % N},
        {k: d for k, d in pts.items() if k != deleted},
        {**pts, added: rng.randrange(N)},
    ]
    return [Spectrum(N, S.field, S.root, c) for c in changes]


@pytest.mark.parametrize("degrees", [(2, 3), (3, 5), (2, 3, 5), (4, 7)])
def test_inverse_matches_agrees_with_brute_dft_on_products(degrees):
    # periods 3*7, 7*31, 3*7*31 and 15*127
    rng = random.Random(sum(degrees))
    for _ in range(2):
        u, S = _seeded_product(degrees, rng)
        ref = brute_dft(u, S.field, S.root)
        assert inverse_matches(S, u)
        assert compare_spectra(ref, S) == []
        for T in _one_change_each(S, rng):
            assert compare_spectra(ref, T) != []
            assert not inverse_matches(T, u)


@pytest.mark.parametrize("N", [7, 21, 63, 315])
def test_inverse_matches_agrees_with_brute_dft_on_random_spectra(
        N, random_log_spectrum):
    fld, root = default_field_for_period(N)
    rng = random.Random(7000 + N)
    spectra = [random_log_spectrum(fld, root, rng) for _ in range(4)]
    seqs = [idft(S) for S in spectra]
    for S in spectra:
        for s in seqs:
            same = compare_spectra(brute_dft(s, fld, root), S) == []
            assert inverse_matches(S, s) == same
    assert all(inverse_matches(S, s) for S, s in zip(spectra, seqs))


def test_inverse_matches_refuses_a_non_binary_inverse():
    # S_1 = 1 alone inverts to s_t = root^(-t), which is not a bit; the
    # sequence of its low bits agrees with it in bit 0 at every t
    fld, root = default_field_for_period(31)
    S = Spectrum(31, fld, root, {1: 0})
    low = BitSequence(tuple((root ** (-t % 31)).bits & 1 for t in range(31)))
    assert not inverse_matches(S, low)
    assert compare_spectra(brute_dft(low, fld, root), S) != []


def _counting_brute_dft(monkeypatch):
    calls = []
    real = oracle.brute_dft

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(oracle, "brute_dft", counted)
    return calls


def test_verify_theorem1_runs_brute_dft_only_on_failure(monkeypatch):
    calls = _counting_brute_dft(monkeypatch)
    assert verify_theorem1([rv.LFSR_B, rv.LFSR_C]).ok
    assert len(calls) == 0
    rep = verify_theorem1([rv.LFSR_B, rv.LFSR_C], tamper_index=5)
    assert len(calls) == 1
    assert not rep.ok and [m.index for m in rep.mismatches] == [5]


def test_verify_theorem1_forced_brute_path_gives_the_same_report(
        monkeypatch):
    rng = random.Random(16)
    runs = []
    # some tuples list the longer period first
    for degrees in [(2, 3), (4, 3), (5, 2), (3, 5), (5, 2, 3), (2, 7)] * 4:
        runs.append([(default_modulus(n), rng.randrange(1, 1 << n))
                     for n in degrees])
    normal = [verify_theorem1(run) for run in runs]
    calls = _counting_brute_dft(monkeypatch)
    monkeypatch.setattr(oracle, "inverse_matches", lambda S, s: False)
    forced = [verify_theorem1(run) for run in runs]
    assert len(calls) == len(runs) >= 20
    assert all(rep.ok for rep in normal)
    assert forced == normal
