import random
from math import gcd, prod

import pytest

from crtspectra.bm import berlekamp_massey
from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import build_field, default_modulus, discrete_log
import crtspectra.oracle as oracle
from crtspectra.oracle import (Mismatch, brute_dft, compare_spectra,
                               coset_window_matches, inverse_matches,
                               verify_theorem1)
from crtspectra.sequences import (BitSequence, Lfsr, lfsr_stream,
                                  pointwise_product, sequence_period)
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
                  lambda: inverse_matches(S, B, 7),
                  lambda: coset_window_matches(S, B.bits, 7, 7)):
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


@pytest.mark.filterwarnings("ignore:zero seed")
def test_one_period_is_the_least_period():
    # every register Lfsr accepts up to degree 6, reducible connections such
    # as x^3+1 and x^4+1 included, from every seed
    for deg in range(1, 7):
        for middle in range(1 << (deg - 1)):
            conn = (1 << deg) | (middle << 1) | 1
            for seed in range(1 << deg):
                out = oracle._one_period(conn, seed, 1000)
                assert out.period == sequence_period(out)


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


def _odd_period_cases(N, random_log_spectrum):
    """Sequences of period N (random ones, tiles of shorter periods and
    inverses of random log-form spectra) and the roots to transform them
    over: two of order N and one of each smaller order d | N."""
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
    return fld, seqs, roots


@pytest.mark.parametrize("N", [1, 7, 9, 21, 63, 315, 455, 585, 819])
def test_brute_dft_matches_textbook_double_loop(N, random_log_spectrum):
    fld, seqs, roots = _odd_period_cases(N, random_log_spectrum)
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


@pytest.mark.parametrize("degrees",
                         [(2, 3), (3, 5), (2, 3, 5), (4, 7), (5, 6)])
def test_inverse_matches_agrees_with_brute_dft_on_products(degrees):
    # periods 3*7, 7*31, 3*7*31, 15*127 and 31*63; the window of
    # |A| + B bits, B the product of the register lengths, gives the
    # verdict of the full period and of brute_dft on every claim
    rng = random.Random(sum(degrees))
    B = prod(degrees)
    for _ in range(2):
        u, S = _seeded_product(degrees, rng)
        ref = brute_dft(u, S.field, S.root)
        assert inverse_matches(S, u, B) and inverse_matches(S, u, u.period)
        assert compare_spectra(ref, S) == []
        for T in _one_change_each(S, rng):
            assert compare_spectra(ref, T) != []
            assert not inverse_matches(T, u, B)
            assert not inverse_matches(T, u, u.period)


@pytest.mark.parametrize("N", [7, 21, 63, 315])
def test_inverse_matches_agrees_with_brute_dft_on_random_spectra(
        N, random_log_spectrum):
    fld, root = default_field_for_period(N)
    rng = random.Random(7000 + N)
    spectra = [random_log_spectrum(fld, root, rng) for _ in range(4)]
    seqs = [idft(S) for S in spectra]
    # idft(S) has linear complexity |S.points|, its exact bound
    for S in spectra:
        for s, Ss in zip(seqs, spectra):
            same = compare_spectra(brute_dft(s, fld, root), S) == []
            assert inverse_matches(S, s, len(Ss.points)) == same
            assert inverse_matches(S, s, N) == same
    assert all(inverse_matches(S, s, len(S.points))
               for S, s in zip(spectra, seqs))


def test_inverse_matches_refuses_a_non_binary_inverse():
    # S_1 = 1 alone inverts to s_t = root^(-t), which is not a bit; the
    # sequence of its low bits agrees with it in bit 0 at every t. That
    # bit is GF(2)-linear in root^(-t), so its linear complexity is <= m
    fld, root = default_field_for_period(31)
    S = Spectrum(31, fld, root, {1: 0})
    low = BitSequence(tuple((root ** (-t % 31)).bits & 1 for t in range(31)))
    assert not inverse_matches(S, low, fld.m)
    assert not inverse_matches(S, low, 31)
    assert not coset_window_matches(S, low.bits, 31, fld.m)
    assert compare_spectra(brute_dft(low, fld, root), S) != []


def _counting(monkeypatch, name):
    calls = []
    real = getattr(oracle, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_verify_theorem1_lists_mismatches_without_a_full_transform(
        monkeypatch):
    calls = _counting(monkeypatch, "brute_dft")
    assert verify_theorem1([rv.LFSR_B, rv.LFSR_C]).ok
    assert len(calls) == 0
    rep = verify_theorem1([rv.LFSR_B, rv.LFSR_C], tamper_index=5)
    assert len(calls) == 0
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
    calls = _counting(monkeypatch, "brute_dft")
    monkeypatch.setattr(oracle, "coset_window_matches",
                        lambda S, bits, N, lc: False)
    forced = [verify_theorem1(run) for run in runs]
    assert len(calls) == len(runs) >= 20
    assert all(rep.ok for rep in normal)
    assert forced == normal


def test_inverse_matches_window_reaches_past_the_longest_zero_run():
    # v, an m-sequence of register length 5 rotated so that its run of 4
    # zeros starts at t = 0, against the empty claim S + spectrum(v) with
    # S = spectrum(v): the difference is v, so only a window of 0 + 5 bits
    # sees it
    v = lfsr_stream(Lfsr(default_modulus(5), 1), 31).bits
    t0 = "".join(map(str, v * 2)).index("0000")
    v = BitSequence(v[t0:] + v[:t0])
    assert v.bits[:5] == (0, 0, 0, 0, 1)
    fld, root = default_field_for_period(31)
    assert len(brute_dft(v, fld, root).points) == 5     # its complexity
    none = Spectrum(31, fld, root, {})
    assert not inverse_matches(none, v, 5)
    assert inverse_matches(none, v, 4)      # the window ends in the run
    # the same v as a factor-period term of the 7*31 product: S' = S +
    # spectrum(v) is the spectrum of u xor v, which differs from u first
    # at t = 4
    u, S = _seeded_product((3, 5), random.Random(17))
    uv = BitSequence(tuple(map(int.__xor__, u.bits, v.bits * 7)))
    S2 = brute_dft(uv, S.field, S.root)
    assert not inverse_matches(S2, u, 15)
    assert compare_spectra(brute_dft(u, S.field, S.root), S2) != []


def test_inverse_matches_window_is_needed_to_its_last_bit():
    # a claim whose inverse equals the all-ones stream (register length
    # B = 1) at t < |A'| and differs at t = |A'| = |A'| + B - 1. For
    # distinct nodes x_k, c_k = 1 / prod_{j != k} (x_k + x_j) gives
    # sum_k c_k x_k^t = 0 for t < L - 1 and != 0 at t = L - 1; with
    # x_k = root^(-k) over a support D of size L holding 0, scaled to
    # c_0 = 1, the claim S' = c on D \ {0} inverts to 1 + sum_k c_k x_k^t
    ones = lfsr_stream(Lfsr(0x3, 1), 31)
    fld, root = default_field_for_period(31)
    D = [0, 1, 3, 5, 11, 15, 21]
    x = {k: root ** (-k % 31) for k in D}
    c = {}
    for k in D:
        den = fld.one
        for j in D:
            if j != k:
                den = den * (x[k] + x[j])
        c[k] = den.inverse()
    c0 = c[0].inverse()
    claim = Spectrum(31, fld, root, {
        k: discrete_log(c[k] * c0, root, 31) for k in D if k})
    W = len(claim.points) + 1
    assert W == len(D)
    assert not inverse_matches(claim, ones, 1)
    assert inverse_matches(claim, ones, 0)          # W - 1 bits agree
    assert compare_spectra(brute_dft(ones, fld, root), claim) != []


def test_verify_theorem1_gives_bm_only_the_bits_its_bound_needs(monkeypatch):
    # 31*63: B = 5 * 6 = 30, so BM reads 60 bits, not 2N = 3906
    run = [(0x25, 0x1), (0x43, 0x1)]
    bm_calls = _counting(monkeypatch, "berlekamp_massey")
    brute_calls = _counting(monkeypatch, "brute_dft")
    rep = verify_theorem1(run)
    assert rep.ok and rep.N == 1953 and rep.linear_complexity == 30
    assert [len(bits) for bits, in bm_calls] == [60]
    assert brute_calls == []
    rep = verify_theorem1(run, tamper_index=193)
    assert not rep.ok and [m.index for m in rep.mismatches] == [193]
    assert len(brute_calls) == 0
    assert len(bm_calls[1][0]) == 60


@pytest.mark.filterwarnings("ignore:zero seed")
@pytest.mark.parametrize("run, summary", [
    ([(0x7, 0x1)], "PASS N=3 moduli=[3] points=2/2 L=2"),
    ([(0x25, 0x9)], "PASS N=31 moduli=[31] points=5/5 L=5"),
    ([(0x13, 0x3)], "PASS N=15 moduli=[15] points=4/4 L=4"),
    ([(0xb, 0x0), (0x7, 0x1)], "PASS N=3 moduli=[1, 3] points=0/0 L=0"),
    ([(0x25, 0x0)], "PASS N=1 moduli=[1] points=0/0 L=0"),
    ([(0x3, 0x1), (0xb, 0x5)], "PASS N=7 moduli=[1, 7] points=3/3 L=3"),
])
def test_verify_theorem1_window_matches_the_full_period_report(
        monkeypatch, run, summary):
    # single registers, zero seeds and a period-1 register: the window
    # decides as the whole period does, and BM still finds the exact L
    window = verify_theorem1(run)
    # u over the whole product period, which pointwise_product would
    # minimize
    u = BitSequence((1,))
    for conn, seed in run:
        s = oracle._one_period(conn, seed, 10 ** 5)
        u = BitSequence(tuple(a & b for a, b in zip(u.bits * s.period,
                                                    s.bits * u.period)))
    monkeypatch.setattr(oracle, "coset_window_matches",
                        lambda S, bits, N, lc: inverse_matches(S, u, N))
    full = verify_theorem1(run)
    assert window == full
    assert window.summary() == (summary + " blahut=ok conjugacy=ok"
                                " mismatches=0")


def _claim_reports(run, claims):
    """verify_theorem1's report on run when the CRT product spectrum it
    checks is each of the claims in turn."""
    reports = []
    for T in claims:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "product_spectrum", lambda factors, basis: T)
            reports.append(verify_theorem1(run))
    return reports


def _lister_forced_to_brute_dft(monkeypatch):
    monkeypatch.setattr(oracle, "_listed_dft",
                        lambda s, fld, root, f: oracle.brute_dft(s, fld, root))


_PRODUCT_DEGREES = [(2, 3), (3, 5), (2, 3, 5), (4, 7), (5, 6)]


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_verify_theorem1_lister_names_what_brute_dft_names(
        monkeypatch, degrees):
    # periods 3*7, 7*31, 3*7*31, 15*127 and 31*63; every kind of single
    # change to the claim, and tamper_index=0, gives the report that the
    # full transform of the product gives, with no full transform
    rng = random.Random(300 + sum(degrees))
    run = [(default_modulus(n), rng.randrange(1, 1 << n)) for n in degrees]
    streams = [oracle._one_period(conn, seed, 10 ** 5) for conn, seed in run]
    factors = [dft(s, *default_field_for_period(s.period)) for s in streams]
    S = product_spectrum(factors, CrtBasis([s.period for s in streams]))
    claims = _one_change_each(S, rng)
    calls = _counting(monkeypatch, "brute_dft")
    listed = [verify_theorem1(run, tamper_index=0)] + _claim_reports(
        run, claims)
    assert calls == []
    _lister_forced_to_brute_dft(monkeypatch)
    forced = [verify_theorem1(run, tamper_index=0)] + _claim_reports(
        run, claims)
    assert len(calls) == len(forced) == 5
    assert not any(rep.ok for rep in listed)
    assert listed == forced


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_screen_finds_exactly_the_support(degrees):
    rng = random.Random(400 + sum(degrees))
    for _ in range(2):
        u, S = _seeded_product(degrees, rng)
        bits = (list(u.bits) * 2)[:2 * min(prod(degrees), u.period)]
        f = berlekamp_massey(bits).minimal_poly
        pw = oracle._power_walk(S.field, S.root, u.period)
        assert oracle._screen(pw, f) == sorted(
            brute_dft(u, S.field, S.root).points)


@pytest.mark.parametrize("N", [1, 7, 9, 21, 63, 315, 455])
def test_listed_dft_matches_brute_dft_on_odd_periods(N, random_log_spectrum):
    # given the minimal polynomial from 2N bits, the same spectrum or the
    # same error, "outside the cyclic group" at the same first k included
    fld, seqs, roots = _odd_period_cases(N, random_log_spectrum)
    outcomes = []
    for s in seqs:
        f = berlekamp_massey(s.bits * 2).minimal_poly

        def listed(s, fld, r):
            return oracle._listed_dft(s, fld, r, f)
        for r in roots:
            outcomes.append(_outcome(brute_dft, s, fld, r))
            assert _outcome(listed, s, fld, r) == outcomes[-1]
    if N < fld.group_order:
        assert any("outside the cyclic group" in str(o) for o in outcomes)


_SMALL_RUNS = [
    [(0x7, 0x1)], [(0x25, 0x9)], [(0x13, 0x3)], [(0xb, 0x0), (0x7, 0x1)],
    [(0x25, 0x0)], [(0x3, 0x1), (0xb, 0x5)]]


@pytest.mark.filterwarnings("ignore:zero seed")
@pytest.mark.parametrize("run", _SMALL_RUNS)
def test_verify_theorem1_lister_on_single_zero_seed_and_period_1_runs(
        monkeypatch, run):
    N = verify_theorem1(run).N
    tampers = sorted({0, N // 2, N - 1})
    listed = [verify_theorem1(run, tamper_index=t) for t in tampers]
    assert [[m.index for m in rep.mismatches] for rep in listed] == [
        [t] for t in tampers]
    _lister_forced_to_brute_dft(monkeypatch)
    assert [verify_theorem1(run, tamper_index=t) for t in tampers] == listed


def test_verify_theorem1_falls_back_to_brute_dft_when_the_screen_misses(
        monkeypatch):
    run = [(0x25, 0x1), (0x43, 0x1)]
    expected = verify_theorem1(run, tamper_index=193)
    real_screen, real_window = oracle._screen, oracle.coset_window_matches
    # the screen loses the least index of the true support
    monkeypatch.setattr(oracle, "_screen",
                        lambda pw, f: real_screen(pw, f)[1:])
    verdicts = []

    def window(S, bits, N, lc_bound):
        verdicts.append(real_window(S, bits, N, lc_bound))
        return verdicts[-1]
    monkeypatch.setattr(oracle, "coset_window_matches", window)
    calls = _counting(monkeypatch, "brute_dft")
    assert verify_theorem1(run, tamper_index=193) == expected
    # the claim fails the window, and so does the screened spectrum
    assert verdicts == [False, False]
    assert len(calls) == 1
    assert [m.index for m in expected.mismatches] == [193]


def _shifted(S, j):
    """The claim S_k root^(jk): the spectrum of the sequence delayed by j,
    conjugate-consistent whenever S is."""
    return Spectrum(S.N, S.field, S.root,
                    {k: (d + j * k) % S.N for k, d in S.points.items()})


def _window_verdict(T, s, lc_bound):
    """coset_window_matches given only the bits its window reads."""
    window = min(s.period, len(T.points) + lc_bound)
    return coset_window_matches(T, s.bits[:window], s.period, lc_bound)


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_coset_window_matches_agrees_with_inverse_matches_on_products(
        degrees):
    # every single change to the claim, time-shifted claims (which reach
    # the coset loop) and single changes to those
    rng = random.Random(500 + sum(degrees))
    B = prod(degrees)
    for _ in range(2):
        u, S = _seeded_product(degrees, rng)
        N = u.period
        shifted = [_shifted(S, j)
                   for j in (1, 2, N - 1, rng.randrange(3, N - 1))]
        claims = [S] + _one_change_each(S, rng) + shifted
        claims += _one_change_each(shifted[0], rng)
        for T in claims:
            for lc in (B, N):
                assert _window_verdict(T, u, lc) == inverse_matches(T, u, lc)
        assert _window_verdict(S, u, B)
        assert not any(_window_verdict(T, u, B) for T in shifted)


@pytest.mark.parametrize("N", [7, 21, 63, 315])
def test_coset_window_matches_agrees_with_inverse_matches_on_random_spectra(
        N, random_log_spectrum):
    # conjugate-consistent claims get inverse_matches' verdict at any
    # lc_bound, one too short for the sequence included
    fld, root = default_field_for_period(N)
    rng = random.Random(7100 + N)
    spectra = [random_log_spectrum(fld, root, rng) for _ in range(4)]
    seqs = [idft(S) for S in spectra]
    for S in spectra:
        for s in seqs:
            for lc in (0, 1, len(S.points), N):
                assert _window_verdict(S, s, lc) == inverse_matches(S, s, lc)


def test_coset_window_matches_rejects_a_divisor_order_and_a_short_window():
    # root^63 = 1 but root^(63/3) = 1 too; and 6 + 7 bits are needed
    fld, root = default_field_for_period(21)
    u = pointwise_product(A, B)
    S = dft(u, fld, root)
    with pytest.raises(ValueError) as e:
        coset_window_matches(S, u.bits * 3, 63, 7)
    assert str(e.value) == "root order 21 != sequence period 63"
    with pytest.raises(ValueError) as e:
        coset_window_matches(S, u.bits[:12], 21, 7)
    assert str(e.value) == "12 bits given, the window needs 13"


@pytest.mark.filterwarnings("ignore:zero seed")
def test_verify_theorem1_walks_the_root_powers_only_to_list(monkeypatch):
    # the lister tests' register sets: a pass builds no power walk, and a
    # tampered run builds one, in the lister, and no full transform
    runs = list(_SMALL_RUNS)
    for degrees in _PRODUCT_DEGREES:
        rng = random.Random(300 + sum(degrees))
        runs.append([(default_modulus(n), rng.randrange(1, 1 << n))
                     for n in degrees])
    walks = _counting(monkeypatch, "_power_walk")
    brute_calls = _counting(monkeypatch, "brute_dft")
    for run in runs:
        before = len(walks)
        assert not verify_theorem1(run, tamper_index=0).ok
        assert len(walks) - before == 1
    assert brute_calls == []

    def no_walk(*args):
        raise AssertionError("power walk on a passing run")
    monkeypatch.setattr(oracle, "_power_walk", no_walk)
    assert all(verify_theorem1(run).ok for run in runs)
