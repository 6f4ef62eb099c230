import random
from math import gcd, prod

import pytest

from crtspectra.bm import berlekamp_massey
from crtspectra.crtconv import CrtBasis, product_spectrum
from crtspectra.field import cyclotomic_cosets, default_modulus, discrete_log
import crtspectra.oracle as oracle
from crtspectra.oracle import (Mismatch, brute_dft, compare_spectra,
                               inverse_matches, verify_theorem1)
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
                  lambda: inverse_matches(S, B, 7)):
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


def test_verify_theorem1_blahut_audits_the_claims_own_size():
    # the reference always holds L points, so the audit reads the claim:
    # tampered at a zero index it holds L + 1, at a nonzero one L - 1
    run = [rv.LFSR_A, rv.LFSR_B]
    assert verify_theorem1(run).blahut_ok
    support = set(_crt_claim(run).points)
    zero = min(set(range(21)) - support)
    for k in (zero, min(support)):
        rep = verify_theorem1(run, tamper_index=k)
        assert not rep.blahut_ok
        assert "blahut=VIOLATED" in rep.summary()


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
    assert not _residue_verdict(S, low)
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


def test_verify_theorem1_forced_lister_gives_the_same_report(monkeypatch):
    rng = random.Random(16)
    runs = []
    # some tuples list the longer period first
    for degrees in [(2, 3), (4, 3), (5, 2), (3, 5), (5, 2, 3), (2, 7)] * 4:
        runs.append([(default_modulus(n), rng.randrange(1, 1 << n))
                     for n in degrees])
    normal = [verify_theorem1(run) for run in runs]
    # a lister given an empty claim has no hint to take, so it lists
    # every orbit by inverse and log, and its reference is still the claim
    lister = oracle._residue_dft
    monkeypatch.setattr(oracle, "_residue_dft", lambda word, f, S: lister(
        word, f, Spectrum(S.N, S.field, S.root, {})))
    lists = _counting(monkeypatch, "_residue_dft")
    inverses = _counting(monkeypatch, "_inverse")
    calls = _counting(monkeypatch, "brute_dft")
    forced = [verify_theorem1(run) for run in runs]
    assert len(lists) == len(runs) >= 20 and calls == []
    assert len(inverses) >= len(runs)
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
def test_verify_theorem1_first_bits_match_the_full_period_report(
        monkeypatch, run, summary):
    # single registers, zero seeds and a period-1 register: the first
    # 2 min(B, N) bits decide as the whole period does, and BM still finds
    # the exact L
    window = verify_theorem1(run)
    # u over the whole product period, which pointwise_product would
    # minimize
    u = BitSequence((1,))
    for conn, seed in run:
        s = oracle._one_period(conn, seed, 10 ** 5)
        u = BitSequence(tuple(a & b for a, b in zip(u.bits * s.period,
                                                    s.bits * u.period)))
    monkeypatch.setattr(oracle, "_residue_dft",
                        lambda word, f, S: brute_dft(u, S.field, S.root))
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


def _crt_claim(run):
    """The CRT product spectrum of run's registers, as verify_theorem1
    builds it."""
    streams = [oracle._one_period(conn, seed, 10 ** 5) for conn, seed in run]
    factors = [dft(s, *default_field_for_period(s.period)) for s in streams]
    return product_spectrum(factors, CrtBasis([s.period for s in streams]))


def _without_orbit(S, k):
    """S with the doubling orbit of k taken out of its support."""
    lost = _orbit(k, S.N)
    return Spectrum(S.N, S.field, S.root,
                    {j: d for j, d in S.points.items() if j not in lost})


def _lister_forced_to_brute_dft(monkeypatch, run):
    """The residue lister replaced by brute_dft of run's product over one
    period."""
    streams = [oracle._one_period(conn, seed, 10 ** 5) for conn, seed in run]
    N = prod(s.period for s in streams)
    u = BitSequence.from_word(oracle._product_bits(streams, N), N)
    monkeypatch.setattr(oracle, "_residue_dft", lambda word, f, S:
                        oracle.brute_dft(u, S.field, S.root))


_PRODUCT_DEGREES = [(2, 3), (3, 5), (2, 3, 5), (4, 7), (5, 6)]


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_verify_theorem1_lister_names_what_brute_dft_names(
        monkeypatch, degrees):
    # periods 3*7, 7*31, 3*7*31, 15*127 and 31*63; every kind of single
    # change to the claim, and tamper_index=0, gives the report that the
    # full transform of the product gives, with no full transform
    rng = random.Random(300 + sum(degrees))
    run = [(default_modulus(n), rng.randrange(1, 1 << n)) for n in degrees]
    claims = _one_change_each(_crt_claim(run), rng)
    calls = _counting(monkeypatch, "brute_dft")
    listed = [verify_theorem1(run, tamper_index=0)] + _claim_reports(
        run, claims)
    assert calls == []
    _lister_forced_to_brute_dft(monkeypatch, run)
    forced = [verify_theorem1(run, tamper_index=0)] + _claim_reports(
        run, claims)
    assert len(calls) == len(forced) == 5
    assert not any(rep.ok for rep in listed)
    assert listed == forced


# the last two have registers of odd weight over their periods 7, 3 and
# 31, so S_0 = 1: tampered at 0, the claim leaves out index 0, which the
# residue lister still takes as a candidate
_SMALL_RUNS = [
    [(0x7, 0x1)], [(0x25, 0x9)], [(0x13, 0x3)], [(0xb, 0x0), (0x7, 0x1)],
    [(0x25, 0x0)], [(0x3, 0x1), (0xb, 0x5)], [(0x1d, 0x1), (0x9, 0x1)],
    [(0x1d, 0x1), (0x9, 0x1), (0x6f, 0x1)]]


@pytest.mark.filterwarnings("ignore:zero seed")
@pytest.mark.parametrize("run", _SMALL_RUNS)
def test_verify_theorem1_lister_on_single_zero_seed_and_period_1_runs(
        monkeypatch, run):
    N = verify_theorem1(run).N
    tampers = sorted({0, N // 2, N - 1})
    listed = [verify_theorem1(run, tamper_index=t) for t in tampers]
    assert [[m.index for m in rep.mismatches] for rep in listed] == [
        [t] for t in tampers]
    _lister_forced_to_brute_dft(monkeypatch, run)
    assert [verify_theorem1(run, tamper_index=t) for t in tampers] == listed


def test_verify_theorem1_raises_when_the_lister_finds_no_spectrum(
        monkeypatch):
    # a product of log-form streams always has a residue spectrum, so a
    # lister that finds none is an internal fault, with nothing behind it,
    # on a right claim as on a tampered one
    run = [(0x25, 0x1), (0x43, 0x1)]
    monkeypatch.setattr(oracle, "_residue_dft", lambda word, f, S: None)
    calls = _counting(monkeypatch, "brute_dft")
    for tamper in (None, 193):
        with pytest.raises(ArithmeticError):
            verify_theorem1(run, tamper_index=tamper)
    assert calls == []


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_verify_theorem1_lists_a_claim_missing_a_true_orbit(
        monkeypatch, degrees):
    # a claim that leaves out a whole orbit of u's support proposes too few
    # orbits, so the residue lister goes on over the other orbits in index
    # order and gives the report of brute_dft, with no power walk
    rng = random.Random(300 + sum(degrees))
    run = [(default_modulus(n), rng.randrange(1, 1 << n)) for n in degrees]
    S = _crt_claim(run)
    claim = _without_orbit(S, min(S.points))
    walks = _counting(monkeypatch, "_power_walk")
    brute_calls = _counting(monkeypatch, "brute_dft")
    listed = _claim_reports(run, [claim])
    assert walks == [] and brute_calls == []
    _lister_forced_to_brute_dft(monkeypatch, run)
    assert _claim_reports(run, [claim]) == listed
    assert len(brute_calls) == 1
    assert not listed[0].ok


@pytest.mark.parametrize("N", [7, 21, 63, 315])
def test_residue_dft_lists_random_spectra_from_their_first_bits(
        N, random_log_spectrum):
    # the first L bits of idft(S) and its minimal polynomial give S back
    fld, root = default_field_for_period(N)
    rng = random.Random(7200 + N)
    for _ in range(4):
        S = random_log_spectrum(fld, root, rng)
        s = idft(S)
        f = _minimal_poly(s)
        L = len(S.points)
        assert f.bit_length() - 1 == L
        word = s.word & ((1 << L) - 1)
        assert oracle._residue_dft(word, f, S) == S
        # the claim only proposes where to look: one that leaves out an
        # orbit, or names no index, still gets S back
        claims = [_without_orbit(S, k)
                  for k in {min(_orbit(k, N)) for k in S.points}]
        for T in claims + [Spectrum(N, fld, root, {})]:
            assert oracle._residue_dft(word, f, T) == S


# "orbit": the CRT claim less the orbit of its least index
@pytest.mark.parametrize("run, tamper", [
    ([(0x25, 0x1), (0x43, 0x1)], 193),
    ([(0xb, 0x1), (0x25, 0x9), (0xc4d7, 0x315f)], 5),
    ([(0x25, 0x1), (0x43, 0x1)], "orbit"),
    ([(0xb, 0x1), (0x25, 0x9), (0xc4d7, 0x315f)], "orbit")])
def test_verify_theorem1_lists_a_tampered_run_from_its_window_bits(
        monkeypatch, run, tamper):
    # 31*63 and 7*31*151: no power walk, and u is never built over one
    # period
    N = verify_theorem1(run).N
    real_product_bits = oracle._product_bits

    def window_only(streams, n):
        if n == N:
            raise AssertionError("u built over one period")
        return real_product_bits(streams, n)

    def no_walk(*args):
        raise AssertionError("power walk on a tampered run")
    monkeypatch.setattr(oracle, "_product_bits", window_only)
    monkeypatch.setattr(oracle, "_power_walk", no_walk)
    if tamper == "orbit":
        S = _crt_claim(run)
        lost = _orbit(min(S.points), N)
        rep, = _claim_reports(run, [_without_orbit(S, lost[0])])
        assert [m.index for m in rep.mismatches] == sorted(lost)
    else:
        rep = verify_theorem1(run, tamper_index=tamper)
        assert [m.index for m in rep.mismatches] == [tamper]
    assert not rep.ok


def _orbit(k, N):
    """The doubling orbit k -> 2k mod N of k."""
    orbit, j = [k], 2 * k % N
    while j != k:
        orbit.append(j)
        j = 2 * j % N
    return orbit


def _shifted(S, j):
    """The claim S_k root^(jk): the spectrum of the sequence delayed by j,
    conjugate-consistent whenever S is."""
    return Spectrum(S.N, S.field, S.root,
                    {k: (d + j * k) % S.N for k, d in S.points.items()})


def _minimal_poly(s):
    """The minimal polynomial of s, by BM over two periods."""
    return berlekamp_massey(s.bits * 2).minimal_poly


def _residue_verdict(T, s):
    """Whether the residue lister, given only the first L bits of s and T
    as its hints, lists T itself."""
    f = _minimal_poly(s)
    word = s.word & ((1 << f.bit_length() - 1) - 1)
    return compare_spectra(oracle._residue_dft(word, f, T), T) == []


@pytest.mark.parametrize("degrees", _PRODUCT_DEGREES)
def test_residue_dft_agrees_with_inverse_matches_on_products(degrees):
    # the claim less an orbit, its reversal, every single change to the
    # claim, time-shifted claims (conjugate-consistent, of the right size,
    # and wrong at every orbit) and single changes to those
    rng = random.Random(500 + sum(degrees))
    for _ in range(2):
        u, S = _seeded_product(degrees, rng)
        N = u.period
        shifted = [_shifted(S, j)
                   for j in (1, 2, N - 1, rng.randrange(3, N - 1))]
        # the claim of the time-reversed product: conjugate-consistent, of
        # the right size, on orbits that are not u's
        reversed_ = Spectrum(N, S.field, S.root,
                             {-k % N: d for k, d in S.points.items()})
        claims = [S, _without_orbit(S, min(S.points)), reversed_]
        claims += _one_change_each(S, rng) + shifted
        claims += _one_change_each(shifted[0], rng)
        for T in claims:
            assert _residue_verdict(T, u) == inverse_matches(T, u, N)
        assert _residue_verdict(S, u)
        assert not any(_residue_verdict(T, u) for T in shifted)


@pytest.mark.parametrize("N", [7, 21, 63, 315])
def test_residue_dft_agrees_with_inverse_matches_on_random_spectra(
        N, random_log_spectrum):
    # each random log-form spectrum, and its shift by one, against the
    # inverse of each of them
    fld, root = default_field_for_period(N)
    rng = random.Random(7100 + N)
    spectra = [random_log_spectrum(fld, root, rng) for _ in range(4)]
    seqs = [idft(S) for S in spectra]
    for S in spectra + [_shifted(S, 1) for S in spectra]:
        for s in seqs:
            assert _residue_verdict(S, s) == inverse_matches(S, s, N)
    assert all(_residue_verdict(S, s) for S, s in zip(spectra, seqs))


def test_window_checks_refuse_a_negative_lc_bound():
    # with lc_bound = -40 the empty claim's window is empty, so
    # inverse_matches would pass the degree-5 m-sequence having compared
    # nothing; 0 is a valid bound and still compares |A| bits
    v = lfsr_stream(Lfsr(0x25, 0x1), 31)
    fld, root = default_field_for_period(31)
    none = Spectrum(31, fld, root, {})
    S = brute_dft(v, fld, root)
    with pytest.raises(ValueError) as e:
        inverse_matches(none, v, -40)
    assert str(e.value) == "lc_bound -40 is negative"
    assert inverse_matches(S, v, 0)
    assert not inverse_matches(none, v, 5)


def test_residue_dft_builds_its_field_tables_once(
        monkeypatch, clear_field_caches):
    # a cold right claim builds the squaring and x -> root*x tables and one
    # beta table per orbit; a warm one on the same field and root builds
    # only the beta tables; neither builds the log's giant-step table
    u, S = _seeded_product((5, 6), random.Random(41))
    N = u.period
    cosets = [c for c in cyclotomic_cosets(N) if c[0] in S.points]
    clear_field_caches()
    tables = _counting(monkeypatch, "_byte_tables")
    assert _residue_verdict(S, u)
    assert len(tables) == 2 + len(cosets)
    del tables[:]
    assert _residue_verdict(S, u)
    assert len(tables) == len(cosets)


@pytest.mark.parametrize("run, tamper", [
    ([(0x25, 0x1), (0x43, 0x1)], 193),
    ([(0xb, 0x1), (0x25, 0x9), (0xc4d7, 0x315f)], 5)])
def test_residue_dft_takes_a_right_exponent_without_an_inverse_or_log(
        monkeypatch, run, tamper):
    # 31*63 and 7*31*151: a right claim, and one tampered at a point, are
    # listed from the claim's own exponents; a claim whose exponents are
    # wrong on one orbit costs one inverse and one set of log tables
    logs = _counting(monkeypatch, "_log_of")
    inverses = _counting(monkeypatch, "_inverse")
    assert verify_theorem1(run).ok
    rep = verify_theorem1(run, tamper_index=tamper)
    assert [m.index for m in rep.mismatches] == [tamper]
    assert logs == [] and inverses == []
    S = _crt_claim(run)
    N = S.N
    wrong = _orbit(min(S.points.keys() - {0}), N)
    claim = Spectrum(N, S.field, S.root, {
        k: (d + k) % N if k in wrong else d for k, d in S.points.items()})
    rep, = _claim_reports(run, [claim])
    assert [m.index for m in rep.mismatches] == sorted(wrong)
    assert len(inverses) == 1 and len(logs) == 1


def test_residue_dft_finds_no_spectrum_when_f_has_roots_off_the_root():
    # w of period 21 plus an m-sequence of period 31: u's minimal
    # polynomial has the 5 roots of order 31 besides w's, and none of them
    # is a power of the order-21 root, so the lister finds only w's
    # points, fewer than L, and lists nothing
    w = pointwise_product(A, B)
    v = lfsr_stream(Lfsr(0x25, 0x1), 31)
    u = BitSequence(tuple(w.bits[t % 21] ^ v.bits[t % 31]
                          for t in range(651)))
    f = _minimal_poly(u)
    L = f.bit_length() - 1
    fld, root = default_field_for_period(21)
    Sw = dft(w, fld, root)
    assert L == len(Sw.points) + 5
    for claim in (Sw, Spectrum(21, fld, root, {})):
        assert oracle._residue_dft(u.word & ((1 << L) - 1), f, claim) is None


@pytest.mark.filterwarnings("ignore:zero seed")
def test_verify_theorem1_builds_no_power_walk_or_full_transform(
        monkeypatch):
    # the lister tests' register sets: a pass and a tampered run build no
    # power walk and no full transform
    runs = list(_SMALL_RUNS)
    for degrees in _PRODUCT_DEGREES:
        rng = random.Random(300 + sum(degrees))
        runs.append([(default_modulus(n), rng.randrange(1, 1 << n))
                     for n in degrees])
    walks = _counting(monkeypatch, "_power_walk")
    brute_calls = _counting(monkeypatch, "brute_dft")
    for run in runs:
        assert verify_theorem1(run).ok
        assert not verify_theorem1(run, tamper_index=0).ok
    assert walks == [] and brute_calls == []
