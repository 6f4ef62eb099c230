import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra import gf2poly, spectral
from crtspectra.bm import berlekamp_massey
from crtspectra.costs import OpCounter
from crtspectra.field import (CountingField, FieldSpec, build_field,
                              cyclotomic_cosets, default_modulus,
                              element_of_order, minimal_polynomial_of,
                              multiplicative_order_of_2, root_power_table)
from crtspectra.oracle import brute_dft
from crtspectra.sequences import (BitSequence, Lfsr, lfsr_stream,
                                  pointwise_product)
from crtspectra.spectral import (ZERO, Spectrum, blahut_check, coset_expand,
                                 coset_reduce, default_field_for_period, dft,
                                 dft_point, idft, support_polynomial)

import reference_values as rv

F6 = build_field(6)
A = BitSequence.from_string(rv.STREAM_A)
B = BitSequence.from_string(rv.STREAM_B)
C = BitSequence.from_string(rv.STREAM_C)
U = pointwise_product(A, B)


def test_default_field_for_period():
    fld, root = default_field_for_period(21)
    assert fld.m == 6
    assert root.order() == 21
    fld1, root1 = default_field_for_period(1)
    assert root1 == fld1.one


def test_dft_factor_a():
    fld, root = default_field_for_period(3)
    S = dft(A, fld, root)
    assert list(S.values) == rv.SPECTRUM_A


def test_dft_factor_b():
    fld, root = default_field_for_period(7)
    S = dft(B, fld, root)
    assert list(S.values) == rv.SPECTRUM_B
    assert S.support() == [3, 5, 6]


def test_dft_rejects_root_order_mismatch():
    root = element_of_order(F6, 9)
    with pytest.raises(ValueError):
        dft(U, F6, root)


def test_dft_brute_equivalence_small_random():
    # random period-7 sequences against the raw transform definition
    fld, root = default_field_for_period(7)
    rng = random.Random(41)
    for _ in range(25):
        bits = tuple(rng.randrange(2) for _ in range(7))
        if not any(bits):
            continue
        S = dft(BitSequence(bits), fld, root)
        for k in range(7):
            acc = fld.zero
            for t, b in enumerate(bits):
                if b:
                    acc = acc + root ** (t * k)
            d = S.values[k]
            assert (fld.zero if d is None else root ** d) == acc


def _mseq_product(*degrees):
    """Bitwise product of m-sequences of the given register degrees."""
    u = None
    for n in degrees:
        s = lfsr_stream(Lfsr(default_modulus(n), 1), (1 << n) - 1)
        u = s if u is None else pointwise_product(u, s)
    return u


def _transform_or_error(transform, s, fld, root):
    try:
        return transform(s, fld, root)
    except ValueError as e:
        return f"ValueError: {e}"


# period -> register degrees of a product or m-sequence of that period
_STRUCTURED = {7: (3,), 21: (2, 3), 63: (6,), 217: (3, 5), 651: (2, 3, 5),
               1023: (10,)}


@pytest.mark.parametrize("N", sorted(_STRUCTURED))
def test_dft_matches_brute_dft(N, random_log_spectrum):
    fld, root = default_field_for_period(N)
    rng = random.Random(4000 + N)
    # dense sequences with a log form by construction, built backwards
    # from a random conjugate-consistent spectrum
    for _ in range(2):
        S = random_log_spectrum(fld, root, rng)
        s = idft(S)
        assert dft(s, fld, root) == brute_dft(s, fld, root) == S
    u = _mseq_product(*_STRUCTURED[N])
    assert u.period == N
    assert dft(u, fld, root) == brute_dft(u, fld, root)
    # raw random bits: below the full group (N = 21, 217, 651) they may
    # have no log form, and then both must raise the same error
    raw = [BitSequence(tuple(rng.randrange(2) for _ in range(N)))
           for _ in range(2)]
    for s in raw:
        assert (_transform_or_error(dft, s, fld, root)
                == _transform_or_error(brute_dft, s, fld, root))
    # a non-canonical order-N root, and roots root^d of order N/d < N,
    # which both sides must reject with the same error
    v = rng.randrange(2, N)
    while gcd(v, N) != 1:
        v += 1
    other = [root ** v] + [root ** d for d in range(2, N + 1) if N % d == 0]
    for r in other:
        seqs = raw + [u]
        if r.order() == N:
            seqs.append(idft(random_log_spectrum(fld, r, rng)))
        for s in seqs:
            assert (_transform_or_error(dft, s, fld, r)
                    == _transform_or_error(brute_dft, s, fld, r))


def test_support_polynomial_is_the_reversed_bm_polynomial():
    # Blahut: deg c is the linear complexity, and c = (x^N + 1) / gcd(x^N
    # + 1, s(x)) reversed is the minimal polynomial Berlekamp-Massey finds
    # on two periods. Where GF(2^ord_N(2)) has a default modulus, dft
    # screened by c gives brute_dft's spectrum, or its error, on the same
    # bits. Dense, sparse and short-period bits reach both sides of the
    # screen's weight test.
    rng = random.Random(25)
    sides = set()
    for N in range(1, 256, 2):
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        d = rng.choice(divisors)
        short = [rng.randrange(2) for _ in range(d)]
        for bits in (tuple(rng.randrange(2) for _ in range(N)),
                     tuple(int(rng.random() < 0.1) for _ in range(N)),
                     tuple(short * (N // d))):
            s = BitSequence(bits)
            c, r = support_polynomial(s)
            bm = berlekamp_massey(bits * 2)
            assert c.bit_length() - 1 == bm.linear_complexity
            assert int(bin(c)[:1:-1], 2) == bm.minimal_poly
            assert c.bit_length() > r.bit_length()
            if multiplicative_order_of_2(N) > 32:
                continue
            sides.add(c.bit_count() + r.bit_count() < sum(bits))
            fld, root = default_field_for_period(N)
            assert (_transform_or_error(dft, s, fld, root)
                    == _transform_or_error(brute_dft, s, fld, root))
    assert sides == {True, False}


def test_dft_edge_sequences():
    # all-zero periods have an empty spectrum; all-one periods are the
    # constant 1, whose only point is S_0 = N = 1 = root^0
    for N in (1, 3, 7):
        fld, root = default_field_for_period(N)
        assert dft(BitSequence((0,) * N), fld, root).points == {}
    for text in ("1", "1111111"):
        fld, root = default_field_for_period(len(text))
        assert dft(BitSequence.from_string(text), fld, root).points == {0: 0}


def test_dft_of_a_degree_17_m_sequence(monkeypatch):
    # N = 131,071: the support is one coset of 17 points, found by the
    # screen at one weight-3 evaluation per leader, not a sum over the
    # 65,536 1-bits of s at each of the 7711 leaders
    s = lfsr_stream(Lfsr(default_modulus(17), 1), (1 << 17) - 1)
    fld, root = default_field_for_period(s.period)
    S = dft(s, fld, root)
    assert S.nonzero_count() == 17
    reps = coset_reduce(S)
    assert len(reps) == 1
    (leader, d), = reps.items()
    # N is above the plan bound, so a point is screened by deg c + 1
    # Horner steps at root^k, and one on the support adds the residue
    # form's passes of g and c', deg c steps each, and one product before
    # its discrete_log: no pass over the N bits of s
    steps, logs = [], []
    times, log = FieldSpec.times, spectral.discrete_log

    def counted_times(self, c):
        mul = times(self, c)

        def step(x):
            steps.append(x)
            return mul(x)
        return step

    def counted_log(a, base, order):
        logs.append(len(steps))
        return log(a, base, order)
    monkeypatch.setattr(FieldSpec, "times", counted_times)
    monkeypatch.setattr(spectral, "discrete_log", counted_log)
    off = min(set(range(s.period)) - set(S.points))
    assert dft_point(s, root, off) is ZERO
    assert (len(steps), logs) == (18, [])
    steps.clear()
    assert dft_point(s, root, leader) == d
    assert logs == [18 + 2 * 17 + 1]


def test_dft_without_log_form_raises():
    s = BitSequence.from_string("00011")
    fld, root = default_field_for_period(5)
    with pytest.raises(ValueError) as e:
        dft(s, fld, root)
    assert str(e.value) == (
        "spectral value at k=1 lies outside the cyclic group of the root;"
        " no log-form spectrum over this root")


def test_dft_multiplies_only_to_build_the_power_table():
    # N - 1 products fill the table; a Horner pass per coset leader
    # would add N more per leader
    for s in (U, _mseq_product(3, 5), _mseq_product(10)):
        fld, root = default_field_for_period(s.period)
        counter = OpCounter()
        cf = CountingField(fld, counter)
        dft(s, cf, cf.element(root.bits))
        assert counter.mul_count == s.period - 1


class _CountingTable(list):
    """A power table that counts its indexed reads."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_dft_reads_weight_c_per_leader_and_weight_r_per_support_leader(
        monkeypatch, clear_field_caches):
    # the screen's cost: weight(c) reads at each coset leader and weight(r)
    # more at each leader of the support, not weight(s) at every leader;
    # where weight(c) + weight(r) >= weight(s) (U: 5 + 4 against 8) the
    # screen is not taken and each leader reads weight(s)
    tables = []

    def counted(root, N):
        tables.append(_CountingTable(root_power_table(root, N)))
        return tables[-1]

    monkeypatch.setattr(spectral, "root_power_table", counted)
    clear_field_caches()  # so each dft builds its table, not reads a plan
    for s in (U, _mseq_product(3, 5), _mseq_product(10)):
        fld, root = default_field_for_period(s.period)
        c, r = support_polynomial(s)
        S = dft(s, fld, root)
        leaders = len(cyclotomic_cosets(s.period))
        if s is U:
            assert c.bit_count() + r.bit_count() >= sum(s.bits)
            assert tables[-1].reads == leaders * sum(s.bits)
        else:
            assert tables[-1].reads == (leaders * c.bit_count()
                                        + len(coset_reduce(S)) * r.bit_count())


def test_idft_roundtrip_all_streams():
    for s in (A, B, C, U):
        fld, root = default_field_for_period(s.period)
        assert idft(dft(s, fld, root)) == s


def test_idft_rejects_even_period():
    # every root lives in a group of odd order 2^m - 1, so no spectrum of
    # even period can be built for idft to see
    with pytest.raises(ValueError):
        default_field_for_period(6)
    fld = build_field(6)
    for root in (fld.generator, element_of_order(fld, 3)):
        with pytest.raises(ValueError, match="!= N = 6"):
            Spectrum(6, fld, root, {})


def test_idft_rejects_non_binary_reconstruction():
    # single spike of value w (not 1) at k=0 inverts to the constant w
    fld, root = default_field_for_period(3)
    S = Spectrum(3, fld, root, {0: 1})
    with pytest.raises(ValueError):
        idft(S)


def test_spectrum_invariants():
    fld, root = default_field_for_period(7)
    for k in (7, -1):
        with pytest.raises(ValueError, match=rf"^index {k} outside \[0, 7\)$"):
            Spectrum(7, fld, root, {3: 1, k: 0})
    with pytest.raises(ValueError, match=r"^exponent 7 at index 0 outside"):
        Spectrum(7, fld, root, {0: 7})
    with pytest.raises(ValueError, match=r"^exponent None at index 1 "):
        Spectrum(7, fld, root, {1: None})
    # the spectrum keeps its own copy of the points, in ascending order
    given = {4: 2, 1: 4, 2: 1}
    S = Spectrum(7, fld, root, given)
    given[3] = 0
    assert list(S.points.items()) == [(1, 4), (2, 1), (4, 2)]
    assert S.conjugacy_violation() is None
    bad_root = fld.generator                       # order 7? generator is
    if bad_root.order() != 7:                      # full group: reject
        with pytest.raises(ValueError):
            Spectrum(7, fld, bad_root, {})


def test_dft_point_matches_full_transform():
    fld, root = default_field_for_period(21)
    S = dft(U, fld, root)
    for k in (0, 5, 13, 20):
        assert dft_point(U, root, k) == S.values[k]
    with pytest.raises(ValueError):
        dft_point(U, root, 21)
    with pytest.raises(ValueError):
        dft_point(U, root, -1)


def test_dft_point_counts_multiplications():
    fld, root = default_field_for_period(21)
    counter = OpCounter()
    cf = CountingField(fld, counter)
    dft_point(U, cf.element(root.bits), 13)
    # root^13 by square-and-multiply, one Horner step per index of the
    # period (21), then the discrete log's baby steps, the inverse of its
    # stride and its giant steps
    assert (counter.mul_count, counter.reduction_count) == (47, 47)


def test_warm_transforms_read_their_plans(monkeypatch, clear_field_caches):
    # the first dft builds the power table, and a dft_point after it reads
    # the plan kept for (field, root, N), so it takes no log and inverts
    # no giant stride; the second of each builds nothing
    tables, inverses = [], []

    def table(root, N):
        tables.append(N)
        return root_power_table(root, N)
    inv_int = FieldSpec.inv_int

    def inverse(self, a):
        inverses.append(a)
        return inv_int(self, a)
    monkeypatch.setattr(spectral, "root_power_table", table)
    monkeypatch.setattr(FieldSpec, "inv_int", inverse)
    clear_field_caches()
    fld, root = default_field_for_period(U.period)
    calls, outs = {}, set()
    for name in ("cold", "warm"):
        tables.clear()
        inverses.clear()
        outs.add((tuple(dft(U, fld, root).points.items()),
                  dft_point(U, root, 13)))
        calls[name] = (len(tables), len(inverses))
    assert calls == {"cold": (1, 0), "warm": (0, 0)}
    assert len(outs) == 1


def test_counting_views_bypass_warm_plans():
    # a plain run first fills the plans for (field, root, N); a counting
    # view of the same field compares equal to it, yet must neither read
    # nor fill them, so it tallies what a cold run does
    fld, root = default_field_for_period(21)
    dft(U, fld, root)
    dft_point(U, root, 13)
    counter = OpCounter()
    cf = CountingField(fld, counter)
    dft(U, cf, cf.element(root.bits))
    assert counter.mul_count == U.period - 1
    counter = OpCounter()
    cf = CountingField(fld, counter)
    dft_point(U, cf.element(root.bits), 13)
    assert (counter.mul_count, counter.reduction_count) == (47, 47)
    # nor did the counting runs leave a plan behind that counts
    counter.mul_count = 0
    dft(U, fld, root)
    dft_point(U, root, 13)
    assert counter.mul_count == 0


def test_warm_point_reads_only_its_plan(monkeypatch):
    # after dft, the plan holds the power table and its log map, so each
    # point is table reads and one log-map lookup: no product, no power
    # and no discrete log
    def refuse(*args):
        raise AssertionError("a warm point did field work")
    plain = [(s, *default_field_for_period(s.period))
             for s in (U, _mseq_product(3, 5))]
    spectra = [dft(s, fld, root) for s, fld, root in plain]
    monkeypatch.setattr(FieldSpec, "times", refuse)
    monkeypatch.setattr(FieldSpec, "pow_int", refuse)
    monkeypatch.setattr(spectral, "discrete_log", refuse)
    for (s, _, root), S in zip(plain, spectra):
        assert tuple(dft_point(s, root, k) for k in range(s.period)) == S.values


def _point_or_error(s, root, k):
    try:
        return dft_point(s, root, k)
    except ValueError as e:
        return f"ValueError: {e}"


# the odd periods <= 255 with a field of degree <= 32
_SMALL_PERIODS = [N for N in range(1, 256, 2)
                  if multiplicative_order_of_2(N) <= 32]


def _orbit_sequence(N, j, state):
    """The period-N sequence from the low bits of state, run through the
    recurrence whose characteristic polynomial is the minimal polynomial f
    of root^-j, root the canonical order-N root: its spectrum lives on the
    doubling orbit of j, so its L is deg f, and below the full group its
    values mostly lie outside the root's group."""
    _, root = default_field_for_period(N)
    f = minimal_polynomial_of(root ** (N - j))
    L = f.bit_length() - 1
    bits = [state >> i & 1 for i in range(L)]
    taps = [i for i in range(L) if f >> i & 1]
    while len(bits) < N:
        bits.append(sum(bits[-L + i] for i in taps) & 1)
    return BitSequence(tuple(bits))


@st.composite
def point_cases(draw):
    """Random bits of odd period <= 255, which below the full group mostly
    have no log form; a sequence of low L on one doubling orbit, which
    mostly has none either; or a product of m-sequences at random
    phases."""
    kind = draw(st.sampled_from(("bits", "orbit", "product")))
    if kind == "bits":
        N = draw(st.sampled_from(_SMALL_PERIODS))
        return BitSequence.from_word(draw(st.integers(0, (1 << N) - 1)), N)
    if kind == "orbit":
        N = draw(st.sampled_from([N for N in _SMALL_PERIODS if N >= 63]))
        return _orbit_sequence(N, draw(st.integers(1, N - 1)),
                               draw(st.integers(1, (1 << 32) - 1)))
    u = None
    for n in draw(st.sampled_from([(3, 4), (3, 5), (3, 7)])):
        seed = draw(st.integers(1, (1 << n) - 1))
        s = lfsr_stream(Lfsr(default_modulus(n), seed), (1 << n) - 1)
        u = s if u is None else pointwise_product(u, s)
    return u


@settings(derandomize=True, deadline=None, max_examples=30)
@given(point_cases())
def test_plan_route_matches_horner_route(s):
    # a plain root takes the plan route, and with the plan bound at 0 the
    # route above it (screen by c, then the residue form, or a Horner pass
    # once Euclid's budget runs out); a counting view of the same field
    # takes the Horner route. At every k they give one exponent, or the
    # same error
    fld, root = default_field_for_period(s.period)
    view = CountingField(fld, OpCounter()).element(root.bits)
    horner = [_point_or_error(s, view, k) for k in range(s.period)]
    assert [_point_or_error(s, root, k) for k in range(s.period)] == horner
    with mock.patch.object(spectral, "_PLAN_MAX_N", 0):
        assert [_point_or_error(s, root, k)
                for k in range(s.period)] == horner


def test_point_above_plan_bound_builds_no_plan(monkeypatch,
                                               clear_field_caches):
    # above _PLAN_MAX_N a point is a one-shot Horner pass: it neither
    # fills a plan nor builds a length-N power table
    tables = []

    def table(root, N):
        tables.append(N)
        return root_power_table(root, N)
    monkeypatch.setattr(spectral, "root_power_table", table)
    monkeypatch.setattr(spectral, "_PLAN_MAX_N", U.period - 1)
    clear_field_caches()
    fld, root = default_field_for_period(U.period)
    values = tuple(dft_point(U, root, k) for k in range(U.period))
    assert values == brute_dft(U, fld, root).values
    assert spectral._transform_plan.cache_info().currsize == 0
    assert tables == []


def test_warm_point_off_the_support_reads_weight_c(monkeypatch,
                                                   clear_field_caches):
    # the degree-10 m-sequence: L = 10, so Euclid finds c within the
    # budget; a point off the support reads weight(c) table entries, and
    # one on it weight(s) more, where the direct route reads weight(s)
    tables = []

    def counted(root, N):
        tables.append(_CountingTable(root_power_table(root, N)))
        return tables[-1]

    monkeypatch.setattr(spectral, "root_power_table", counted)
    clear_field_caches()
    s = _mseq_product(10)
    c, _ = support_polynomial(s)
    w = s.word.bit_count()
    N = s.period
    assert c.bit_length() - 1 <= spectral._euclid_budget(w + N // 4, N)
    fld, root = default_field_for_period(N)
    S = dft(s, fld, root)
    on, off = min(S.points), min(set(range(N)) - set(S.points))
    for k, reads in ((off, c.bit_count()), (on, c.bit_count() + w)):
        tables[-1].reads = 0
        dft_point(s, root, k)
        assert tables[-1].reads == reads


def test_dense_point_stops_euclid_within_its_budget(monkeypatch,
                                                    clear_field_caches):
    # random bits at N = 1023 have L near N: Euclid gives up after at most
    # budget + 1 divisions, and the point reads weight(s) entries, as the
    # direct route does
    N = 1023
    s = BitSequence.from_word(random.Random(N).getrandbits(N), N)
    c, _ = support_polynomial(s)
    w = s.word.bit_count()
    budget = spectral._euclid_budget(w + N // 4, N)
    assert c.bit_length() - 1 > 10 * budget
    tables, divisions = [], []

    def counted(root, N):
        tables.append(_CountingTable(root_power_table(root, N)))
        return tables[-1]

    def pmod(a, f):
        divisions.append(f)
        return gf2poly.pmod(a, f)

    monkeypatch.setattr(spectral, "root_power_table", counted)
    monkeypatch.setattr(spectral, "pmod", pmod)
    clear_field_caches()
    fld, root = default_field_for_period(N)
    view = CountingField(fld, OpCounter()).element(root.bits)
    dft_point(s, root, 0)  # builds the plan
    for k in (1, 5, 341):
        tables[-1].reads = 0
        divisions.clear()
        assert dft_point(s, root, k) == _point_or_error(s, view, k)
        assert len(divisions) <= budget + 1
        assert tables[-1].reads == w


def test_blahut_on_reference_product():
    fld, root = default_field_for_period(21)
    S = dft(U, fld, root)
    assert S.nonzero_count() == 6
    assert blahut_check(S, 6)
    assert not blahut_check(S, 7)


def test_coset_reduce_reference():
    fld, root = default_field_for_period(21)
    S = dft(U, fld, root)
    assert coset_reduce(S) == {5: 9}
    fld31, root31 = default_field_for_period(31)
    assert coset_reduce(dft(C, fld31, root31)) == rv.REDUCED_C


def test_coset_reduce_rejects_conjugacy_violation():
    fld, root = default_field_for_period(21)
    S = dft(U, fld, root)
    points = dict(S.points)
    points[10] = (points[10] + 1) % 21    # break 2*d rule inside coset of 5
    broken = Spectrum(21, fld, root, points)
    k, k2 = broken.conjugacy_violation()
    assert (k2 - 2 * k) % 21 == 0
    with pytest.raises(ValueError) as e:
        coset_reduce(broken)
    assert str(k) in str(e.value) and str(k2) in str(e.value)


def test_coset_reduce_keeps_the_least_index_of_each_orbit(
        random_log_spectrum):
    # one walk per orbit against the definition: a support index is kept,
    # with its exponent, when it is the least of its doubling orbit
    rng = random.Random(20)
    for N in (1, 3, 7, 21, 63, 93, 217, 255):
        fld, root = default_field_for_period(N)
        leaders = {c[0] for c in cyclotomic_cosets(N)}
        units = [u for u in range(1, N + 1) if gcd(u, N) == 1]
        for u in rng.sample(units, min(4, len(units))):
            for _ in range(5):
                S = random_log_spectrum(fld, root ** u, rng)
                reps = coset_reduce(S)
                assert reps == {k: d for k, d in S.points.items()
                                if k in leaders}
                assert list(reps) == sorted(reps)


def test_spectrum_checks_match_index_walks():
    # the one pass over the points against a walk over every index, on
    # values that hold ZERO, exponents in range and a few outside it on
    # either side, and on conjugate spectra with one or two entries edited,
    # so that the first violation is as often a zero index whose double is
    # in the support as a support index whose double is wrong
    rng = random.Random(13)
    for N in (1, 3, 7, 21, 63):
        fld, root = default_field_for_period(N)
        for trial in range(400):
            if trial % 2:
                values = tuple(rng.choice((None, None, rng.randrange(N),
                                           rng.randrange(-2, N + 2)))
                               for _ in range(N))
            else:
                # d(2^c k) = 2^c d(k) = d(k) on a coset of size c
                reps = {c[0]: rng.randrange(N) * (N // gcd(N, 2**len(c) - 1))
                        % N for c in cyclotomic_cosets(N) if rng.random() < .7}
                edited = list(coset_expand(reps, N, fld, root).values)
                for _ in range(rng.randrange(3)):
                    edited[rng.randrange(N)] = rng.choice(
                        (None, rng.randrange(N)))
                values = tuple(edited)
            points = {k: d for k, d in enumerate(values) if d is not None}
            bad = [(k, d) for k, d in points.items() if not 0 <= d < N]
            if bad:
                k, d = bad[0]
                with pytest.raises(ValueError, match=(
                        rf"^exponent {d} at index {k} outside \[0, {N}\)$")):
                    Spectrum(N, fld, root, points)
                continue
            S = Spectrum(N, fld, root, points)
            assert S.values == values
            support = [k for k, d in enumerate(values) if d is not None]
            assert S.support() == support
            assert S.nonzero_count() == len(support)
            violations = [(k, 2 * k % N) for k, d in enumerate(values)
                          if values[2 * k % N] != (None if d is None
                                                   else 2 * d % N)]
            assert S.conjugacy_violation() == (
                violations[0] if violations else None)
    # index 5 is zero and its double 10 is not: 5 comes before 10, whose
    # own double 20 is missing
    fld, root = default_field_for_period(21)
    assert Spectrum(21, fld, root, {10: 0}).conjugacy_violation() == (5, 10)


def test_coset_expand_inverts_reduce():
    fld, root = default_field_for_period(21)
    S = dft(U, fld, root)
    assert coset_expand(coset_reduce(S), 21, fld, root) == S
    for leader in (2, 11, 21, -1):      # 2 and 11 lie in the coset of 1
        with pytest.raises(ValueError,
                           match=f"{leader} is not a coset leader mod 21"):
            coset_expand({leader: 0}, 21, fld, root)
    with pytest.raises(ValueError, match="need odd N"):
        coset_expand({1: 0}, 6, fld, root)    # doubling never returns to 1


def test_convolution_duality_at_21():
    # transform of a bitwise product = cyclic convolution of transforms,
    # all three taken at the same 21-point root
    root = element_of_order(F6, 21)
    a21 = BitSequence.from_string(rv.STREAM_A * 7)
    b21 = BitSequence.from_string(rv.STREAM_B * 3)
    u21 = BitSequence.from_string(rv.PRODUCT_AB)
    Sa = dft(a21, F6, root)
    Sb = dft(b21, F6, root)
    Su = dft(u21, F6, root)

    def field_values(S):
        return [0 if d is None else (root ** d).bits for d in S.values]

    va, vb = field_values(Sa), field_values(Sb)
    conv = []
    for j in range(21):
        acc = 0
        for k in range(21):
            acc ^= F6.mul_int(va[(j - k) % 21], vb[k])
        conv.append(acc)
    assert field_values(Su) == conv
