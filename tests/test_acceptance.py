"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Each test prints its verdict straight to the terminal (bypassing capture)
before asserting, so the scoreboard is visible even on red runs. Expected
values come from tests/reference_values.py, frozen ahead of implementation.
"""

import time

import pytest

from crtspectra.bm import berlekamp_massey, regenerate
from crtspectra.cli import main as cli_main
from crtspectra.costs import (estimate_crt_breakdown, estimate_direct,
                              measure, OpCounter)
from crtspectra.crtconv import (CrtBasis, combiner_spectrum,
                                combiner_term_supports, product_spectrum,
                                product_spectrum_point)
from crtspectra.field import CountingField
from crtspectra.gf2poly import is_irreducible
from crtspectra.field import is_primitive
from crtspectra.oracle import brute_dft, compare_spectra, verify_theorem1
from crtspectra.sequences import (AnfCombiner, combiner_stream, Lfsr,
                                  lfsr_stream, pointwise_product)
from crtspectra.spectral import dft, dft_point, default_field_for_period, idft

import reference_values as rv


@pytest.fixture
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print(line, flush=True)
    return _say


def _stream(spec):
    conn, seed = spec
    m = conn.bit_length() - 1
    return lfsr_stream(Lfsr(conn, seed), (1 << m) - 1)


def _factor(s):
    fld, root = default_field_for_period(s.period)
    return dft(s, fld, root)


def _table(S):
    return {k: S.values[k] for k in S.support()}


def test_criterion_1_pair_product_bit_exact(announce):
    t0 = time.time()
    a, b = _stream(rv.LFSR_A), _stream(rv.LFSR_B)
    checks = []
    checks.append(("streams", str(a) == rv.STREAM_A and str(b) == rv.STREAM_B))

    u = pointwise_product(a, b)
    checks.append(("period21", u.period == 21))

    r = berlekamp_massey([u.bit(t) for t in range(42)])
    checks.append(("bm", r.linear_complexity == 6
                   and r.minimal_poly == rv.G_AB))

    A, B = _factor(a), _factor(b)
    checks.append(("factor_spectra", list(A.values) == rv.SPECTRUM_A
                   and list(B.values) == rv.SPECTRUM_B))

    S_crt = product_spectrum([A, B], CrtBasis([3, 7]))
    S_brute = brute_dft(u, S_crt.field, S_crt.root)
    mms = compare_spectra(S_brute, S_crt)
    checks.append(("table", _table(S_crt) == rv.TABLE_AB))
    checks.append(("brute_agrees", mms == []
                   and _table(S_brute) == rv.TABLE_AB))

    dt = time.time() - t0
    ok = all(v for _, v in checks) and dt < 1.0
    bad = [n for n, v in checks if not v]
    announce(f"CRITERION 1: {'PASS' if ok else 'FAIL'} - period-21 product "
             f"bit-exact both paths, L=6, {dt:.2f}s"
             + (f" failed={bad}" if bad else ""))
    assert ok, bad


def test_criterion_2_pairwise_217_93(announce):
    t0 = time.time()
    a, b, c = _stream(rv.LFSR_A), _stream(rv.LFSR_B), _stream(rv.LFSR_C)
    checks = []

    bc = pointwise_product(b, c)
    r_bc = berlekamp_massey([bc.bit(t) for t in range(434)])
    checks.append(("bm_bc", r_bc.linear_complexity == 15
                   and r_bc.minimal_poly == rv.G_BC))

    ac = pointwise_product(a, c)
    r_ac = berlekamp_massey([ac.bit(t) for t in range(186)])
    # the reference g_ac regenerates the stream; a one-term variant of it
    # seen in circulation does not, and is rejected by this same check
    checks.append(("bm_ac", r_ac.linear_complexity == 10
                   and r_ac.minimal_poly == rv.G_AC))
    bits_ac = [ac.bit(t) for t in range(93)]
    checks.append(("g_ac_regenerates",
                   regenerate(r_ac, bits_ac[:10], 93) == bits_ac))
    variant = rv.G_AC ^ 0b10   # add a stray x term: must fail to regenerate
    checks.append(("variant_rejected",
                   _regen_raw(variant, bits_ac, 93) != bits_ac))

    S_bc = product_spectrum([_factor(b), _factor(c)], CrtBasis([7, 31]))
    checks.append(("table2", _table(S_bc) == rv.TABLE_BC))
    checks.append(("brute217",
                   compare_spectra(brute_dft(bc, S_bc.field, S_bc.root),
                                   S_bc) == []))

    S_ac = product_spectrum([_factor(a), _factor(c)], CrtBasis([3, 31]))
    checks.append(("table3", _table(S_ac) == rv.TABLE_AC))
    checks.append(("brute93",
                   compare_spectra(brute_dft(ac, S_ac.field, S_ac.root),
                                   S_ac) == []))

    dt = time.time() - t0
    ok = all(v for _, v in checks) and dt < 5.0
    bad = [n for n, v in checks if not v]
    announce(f"CRITERION 2: {'PASS' if ok else 'FAIL'} - 15/15 entries at "
             f"N=217 and 10/10 at N=93, L=15/L=10, {dt:.2f}s"
             + (f" failed={bad}" if bad else ""))
    assert ok, bad


def _regen_raw(poly, bits, n):
    # windowed recurrence straight off an alleged connection polynomial
    L = poly.bit_length() - 1
    w = list(bits[:L])
    for t in range(L, n):
        acc = 0
        for i in range(1, L + 1):
            acc ^= ((poly >> (L - i)) & 1) & w[t - i]
        w.append(acc)
    return w


def test_criterion_3_triple_product_651(announce):
    t0 = time.time()
    a, b, c = _stream(rv.LFSR_A), _stream(rv.LFSR_B), _stream(rv.LFSR_C)
    abc = pointwise_product(pointwise_product(a, b), c)
    S = product_spectrum([_factor(a), _factor(b), _factor(c)],
                         CrtBasis([3, 7, 31]))
    got = _table(S)
    checks = [
        ("thirty_points", S.nonzero_count() == 30),
        ("full_map", got == rv.TABLE_ABC),
        ("anchors", got.get(325) == 60 and got.get(61) == 492
         and got.get(650) == 120),
        ("brute651",
         compare_spectra(brute_dft(abc, S.field, S.root), S) == []),
    ]
    dt = time.time() - t0
    ok = all(v for _, v in checks) and dt < 30.0
    bad = [n for n, v in checks if not v]
    announce(f"CRITERION 3: {'PASS' if ok else 'FAIL'} - 30-point triple "
             f"product at N=651 matches brute GF(2^30) transform, {dt:.2f}s"
             + (f" failed={bad}" if bad else ""))
    assert ok, bad


def test_criterion_4_combiner_ground_truth(announce):
    t0 = time.time()
    a, b, c = _stream(rv.LFSR_A), _stream(rv.LFSR_B), _stream(rv.LFSR_C)
    f = AnfCombiner.parse(rv.COMBINER_ANF)
    w = combiner_stream(f, [a, b, c])
    r = berlekamp_massey([w.bit(t) for t in range(1302)])
    factors = [_factor(a), _factor(b), _factor(c)]
    basis = CrtBasis([3, 7, 31])
    S = combiner_spectrum(f, factors, basis)
    S_brute = brute_dft(w, S.field, S.root)

    lifts = combiner_term_supports(f, factors, basis)
    lift_sets = [set(v) for v in lifts.values()]
    union = set().union(*lift_sets)
    disjoint = sum(len(x) for x in lift_sets) == len(union)

    S_abc = product_spectrum(factors, basis)
    divergence = compare_spectra(S_abc, S)

    checks = [
        ("bm31", r.linear_complexity == 31
         and r.minimal_poly == rv.G_COMBINER),
        ("equals_brute", compare_spectra(S_brute, S) == []),
        ("support31", S.nonzero_count() == 31),
        ("disjoint_union", disjoint and set(S.support()) == union),
        ("divergence_reported", len(divergence) == 61),
    ]
    dt = time.time() - t0
    ok = all(v for _, v in checks) and dt < 60.0
    bad = [n for n, v in checks if not v]
    announce(f"CRITERION 4: {'PASS' if ok else 'FAIL'} - combiner L=31, "
             f"31-point spectrum = brute transform, support = disjoint "
             f"union of lifted pair products; combiner vs plain triple "
             f"product differ at {len(divergence)} indices (30+31, disjoint "
             f"supports), {dt:.2f}s" + (f" failed={bad}" if bad else ""))
    assert ok, bad


def _primitive_polys(m):
    lo, hi = 1 << m, 1 << (m + 1)
    return [f for f in range(lo + 1, hi, 2)
            if is_irreducible(f) and is_primitive(f)]


def test_criterion_5_exhaustive_property_sweep(announce):
    t0 = time.time()
    polys = {m: _primitive_polys(m) for m in (2, 3, 5)}
    assert [len(polys[m]) for m in (2, 3, 5)] == [1, 2, 6]

    cases = failures = 0
    for m1, m2 in ((2, 3), (2, 5), (3, 5)):
        for p1 in polys[m1]:
            for p2 in polys[m2]:
                for s1 in range(1, 1 << m1):
                    for s2 in range(1, 1 << m2):
                        rep = verify_theorem1([(p1, s1), (p2, s2)])
                        cases += 1
                        if not (rep.ok and rep.blahut_ok and rep.conjugacy_ok
                                and not rep.mismatches):
                            failures += 1
    dt = time.time() - t0
    ok = cases == 3204 and failures == 0 and dt < 120.0
    announce(f"CRITERION 5: {'PASS' if ok else 'FAIL'} - {cases} "
             f"poly/seed cases across degree pairs (2,3),(2,5),(3,5); "
             f"{failures} failures; spectrum equality, Blahut count and "
             f"conjugacy all enforced per case, {dt:.1f}s")
    assert ok, (cases, failures, dt)


def test_criterion_6_complexity_reproduction(announce):
    t0 = time.time()
    direct = estimate_direct(217, 15)
    bk = estimate_crt_breakdown([7, 31], [3, 5], 217)
    eta7, eta31, crt_term = bk.factor_costs[0], bk.factor_costs[1], bk.crt_cost

    in_direct = 11875 <= direct <= 13125
    in_total = 275 <= bk.total <= 304
    comp_218 = abs(eta31 - 218) <= 218 * 0.05
    comp_64 = crt_term == 64
    comp_7 = abs(eta7 - 7) <= 7 * 0.05

    # measured cost of one spectral point, both routes
    b, c = _stream(rv.LFSR_B), _stream(rv.LFSR_C)
    bc = pointwise_product(b, c)
    SB, SC = _factor(b), _factor(c)
    S = product_spectrum([SB, SC], CrtBasis([7, 31]))

    def run_direct(counter: OpCounter):
        cf = CountingField(S.field, counter)
        dft_point(bc, cf.element(S.root.bits), 108)

    def run_crt(counter: OpCounter):
        f1 = CountingField(SB.field, counter)
        f2 = CountingField(SC.field, counter)
        d1 = dft_point(b, f1.element(SB.root.bits), 108 % 7)
        d2 = dft_point(c, f2.element(SC.root.bits), 108 % 31)
        if d1 is not None and d2 is not None:
            product_spectrum_point([SB, SC], CrtBasis([7, 31]), 108)

    mul_direct = measure(run_direct).mul_count
    mul_crt = measure(run_crt).mul_count
    fewer = mul_crt < mul_direct

    dt = time.time() - t0
    ok = (in_direct and in_total and comp_218 and comp_64 and comp_7
          and fewer and dt < 1.0)
    announce(
        f"CRITERION 6: {'PASS' if ok else 'FAIL'} - direct {direct:.1f} "
        f"(in [11875,13125]: {in_direct}), crt total {bk.total:.2f} "
        f"(in [275,304]: {in_total}); components eta-term(31,5)={eta31:.2f} "
        f"(target 218 +-5%: {comp_218}), reconstruction={crt_term:.0f} "
        f"(target 64: {comp_64}), eta-term(7,3)={eta7:.2f} (target 7 +-5%: "
        f"{comp_7}); measured mults crt {mul_crt} < direct {mul_direct}: "
        f"{fewer}; {dt:.2f}s")
    assert in_direct and in_total and comp_218 and comp_64 and fewer and \
        dt < 1.0, "aggregate complexity checks failed"
    # The target per-factor figure for the small modulus is 7. The cost
    # model is (n_i/2)*eta(p_i) with eta(n) = n*log2(n)*log2(log2(n)) and an
    # eta floor at 3; for (p=7, n=3) that gives 1.5*eta(7) = 11.06, and no
    # reading of the formula (with or without the floor, with ceil'd or
    # floor'd logs) lands within 5% of 7 while keeping the aggregate total
    # inside its own stated band [275, 304], which this model satisfies.
    # Honest red: the component target and the aggregate target cannot both
    # hold under one formula, and the aggregate is the binding one.
    assert comp_7, (
        f"component figure for (p=7, n=3) is {eta7:.2f}, "
        f"outside 7 +- 5%; aggregate figures all hold "
        f"(direct {direct:.1f}, total {bk.total:.2f})")


def test_criterion_7_roundtrip_and_goldens(announce, capsys, tmp_path):
    import os
    t0 = time.time()
    a, b, c = _stream(rv.LFSR_A), _stream(rv.LFSR_B), _stream(rv.LFSR_C)
    streams = [a, b, c,
               pointwise_product(a, b),
               pointwise_product(b, c),
               pointwise_product(a, c),
               pointwise_product(pointwise_product(a, b), c),
               combiner_stream(AnfCombiner.parse(rv.COMBINER_ANF), [a, b, c])]
    roundtrip = all(idft(_factor(s)) == s for s in streams)

    here = os.path.dirname(os.path.abspath(__file__))
    stable = True
    for ex, name in ((1, "report_example1.md"), (2, "report_example2.md")):
        code = cli_main(["report", "--example", str(ex)])
        out = capsys.readouterr().out
        golden = open(os.path.join(here, "golden", name)).read()
        stable = stable and code == 0 and out == golden

    dt = time.time() - t0
    ok = roundtrip and stable
    announce(f"CRITERION 7: {'PASS' if ok else 'FAIL'} - idft(dft(s)) == s "
             f"for all {len(streams)} worked streams; report output "
             f"byte-identical to committed goldens, {dt:.2f}s")
    assert ok, (roundtrip, stable)
