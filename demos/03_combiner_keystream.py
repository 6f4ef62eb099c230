"""Spectrum of a nonlinear combiner, assembled term by term.

The keystream is f(a,b,c) = ab + bc + ac over three short registers with
coprime periods 3, 7, 31. Each product term's spectrum lands in the full
period-651 index space by CRT, with residue 0 for the register outside
the term, and the three lifted supports turn out disjoint, so the
combiner spectrum is just
their union. Brute force on the actual keystream confirms every point,
and Berlekamp-Massey confirms the predicted linear complexity 31.
"""

from crtspectra import (AnfCombiner, berlekamp_massey, brute_dft,
                        combiner_spectrum, combiner_stream,
                        combiner_term_supports, compare_spectra, CrtBasis,
                        default_field_for_period, dft, Lfsr, lfsr_stream,
                        product_spectrum)


def main():
    a = lfsr_stream(Lfsr(0x7, 0b10), 3)
    b = lfsr_stream(Lfsr(0xB, 0b100), 7)
    c = lfsr_stream(Lfsr(0x25, 0b10000), 31)
    f = AnfCombiner.parse("1*2+2*3+1*3")
    w = combiner_stream(f, [a, b, c])
    print(f"f = x1x2 + x2x3 + x1x3 on periods 3,7,31 -> keystream period "
          f"{w.period}")

    factors = []
    for s in (a, b, c):
        fld, root = default_field_for_period(s.period)
        factors.append(dft(s, fld, root))
    basis = CrtBasis([3, 7, 31])

    lifts = combiner_term_supports(f, factors, basis)
    total, sizes = set(), []
    for mono, idx in sorted(lifts.items(), key=lambda kv: sorted(kv[0])):
        name = "x" + " x".join(str(v) for v in sorted(mono))
        print(f"  term {name:6s} lifts to {len(idx):2d} indices, e.g. "
              f"{idx[:4]}...")
        assert total.isdisjoint(idx)
        total |= set(idx)
        sizes.append(len(idx))

    S = combiner_spectrum(f, factors, basis)
    print(f"combined support: {S.nonzero_count()} points "
          f"(= {' + '.join(map(str, sizes))}, disjoint)")

    ref = brute_dft(w, S.field, S.root)
    print(f"brute-force transform of the keystream agrees: "
          f"{not compare_spectra(ref, S)}")

    r = berlekamp_massey([w.bit(t) for t in range(2 * w.period)])
    print(f"Berlekamp-Massey: L = {r.linear_complexity} "
          f"(= spectral count, per Blahut)")

    # the combiner is NOT the plain triple product: same index space,
    # different supports entirely
    abc = product_spectrum(factors, basis)
    diffs = compare_spectra(abc, S)
    print(f"against the plain product a.b.c: {len(diffs)} differing indices "
          f"({abc.nonzero_count()} + {S.nonzero_count()}, no overlap)")


if __name__ == "__main__":
    main()
