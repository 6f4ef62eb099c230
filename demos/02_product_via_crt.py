"""Two ways to the spectrum of a bitwise product.

The long way transforms the period-21 product sequence in GF(2^6). The
short way never touches the product: it maps factor spectra through the
Chinese remainder theorem, index by index and exponent by exponent. Both
must land on the same six nonzero points.
"""

from crtspectra import (brute_dft, compare_spectra, crt_combine, CrtBasis,
                        default_field_for_period, dft, Lfsr, lfsr_stream,
                        pointwise_product, product_spectrum)


def main():
    a = lfsr_stream(Lfsr(0x7, 0b10), 3)
    b = lfsr_stream(Lfsr(0xB, 0b100), 7)
    u = pointwise_product(a, b)
    print(f"a = {a}, b = {b}")
    print(f"u = a.b = {u}  (period {u.period})\n")

    factors = []
    for s in (a, b):
        fld, root = default_field_for_period(s.period)
        factors.append(dft(s, fld, root))

    S = product_spectrum(factors)
    print("CRT path: index k <- (k mod 3, k mod 7), exponent the same way")
    basis = CrtBasis([3, 7])
    for k in S.support():
        pair = (k % 3, k % 7)
        back = crt_combine([pair[0], pair[1]], basis)
        print(f"  k={k:2d} residues {pair} recombine to {back:2d}   "
              f"value root^{S.values[k]}")

    # the drudge-work path, entirely separate arithmetic
    ref = brute_dft(u, S.field, S.root)
    diffs = compare_spectra(ref, S)
    print(f"\nbrute-force transform of u agrees: {not diffs} "
          f"({S.nonzero_count()} nonzero points)")


if __name__ == "__main__":
    main()
