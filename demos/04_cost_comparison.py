"""What the CRT route saves, on paper and on a stopwatch.

Prices one spectral point of the period-217 product b.c two ways: a
direct evaluation in GF(2^15) versus per-factor evaluations in GF(2^3)
and GF(2^5) plus an integer recombination. The model counts bit
operations with the softmultiply estimate eta(n) = n log2(n) log2(log2 n);
the measurement counts actual field multiplications performed.
"""

from crtspectra import estimate_crt_breakdown, estimate_direct
from crtspectra.cases import LFSR_B, LFSR_C, pair_case, priced_point


def main():
    k = 108

    est_direct = estimate_direct(217, 15)
    bk = estimate_crt_breakdown([7, 31], [3, 5], 217)
    print(f"estimated bit ops, direct GF(2^15) : {est_direct:8.1f}")
    print(f"estimated bit ops, CRT route       : {bk.total:8.2f}")
    print(f"  per-factor terms {bk.factor_costs[0]:.2f} + "
          f"{bk.factor_costs[1]:.2f}, recombination {bk.crt_cost:.0f}")
    print(f"  working bits: {bk.factor_bits} vs 15\n")

    ex = pair_case(LFSR_B, LFSR_C)
    md, mc = priced_point(ex, k)
    print(f"measured field multiplications at k={k}:")
    print(f"  direct {md.mul_count}, CRT {mc.mul_count}  "
          f"(ratio {md.mul_count / mc.mul_count:.1f}x)")
    print(f"value agrees both ways: S_{k} = root^{ex.spectrum.values[k]}")


if __name__ == "__main__":
    main()
