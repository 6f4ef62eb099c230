"""Analytic cost model and empirical field-operation counters.

The model prices one spectral point: a length-N Horner evaluation costs
about N/2 multiplications in GF(2^n), each worth eta(n) = n log2(n)
log2(log2(n)) bit operations, so the direct path is (N/2) eta(n). The
CRT path pays the same toll per factor in its small field plus len(N)^2
for the index/exponent reconstruction. All logs are base 2; that choice
is what makes the worked figures come out right.
"""

from __future__ import annotations

from math import log2

from .records import FrozenRecord, Record


def eta(n: int) -> float:
    """n log2(n) log2(log2(n)); defined for n >= 3 (loglog of 2 is 0)."""
    if n < 3:
        raise ValueError(f"eta undefined below 3, got {n}")
    return n * log2(n) * log2(log2(n))


def bit_len(N: int) -> int:
    return int(N).bit_length()


class OpCounter(Record):
    """Mutable tally of field multiplications and their reductions, written
    by a CountingField(field, counter) view; one per measured run. Additions
    are XORs and go uncounted."""

    __slots__ = ("mul_count", "reduction_count")

    def __init__(self, mul_count: int = 0, reduction_count: int = 0):
        super().__init__(mul_count, reduction_count)

    def total(self) -> int:
        return self.mul_count + self.reduction_count


def estimate_direct(N: int, n: int) -> float:
    """Bit-op estimate for one spectral point, straight N-term evaluation
    in GF(2^n)."""
    if N < 2:
        raise ValueError(f"need period N >= 2, got {N}")
    if n < 3:
        raise ValueError(f"need field degree n >= 3, got {n}")
    return (N / 2) * eta(n)


class CrtCostBreakdown(FrozenRecord):
    __slots__ = (
        "factor_costs",  # (n_i/2) * eta(p_i) per factor
        "crt_cost",      # len(N)^2
        "total",
        "factor_bits",   # sum of factor field degrees
        "len_bits",      # len(N)
        "floored",       # factor indices whose degree hit the eta floor
    )


def estimate_crt_breakdown(moduli, degrees, N: int) -> CrtCostBreakdown:
    """Per-factor and reconstruction costs of the CRT path for one point.

    Factor fields of degree < 3 are priced at eta(3); which factors were
    floored is recorded so reports can say so.
    """
    moduli = list(moduli)
    degrees = list(degrees)
    if not moduli:
        raise ValueError("empty basis")
    if len(moduli) != len(degrees):
        raise ValueError(f"{len(moduli)} moduli vs {len(degrees)} degrees")
    costs = []
    floored = []
    for i, (n_i, p_i) in enumerate(zip(moduli, degrees)):
        if n_i < 1 or p_i < 1:
            raise ValueError("moduli and degrees must be positive")
        if p_i < 3:
            floored.append(i)
            p_i = 3
        costs.append((n_i / 2) * eta(p_i))
    crt_cost = float(bit_len(N) ** 2)
    return CrtCostBreakdown(
        factor_costs=tuple(costs),
        crt_cost=crt_cost,
        total=sum(costs) + crt_cost,
        factor_bits=sum(degrees),
        len_bits=bit_len(N),
        floored=tuple(floored),
    )


def measure(run) -> OpCounter:
    """Run a computation with a fresh counter and hand the tallies back.

    `run` receives the OpCounter and is expected to thread it into field
    views via CountingField(field, counter); a run that never does stays at
    zero.
    """
    counter = OpCounter()
    run(counter)
    return counter
