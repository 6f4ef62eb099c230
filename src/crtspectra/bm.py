"""Berlekamp-Massey over GF(2)."""

from __future__ import annotations

from .records import FrozenRecord


class BmResult(FrozenRecord):
    """Shortest-LFSR answer: length L and its degree-L connection polynomial.

    The polynomial is oriented so that s[t+L] = parity(taps AND window),
    taps being the low L bits; the leading coefficient is always 1.
    """

    __slots__ = ("linear_complexity", "minimal_poly")

    def __post_init__(self):
        if self.linear_complexity < 0:
            raise ValueError("linear complexity cannot be negative")
        if self.minimal_poly.bit_length() - 1 != self.linear_complexity:
            raise ValueError(
                f"polynomial degree {self.minimal_poly.bit_length() - 1} "
                f"disagrees with L={self.linear_complexity}")


def _as_bits(s) -> bytes:
    """s as bytes of 0 or 1; bytes, such as sequences.bit_bytes makes from
    a packed word, are taken as they are."""
    return s if isinstance(s, bytes) else bytes(int(b) for b in s)


def berlekamp_massey(bits) -> BmResult:
    """Linear complexity and minimal connection polynomial of a bit array.

    Needs >= 2L input bits to pin down the true L of a longer stream; on
    shorter input it answers for the prefix, which is standard behavior.
    """
    s = _as_bits(bits)
    if not s:
        raise ValueError("empty input")
    # C tracks the recurrence in reversed (discrepancy) orientation, bit i
    # = coefficient of x^i, C(0) = 1 throughout, deg C <= L. Bit i of
    # window is s[n - i]; it keeps the whole prefix, since a jump of L
    # reaches back to bits older than the current L.
    C, B = 1, 1
    L, m = 0, 1
    window = 0
    for n, sn in enumerate(s):
        window = (window << 1) | sn
        d = (C & window).bit_count() & 1
        if d == 0:
            m += 1
        elif 2 * L <= n:
            C, B = C ^ (B << m), C
            L = n + 1 - L
            m = 1
        else:
            C ^= B << m
            m += 1
    # forward connection polynomial: coefficient j of f is coefficient
    # L - j of C (f(x) = x^L C(1/x)); monic of degree exactly L
    f = 0
    for j in range(L + 1):
        f |= ((C >> (L - j)) & 1) << j
    result = BmResult(L, f)
    if bytes(regenerate(result, s[:L], len(s))) != s:
        raise AssertionError("BM output failed to regenerate its input")
    return result


def regenerate(r: BmResult, seed_bits, n: int) -> list[int]:
    """Run the recurrence from its first L bits for n outputs."""
    seed = _as_bits(seed_bits) if seed_bits else []
    L = r.linear_complexity
    if len(seed) != L:
        raise ValueError(f"seed length {len(seed)} != L = {L}")
    if n < 0:
        raise ValueError("need n >= 0")
    if L == 0:
        return [0] * n
    taps = r.minimal_poly & ((1 << L) - 1)
    out = list(seed[:n])
    window = 0
    for i, b in enumerate(seed):
        window |= b << i
    while len(out) < n:
        nxt = (window & taps).bit_count() & 1
        out.append(nxt)
        window = (window >> 1) | (nxt << (L - 1))
    return out
