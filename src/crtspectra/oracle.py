"""Brute-force referees: independent DFT, exact inverse check, spectrum
diffing, end-to-end audit.

Nothing here shares kernels with spectral.dft or crtconv. What brute_dft
guarantees:
- every spectral point S_k is a full sum over one period of the sequence;
- its only field arithmetic is the oracle's own byte tables, whose images
  `_byte_tables` fills by shift-and-reduce, stepping its one walk over the
  powers of the root;
- it takes no coset, conjugacy or CRT step, so the conjugacy audit of its
  output is a real check.

Two shortcuts keep it affordable without breaking those guarantees. The
sum for S_k folds s by residue mod N / gcd(k, N), the period of
t -> root^(tk); and x -> root*x is GF(2)-linear, so each step of the walk
is one table lookup per byte of x.

inverse_matches runs the transform the other way, on the same power walk,
and needs only a window of t. The inverse of a spectrum with support A is
a sequence of linear complexity |A| (Blahut, IBM J. Res. Dev. 23(3),
1979), and a stream of linear complexity at most B differs from it by a
sequence of linear complexity at most |A| + B. A periodic sequence that
satisfies a recurrence of order L and is zero at t = 0 .. L-1 is zero
everywhere. So a spectrum whose inverse equals s for t < |A| + B equals
it at every t, and for odd N (the transform is a bijection on one period)
it is brute_dft(s). verify_theorem1 takes B = prod of the connection
degrees, a bound on the product's linear complexity (Key, IEEE T-IT
22(6), 1976), and decides by that window.

coset_window_matches gives inverse_matches' verdict with no power walk:
it steps one element per cyclotomic coset of the claim over the window
and reads the coset's GF(2) share as a parity. verify_theorem1 feeds it
the window bits of u alone, u_t = prod of s_i[t mod n_i], so a passing
claim costs work in |A| + B and the cosets, and holds nothing of length N.

A failing claim still needs the true spectrum, to name the indices that
differ, and its support is known in advance: s_t = sum over k of
S_k root^(-tk), so the minimal polynomial f of s, which Berlekamp-Massey
(Massey, IEEE T-IT 15(1), 1969) gives from 2L bits, has exactly the roots
root^(-k) with S_k != 0. Only this path builds u over one period and the
power walk, once: _screen keeps the k where f(root^(-k)) = 0, at
N * weight(f) lookups on the walk, and _listed_dft sums only those k with
brute_dft's own per-point code. The coset window then certifies the
result, so it is brute_dft(s) without the other N - L sums; only a
spectrum the window rejects sends verify_theorem1 to brute_dft itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
from math import gcd, prod
from operator import and_

from .bm import berlekamp_massey
from .crtconv import CrtBasis, product_spectrum
from .field import FieldElement, FieldSpec
from .sequences import BitSequence, Lfsr, connection_degree, warn_if_zero_seed
from .spectral import Spectrum, dft


@dataclass(frozen=True)
class Mismatch:
    index: int
    expected: object  # log-form: None or exponent
    actual: object

    def __post_init__(self):
        if self.expected == self.actual:
            raise ValueError("not a mismatch: values agree")


def _byte_tables(start: int, shift: int, modulus: int, m: int) -> list:
    """The byte tables of the GF(2)-linear map x^i -> start * x^(shift i),
    i < m: table j maps each byte value b to the image of b << 8j. Each
    basis image is the one before it shifted left `shift` times and
    reduced, so shift 1 tabulates x -> start*x, and start 1 with shift 2
    tabulates squaring. Fields stop at degree 32, so there are always four
    tables; those past bit m map only 0."""
    tables = []
    image = start
    for lo in range(0, 32, 8):
        table = [0]
        for _ in range(min(8, m - lo)):
            table += [v ^ image for v in table]
            for _ in range(shift):
                image <<= 1
                if image >> m:
                    image ^= modulus
        tables.append(table)
    return tables


def _apply(tables):
    """The tabulated map as a function: one lookup per byte of x."""
    t0, t1, t2, t3 = tables
    return lambda x: (t0[x & 0xFF] ^ t1[x >> 8 & 0xFF]
                      ^ t2[x >> 16 & 0xFF] ^ t3[x >> 24])


def _power_walk(field: FieldSpec, root: FieldElement, N: int) -> list:
    """[root^0, ..., root^(N-1)] as bits: one walk of repeated
    multiplication gives every power and the order, which must be N."""
    times_root = _apply(_byte_tables(root.bits, 1, field.modulus, field.m))
    pw = [1]
    cur = times_root(1)
    while cur != 1:
        pw.append(cur)
        cur = times_root(cur)
        if len(pw) > field.group_order:
            raise ArithmeticError("power walk failed to cycle")
    if len(pw) != N:
        raise ValueError(f"root order {len(pw)} != sequence period {N}")
    return pw


def _sum_points(s: BitSequence, field: FieldSpec, root: FieldElement,
                pw: list, ks) -> Spectrum:
    """The spectrum of s from the full sums S_k at the indices ks, taken in
    the given order; every other point is left zero."""
    N = s.period
    dlog = {bits: d for d, bits in enumerate(pw)}
    # root^(tk) depends on t only through t mod n, n = N / gcd(k, N): fold
    # s once per n into the residues mod n that hold an odd number of ones
    folded: dict = {}
    points = {}
    for k in ks:
        n = N // gcd(k, N)
        odd = folded.get(n)
        if odd is None:
            parity = [0] * n
            for t, bit in enumerate(s.bits):
                parity[t % n] ^= bit
            odd = folded[n] = [r for r in range(n) if parity[r]]
        acc = 0
        for r in odd:
            acc ^= pw[(r * k) % N]
        if acc:
            d = dlog.get(acc)
            if d is None:
                raise ValueError(
                    f"spectral value at k={k} lies outside the cyclic group"
                    " of the root; no log-form spectrum over this root")
            points[k] = d
    return Spectrum(N, field, root, points)


def brute_dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum over one period of s_t root^(tk), for k = 0..N-1."""
    pw = _power_walk(field, root, s.period)
    return _sum_points(s, field, root, pw, range(s.period))


def _screen(pw: list, f: int) -> list:
    """The k in [0, N) with f(root^(-k)) = 0, ascending, N = len(pw).

    s_t = sum over k of S_k root^(-tk), so a recurrence with connection
    polynomial f holds on s exactly when f vanishes at root^(-k) for every
    k with S_k != 0; the roots of the minimal polynomial are the support."""
    N = len(pw)
    taps = [i for i in range(f.bit_length()) if f >> i & 1]
    support = []
    for k in range(N):
        acc = 0
        for i in taps:
            acc ^= pw[(-i * k) % N]
        if not acc:
            support.append(k)
    return support


def _listed_dft(s: BitSequence, field: FieldSpec, root: FieldElement,
                f: int) -> Spectrum:
    """brute_dft(s, field, root) summed only at the roots of f, the minimal
    polynomial of s; with any other f its support may be wrong."""
    pw = _power_walk(field, root, s.period)
    return _sum_points(s, field, root, pw, _screen(pw, f))


def inverse_matches(S: Spectrum, s: BitSequence, lc_bound: int) -> bool:
    """True exactly when the inverse transform of S is s over one period,
    given that s has linear complexity at most lc_bound.

    The inverse is s_t = sum over k of S_k root^(-tk) (1/N is 1 in
    characteristic 2). It has linear complexity |S.points|, so its
    difference from s has linear complexity at most
    W = |S.points| + lc_bound, and a periodic sequence with a recurrence
    of order W that vanishes on t < W vanishes everywhere: comparing
    t < min(N, W) decides the whole period. N is odd, so the transform is
    a bijection on one period and this holds exactly when
    S == brute_dft(s, S.field, S.root); lc_bound = N checks every t.
    Each s_t costs one table lookup per point of S; all m bits of the sum
    are compared with the bit s_t, so a sum outside GF(2) also fails.
    Stops at the first t that differs.
    """
    N = s.period
    pw = _power_walk(S.field, S.root, N)
    points = list(S.points.items())
    window = min(N, len(points) + lc_bound)
    for t, bit in enumerate(s.bits[:window]):
        acc = 0
        for k, d in points:
            acc ^= pw[(d - t * k) % N]
        if acc != bit:
            return False
    return True


def _prime_factors(n: int) -> list:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def coset_window_matches(S: Spectrum, bits, N: int, lc_bound: int) -> bool:
    """inverse_matches(S, s, lc_bound) for a sequence s of period N given by
    its first bits only, t < min(N, |S.points| + lc_bound), checked one
    cyclotomic coset at a time with no walk over the N powers of the root.

    A coset c of the support with leader k and exponent d adds
    sum over i < |c| of y^(2^i), y = root^(d - tk), to the inverse at t.
    When S is conjugate-consistent y lies in GF(2^|c|), so that sum is a
    bit: bit 0 of a GF(2)-linear map of y, the parity of y & mask. Each
    coset keeps one y and steps it by a byte table of y -> root^(-k) y.
    A claim that breaks conjugacy is rejected before the window: its
    inverse is not binary, so whenever lc_bound bounds the linear
    complexity of s, inverse_matches rejects it too. The root's order is
    checked against N, as the power walk checks it, by square-and-multiply
    on the oracle's own tables.
    """
    pts = S.points
    F = S.field
    squares = _byte_tables(1, 2, F.modulus, F.m)
    square = _apply(squares)
    times_root = _apply(_byte_tables(S.root.bits, 1, F.modulus, F.m))

    def power(e: int) -> int:
        x = 1
        for b in bin(e)[2:]:
            x = square(x)
            if b == "1":
                x = times_root(x)
        return x

    if power(N) != 1 or any(power(N // p) == 1 for p in _prime_factors(N)):
        order = F.group_order
        for p in _prime_factors(order):
            while order % p == 0 and power(order // p) == 1:
                order //= p
        raise ValueError(f"root order {order} != sequence period {N}")
    # walk each orbit k -> 2k mod N of the support: every index on it must
    # carry the doubled exponent, back to the leader's own
    cosets, seen = [], set()
    for k, d in pts.items():
        if k in seen:
            continue
        j, e, size = k, d, 0
        while True:
            if pts.get(j) != e:
                return False
            seen.add(j)
            size += 1
            j, e = 2 * j % N, 2 * e % N
            if j == k:
                break
        if e != d:
            return False
        cosets.append((k, d, size))

    window = min(N, len(pts) + lc_bound)
    if len(bits) < window:
        raise ValueError(f"{len(bits)} bits given, the window needs {window}")
    # s_t plus every coset's share is zero at each t exactly on a match
    residue = bytearray(bits[:window])
    masks = {}
    for k, d, size in cosets:
        mask = masks.get(size)
        if mask is None:
            # the mask of y -> bit 0 of y^(2^i) is the one of i - 1 composed
            # with squaring: bit j is the parity of (x^j)^2 & that mask
            images = [squares[j >> 3][1 << (j & 7)] for j in range(F.m)]
            mask, v = 0, 1
            for _ in range(size):
                mask ^= v
                v = sum(((image & v).bit_count() & 1) << j
                        for j, image in enumerate(images))
            masks[size] = mask
        t0, t1, t2, t3 = _byte_tables(power(-k % N), 1, F.modulus, F.m)
        y = power(d)
        for t in range(window):
            residue[t] ^= (y & mask).bit_count() & 1
            y = (t0[y & 0xFF] ^ t1[y >> 8 & 0xFF]
                 ^ t2[y >> 16 & 0xFF] ^ t3[y >> 24])
    return not any(residue)


def compare_spectra(X: Spectrum, Y: Spectrum) -> list[Mismatch]:
    """Index-by-index diff; first argument is the reference side."""
    if X.N != Y.N:
        raise ValueError(f"incomparable: N {X.N} vs {Y.N}")
    if X.field != Y.field:
        raise ValueError("incomparable: different fields")
    if X.root != Y.root:
        raise ValueError("incomparable: different roots")
    x, y = X.points, Y.points
    return [Mismatch(k, x.get(k), y.get(k))
            for k in sorted(x.keys() | y.keys()) if x.get(k) != y.get(k)]


@dataclass
class VerifyReport:
    ok: bool
    N: int
    moduli: tuple
    support_size: int
    linear_complexity: int
    blahut_ok: bool
    conjugacy_ok: bool
    mismatches: list

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        missed = sum(1 for m in self.mismatches if m.expected is not None)
        good = self.support_size - missed
        return (f"{verdict} N={self.N} moduli={list(self.moduli)}"
                f" points={good}/{self.support_size}"
                f" L={self.linear_complexity}"
                f" blahut={'ok' if self.blahut_ok else 'VIOLATED'}"
                f" conjugacy={'ok' if self.conjugacy_ok else 'VIOLATED'}"
                f" mismatches={len(self.mismatches)}")


def _one_period(connection: int, seed: int, bound: int) -> BitSequence:
    """Exact single period of an LFSR stream: run until the state recurs.
    State bit i holds s_(t+i), so the state recurs exactly when the output
    does and the walk is already the least period."""
    l = Lfsr(connection, seed)
    warn_if_zero_seed(l)
    start = l.state
    out = [l.step()]
    while l.state != start:
        out.append(l.step())
        if len(out) > bound:
            raise ValueError(f"stream period exceeds bound {bound}")
    return BitSequence(tuple(out))


def _product_bits(streams, n: int) -> list:
    """u_t = prod over the streams of s_i[t mod n_i], for t < n."""
    bits = list(islice(cycle(streams[0].bits), n))
    for s in streams[1:]:
        bits = list(map(and_, bits, cycle(s.bits)))
    return bits


def verify_theorem1(lfsrs, bound: int = 100_000,
                    tamper_index: int | None = None) -> VerifyReport:
    """Both paths end to end on given (connection, seed) pairs.

    Generates the streams, takes each factor's spectrum, computes the
    product spectrum by CRT and checks it against the actual bitwise
    product u by coset_window_matches, on the window that B, the product
    of the connection degrees, bounds. A pass builds only those bits of u
    and no power walk. When the check fails, u is built over one period
    and the reference spectrum is u's transform summed only at the k that
    the screen by u's minimal polynomial keeps, on the one power walk of
    the run; its diff names the mismatched indices. The same window
    certifies that spectrum; only if the window rejects it does brute_dft
    of u take its place.
    Then it audits Blahut and conjugacy on the reference spectrum. A
    single LFSR degenerates to comparing a sequence's spectrum with itself.

    tamper_index flips the CRT value at that index (zero <-> g^0) before
    the comparison, so the report must come back failing; it proves the
    referee is not vacuous.
    """
    from .spectral import default_field_for_period
    if not lfsrs:
        raise ValueError("need at least one (connection, seed) pair")
    streams = [_one_period(conn, seed, bound) for conn, seed in lfsrs]
    periods = [s.period for s in streams]
    basis = CrtBasis(periods)
    N = basis.N
    if N > bound:
        raise ValueError(f"product period {N} exceeds bound {bound}")
    if tamper_index is not None and not 0 <= tamper_index < N:
        raise ValueError(f"tamper index {tamper_index} out of range for N={N}")

    factors = []
    for s in streams:
        fld, rt = default_field_for_period(s.period)
        factors.append(dft(s, fld, rt))
    S_crt = product_spectrum(factors, basis)
    if tamper_index is not None:
        pts = S_crt.points
        S_crt = Spectrum(N, S_crt.field, S_crt.root, {
            k: pts.get(k, 0) for k in pts.keys() ^ {tamper_index}})

    # the periods are pairwise coprime, so u_t = prod of s_i[t mod n_i] has
    # period N; its linear complexity L is at most B, the product of the
    # register lengths. BM pins L and the minimal polynomial from the first
    # 2 min(B, N) bits, and the coset window reads min(N, |A| + B)
    B = prod(connection_degree(conn) for conn, _ in lfsrs)
    window = _product_bits(streams, max(2 * min(B, N),
                                        min(N, len(S_crt.points) + B)))
    r = berlekamp_massey(window[:2 * min(B, N)])
    if coset_window_matches(S_crt, window, N, B):
        S_ref, mismatches = S_crt, []
    else:
        # the forward transform at the roots of u's minimal polynomial
        # names the indices that differ; the window certifies it, and
        # brute_dft runs only if it does not
        u = BitSequence(tuple(_product_bits(streams, N)))
        S_ref = _listed_dft(u, S_crt.field, S_crt.root, r.minimal_poly)
        if not coset_window_matches(S_ref, u.bits, N, B):
            S_ref = brute_dft(u, S_crt.field, S_crt.root)
        mismatches = compare_spectra(S_ref, S_crt)
    blahut_ok = S_ref.nonzero_count() == r.linear_complexity
    conjugacy_ok = (S_ref.conjugacy_violation() is None
                    and S_crt.conjugacy_violation() is None)
    return VerifyReport(
        ok=not mismatches and blahut_ok and conjugacy_ok,
        N=N,
        moduli=tuple(periods),
        support_size=S_ref.nonzero_count(),
        linear_complexity=r.linear_complexity,
        blahut_ok=blahut_ok,
        conjugacy_ok=conjugacy_ok,
        mismatches=mismatches,
    )
