"""Brute-force referees: independent DFT, exact inverse check, spectrum
diffing, end-to-end audit.

Nothing here shares kernels with spectral.dft or crtconv: field
arithmetic, transforms and CRT are the oracle's own. What it shares is
what is not a kernel: its LFSR periods, stream products and the bytes
it unpacks from a packed sequence come from sequences, the one stream
layer, and its GF(2)[x] int arithmetic (pmul, pdivmod, pmod) from
gf2poly. What brute_dft guarantees:
- every spectral point S_k is a full sum over one period of the sequence;
- its only field arithmetic is the oracle's own byte tables, whose images
  `_byte_tables` fills by shift-and-reduce, stepping its one walk over the
  powers of the root;
- it takes no coset, conjugacy or CRT step, so the conjugacy audit of its
  output is a real check.

Two shortcuts keep it affordable without breaking those guarantees. The
sum for S_k folds s by residue mod N / gcd(k, N), the period of
t -> root^(tk), by the oracle's own XOR of the word's chunks; and
x -> root*x is GF(2)-linear, so each step of the walk is one table
lookup per byte of x.

inverse_matches runs the transform the other way, on the same power walk,
and needs only a window of t. The inverse of a spectrum with support A is
a sequence of linear complexity |A| (Blahut, IBM J. Res. Dev. 23(3),
1979), and a stream of linear complexity at most B differs from it by a
sequence of linear complexity at most |A| + B. A periodic sequence that
satisfies a recurrence of order L and is zero at t = 0 .. L-1 is zero
everywhere. So a spectrum whose inverse equals s for t < |A| + B equals
it at every t, and for odd N (the transform is a bijection on one period)
it is brute_dft(s).

verify_theorem1 decides a claim and names its mismatches by one identity,
read from the first bits of the product u. u_t = sum over k of U_k
root^(-tk), so the minimal polynomial f of u, which Berlekamp-Massey
(Massey, IEEE T-IT 15(1), 1969) gives from 2L bits, has exactly the roots
root^(-k) with U_k != 0. With c the reverse of f, sum_t u_t z^t = g / c,
g = (u mod z^L) c mod z^L, and partial fractions give the residue form
U_k beta c'(beta) = g(beta) at beta = root^k, where c(beta) = 0 exactly
on the support (Blahut 1979; Massey and Serconek, CRYPTO '94). _residue_of
evaluates c, c' and g by Horner on a byte table of x -> beta x, once per
doubling orbit k -> 2k mod N (c(x^2) = c(x)^2). _residue_dft lists u's
transform in one pass over the orbits, the claim's first, and stops at
L points, since c is squarefree of degree L. At each root it tries the
claim's exponent d by one multiplication, root^d beta c'(beta) =
g(beta); only where that fails does it invert by extended Euclid on the
field modulus and take the log by baby-step giant-step. So a right claim
costs no inverse and no log, and the diff of the listed transform with
the claim decides it and names its mismatches. The bits come from B =
prod of the connection degrees, a bound on the product's linear
complexity (Key, IEEE T-IT 22(6), 1976): BM reads 2 min(B, N) bits, and
nothing of length N is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, prod

from .bm import berlekamp_massey
from .crtconv import CrtBasis, product_spectrum
from .field import FieldElement, FieldSpec
from .gf2poly import pdivmod, pmod, pmul
from .records import FrozenRecord, Record
from .sequences import (BitSequence, _one_period, _product_bits, bit_bytes,
                        connection_degree)
from .spectral import Spectrum, default_field_for_period, dft


class Mismatch(FrozenRecord):
    # index, then the log-form values (None or an exponent) that differ
    __slots__ = ("index", "expected", "actual")

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


# the squaring and x -> root*x tables of _power_of and _log_of depend only
# on the field and the root, so each is built once per process. A table
# entry is four tables of at most 256 ints, about 33 kB, so the memo stays
# near 1 MB when full
@lru_cache(maxsize=32)
def _memo_tables(start: int, shift: int, modulus: int, m: int) -> tuple:
    """_byte_tables(start, shift, modulus, m) as tuples."""
    return tuple(map(tuple, _byte_tables(start, shift, modulus, m)))


def _power_of(field: FieldSpec, root_bits: int):
    """e -> root^e, e >= 0, by square-and-multiply on the memoized squaring
    and x -> root*x tables."""
    square = _apply(_memo_tables(1, 2, field.modulus, field.m))
    times_root = _apply(_memo_tables(root_bits, 1, field.modulus, field.m))

    def power(e: int) -> int:
        x = 1
        for b in bin(e)[2:]:
            x = square(x)
            if b == "1":
                x = times_root(x)
        return x
    return power


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


def brute_dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum over one period of s_t root^(tk), for k = 0..N-1."""
    N = s.period
    pw = _power_walk(field, root, N)
    dlog = {bits: d for d, bits in enumerate(pw)}
    # root^(tk) depends on t only through t mod n, n = N / gcd(k, N): fold
    # s once per n into the residues mod n that hold an odd number of ones
    folded: dict = {}
    points = {}
    for k in range(N):
        n = N // gcd(k, N)
        odd = folded.get(n)
        if odd is None:
            parity = _fold(s.word, N, n)
            odd = folded[n] = list(compress(range(n), bit_bytes(parity, n)))
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


def _fold(word: int, N: int, n: int) -> int:
    """The XOR of the N / n chunks of n bits of an N-bit word, n | N: bit r
    is the parity of the bits t = r mod n. Each step XORs the upper chunks
    onto the lower ones and so halves their number, so the work is O(N)."""
    m = N // n
    while m > 1:
        h = m // 2
        word = (word & ((1 << h * n) - 1)) ^ (word >> h * n)
        m -= h
    return word


def _horner(p: int, tables) -> int:
    """p(beta) for p in GF(2)[x], given the byte tables of x -> beta*x."""
    t0, t1, t2, t3 = tables
    acc = 0
    for b in format(p, "b").encode():
        acc = (t0[acc & 0xFF] ^ t1[acc >> 8 & 0xFF]
               ^ t2[acc >> 16 & 0xFF] ^ t3[acc >> 24] ^ b & 1)
    return acc


def _inverse(a: int, modulus: int) -> int:
    """a^-1 in GF(2)[x] / modulus, a != 0, by extended Euclid."""
    r0, r1, s0, s1 = modulus, a, 0, 1
    while r1 != 1:
        q, r = pdivmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 ^ pmul(q, s1)
    return s1


def _log_of(field: FieldSpec, root_bits: int, N: int, power):
    """y -> the d in [0, N) with root^d = y, or None when y is not a power
    of the root (of order N), by baby-step giant-step: a dict of the
    first M = ceil(sqrt N) powers, then steps of root^(-M) from y."""
    M = isqrt(N - 1) + 1
    times_root = _apply(_memo_tables(root_bits, 1, field.modulus, field.m))
    baby, x = {}, 1
    for j in range(M):
        baby[x] = j
        x = times_root(x)
    giant = _apply(_byte_tables(power(-M % N), 1, field.modulus, field.m))

    def log(y: int):
        for i in range(0, N, M):
            j = baby.get(y)
            if j is not None:
                return (i + j) % N
            y = giant(y)
        return None
    return log


def _residue_of(word: int, f: int, F: FieldSpec, power):
    """k -> (g(beta), beta c'(beta)) at beta = power(k), or None when beta
    is not a root of c, for the sequence u whose first L bits are the low
    bits of word (bit t is u_t) and whose minimal polynomial is f, of
    degree L.

    u_t = sum over k of U_k x_k^t, x_k = root^(-k), so with c the reverse
    of f, c(z) = prod over the support of (1 - x_k z), the power series
    sum_t u_t z^t is g / c with deg g < L: g = (u mod z^L) c mod z^L.
    Partial fractions give U_k beta c'(beta) = g(beta) at beta = root^k,
    a root of c exactly when U_k != 0 (Blahut 1979; Massey and Serconek
    1994). c, c' and g are set up once; each call builds one byte table
    of x -> beta x and runs its Horner passes on it."""
    L = f.bit_length() - 1
    c = int(format(f, f"0{L + 1}b")[::-1], 2)
    low = (1 << L) - 1
    g = pmul(word & low, c) & low
    # c'(z) keeps c's odd-degree terms, each lowered by one
    dc = c >> 1 & int("01" * (L // 2 + 1), 2)

    def residue(k: int):
        beta = _byte_tables(power(k), 1, F.modulus, F.m)
        if _horner(c, beta):
            return None
        return _horner(g, beta), _apply(beta)(_horner(dc, beta))
    return residue


def _residue_dft(word: int, f: int, S: Spectrum) -> Spectrum | None:
    """The transform of u over S's field and root by _residue_of, from the
    first L bits of u (bit t of word is u_t) and f, u's minimal
    polynomial, of degree L; None when a value is not a power of the
    root, or when f has fewer than L roots among the powers of the root.

    U_k = g(beta) / (beta c'(beta)) at each root beta = root^k of c. c
    has GF(2) coefficients, so one leader per orbit k -> 2k mod N decides
    the orbit, and U_2k = U_k^2 doubles its log. f divides x^N + 1, N
    odd, so c is squarefree of degree L, and the search stops once its
    orbits hold L points. It tries the orbits of S's indices first, then
    the others in index order, and takes S's exponent d at a leader as a
    hint: if root^d beta c'(beta) = g(beta), d is the value, since the
    root has order N. Only a leader without a right hint costs an inverse
    by extended Euclid on the field modulus and a log by baby-step
    giant-step, whose tables are built at the first such leader. So a
    right claim is listed at its own orbits by one multiplication each;
    only an orbit the claim leaves out, or whose first claimed exponent
    is wrong, costs an inverse and a log. A transform equal to the claim
    is returned as S itself, not rebuilt."""
    N, F, claim = S.N, S.field, S.points
    L = f.bit_length() - 1
    power = _power_of(F, S.root.bits)
    residue = _residue_of(word, f, F, power)
    log = None
    points, seen = {}, set()
    for k in chain(claim, range(N)):
        if len(points) == L:
            break
        if k in seen:
            continue
        orbit, j = [k], 2 * k % N
        while j != k:
            orbit.append(j)
            j = 2 * j % N
        seen.update(orbit)
        r = residue(k)
        if r is None:
            continue
        g, bdc = r
        d = claim.get(k)
        if d is None or pmod(pmul(power(d), bdc), F.modulus) != g:
            log = log or _log_of(F, S.root.bits, N, power)
            d = log(pmod(pmul(g, _inverse(bdc, F.modulus)), F.modulus))
            if d is None:
                return None
        for j in orbit:
            points[j] = d
            d = 2 * d % N
    if len(points) != L:
        return None
    if points == claim:   # the claim is right: it is the transform
        return S
    return Spectrum(N, F, S.root, points)


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
    Stops at the first t that differs. A negative lc_bound is refused.
    """
    if lc_bound < 0:
        raise ValueError(f"lc_bound {lc_bound} is negative")
    N = s.period
    pw = _power_walk(S.field, S.root, N)
    points = list(S.points.items())
    window = min(N, len(points) + lc_bound)
    for t, bit in enumerate(bit_bytes(s.word, window)):
        acc = 0
        for k, d in points:
            acc ^= pw[(d - t * k) % N]
        if acc != bit:
            return False
    return True


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


class VerifyReport(Record):
    __slots__ = ("ok", "N", "moduli", "support_size", "linear_complexity",
                 "blahut_ok", "conjugacy_ok", "mismatches")

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


def verify_theorem1(lfsrs, bound: int = 100_000,
                    tamper_index: int | None = None) -> VerifyReport:
    """Both paths end to end on given (connection, seed) pairs.

    Generates the streams, takes each factor's spectrum, computes the
    product spectrum by CRT and decides it against the actual bitwise
    product u by one identity, read from the first 2 min(B, N) bits of u,
    B the product of the connection degrees, and u's minimal polynomial
    by BM: _residue_dft lists u's transform in residue form from those
    bits, first at the doubling orbits of the claim's indices, with the
    claim's exponents as hints, and then at the other orbits in index
    order until it holds L points; its diff with the claim is empty
    exactly when the claim is right, and otherwise names the mismatched
    indices. It never builds u past those bits or walks the powers of the
    root. A product of log-form streams always has such a transform, so a
    lister that finds none raises ArithmeticError, on a right claim too.
    Then it audits Blahut on the claim, whose size must be L (the
    reference always holds L points), and conjugacy on both. A single
    LFSR degenerates to comparing a sequence's spectrum with itself.

    tamper_index flips the CRT value at that index (zero <-> g^0) before
    the comparison, so the report must come back failing; it proves the
    referee is not vacuous.
    """
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
    # register lengths, so BM pins L and the minimal polynomial from the
    # first 2 min(B, N) bits, which decide the claim and list it
    B = prod(connection_degree(conn) for conn, _ in lfsrs)
    W = 2 * min(B, N)
    word = _product_bits(streams, W)
    r = berlekamp_massey(bit_bytes(word, W))
    # u's transform from the same bits, with the claim's exponents as
    # hints; its diff names the indices that differ
    S_ref = _residue_dft(word, r.minimal_poly, S_crt)
    if S_ref is None:
        raise ArithmeticError(
            f"the product of period {N} has no log-form spectrum over"
            " the claim's root")
    mismatches = [] if S_ref is S_crt else compare_spectra(S_ref, S_crt)
    blahut_ok = S_crt.nonzero_count() == r.linear_complexity
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
