"""Finite-field DFT of periodic binary sequences, in log form.

A Spectrum stores only its nonzero points k -> d, S_k = root^d; every
other index is ZERO (encoded as None). Exponent arithmetic is what the CRT
path in crtconv operates on, so the log form is the primary representation
and full field values are derived from it on demand.

dft finds the support before it sums anything: S_k != 0 exactly at the
roots root^k of the support polynomial c = (x^N + 1) / gcd(x^N + 1, s(x)),
of degree L, the linear complexity (Blahut 1979). c comes from GF(2)[x]
int arithmetic, so the power table stays dft's only field work.
dft_point screens its index by the same c, found by Euclid under a
budget so that dense input, where it cannot pay, costs little; past the
plan bound a point on the support comes from the residue form
S_k beta c'(beta) = g(beta) (Massey and Serconek 1994), which reads only
c, c' and the first L bits of s.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress

from .field import (CountingField, FieldElement, FieldSpec, _coset_leaders,
                    _doubling_orbit, _ones, build_field, discrete_log,
                    element_of_order, element_order, has_order,
                    multiplicative_order_of_2, power_sum, root_power_table)
from .gf2poly import pdivmod, pmod, pmul
from .sequences import BitSequence, bit_bytes

ZERO = None  # spectral zero marker; never exponent-encoded


class Spectrum:
    """points maps each nonzero index k to the exponent d of S_k = root^d.
    The Spectrum keeps its own copy, in ascending k, and never mutates it.

    The root has order N, a divisor of the odd group order 2^m - 1, so N is
    odd; the conjugacy check relies on that, since for odd N the doubling
    k -> 2k mod N permutes the indices.

    Immutable; equal when N, field, root and points are, and unhashable,
    since points is a dict."""

    def __init__(self, N: int, field: FieldSpec, root: FieldElement,
                 points: dict):
        pts = dict(sorted(points.items()))
        if root.field != field:
            raise ValueError("root does not live in the stated field")
        if not has_order(root, N):
            raise ValueError(f"root order {element_order(root)} != N = {N}")
        # k breaks d(2k) = 2 d(k) exactly when k is in the support and its
        # double is not right, or k = j (N+1)/2 is zero and its double j is
        # in the support; the least such k is the first of an index walk
        bad = []
        for k, d in pts.items():
            if not 0 <= k < N:
                raise ValueError(f"index {k} outside [0, {N})")
            if d is ZERO or not 0 <= d < N:
                raise ValueError(
                    f"exponent {d} at index {k} outside [0, {N})")
            if pts.get(2 * k % N) != 2 * d % N:
                bad.append((k, 2 * k % N))
            h = k * (N + 1) // 2 % N
            if h not in pts:
                bad.append((h, k))
        self.__dict__.update(N=N, field=field, root=root, points=pts,
                             _violation=min(bad, default=None))

    @classmethod
    def _proven(cls, N: int, field: FieldSpec, root: FieldElement,
                pairs) -> Spectrum:
        """A kernel's output from its (k, d) pairs, k distinct, with the
        public constructor's ascending points and none of its checks: the
        kernel proves that root, in field, has order N, that every index
        and exponent lies in [0, N), and that d(2k) = 2 d(k) mod N holds,
        so the scan is not run and the spectrum has no conjugacy
        violation. Outside data go through Spectrum(...)."""
        S = object.__new__(cls)
        S.__dict__.update(N=N, field=field, root=root,
                          points=dict(sorted(pairs)), _violation=None)
        return S

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.N, self.field, self.root, self.points)
                == (other.N, other.field, other.root, other.points))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def values(self) -> tuple:
        """The dense view: values[k] is the exponent at k, or ZERO."""
        return tuple(map(self.points.get, range(self.N)))

    def support(self) -> list[int]:
        return list(self.points)

    def nonzero_count(self) -> int:
        return len(self.points)

    def conjugacy_violation(self):
        """(k, 2k mod N) for the least index k with d(2k) != 2 d(k) mod N,
        or None if the spectrum is conjugate-consistent."""
        return self._violation

    def __repr__(self):
        return (f"Spectrum(N={self.N}, GF(2^{self.field.m}),"
                f" {self.nonzero_count()} nonzero)")


@lru_cache(maxsize=256)
def default_field_for_period(N: int):
    """Smallest home for a period-N spectrum: GF(2^n), n = ord of 2 mod N,
    and its canonical order-N root. Every GF(2^m)^* has odd order 2^m - 1,
    so an even period has no home. Memoized per process: the root search
    runs once per N."""
    if N % 2 == 0:
        raise ValueError(f"period {N} is even: GF(2^m) has no element of"
                         " even order")
    n = multiplicative_order_of_2(N)
    field = build_field(n)
    return field, element_of_order(field, N)


def support_polynomial(s: BitSequence) -> tuple[int, int]:
    """(c, r) with c = (x^N + 1) / gcd(x^N + 1, s(x)) and r = s(x) mod c,
    where s(x) = sum_t s_t x^t over one period, N = s.period: the packed
    word of s.

    Pure GF(2)[x] int arithmetic. For odd N and a root of order N, the
    powers root^k are the N simple roots of x^N + 1, and S_k = s(root^k),
    so S_k != 0 exactly when c(root^k) = 0, and there S_k = r(root^k).
    deg c is the linear complexity L of s (Blahut 1979), and c reversed is
    its minimal polynomial: s(x) / (x^N + 1) in lowest terms has
    denominator c."""
    c = _support_divisor(s)
    return c, pmod(s.word, c)


def _support_divisor(s: BitSequence, budget: int | None = None):
    """c = (x^N + 1) / gcd(x^N + 1, s(x)), as in support_polynomial, or
    None once Euclid has shown that deg c, the linear complexity L of s,
    exceeds budget.

    The gcd divides each remainder b, so L >= N - deg b, and each
    division lowers deg b. So Euclid finds c of low L in at most L + 1
    divisions, and on dense input, L near N, it stops after about budget
    of them (see _euclid_budget)."""
    N = s.period
    xn1 = 1 << N | 1
    a, b = xn1, s.word
    while b:
        if budget is not None and N - b.bit_length() >= budget:
            return None
        a, b = b, pmod(a, b)
    return pdivmod(xn1, a)[0]


def _euclid_budget(fallback: int, N: int) -> int:
    """The largest L that _support_divisor looks for, for a point whose
    direct route costs `fallback` steps at period N: on the plan route
    weight(s) table reads plus a walk over the N bits of s, each bit about
    a quarter of a read; above the plan bound, N Horner steps.

    On dense input each unit of the budget costs Euclid about
    1.8 + N / 1800 of those steps, one division on N-bit ints or less
    (timeit, CPython 3.11 on x86-64, N = 511 .. 65,535). The budget is a
    quarter of the direct route in that coin: a dense point that runs it
    out and then takes the direct route measured 1.3 times the direct
    route alone at N = 1023 and 4095."""
    return fallback * 450 // (3200 + N)


def _transform_tables(root: FieldElement, N: int) -> tuple:
    """(pw, dlog, leaders): dft's data-independent set-up for a root of
    order N. pw is the root power table, dlog its log map pw[d] -> d, and
    leaders the list of the least index of each orbit of k -> 2k mod N,
    ascending. Costs N - 1 multiplications, an N-entry dict and one walk
    over the orbits. _transform_plan is this builder memoized."""
    pw = root_power_table(root, N)
    dlog = {bits: d for d, bits in enumerate(pw)}
    return pw, dlog, list(_coset_leaders(N))


# Plans: the tables above, memoized per (field, root, N), as an FFT
# library builds a plan once per size; dft and dft_point both read them. A
# plan keeps the builder's own tables, never a copy, and only
# N <= _PLAN_MAX_N is kept, so the memo stays bounded (README gives its
# worst case).
_PLAN_MAX_N = 1 << 14
_transform_plan = lru_cache(maxsize=16)(_transform_tables)


def _planned(root: FieldElement, N: int) -> tuple | None:
    """The plan for (root.field, root, N), built if missing, or None where
    no plan applies. A counting view never reads or fills a plan, so it
    tallies the whole route, and an N above _PLAN_MAX_N gets none, so the
    memo stays bounded."""
    if N > _PLAN_MAX_N or isinstance(root.field, CountingField):
        return None
    return _transform_plan(root, N)


def dft(s: BitSequence, field: FieldSpec, root: FieldElement) -> Spectrum:
    """S_k = sum_t s_t root^(tk), k = 0..N-1, positive-exponent kernel.

    Table-driven: the root power table is the only field multiplication
    (N - 1 steps of FieldSpec.times(root)). The support polynomial c of s
    (see support_polynomial) screens each cyclotomic coset leader k: the
    coset is ZERO unless c(root^k) = 0, and then S_k = r(root^k). Both are
    the XOR of pw[i k mod N] over the 1-bits i of c or r: field.power_sum,
    written out in the loop for the screen. Where weight(c) + weight(r) >=
    weight(s) the screen cannot pay, and each leader reads the 1-bits of s
    instead. The rest of each coset is filled by the
    conjugate square law d(2k) = 2 d(k) mod N.

    Cold cost: the O(N) set-up of _transform_tables, plus the support
    polynomial, plus leaders x weight(c), plus support leaders x
    weight(r). Warm, when the process has transformed over (field, root,
    N) before, the set-up is read from its plan (see _planned) and only
    the support work remains.
    """
    N = s.period
    if not has_order(root, N):
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    pw, dlog, leaders = _planned(root, N) or _transform_tables(root, N)
    c, r = support_polynomial(s)
    if c.bit_count() + r.bit_count() < s.word.bit_count():
        screen, taps = _ones(c), _ones(r)
    else:  # the screen cannot pay: no screen, and the 1-bits of s
        screen, taps = [], _ones(s.word)
    reps = {}
    for leader in leaders:
        # power_sum written out: a call per leader made a warm dft about
        # 3% slower
        acc = 0
        for i in screen:
            acc ^= pw[i * leader % N]
        if acc:
            continue  # c(root^leader) != 0: the whole coset stays ZERO
        d = _plan_log(dlog, power_sum(pw, taps, leader, N), leader)
        if d is not ZERO:
            reps[leader] = d
    return coset_expand(reps, N, field, root)


def _plan_log(dlog: dict, acc: int, k: int):
    """The point S_k = acc in log form: ZERO when acc is 0, else its
    exponent from the plan's log map dlog."""
    if acc == 0:
        return ZERO
    d = dlog.get(acc)
    if d is None:
        raise _outside_root_group(k)
    return d


def idft(S: Spectrum) -> BitSequence:
    """s_t = sum_k S_k root^(-tk); rejects spectra of non-binary sequences."""
    N = S.N
    pw = root_power_table(S.root, N)
    out = []
    for t in range(N):
        acc = 0
        for k, d in S.points.items():
            acc ^= pw[(d - t * k) % N]
        if acc not in (0, 1):
            raise ValueError(
                f"reconstructed value at t={t} is not a bit; malformed spectrum")
        out.append(acc)
    return BitSequence(tuple(out))


def dft_point(s: BitSequence, root: FieldElement, k: int):
    """Single spectral point in log form, no full-transform work.

    The support polynomial c of s (see support_polynomial) screens k
    first: S_k is ZERO unless c(root^k) = 0. c comes from Euclid under a
    budget a fraction of the direct route's cost (see _euclid_budget), so
    c is found for s of low linear complexity L, and on dense input, L
    near N, the budget runs out and the point takes the direct route.

    Where a plan applies (see _planned), read or built by this call, the
    screen is power_sum, the XOR of pw[i k mod N] over the 1-bits i of c:
    weight(c) table reads. A point on the support, or past the budget, is
    the XOR of pw[t k mod N] over the 1-bits t of s, found by one walk
    over the bits of s that yields each t k, and its exponent is one read
    of the plan's log map: table reads, no field multiplication and no
    discrete_log.

    Above _PLAN_MAX_N, the screen is a Horner pass of c at beta = root^k,
    deg c steps of FieldSpec.times(beta). On the support, S_k comes from
    the residue form S_k beta c'(beta) = g(beta), g = (c (s mod x^L)) mod
    x^L (Massey and Serconek 1994): Horner passes of g and c', one
    inverse, two products and one discrete_log. Past the budget, and for
    a counting view always, it is the direct route the cost model prices:
    root^k by square-and-multiply, a Horner pass of sum_t s_t x^t at
    x = root^k, one FieldSpec.times(x) step per index from the top, then
    a cold discrete_log. Field ops route through root.field, so handing
    in a counting view tallies them.
    """
    N = s.period
    if not 0 <= k < N:
        raise ValueError(f"index {k} outside [0, {N})")
    if not has_order(root, N):
        raise ValueError(
            f"root order {element_order(root)} != sequence period {N}")
    plan = _planned(root, N)
    if plan:
        pw, dlog, _ = plan
        c = _support_divisor(
            s, _euclid_budget(s.word.bit_count() + N // 4, N))
        if c is not None and power_sum(pw, _ones(c), k, N):
            return ZERO
        # a range step of 0 raises; for k = 0 each t N is 0 mod N as well
        step = k or N
        acc = 0
        for i in compress(range(0, N * step, step), bit_bytes(s.word, N)):
            acc ^= pw[i % N]
        return _plan_log(dlog, acc, k)
    fld = root.field
    c = (None if isinstance(fld, CountingField)
         else _support_divisor(s, _euclid_budget(N, N)))
    times_x = fld.times(fld.pow_int(root.bits, k))
    if c is None:
        acc = _horner(s.word, N, times_x)
    else:
        L = c.bit_length() - 1
        if _horner(c, L + 1, times_x):
            return ZERO
        low = (1 << L) - 1
        g = pmul(s.word & low, c) & low
        # c' keeps c's odd-degree terms, each lowered by one
        dc = c >> 1 & ((1 << 2 * (L // 2 + 1)) - 1) // 3
        beta_dc = times_x(_horner(dc, L, times_x))
        acc = fld.mul_int(_horner(g, L, times_x), fld.inv_int(beta_dc))
    if acc == 0:
        return ZERO
    try:
        return discrete_log(FieldElement(fld, acc), root, N)
    except ValueError:
        raise _outside_root_group(k) from None


def _horner(p: int, n: int, times_x) -> int:
    """p(x) for p in GF(2)[x] of degree below n, by n Horner steps of
    times_x, the map y -> x y, from the top."""
    acc = 0
    for b in bit_bytes(p, n)[::-1]:
        acc = times_x(acc) ^ b
    return acc


def _outside_root_group(k: int) -> ValueError:
    return ValueError(
        f"spectral value at k={k} lies outside the cyclic group of the root;"
        " no log-form spectrum over this root")


def blahut_check(S: Spectrum, L: int) -> bool:
    """Blahut's theorem gate: nonzero spectral count equals linear complexity."""
    return S.nonzero_count() == L


def coset_reduce(S: Spectrum) -> dict:
    """Map each nonzero coset leader, ascending, to its exponent; the rest is
    recoverable by squaring. Rejects spectra that break the doubling law.
    S.points is ascending and holds whole orbits, so the first index met
    of each orbit is its leader, and each orbit is walked once."""
    bad = S.conjugacy_violation()
    if bad is not None:
        raise ValueError(
            f"conjugacy violated between indices {bad[0]} and {bad[1]}")
    reps, seen = {}, set()
    for k, d in S.points.items():
        if k not in seen:
            reps[k] = d
            seen.update(_doubling_orbit(k, S.N))
    return reps


def coset_expand(reps: dict, N: int, field: FieldSpec,
                 root: FieldElement) -> Spectrum:
    """Rebuild a full Spectrum from leader representatives by squaring.
    A leader is the least index of its orbit under k -> 2k mod N."""
    points = {}
    for leader, d in reps.items():
        orbit = _doubling_orbit(leader, N)
        if min(orbit) != leader:
            raise ValueError(f"{leader} is not a coset leader mod {N}")
        for k in orbit:
            points[k] = d
            d = 2 * d % N
    return Spectrum(N, field, root, points)
