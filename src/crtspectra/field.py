"""Binary extension fields GF(2^m) for 1 <= m <= 32.

FieldSpec and is_primitive both cover degrees 1..32; the group orders
2^m - 1 below 2^32 are what lets factor_int stay plain trial division.

Field elements are ints in polynomial-basis form (bit t = coefficient of
x^t), reduced modulo the field's irreducible modulus. A thin FieldElement
wrapper ties an element to its FieldSpec at API boundaries; hot loops work
on raw ints through the *_int methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2poly import (factor_int, is_irreducible, pgcd, pmod, pmul, poly_str,
                      ppowmod)

# Lexicographically smallest primitive polynomial per degree. Verified by
# re-derivation in the test suite (Rabin irreducibility + order check via
# the factored group order).
PRIMITIVE_POLYS = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11D, 9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B,
    14: 0x402B, 15: 0x8003, 16: 0x1002D, 17: 0x20009, 18: 0x40027,
    19: 0x80027, 20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021,
    24: 0x100001B, 25: 0x2000009, 26: 0x4000047, 27: 0x8000027,
    28: 0x10000009, 29: 0x20000005, 30: 0x40000053, 31: 0x80000009,
    32: 0x1000000AF,
}

def default_modulus(m: int) -> int:
    """Built-in primitive modulus for degree m, from PRIMITIVE_POLYS."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no default modulus for degree {m}")
    return PRIMITIVE_POLYS[m]


def _check_degree(m: int) -> None:
    if not 1 <= m <= 32:
        raise ValueError(f"extension degree {m} out of range 1..32")


def is_primitive(f: int) -> bool:
    """True if f is irreducible and x generates the full group mod f.
    Degrees above 32 are refused, as FieldSpec refuses them."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    _check_degree(m)
    order = (1 << m) - 1
    return is_irreducible(f) and all(
        ppowmod(2, order // q, f) != 1 for q in factor_int(order))


# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(2^m) with a fixed irreducible modulus and a verified generator.

    Immutable after construction; safe to share. Equality is by (m, modulus)
    so a counting view of the same field compares equal to the original.
    """

    __slots__ = ("m", "modulus", "group_order", "group_order_factors",
                 "_generator_bits")

    def __init__(self, m: int, modulus: int):
        _check_degree(m)
        if modulus.bit_length() - 1 != m:
            raise ValueError(
                f"modulus degree {modulus.bit_length() - 1} != m = {m}")
        if not is_irreducible(modulus):
            factor = _find_factor(modulus)
            raise ValueError(
                f"modulus {poly_str(modulus)} is reducible"
                f" (divisible by {poly_str(factor)})")
        self.m = m
        self.modulus = modulus
        self.group_order = (1 << m) - 1
        self.group_order_factors = tuple(factor_int(self.group_order))
        self._generator_bits = self._find_generator()

    def _find_generator(self) -> int:
        # 1 generates GF(2)^*; above it, the class of x (2) comes first and
        # a primitive modulus makes it primitive
        for cand in range(1, 1 << self.m):
            if self._order_int(cand, self.group_order) == self.group_order:
                return cand
        raise ArithmeticError("no generator found (impossible)")

    # raw-int arithmetic -----------------------------------------------------

    def mul_int(self, a: int, b: int) -> int:
        return pmod(pmul(a, b), self.modulus)

    def times(self, c: int):
        """The map x -> c*x over raw ints, for a fixed multiplier c.

        Multiplication by c is GF(2)-linear, so it is tabulated once: a
        table per byte of x, filled from the images c*x^i by shift-and-
        reduce, and each product XORs one lookup per byte."""
        m, f = self.m, self.modulus
        images = []
        for _ in range(m):
            images.append(c)
            c <<= 1
            if c >> m:
                c ^= f
        tables = []
        for lo in range(0, m, 8):
            t = [0]
            for img in images[lo:lo + 8]:
                t += [v ^ img for v in t]
            tables.append(t)
        if len(tables) == 1:
            return tables[0].__getitem__
        if len(tables) == 2:
            t0, t1 = tables
            return lambda x: t0[x & 0xFF] ^ t1[x >> 8]
        if len(tables) == 3:
            t0, t1, t2 = tables
            return lambda x: t0[x & 0xFF] ^ t1[x >> 8 & 0xFF] ^ t2[x >> 16]
        t0, t1, t2, t3 = tables
        return lambda x: (t0[x & 0xFF] ^ t1[x >> 8 & 0xFF]
                          ^ t2[x >> 16 & 0xFF] ^ t3[x >> 24])

    def pow_int(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_int(self.inv_int(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul_int(r, a)
            a = self.mul_int(a, a)
            e >>= 1
        return r

    def inv_int(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow_int(a, self.group_order - 1)

    def _order_int(self, a: int, n: int) -> int:
        """Least e | n with a^e = 1, given a^n = 1 and n | group order. The
        powers are gf2poly's, so no counting view tallies an order."""
        if a == 0:
            raise ValueError("order of 0 undefined")
        e = n
        for q in self.group_order_factors:
            while e % q == 0 and ppowmod(a, e // q, self.modulus) == 1:
                e //= q
        return e

    # wrapped API ------------------------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        if not 0 <= bits < (1 << self.m):
            raise ValueError(f"element bits {bits:#x} outside GF(2^{self.m})")
        return FieldElement(self, bits)

    @property
    def generator(self) -> "FieldElement":
        return FieldElement(self, self._generator_bits)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF(2^{self.m}), mod={poly_str(self.modulus)})"


def _find_factor(f: int) -> int:
    """A nontrivial factor of a reducible f (for the rejection message)."""
    m = f.bit_length() - 1
    x = pmod(2, f)
    xp = x
    for d in range(1, m // 2 + 1):
        xp = ppowmod(xp, 2, f)  # x^(2^d) mod f
        g = pgcd(f, xp ^ x)
        if g not in (1, f):
            return g
    # no small-degree factor found via gcd ladder; fall back to brute scan
    for g in range(2, 1 << (m // 2 + 1)):
        if g.bit_length() >= 2 and pmod(f, g) == 0:
            return g
    raise ArithmeticError(f"could not factor {f:#x}")


class CountingField(FieldSpec):
    """View of a FieldSpec whose mul_int/times tally into a counter.

    Each multiplication, by mul_int or by a map from times, tallies one
    mul_count and one reduction_count; building a times table tallies
    nothing, as orders do not. The counter needs mul_count /
    reduction_count attributes. Counters are per-view, never global;
    concurrent runs each own one.
    """

    __slots__ = ("counter",)

    def __init__(self, base: FieldSpec, counter):
        for name in FieldSpec.__slots__:
            setattr(self, name, getattr(base, name))
        self.counter = counter

    def mul_int(self, a: int, b: int) -> int:
        self.counter.mul_count += 1
        self.counter.reduction_count += 1
        return super().mul_int(a, b)

    def times(self, c: int):
        mul = super().times(c)
        counter = self.counter

        def counted(x: int) -> int:
            counter.mul_count += 1
            counter.reduction_count += 1
            return mul(x)
        return counted


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldSpec; plain data, freely copyable."""
    field: FieldSpec
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.field.m):
            raise ValueError(
                f"bits {self.bits:#x} not reduced in GF(2^{self.field.m})")

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.bits ^ other.bits)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul_int(self.bits, other.bits))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0 and self.bits == 0:
            raise ZeroDivisionError("0 to a negative power")
        return FieldElement(self.field, self.field.pow_int(self.bits, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_int(self.bits))

    def order(self) -> int:
        return self.field._order_int(self.bits, self.field.group_order)

    def __repr__(self):
        return f"<{poly_str(self.bits)} in GF(2^{self.field.m})>"


# ---------------------------------------------------------------------------
# module-level ops in the contract's vocabulary

def build_field(m: int, modulus: int | None = None) -> FieldSpec:
    """GF(2^m); the default modulus comes from the primitive table, and an
    explicit one may be any irreducible of degree m. Fields are built once
    per process and shared (a FieldSpec is immutable), keyed on
    (m, modulus)."""
    if modulus is None:
        modulus = default_modulus(m)
    return _field(m, modulus)


@lru_cache(maxsize=128)
def _field(m: int, modulus: int) -> FieldSpec:
    return FieldSpec(m, modulus)


def element_order(a: FieldElement) -> int:
    return a.order()


@lru_cache(maxsize=256)
def has_order(a: FieldElement, n: int) -> bool:
    """True if a has multiplicative order exactly n; uncounted, like
    element_order, and memoized: every Spectrum asks it of its root."""
    fld = a.field
    return (n >= 1 and fld.group_order % n == 0
            and ppowmod(a.bits, n, fld.modulus) == 1
            and fld._order_int(a.bits, n) == n)


def element_of_order(field: FieldSpec, N: int) -> FieldElement:
    """generator^((2^m - 1)/N); rejects N that does not divide the group order."""
    if N < 1 or field.group_order % N != 0:
        raise ValueError(f"GF(2^{field.m}) has no element of order {N}")
    return field.generator ** (field.group_order // N)


def root_power_table(root: FieldElement, N: int):
    """pw[d] = root^d as raw bits for d = 0..N-1, by N - 1 steps of
    FieldSpec.times(root)."""
    times_root = root.field.times(root.bits)
    x = 1
    pw = [x]
    for _ in range(N - 1):
        x = times_root(x)
        pw.append(x)
    return pw


def discrete_log(a: FieldElement, base: FieldElement, order: int) -> int:
    """Least d >= 0 with base^d = a; baby-step giant-step over <base>,
    whose size `order` the caller knows (the log computes no order)."""
    if a.bits == 0:
        raise ValueError("discrete log of 0 undefined")
    a._check(base)
    from math import isqrt
    step = isqrt(order) + 1
    fld = base.field
    # baby steps base^0..base^(step-1); base^step seeds the giant stride
    pw = root_power_table(base, step + 1)
    baby = {bits: j for j, bits in enumerate(pw[:step])}
    giant = fld.times(fld.inv_int(pw[step]))
    gamma = a.bits
    for i in range(step + 1):
        if gamma in baby:
            return (i * step + baby[gamma]) % order
        gamma = giant(gamma)
    raise ValueError("element is not in the subgroup generated by base")


def _doubling_orbit(k: int, N: int) -> list[int]:
    """The walk k, 2k, 4k, ... mod odd N, from k mod N up to its return."""
    if N < 1 or N % 2 == 0:
        raise ValueError(f"need odd N >= 1, got {N}")
    k %= N
    orbit = [k]
    j = 2 * k % N
    while j != k:
        orbit.append(j)
        j = 2 * j % N
    return orbit


def cyclotomic_cosets(N: int) -> list[list[int]]:
    """Partition of 0..N-1 into orbits of k -> 2k mod N, each led by its min."""
    cosets = [_doubling_orbit(0, N)]   # checks N; 0 is alone in its orbit
    seen = [True] + [False] * (N - 1)
    for k in range(1, N):
        if not seen[k]:
            orbit = _doubling_orbit(k, N)
            for j in orbit:
                seen[j] = True
            cosets.append(sorted(orbit))
    return cosets


def multiplicative_order_of_2(N: int) -> int:
    """Least n with 2^n = 1 mod N; ord(1) := 1 by convention."""
    return len(_doubling_orbit(1, N))


def minimal_polynomial_of(a: FieldElement) -> int:
    """Product of (x - a^(2^i)) over the conjugacy orbit; lands in GF(2)[x]."""
    if a.bits == 0:
        raise ValueError("minimal polynomial of 0 not supported")
    fld = a.field
    orbit = [a.bits]
    cur = fld.mul_int(a.bits, a.bits)
    while cur != a.bits:
        orbit.append(cur)
        cur = fld.mul_int(cur, cur)
    # multiply out (x - c) factors with coefficients in the big field
    coeffs = [1]  # monic, degree 0
    for c in orbit:
        nxt = [0] * (len(coeffs) + 1)
        for i, co in enumerate(coeffs):
            nxt[i + 1] ^= co
            nxt[i] ^= fld.mul_int(co, c)
        coeffs = nxt
    poly = 0
    for i, co in enumerate(coeffs):
        if co not in (0, 1):
            raise ArithmeticError("conjugate product left the prime field")
        poly |= co << i
    return poly


def find_root_in_subgroup(poly: int, order: int, field: FieldSpec) -> FieldElement:
    """First element h^j (j ascending) of the order-`order` subgroup with
    poly(h^j) = 0; h = element_of_order(field, order). Deterministic, so the
    same embedding is chosen on every run.

    The roots of a GF(2)[x] polynomial are closed under squaring, h^j ->
    h^(2j), so the first root met has the least j of its orbit under
    j -> 2j mod order; only those j are evaluated."""
    times_h = field.times(element_of_order(field, order).bits)
    x = 1
    for j in range(order):
        if (min(_doubling_orbit(j, order)) == j
                and _eval_poly_int(poly, x, field) == 0):
            return FieldElement(field, x)
        x = times_h(x)
    raise ValueError(
        f"{poly_str(poly)} has no root in the order-{order} subgroup")


def _eval_poly_int(poly: int, x: int, field) -> int:
    """Horner evaluation of a GF(2)[x] polynomial at a field point."""
    acc = 0
    for t in range(poly.bit_length() - 1, -1, -1):
        acc = field.mul_int(acc, x) ^ ((poly >> t) & 1)
    return acc
