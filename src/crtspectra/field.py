"""Binary extension fields GF(2^m) for 1 <= m <= 32.

Field elements are ints in polynomial-basis form (bit t = coefficient of
x^t), reduced modulo the field's irreducible modulus. A thin FieldElement
wrapper ties an element to its FieldSpec at API boundaries; hot loops work
on raw ints through the *_int methods.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .gf2poly import is_irreducible, pgcd, pmod, poly_str, ppowmod

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

POLY_TABLE_ENV = "CRTSPECTRA_POLY_TABLE"


def _load_table_override() -> dict[int, int]:
    path = os.environ.get(POLY_TABLE_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ValueError(
            f"{path}: cannot read {POLY_TABLE_ENV}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(
            f"{path}: {POLY_TABLE_ENV} file is not ASCII text") from None
    table = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            degree, poly = line.split()
            table[int(degree)] = int(poly, 16)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected '<degree> 0x<hex>',"
                             f" got {line!r}") from None
    return table


def default_modulus(m: int) -> int:
    """Built-in primitive modulus for degree m, honoring the env override."""
    override = _load_table_override()
    if m in override:
        return override[m]
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no default modulus for degree {m}")
    return PRIMITIVE_POLYS[m]


# ---------------------------------------------------------------------------
# integer factorization of group orders (trial division + Pollard rho)

def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these witnesses
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    from math import gcd
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factor_int(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1."""
    if n < 1:
        raise ValueError("factor_int needs n >= 1")
    primes: set[int] = set()
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            primes.add(p)
            n //= p
    d = 17
    while d <= 1 << 16 and d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if _is_probable_prime(v):
            primes.add(v)
            continue
        f = _pollard_rho(v)
        stack.extend((f, v // f))
    return sorted(primes)


def is_primitive(f: int, factors: list[int] | None = None) -> bool:
    """True if f is irreducible and x generates the full group mod f."""
    m = f.bit_length() - 1
    if m < 1 or not is_irreducible(f):
        return False
    order = (1 << m) - 1
    if order == 1:
        return True
    if factors is None:
        factors = factor_int(order)
    for q in factors:
        if ppowmod(2, order // q, f) == 1:
            return False
    return True


# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(2^m) with a fixed irreducible modulus and a verified generator.

    Immutable after construction; safe to share. Equality is by (m, modulus)
    so a counting view of the same field compares equal to the original.
    """

    __slots__ = ("m", "modulus", "group_order", "group_order_factors",
                 "_generator_bits")

    def __init__(self, m: int, modulus: int):
        if not 1 <= m <= 32:
            raise ValueError(f"extension degree {m} out of range 1..32")
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
        self.group_order_factors = tuple(factor_int(self.group_order)) \
            if self.group_order > 1 else ()
        self._generator_bits = self._find_generator()

    def _find_generator(self) -> int:
        if self.group_order == 1:
            return 1
        cand = 2  # the class of x; primitive modulus makes this primitive
        while True:
            if self._order_int(cand) == self.group_order:
                return cand
            cand += 1
            if cand >= 1 << self.m:
                raise ArithmeticError("no generator found (impossible)")

    # raw-int arithmetic -----------------------------------------------------

    def add_int(self, a: int, b: int) -> int:
        return a ^ b

    def mul_int(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        f = self.modulus
        df = self.m
        while r and r.bit_length() - 1 >= df:
            r ^= f << ((r.bit_length() - 1) - df)
        return r

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

    def _order_int(self, a: int) -> int:
        if a == 0:
            raise ValueError("order of 0 undefined")
        e = self.group_order
        for q in self.group_order_factors:
            while e % q == 0 and self.pow_int(a, e // q) == 1:
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
    """View of a FieldSpec whose add_int/mul_int tally into a counter.

    The counter needs xor_count / mul_count / reduction_count attributes.
    Counters are per-view, never global; concurrent runs each own one.
    Element orders are computed by the base field, so they stay uncounted.
    """

    __slots__ = ("base", "counter")

    def __init__(self, base: FieldSpec, counter):
        for name in FieldSpec.__slots__:
            setattr(self, name, getattr(base, name))
        self.base = base
        self.counter = counter

    def add_int(self, a: int, b: int) -> int:
        self.counter.xor_count += 1
        return a ^ b

    def mul_int(self, a: int, b: int) -> int:
        self.counter.mul_count += 1
        self.counter.reduction_count += 1
        return super().mul_int(a, b)

    def _order_int(self, a: int) -> int:
        return self.base._order_int(a)


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
        if not (self.field.m == other.field.m
                and self.field.modulus == other.field.modulus):
            raise ValueError("field mismatch")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add_int(self.bits, other.bits))

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
        return self.field._order_int(self.bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.bits == other.bits
                and self.field.m == other.field.m
                and self.field.modulus == other.field.modulus)

    def __hash__(self):
        return hash((self.field.m, self.field.modulus, self.bits))

    def __repr__(self):
        return f"<{poly_str(self.bits)} in GF(2^{self.field.m})>"


# ---------------------------------------------------------------------------
# module-level ops in the contract's vocabulary

def build_field(m: int, modulus: int | None = None) -> FieldSpec:
    """Construct GF(2^m); default modulus comes from the primitive table."""
    if modulus is None:
        modulus = default_modulus(m)
    return FieldSpec(m, modulus)


def element_order(a: FieldElement) -> int:
    return a.order()


def element_of_order(field: FieldSpec, N: int) -> FieldElement:
    """generator^((2^m - 1)/N); rejects N that does not divide the group order."""
    if N < 1 or field.group_order % N != 0:
        raise ValueError(f"{N} does not divide group order {field.group_order}")
    return field.generator ** (field.group_order // N)


def discrete_log(a: FieldElement, base: FieldElement) -> int:
    """Least d >= 0 with base^d = a; baby-step giant-step over <base>."""
    if a.bits == 0:
        raise ValueError("discrete log of 0 undefined")
    a._check(base)
    order = base.order()
    from math import isqrt
    step = isqrt(order) + 1
    fld = base.field
    baby = {}
    cur = 1
    for j in range(step):
        baby.setdefault(cur, j)
        cur = fld.mul_int(cur, base.bits)
    # cur is now base^step; giant strides use its inverse
    giant = fld.inv_int(cur)
    gamma = a.bits
    for i in range(step + 1):
        if gamma in baby:
            d = (i * step + baby[gamma]) % order
            return d
        gamma = fld.mul_int(gamma, giant)
    raise ValueError("element is not in the subgroup generated by base")


def cyclotomic_cosets(N: int) -> list[list[int]]:
    """Partition of 0..N-1 into orbits of k -> 2k mod N, each led by its min."""
    if N < 1 or N % 2 == 0:
        raise ValueError(f"need odd N >= 1, got {N}")
    seen = [False] * N
    out = []
    for k in range(N):
        if seen[k]:
            continue
        orbit = []
        j = k
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (2 * j) % N
        out.append(sorted(orbit))
    return out


def multiplicative_order_of_2(N: int) -> int:
    """Least n with 2^n = 1 mod N; ord(1) := 1 by convention."""
    if N < 1 or N % 2 == 0:
        raise ValueError(f"need odd N >= 1, got {N}")
    if N == 1:
        return 1
    n, v = 1, 2 % N
    while v != 1:
        v = (v * 2) % N
        n += 1
    return n


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
    same embedding is chosen on every run."""
    h = element_of_order(field, order)
    x = 1
    for j in range(order):
        if _eval_poly_int(poly, x, field) == 0:
            return FieldElement(field, x)
        x = field.mul_int(x, h.bits)
    raise ValueError(
        f"{poly_str(poly)} has no root in the order-{order} subgroup")


def _eval_poly_int(poly: int, x: int, field) -> int:
    """Horner evaluation of a GF(2)[x] polynomial at a field point."""
    acc = 0
    for t in range(poly.bit_length() - 1, -1, -1):
        acc = field.mul_int(acc, x) ^ ((poly >> t) & 1)
    return acc
