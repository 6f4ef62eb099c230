"""Polynomials over GF(2) packed into Python ints.

Bit t of the int is the coefficient of x^t, so the constant term is the
least significant bit. 0x7 is x^2+x+1, 0xB is x^3+x+1, and so on. All
routines here are pure int arithmetic; no field is involved until a
modulus is fixed (see the field module).
"""

from __future__ import annotations

NEG_INF = float("-inf")


def poly_degree(p: int) -> float | int:
    """Degree of p; the zero polynomial gets the -inf sentinel."""
    if p == 0:
        return NEG_INF
    return p.bit_length() - 1


def pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def pmod(a: int, f: int) -> int:
    """Remainder of a modulo f.

    Each step of the loop XORs f, shifted under the top bit, into a. When a
    is 256 bits or more longer than f, those steps would each rewrite all
    of a, so a is reduced from the top in chunks of 256 bits instead: the
    chunks are read from one to_bytes copy of a, the remainder so far is
    shifted up and the next chunk appended, and the loop runs on that, an
    int of under deg f + 256 bits. The work is then linear in deg a, not
    quadratic."""
    if f == 0:
        raise ZeroDivisionError("polynomial division by zero")
    df = f.bit_length()
    if a.bit_length() - df >= 256:
        data = a.to_bytes((a.bit_length() + 7) // 8, "big")
        head = len(data) - (a.bit_length() - df) // 256 * 32
        r = pmod(int.from_bytes(data[:head], "big"), f)
        for i in range(head, len(data), 32):
            r = pmod(r << 256 | int.from_bytes(data[i:i + 32], "big"), f)
        return r
    while (da := a.bit_length()) >= df:
        a ^= f << (da - df)
    return a


def pdivmod(a: int, f: int) -> tuple[int, int]:
    """Quotient and remainder (q, r) of a by f: a = q f + r, deg r < deg f.
    pmod is the same loop without the quotient, which would cost it a
    deg(a)-bit int per step."""
    if f == 0:
        raise ZeroDivisionError("polynomial division by zero")
    df = f.bit_length()
    q = 0
    while (da := a.bit_length()) >= df:
        q ^= 1 << (da - df)
        a ^= f << (da - df)
    return q, a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def ppowmod(a: int, e: int, f: int) -> int:
    """a^e mod f by square and multiply, e >= 0."""
    r = pmod(1, f)
    a = pmod(a, f)
    while e:
        if e & 1:
            r = pmod(pmul(r, a), f)
        a = pmod(pmul(a, a), f)
        e >>= 1
    return r


def is_irreducible(f: int) -> bool:
    """Rabin's test for irreducibility of f over GF(2)."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    # x mod f, not the literal int 2: for f = x+1 the class of x is 1.
    x = pmod(2, f)
    if ppowmod(2, 1 << m, f) != x:
        return False
    for p in factor_int(m):
        h = ppowmod(2, 1 << (m // p), f) ^ x
        if pgcd(f, h) != 1:
            return False
    return True


def factor_int(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1, by trial division. Field
    group orders stay below 2^32, so no divisor tried exceeds 2^16."""
    if n < 1:
        raise ValueError("factor_int needs n >= 1")
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def poly_str(p: int) -> str:
    """Render most-significant term first: x^6+x^4+x^2+x+1."""
    if p == 0:
        return "0"
    terms = []
    for t in range(p.bit_length() - 1, -1, -1):
        if (p >> t) & 1:
            if t == 0:
                terms.append("1")
            elif t == 1:
                terms.append("x")
            else:
                terms.append(f"x^{t}")
    return "+".join(terms)


def parse_poly(text: str) -> int:
    """Parse 0x-hex or the monomial form produced by poly_str."""
    s = text.strip().replace(" ", "")
    if s.lower().startswith("0x"):
        return int(s, 16)
    if s == "0":
        return 0
    p = 0
    for term in s.split("+"):
        if term == "1":
            t = 0
        elif term == "x":
            t = 1
        elif term.startswith("x^"):
            t = int(term[2:])
            if t < 0:
                raise ValueError(f"bad exponent in term {term!r}")
        else:
            raise ValueError(f"unrecognized polynomial term {term!r}")
        p ^= 1 << t
    return p
