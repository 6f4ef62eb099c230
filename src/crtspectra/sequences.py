"""Periodic binary sequences, LFSR streams, and time-domain combining.

A BitSequence is packed: one int `word` whose bit t is s_t, and its
`period` N. The word is s(x) = sum_t s_t x^t, the polynomial that Blahut's
theorem reads the spectrum from, so spectral work starts from it with no
conversion. Every stream operation here is int arithmetic on words: a word
is repeated to a longer length by doubling, products are ANDs, combiners
XOR their monomials' products, and a least period is found by comparing
the word with its rotations. Text goes in and out through one int(., 2)
or format(., "b") call, and bit_bytes unpacks a word into one byte per bit
for the bit-serial algorithms (Berlekamp-Massey, the oracle's windows).
The LFSR stepper is the one loop here that takes a Python step per bit.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from math import lcm

from .gf2poly import factor_int, poly_degree

_TO_ASCII = bytes.maketrans(b"\0\1", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\0\1")


def bit_bytes(word: int, n: int) -> bytes:
    """Bits 0 .. n-1 of word as n bytes of 0 or 1, byte t holding bit t."""
    return f"{word:0{n}b}"[:-n - 1:-1].encode().translate(_FROM_ASCII)


def _pack(bits) -> int:
    """The word whose bit t is bits[t], for bytes-like 0/1 values."""
    return int(bytes(bits)[::-1].translate(_TO_ASCII) or b"0", 2)


def _repeat(word: int, period: int, n: int) -> int:
    """The n-bit word whose bit t is bit (t mod period) of word, by
    doubling: each step appends the word built so far to itself."""
    while period < n:
        word |= word << period
        period *= 2
    return word & ((1 << n) - 1)


class BitSequence:
    """One full period of a periodic binary sequence, packed into an int.

    Bit t of word is s_t for t < period = N >= 1, and word has no bit at
    or above N. Minimality is not required by the type; pointwise_product
    and combiner_stream minimize before returning. BitSequence(bits) takes
    an iterable of 0s and 1s, from_string a string of '0' and '1', s_0
    first, and from_word a word and its period. Immutable; equality and
    hash are by (word, period).
    """

    def __init__(self, bits):
        bits = tuple(bits)
        if len(bits) < 1:
            raise ValueError("empty sequence")
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "word", _pack(map(int, bits)))
        object.__setattr__(self, "period", len(bits))

    @classmethod
    def from_word(cls, word: int, period: int) -> "BitSequence":
        if period < 1:
            raise ValueError("empty sequence")
        if word < 0 or word >> period:
            raise ValueError(f"word has bits outside [0, {period})")
        s = cls.__new__(cls)
        object.__setattr__(s, "word", word)
        object.__setattr__(s, "period", period)
        return s

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        """int(., 2) alone would also read '_' separators, surrounding
        whitespace and non-ASCII digits, so any character but '0' and '1'
        is refused first."""
        if text.count("0") + text.count("1") != len(text):
            raise ValueError("bits must be 0 or 1")
        return cls.from_word(int(text[::-1] or "0", 2), len(text))

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """s_0 .. s_(N-1) as a tuple, built on first use."""
        return tuple(bit_bytes(self.word, self.period))

    def bit(self, t: int) -> int:
        """s_t for any integer t (periodic extension)."""
        return (self.word >> (t % self.period)) & 1

    def __str__(self) -> str:
        return f"{self.word:0{self.period}b}"[::-1]

    def __repr__(self) -> str:
        # hex: a long word has no decimal form under Python's default
        # limit on int-to-decimal conversion
        return f"BitSequence.from_word(0x{self.word:x}, {self.period})"

    def __iter__(self):
        return iter(self.bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.period) == (other.word, other.period)

    def __hash__(self):
        return hash((self.word, self.period))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def connection_degree(connection: int) -> int:
    """Degree of an LFSR connection polynomial, refusing one that cannot
    drive a register: degree below 1 or no constant term."""
    deg = poly_degree(connection)
    if deg == float("-inf") or deg < 1:
        raise ValueError("connection polynomial must have degree >= 1")
    if connection & 1 == 0:
        raise ValueError("connection polynomial needs a nonzero constant term")
    return int(deg)


class Lfsr:
    """Fibonacci (external-XOR) LFSR.

    State bit i holds s_(t+i); the output at each step is state bit 0 and
    the feedback bit, parity of (state AND taps), enters at the top. With
    connection x^2+x+1 and seed 0b10 (s0=0, s1=1) the output starts 011.
    """

    __slots__ = ("connection", "degree", "taps", "state")

    def __init__(self, connection: int, state: int):
        self.degree = connection_degree(connection)
        if not 0 <= state < (1 << self.degree):
            raise ValueError(
                f"state {state:#x} not a {self.degree}-bit vector")
        self.connection = connection
        self.taps = connection & ((1 << self.degree) - 1)
        self.state = state

    def step(self) -> int:
        out = self.state & 1
        fb = (self.state & self.taps).bit_count() & 1
        self.state = (self.state >> 1) | (fb << (self.degree - 1))
        return out


def warn_if_zero_seed(l: Lfsr) -> None:
    """Warn, at the caller's caller, that a zero register outputs only
    zeros; the CLI prints the warning as one stderr line."""
    if l.state == 0:
        warnings.warn("zero seed: output is all zeros", RuntimeWarning,
                      stacklevel=3)


def lfsr_stream(l: Lfsr, n: int) -> BitSequence:
    """First n output bits. Does not disturb the caller's register."""
    if n < 1:
        raise ValueError("need n >= 1")
    warn_if_zero_seed(l)
    clone = Lfsr(l.connection, l.state)
    return BitSequence.from_word(_pack(clone.step() for _ in range(n)), n)


def _one_period(connection: int, seed: int, bound: int) -> BitSequence:
    """Exact single period of an LFSR stream: run until the state recurs.
    State bit i holds s_(t+i), so the state recurs exactly when the output
    does and the walk is already the least period."""
    l = Lfsr(connection, seed)
    warn_if_zero_seed(l)
    start = l.state
    out = bytearray([l.step()])
    while l.state != start:
        out.append(l.step())
        if len(out) > bound:
            raise ValueError(f"stream period exceeds bound {bound}")
    return BitSequence.from_word(_pack(out), len(out))


def sequence_period(s) -> int:
    """Least p dividing the length of s with s_t = s_(t mod p) throughout.

    Accepts a BitSequence, a string of '0'/'1', or any iterable of bits.
    """
    if isinstance(s, str):
        s = BitSequence.from_string(s)
    elif not isinstance(s, BitSequence):
        s = BitSequence(s)
    return _least_period(s.word, s.period)


def _least_period(word: int, N: int) -> int:
    """The least p | N with word equal to its rotation by p, which is the
    same as equal to its low p bits repeated. The p that qualify are the
    multiples of the least one that divide N, so N is divided by each of
    its primes while the quotient still qualifies."""
    mask, p = (1 << N) - 1, N
    for q in factor_int(N):
        while p % q == 0:
            d = p // q
            if ((word << d) & mask | word >> (N - d)) != word:
                break
            p = d
    return p


def _minimize(word: int, N: int) -> BitSequence:
    p = _least_period(word, N)
    return BitSequence.from_word(word & ((1 << p) - 1), p)


def _product_bits(streams, n: int) -> int:
    """The n-bit word of u_t = prod over the streams of s_i[t mod n_i]."""
    word = (1 << n) - 1
    for s in streams:
        word &= _repeat(s.word, s.period, n)
    return word


def pointwise_product(a: BitSequence, b: BitSequence) -> BitSequence:
    """u_t = a_t AND b_t over one lcm period, then period-minimized."""
    L = lcm(a.period, b.period)
    return _minimize(_product_bits((a, b), L), L)


class AnfCombiner:
    """Boolean function in algebraic normal form: XOR of AND-monomials.

    Variables are numbered 1..n_vars. Duplicate monomials cancel in pairs
    at construction (characteristic 2), so ab+ab+bc collapses to bc and
    ab+ab to the zero function.
    """

    __slots__ = ("n_vars", "monomials")

    def __init__(self, n_vars: int, monomials):
        if n_vars < 1:
            raise ValueError("need at least one variable")
        norm: set[frozenset[int]] = set()
        for mono in monomials:
            fs = frozenset(mono)
            if not fs:
                raise ValueError("empty monomial (constant terms unsupported)")
            for v in fs:
                if not 1 <= v <= n_vars:
                    raise ValueError(f"monomial variable {v} not in 1..{n_vars}")
            norm.symmetric_difference_update({fs})
        self.n_vars = n_vars
        self.monomials = frozenset(norm)

    @classmethod
    def parse(cls, text: str, n_vars: int | None = None) -> "AnfCombiner":
        """Parse e.g. "1*2+2*3+1*3"; n_vars defaults to the max index used."""
        monomials = []
        for term in text.split("+"):
            term = term.strip()
            if not term:
                raise ValueError(f"empty term in ANF {text!r}")
            try:
                mono = [int(v) for v in term.split("*")]
            except ValueError:
                raise ValueError(f"bad monomial {term!r} in ANF {text!r}") from None
            monomials.append(mono)
        if n_vars is None:
            n_vars = max(v for mono in monomials for v in mono)
        return cls(n_vars, monomials)

    def evaluate(self, values) -> int:
        """Apply to one bit per variable, values[i] being variable i+1."""
        if len(values) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} inputs, got {len(values)}")
        acc = 0
        for mono in self.monomials:
            term = 1
            for v in mono:
                term &= values[v - 1]
            acc ^= term
        return acc

    def __repr__(self):
        terms = sorted(tuple(sorted(m)) for m in self.monomials)
        body = "+".join("*".join(str(v) for v in m) for m in terms) or "0"
        return f"AnfCombiner({self.n_vars}, {body})"


def combiner_stream(f: AnfCombiner, inputs: list[BitSequence]) -> BitSequence:
    """s_t = f(input bits at t) over one lcm period, period-minimized: the
    XOR over f's monomials of each monomial's stream product."""
    if len(inputs) != f.n_vars:
        raise ValueError(
            f"combiner takes {f.n_vars} sequences, got {len(inputs)}")
    L = lcm(*(s.period for s in inputs))
    word = 0
    for mono in f.monomials:
        word ^= _product_bits([inputs[v - 1] for v in mono], L)
    return _minimize(word, L)
