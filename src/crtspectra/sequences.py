"""Periodic binary sequences, LFSR streams, and time-domain combining."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import cycle, islice
from math import lcm
from operator import and_, xor

from .gf2poly import poly_degree


@dataclass(frozen=True)
class BitSequence:
    """One full period of a periodic binary sequence.

    The stored array IS the period: len(bits) = N >= 1. Minimality is not
    required by the type; pointwise_product and combiner_stream minimize
    before returning.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("empty sequence")
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        return cls(tuple(map(int, text)))

    @property
    def period(self) -> int:
        return len(self.bits)

    def bit(self, t: int) -> int:
        """s_t for any integer t (periodic extension)."""
        return self.bits[t % len(self.bits)]

    def __str__(self) -> str:
        return "".join(map(str, self.bits))

    def __iter__(self):
        return iter(self.bits)


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
    return BitSequence(tuple(clone.step() for _ in range(n)))


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


def sequence_period(s) -> int:
    """Least p dividing len(s) with s[i] == s[i mod p] throughout: the
    first shift p > 0 at which s occurs in s + s.

    Accepts a BitSequence, a string of '0'/'1', or any iterable of bits.
    """
    b = s.encode() if isinstance(s, str) else bytes(s)
    if not b:
        raise ValueError("empty sequence")
    return (b + b).find(b, 1)


def _minimize(bits) -> BitSequence:
    return BitSequence(tuple(bits[:sequence_period(bits)]))


def _product_bits(streams, n: int) -> list:
    """u_t = prod over the streams of s_i[t mod n_i], for t < n."""
    bits = list(islice(cycle(streams[0].bits), n))
    for s in streams[1:]:
        bits = list(map(and_, bits, cycle(s.bits)))
    return bits


def pointwise_product(a: BitSequence, b: BitSequence) -> BitSequence:
    """u_t = a_t AND b_t over one lcm period, then period-minimized."""
    return _minimize(_product_bits((a, b), lcm(a.period, b.period)))


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
    bits = [0] * L
    for mono in f.monomials:
        bits = list(map(xor, bits,
                        _product_bits([inputs[v - 1] for v in mono], L)))
    return _minimize(bits)

