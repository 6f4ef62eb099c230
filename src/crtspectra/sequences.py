"""Periodic binary sequences, LFSR streams, and time-domain combining."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import lcm

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


def sequence_period(s) -> int:
    """Least p dividing len(s) with s[i] == s[i mod p] throughout.

    Accepts a BitSequence, a string of '0'/'1', or any indexable bit array.
    """
    if isinstance(s, BitSequence):
        s = s.bits
    L = len(s)
    if L == 0:
        raise ValueError("empty sequence")
    for p in range(1, L + 1):
        if L % p:
            continue
        if all(s[i] == s[i % p] for i in range(p, L)):
            return p
    return L


def _minimize(bits: tuple[int, ...]) -> BitSequence:
    p = sequence_period(bits)
    return BitSequence(bits[:p])


def pointwise_product(a: BitSequence, b: BitSequence) -> BitSequence:
    """u_t = a_t AND b_t over one lcm period, then period-minimized."""
    L = lcm(a.period, b.period)
    return _minimize(tuple(a.bit(t) & b.bit(t) for t in range(L)))


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
    """s_t = f(input bits at t) over one lcm period, period-minimized."""
    if len(inputs) != f.n_vars:
        raise ValueError(
            f"combiner takes {f.n_vars} sequences, got {len(inputs)}")
    L = lcm(*(s.period for s in inputs)) if inputs else 1
    return _minimize(tuple(
        f.evaluate([s.bit(t) for s in inputs]) for t in range(L)))

