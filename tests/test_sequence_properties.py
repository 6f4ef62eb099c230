"""Property tests of the packed stream layer against plain tuple references.

A BitSequence holds one int per period; every reference here works on
tuples of bits, read out of the word one shift at a time, so no packed
code stands on both sides of an assertion."""

from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from crtspectra.formats import parse_sequence, serialize_sequence
from crtspectra.sequences import (AnfCombiner, BitSequence, Lfsr,
                                  _minimize, _product_bits, bit_bytes,
                                  combiner_stream, lfsr_stream,
                                  pointwise_product, sequence_period)

# derandomized so tier-1 stays deterministic
PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)
MAX_PERIOD = 300
MAX_LCM = 20_000


def _unpacked(s: BitSequence) -> tuple:
    """s_0 .. s_(N-1) read bit by bit out of the word; the word may hold
    nothing at or above N."""
    assert s.word >> s.period == 0
    return tuple((s.word >> t) & 1 for t in range(s.period))


def _least_period(bits: tuple) -> int:
    L = len(bits)
    return next(p for p in range(1, L + 1)
                if L % p == 0 and bits == bits[:p] * (L // p))


def _minimal(bits: tuple) -> tuple:
    return bits[:_least_period(bits)]


@st.composite
def bit_tuples(draw, period):
    """period bits: all zero, all one, random, or a random core repeated,
    so that minimizing has something to find."""
    kind = draw(st.sampled_from(("zeros", "ones", "random", "repeat")))
    if kind == "zeros":
        return (0,) * period
    if kind == "ones":
        return (1,) * period
    core = period
    if kind == "repeat":
        core = draw(st.sampled_from(
            [d for d in range(1, period + 1) if period % d == 0]))
    w = draw(st.integers(0, (1 << core) - 1))
    return tuple((w >> t) & 1 for t in range(core)) * (period // core)


@st.composite
def stream_tuples(draw, count):
    """count bit tuples with periods in 1..MAX_PERIOD whose lcm stays at
    most MAX_LCM, so the references can walk one lcm period."""
    periods, L = [], 1
    for _ in range(count):
        p = draw(st.sampled_from([p for p in range(1, MAX_PERIOD + 1)
                                  if lcm(L, p) <= MAX_LCM]))
        periods.append(p)
        L = lcm(L, p)
    return [draw(bit_tuples(p)) for p in periods]


@PROPERTY
@given(st.data())
def test_views_parse_and_serialize_match_the_tuple(data):
    bits = data.draw(bit_tuples(data.draw(st.integers(1, MAX_PERIOD))))
    text = "".join(map(str, bits))
    s = BitSequence(bits)
    assert _unpacked(s) == bits
    assert s.period == len(bits) and s.bits == bits and tuple(s) == bits
    assert str(s) == text
    assert eval(repr(s), {"BitSequence": BitSequence}) == s
    assert BitSequence.from_string(text) == s
    assert parse_sequence(serialize_sequence(s)) == s
    file = f"period={len(bits)}\n{text}\n"
    assert serialize_sequence(parse_sequence(file)) == file
    for t in (0, len(bits) - 1, len(bits), -1, -len(bits) - 2,
              data.draw(st.integers(-10 ** 6, 10 ** 6))):
        assert s.bit(t) == bits[t % len(bits)]


@PROPERTY
@given(st.data())
def test_equality_and_hash_follow_the_bits(data):
    bits = data.draw(bit_tuples(data.draw(st.integers(1, MAX_PERIOD))))
    word = sum(b << t for t, b in enumerate(bits))
    same = (BitSequence(bits), BitSequence(list(bits)),
            BitSequence.from_string("".join(map(str, bits))),
            BitSequence.from_word(word, len(bits)))
    assert len(set(same)) == 1
    assert len({hash(s) for s in same}) == 1
    j = data.draw(st.integers(0, len(bits) - 1))
    flipped = bits[:j] + (1 - bits[j],) + bits[j + 1:]
    assert BitSequence(flipped) != same[0]
    # the same word over a longer period is another sequence
    assert BitSequence(bits + (0,)) != same[0]


@PROPERTY
@given(st.data())
def test_least_period_and_minimize_match_the_divisor_scan(data):
    bits = data.draw(bit_tuples(data.draw(st.integers(1, MAX_PERIOD))))
    s = BitSequence(bits)
    want = _least_period(bits)
    assert sequence_period(s) == want
    assert sequence_period(list(bits)) == want
    assert sequence_period("".join(map(str, bits))) == want
    assert _unpacked(_minimize(s.word, s.period)) == bits[:want]


@PROPERTY
@given(stream_tuples(2))
def test_pointwise_product_matches_the_tuple_product(streams):
    a, b = streams
    L = lcm(len(a), len(b))
    want = _minimal(tuple(x & y for x, y in zip(a * (L // len(a)),
                                                b * (L // len(b)))))
    assert _unpacked(pointwise_product(BitSequence(a), BitSequence(b))) \
        == want


@PROPERTY
@given(stream_tuples(3), st.data())
def test_combiner_stream_matches_the_tuple_combiner(streams, data):
    monomials = data.draw(st.lists(st.sets(st.integers(1, 3), min_size=1),
                                   min_size=1, max_size=5))
    f = AnfCombiner(3, monomials)
    L = lcm(*map(len, streams))
    want = _minimal(tuple(f.evaluate([s[t % len(s)] for s in streams])
                          for t in range(L)))
    got = combiner_stream(f, [BitSequence(s) for s in streams])
    assert _unpacked(got) == want


@PROPERTY
@given(stream_tuples(3), st.data())
def test_windows_of_any_length_match_the_tuples(streams, data):
    # n below the period and n not a multiple of it, for the stream
    # product, the unpacked window and the first n outputs of a register
    L = lcm(*map(len, streams))
    n = data.draw(st.integers(1, L + MAX_PERIOD))
    want = tuple(min(s[t % len(s)] for s in streams) for t in range(n))
    word = _product_bits([BitSequence(s) for s in streams], n)
    assert word >> n == 0
    assert tuple((word >> t) & 1 for t in range(n)) == want
    assert tuple(bit_bytes(word, n)) == want
    head = data.draw(st.integers(0, n))
    assert tuple(bit_bytes(word, head)) == want[:head]

    deg = data.draw(st.integers(2, 9))
    conn = 1 << deg | data.draw(st.integers(0, (1 << deg) - 1)) | 1
    seed = data.draw(st.integers(1, (1 << deg) - 1))
    steps = data.draw(st.integers(1, 600))
    ref = Lfsr(conn, seed)
    assert _unpacked(lfsr_stream(Lfsr(conn, seed), steps)) \
        == tuple(ref.step() for _ in range(steps))
