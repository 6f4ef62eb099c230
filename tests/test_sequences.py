import math
import random

import pytest

from crtspectra import oracle, sequences
from crtspectra.sequences import (AnfCombiner, BitSequence, Lfsr,
                                  combiner_stream, lfsr_stream,
                                  pointwise_product, sequence_period)

import reference_values as rv


def test_bitsequence_basics():
    s = BitSequence.from_string("0010111")
    assert s.period == 7
    assert s.bit(0) == 0 and s.bit(2) == 1
    assert s.bit(9) == s.bit(2)          # periodic extension
    assert str(s) == "0010111"
    with pytest.raises(ValueError):
        BitSequence(())
    with pytest.raises(ValueError):
        BitSequence.from_string("01x")
    for bits in ((0, 2, 1), (1, -1), (0.5,), (1, None)):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitSequence(bits)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BitSequence.from_string("0120")


@pytest.mark.parametrize("text", ("1_0", " 10", "10 ", "\u0661\u0660"))
def test_from_string_refuses_what_int_base_2_reads(text):
    # int(text[::-1], 2) reads each of these as a number
    int(text[::-1], 2)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BitSequence.from_string(text)


def test_a_long_sequence_has_a_repr():
    # a 20,000-bit word is past the default int-to-decimal digit limit
    s = BitSequence.from_word((1 << 20_000) - 1, 20_000)
    assert repr(s) == f"BitSequence.from_word(0x{'f' * 5000}, 20000)"


def test_lfsr_validation():
    with pytest.raises(ValueError):
        Lfsr(0x1, 0b1)      # degree 0
    with pytest.raises(ValueError):
        Lfsr(0x6, 0b1)      # even constant term: not a pure recurrence
    with pytest.raises(ValueError):
        Lfsr(0xB, 0b1000)   # state wider than the register


def test_reference_streams():
    assert str(lfsr_stream(Lfsr(*rv.LFSR_A), 3)) == rv.STREAM_A
    assert str(lfsr_stream(Lfsr(*rv.LFSR_B), 7)) == rv.STREAM_B
    assert str(lfsr_stream(Lfsr(*rv.LFSR_C), 31)) == rv.STREAM_C


def test_seed_string_orientation():
    # leftmost character of the seed is s_0
    l = Lfsr(0xB, 0b100)
    assert str(lfsr_stream(l, 7)) == "0010111"


def test_run_does_not_mutate_register():
    l = Lfsr(*rv.LFSR_B)
    first = lfsr_stream(l, 7)
    second = lfsr_stream(l, 7)
    assert first == second


def test_zero_state_flagged():
    with pytest.warns(RuntimeWarning):
        s = lfsr_stream(Lfsr(0xB, 0), 5)
    assert str(s) == "00000"


def test_sequence_period_examples():
    assert sequence_period("011011") == 3
    assert sequence_period("0010111") == 7
    assert sequence_period("0000") == 1
    assert sequence_period(BitSequence.from_string(rv.STREAM_C * 2)) == 31


def test_sequence_period_sampled():
    rng = random.Random(17)
    for _ in range(100):
        p = rng.randrange(1, 12)
        reps = rng.randrange(1, 5)
        core = [rng.randrange(2) for _ in range(p)]
        s = core * reps
        q = sequence_period(s)
        assert len(s) % q == 0 and q <= p
        assert all(s[i] == s[i % q] for i in range(len(s)))


def _least_period(bits) -> int:
    """The textbook definition: the least divisor p of len(bits) with
    bits[i] == bits[i mod p] for every i."""
    L = len(bits)
    return next(p for p in range(1, L + 1)
                if L % p == 0 and all(bits[i] == bits[i % p]
                                      for i in range(L)))


def _minimal(bits) -> BitSequence:
    return BitSequence(tuple(bits[:_least_period(bits)]))


def test_sequence_period_matches_the_divisor_scan():
    rng = random.Random(29)
    for _ in range(300):
        core = [rng.randrange(2) for _ in range(rng.randrange(1, 40))]
        bits = core * rng.randrange(1, 7)
        want = _least_period(bits)
        assert sequence_period(bits) == want
        assert sequence_period("".join(map(str, bits))) == want
        assert sequence_period(BitSequence(tuple(bits))) == want


def test_pointwise_product_is_and_per_t():
    rng = random.Random(31)
    for _ in range(100):
        a = BitSequence(tuple(rng.randrange(2)
                              for _ in range(rng.randrange(1, 16))))
        b = BitSequence(tuple(rng.randrange(2)
                              for _ in range(rng.randrange(1, 16))))
        L = math.lcm(a.period, b.period)
        want = _minimal([a.bit(t) & b.bit(t) for t in range(L)])
        assert pointwise_product(a, b) == want


@pytest.mark.parametrize("periods", ((3, 7, 31), (2, 5, 9), (4, 6, 9),
                                     (6, 10, 15), (3, 3, 12, 8)))
def test_combiner_stream_is_f_per_t(periods):
    rng = random.Random(str(periods))
    n = len(periods)
    everything = list(range(1, n + 1))
    anfs = [AnfCombiner(n, [[1, 2], [2, 3], [1, 2]]),  # cancels to 2*3
            AnfCombiner(n, [[1], [1]]),                 # cancels to zero
            AnfCombiner(n, [everything])]               # one monomial
    for _ in range(12):
        anfs.append(AnfCombiner(n, [
            rng.sample(everything, rng.randrange(1, n + 1))
            for _ in range(rng.randrange(1, 6))]))
    for f in anfs:
        inputs = [BitSequence(tuple(rng.randrange(2) for _ in range(p)))
                  for p in periods]
        L = math.lcm(*periods)
        want = _minimal([f.evaluate([s.bit(t) for s in inputs])
                         for t in range(L)])
        assert combiner_stream(f, inputs) == want
    assert combiner_stream(anfs[1], inputs) == BitSequence((0,))


def test_oracle_takes_its_streams_from_sequences():
    # one implementation of the period walk and the stream product
    assert oracle._one_period is sequences._one_period
    assert oracle._product_bits is sequences._product_bits


def test_pointwise_product_reference():
    a = BitSequence.from_string(rv.STREAM_A)
    b = BitSequence.from_string(rv.STREAM_B)
    assert str(pointwise_product(a, b)) == rv.PRODUCT_AB


def test_pointwise_product_identity_and_zero():
    b = BitSequence.from_string(rv.STREAM_B)
    ones = BitSequence.from_string("1")
    zeros = BitSequence.from_string("0")
    assert pointwise_product(b, ones) == b
    assert pointwise_product(b, zeros).period == 1


def test_pointwise_product_period_divides_lcm():
    rng = random.Random(23)
    for _ in range(60):
        s = [rng.randrange(2) for _ in range(rng.randrange(1, 9))]
        t = [rng.randrange(2) for _ in range(rng.randrange(1, 9))]
        u = pointwise_product(BitSequence(tuple(s)), BitSequence(tuple(t)))
        assert math.lcm(len(s), len(t)) % u.period == 0


def test_anf_parse_and_cancellation():
    f = AnfCombiner.parse("1*2+2*3+1*3")
    assert f.n_vars == 3
    assert len(f.monomials) == 3
    # duplicated monomial cancels in characteristic 2
    g = AnfCombiner.parse("1*2+1*2+2*3", n_vars=3)
    h = AnfCombiner.parse("2*3", n_vars=3)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert g.evaluate((x, y, z)) == h.evaluate((x, y, z))
    with pytest.raises(ValueError):
        AnfCombiner(2, [[]])


def test_combiner_stream_reference():
    seqs = [BitSequence.from_string(x)
            for x in (rv.STREAM_A, rv.STREAM_B, rv.STREAM_C)]
    f = AnfCombiner.parse(rv.COMBINER_ANF)
    s = combiner_stream(f, seqs)
    assert s.period == 651
    assert str(s).startswith(rv.COMBINER_PREFIX)


def test_combiner_arity_mismatch():
    f = AnfCombiner.parse("1*2", n_vars=2)
    one = BitSequence.from_string("01")
    with pytest.raises(ValueError):
        combiner_stream(f, [one])

