"""The plain record classes behave as the dataclasses they replaced."""

from dataclasses import FrozenInstanceError, dataclass

import pytest

from crtspectra.bm import BmResult
from crtspectra.costs import OpCounter
from crtspectra.oracle import Mismatch, VerifyReport
from crtspectra.records import FrozenRecord, Record


class Pair(Record):
    __slots__ = ("a", "b")


class FrozenPair(FrozenRecord):
    __slots__ = ("a", "b")


@dataclass
class PairDc:
    a: object
    b: object


@dataclass(frozen=True)
class FrozenPairDc:
    a: object
    b: object


@pytest.mark.parametrize("rec, dc", [(Pair, PairDc),
                                     (FrozenPair, FrozenPairDc)])
def test_record_matches_its_dataclass(rec, dc):
    for args, kwargs in (((1, "x"), {}), ((1,), {"b": "x"}),
                         ((), {"b": "x", "a": 1})):
        r = rec(*args, **kwargs)
        assert (r.a, r.b) == (1, "x")
        assert repr(r) == repr(dc(*args, **kwargs)).replace(dc.__name__,
                                                            rec.__name__)
        assert r == rec(1, "x") and r != rec(1, "y")
    assert rec(1, 2) != (1, 2) and rec(1, 2) != PairDc(1, 2)
    for args, kwargs in (((1,), {}), ((1, 2, 3), {}), ((1,), {"c": 2}),
                         ((1, 2), {"a": 1})):
        with pytest.raises(TypeError):
            rec(*args, **kwargs)
        with pytest.raises(TypeError):
            dc(*args, **kwargs)


def test_frozen_record_refuses_writes_and_hashes_by_fields():
    r = FrozenPair(1, (2, 3))
    for write in (lambda: setattr(r, "a", 5), lambda: delattr(r, "a"),
                  lambda: setattr(r, "c", 5)):
        with pytest.raises(AttributeError, match="cannot"):
            write()
    with pytest.raises(FrozenInstanceError) as dc_error:
        FrozenPairDc(1, 2).a = 5
    with pytest.raises(AttributeError) as error:
        r.a = 5
    assert str(error.value) == str(dc_error.value)
    assert hash(r) == hash(FrozenPair(1, (2, 3)))
    assert hash(r) == hash(FrozenPairDc(1, (2, 3)))
    assert (r.a, r.b) == (1, (2, 3))


def test_mutable_record_takes_writes_and_is_unhashable():
    r = Pair(1, 2)
    r.a = 5
    assert r == Pair(5, 2)
    with pytest.raises(TypeError):
        hash(r)
    counter = OpCounter()
    counter.mul_count += 2
    assert counter == OpCounter(2, 0) == OpCounter(mul_count=2)
    assert repr(counter) == "OpCounter(mul_count=2, reduction_count=0)"
    report = VerifyReport(ok=True, N=21, moduli=(3, 7), support_size=6,
                          linear_complexity=6, blahut_ok=True,
                          conjugacy_ok=True, mismatches=[])
    report.ok = False
    assert not report.ok


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        BmResult(3, 0x3)
    with pytest.raises(ValueError):
        Mismatch(index=3, expected=5, actual=5)
    assert BmResult(linear_complexity=2, minimal_poly=0x7) == BmResult(2, 0x7)
