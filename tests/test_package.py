"""The package's public surface: the names it re-exports, each loaded with
its module on first use, and the value classes FieldElement, BitSequence
and Spectrum, which are plain immutable classes."""

import importlib

import pytest

import crtspectra
from crtspectra.field import FieldElement, build_field, has_order
from crtspectra.sequences import BitSequence
from crtspectra.spectral import Spectrum, default_field_for_period, dft


def test_every_exported_name_is_the_object_its_module_defines():
    for name in crtspectra.__all__:
        obj = getattr(crtspectra, name)
        assert obj.__module__.startswith("crtspectra.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    ns = {}
    exec("from crtspectra import *", ns)
    assert {name: ns[name] for name in crtspectra.__all__} \
        == {name: getattr(crtspectra, name) for name in crtspectra.__all__}


def test_submodules_import_and_unknown_names_raise():
    from crtspectra import oracle
    assert oracle is importlib.import_module("crtspectra.oracle")
    with pytest.raises(AttributeError, match="'nope'"):
        crtspectra.nope


def _twins():
    """Pairs of equal values built apart, and one unequal value each."""
    fld = build_field(5)
    field, root = default_field_for_period(7)
    s = BitSequence.from_string("1110100")
    return [
        (FieldElement(fld, 3), FieldElement(fld, 3), FieldElement(fld, 4)),
        (s, BitSequence([1, 1, 1, 0, 1, 0, 0]),
         BitSequence.from_word(s.word, 8)),
        (dft(s, field, root),
         Spectrum(7, field, root, dict(reversed(
             dft(s, field, root).points.items()))),
         Spectrum(7, field, root, {})),
    ]


def test_equal_values_compare_and_hash_equal():
    for a, b, other in _twins():
        assert a is not b and a == b and not a != b
        assert a != other
        if not isinstance(a, Spectrum):
            assert hash(a) == hash(b)


def test_field_element_keys_a_memo():
    fld = build_field(6)
    first = has_order(FieldElement(fld, 5), 63)
    hits = has_order.cache_info().hits
    assert has_order(FieldElement(fld, 5), 63) is first
    assert has_order.cache_info().hits == hits + 1


def test_values_are_immutable_unhashable_spectra_and_no_tuples():
    elem, seq, spec = (a for a, _, _ in _twins())
    with pytest.raises(TypeError):
        hash(spec)
    for value, attr, as_tuple in (
            (elem, "bits", (elem.field, elem.bits)),
            (seq, "word", (seq.word, seq.period)),
            (spec, "N", (spec.N, spec.field, spec.root, spec.points))):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert value != as_tuple
