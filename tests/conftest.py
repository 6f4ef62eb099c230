import random
from math import gcd

import pytest

from crtspectra import crtconv, field, formats, oracle, spectral
from crtspectra.field import cyclotomic_cosets
from crtspectra.spectral import Spectrum, coset_expand


def _random_log_spectrum(field, root, rng: random.Random) -> Spectrum:
    """Random log-form spectrum over root that obeys d(2k) = 2 d(k) mod N,
    so it is the transform of a binary sequence. Each coset leader of
    size c is ZERO or gets an exponent d with N | d (2^c - 1), the values
    that lie in GF(2^c)."""
    N = root.order()
    reps = {}
    for coset in cyclotomic_cosets(N):
        if rng.random() < 0.75:
            step = N // gcd(N, (1 << len(coset)) - 1)
            reps[coset[0]] = step * rng.randrange(N // step)
    return coset_expand(reps, N, field, root)


@pytest.fixture
def random_log_spectrum():
    return _random_log_spectrum


@pytest.fixture
def clear_field_caches():
    """Empties the per-process memos: fields, root orders, default fields,
    transform plans, root images, header exponents and the
    oracle's byte tables, so the next call does its set-up work as a
    fresh process would. They are emptied again after the test, so no
    plan built under a test's patches outlives it."""
    def clear():
        field._field.cache_clear()
        field.has_order.cache_clear()
        spectral.default_field_for_period.cache_clear()
        spectral._transform_plan.cache_clear()
        crtconv._image_bits.cache_clear()
        formats._root_exponent.cache_clear()
        oracle._memo_tables.cache_clear()
    yield clear
    clear()
