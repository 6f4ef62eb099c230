"""Property tests at the file-format boundary: serialize then parse is the
identity, and a damaged file raises FormatError and nothing else."""

import random
import re
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crtspectra.formats import (FormatError, parse_sequence, parse_spectrum,
                                serialize_sequence, serialize_spectrum)
from crtspectra.sequences import BitSequence
from crtspectra.spectral import default_field_for_period

# derandomized so tier-1 stays deterministic; the fixture only hands back
# a builder function, so sharing it across examples is safe
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

PERIODS = (7, 21, 63, 217)
bit_strings = st.text(alphabet="01", min_size=1, max_size=200)
ascii_chars = st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n")


@st.composite
def log_spectrum_texts(draw, builder):
    """Serialized random log-form spectrum over some order-N root."""
    N = draw(st.sampled_from(PERIODS))
    field, root = default_field_for_period(N)
    u = draw(st.integers(1, N - 1).filter(lambda u: gcd(u, N) == 1))
    S = builder(field, root ** u, random.Random(draw(st.integers(0, 2**32))))
    return S, serialize_spectrum(S)


@st.composite
def mutations(draw, text):
    """`text` with one flipped character, dropped or duplicated line, or
    edited header number."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(("flip", "drop", "duplicate", "header")))
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(ascii_chars) + text[i + 1:]
    if kind == "header":
        head = re.split(r"(\d+)", lines[0])
        j = draw(st.sampled_from(range(1, len(head), 2)))
        head[j] = str(draw(st.integers(0, 2**40)))
        lines[0] = "".join(head)
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@PROPERTY
@given(data=st.data())
def test_spectrum_roundtrip(random_log_spectrum, data):
    S, text = data.draw(log_spectrum_texts(random_log_spectrum))
    assert parse_spectrum(text, "x") == S


@PROPERTY
@given(bits=bit_strings)
def test_sequence_roundtrip(bits):
    s = BitSequence.from_string(bits)
    assert parse_sequence(serialize_sequence(s), "x") == s


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_damaged_spectrum_raises_only_format_error(random_log_spectrum, data):
    _, text = data.draw(log_spectrum_texts(random_log_spectrum))
    try:
        parse_spectrum(data.draw(mutations(text)), "x")
    except FormatError:
        pass


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_damaged_sequence_raises_only_format_error(data):
    text = serialize_sequence(BitSequence.from_string(data.draw(bit_strings)))
    try:
        parse_sequence(data.draw(mutations(text)), "x")
    except FormatError:
        pass
