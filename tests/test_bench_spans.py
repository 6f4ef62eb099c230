"""The benchmark's per-layer spans (perfbench/spans.py) wrap program
functions by name; a name that no longer resolves is skipped silently and
its layer reads 0, so every name is checked here."""

import ast
import importlib
import os
import pkgutil

import crtspectra

SPANS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "spans.py")


def _span_names():
    """SPANS of perfbench/spans.py, read as a literal, without importing
    the benchmark."""
    with open(SPANS_PY, encoding="ascii") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS in perfbench/spans.py")


def test_every_span_name_is_a_crtspectra_function():
    modules = [importlib.import_module(f"crtspectra.{info.name}")
               for info in pkgutil.iter_modules(crtspectra.__path__)]
    spans = _span_names()
    assert spans
    for span, names in spans.items():
        for name in names:
            assert any(callable(getattr(mod, name, None))
                       and getattr(mod, name).__module__ == mod.__name__
                       for mod in modules), (
                f"span {span}: no crtspectra function {name}")
