"""Per-layer spans around the public functions of each crtspectra module.

The wrappers live here, in the benchmark, not in the program. A module that
did `from .field import build_field` holds its own reference to the
function, so each wrapper is installed in every crtspectra module namespace
that holds the original object. Spans are kept in memory as
(name, start, end, parent span, request id); when the run ends they are
written to a file and reduced to per-layer metrics. A span's self time is
its duration minus the durations of its direct children; the request
itself is the root span `cli`, so the self times of one request add up to
its traced wall time.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

from check import coset_leaders

# span name -> functions it wraps, by the name they have in crtspectra
SPANS = {
    "formats.parse": ("parse_spectrum", "parse_sequence"),
    "formats.serialize": ("serialize_spectrum", "serialize_sequence"),
    "field.build": ("build_field",),
    "field.dlog": ("discrete_log",),
    "field.embed": ("embed_root", "aligned_product_root"),
    "spectral.dft": ("dft",),
    "spectral.point": ("dft_point",),
    "spectral.reduce": ("coset_reduce",),
    "crtconv.product": ("product_spectrum",),
    "crtconv.combiner": ("combiner_spectrum",),
    "crtconv.support": ("support_indices",),
    "oracle.brute_dft": ("brute_dft",),
    "oracle.verify": ("verify_theorem1",),
    "bm.bm": ("berlekamp_massey",),
    # the oracle's exact-period LFSR walk is stream generation too
    "sequences.stream": ("lfsr_stream", "pointwise_product",
                         "combiner_stream", "_one_period"),
}
ROOT = "cli"

# span name -> per-layer metric that reports its self time
SELF_METRICS = {
    "cli": "cli.self_ms",
    "formats.parse": "formats.parse_ms",
    "formats.serialize": "formats.serialize_ms",
    "field.build": "field.build_ms",
    "field.dlog": "field.dlog_ms",
    "field.embed": "field.embed_ms",
    "spectral.dft": "spectral.dft_ms",
    "spectral.point": "spectral.point_ms",
    "spectral.reduce": "spectral.reduce_ms",
    "crtconv.product": "crtconv.product_ms",
    "crtconv.combiner": "crtconv.combiner_ms",
    "crtconv.support": "crtconv.support_ms",
    "oracle.brute_dft": "oracle.brute_dft_ms",
    "oracle.verify": "oracle.verify_self_ms",
    "bm.bm": "bm.bm_ms",
    "sequences.stream": "sequences.stream_ms",
}

# spans whose results feed a useful-work ratio; see Tracer.ratios
_RESULT_SPANS = ("spectral.dft", "crtconv.product", "crtconv.combiner")


def _crtspectra_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "crtspectra"
                                  or name.startswith("crtspectra."))]


class Tracer:
    """Records spans for requests run inside `request(rid)`."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, request id)
        self._results = []   # (span name, result) of the current request
        self._stack = []
        self._rid = None
        self.leaders = self.hits = self.support = self.dense = 0
        self._cosets = {}

    def _wrap(self, span, fn):
        spans, stack = self.spans, self._stack
        keep = span in _RESULT_SPANS

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (span, t0, t1, parent, self._rid)
            if keep:
                self._results.append((span, out))
            return out
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap each SPANS function for its traced wrapper in every module
        namespace that holds it; put the originals back on exit."""
        undo = []
        for mod in _crtspectra_modules():
            for span, names in SPANS.items():
                for name in names:
                    fn = mod.__dict__.get(name)
                    if callable(fn):
                        undo.append((mod, name, fn))
                        setattr(mod, name, self._wrap(span, fn))
        try:
            yield self
        finally:
            for mod, name, fn in undo:
                setattr(mod, name, fn)

    @contextmanager
    def request(self, rid):
        """Root span `cli` around one CLI call."""
        self._rid = rid
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, rid)
            self._rid = None
            self._tally()

    def _tally(self):
        """Fold the request's results into the ratio counts, after its
        root span has ended, so the work is in no span."""
        for span, S in self._results:
            if span == "spectral.dft":
                if S.N not in self._cosets:
                    self._cosets[S.N] = coset_leaders(S.N)
                leaders = self._cosets[S.N]
                self.leaders += len(leaders)
                self.hits += sum(1 for k in leaders if S.values[k] is not None)
            else:
                self.support += S.nonzero_count()
                self.dense += S.N
        self._results.clear()

    def write(self, path: str) -> None:
        """All spans as tab-separated lines, times in microseconds from the
        first span: request, name, start, end, parent line (-1 for none)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, parent, rid in self.spans:
                fh.write(f"{rid}\t{name}\t{(t0 - base) * 1e6:.1f}"
                         f"\t{(t1 - base) * 1e6:.1f}\t{parent}\n")

    def self_times(self) -> dict:
        """Span name -> (total self seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            tot, n = out.get(name, (0.0, 0))
            out[name] = (tot + (t1 - t0) - child[i], n + 1)
        return out

    def ratios(self) -> dict:
        """Useful share of the work done by the dense loops.

        spectral.leader_hit_frac: nonzero coset leaders / leaders evaluated.
        crtconv.support_frac: nonzero product or combiner indices / N.
        """
        return {"spectral.leader_hit_frac":
                self.hits / self.leaders if self.leaders else 0.0,
                "crtconv.support_frac":
                self.support / self.dense if self.dense else 0.0}


@contextmanager
def count_mul_int():
    """Count FieldSpec.mul_int calls; yields a one-element list."""
    from crtspectra.field import FieldSpec
    orig = FieldSpec.mul_int
    box = [0]

    def counted(self, a, b):
        box[0] += 1
        return orig(self, a, b)
    FieldSpec.mul_int = counted
    try:
        yield box
    finally:
        FieldSpec.mul_int = orig
