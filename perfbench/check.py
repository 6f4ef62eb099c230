"""Referee for the benchmark's outputs.

Every written spectrum is parsed here, independently of crtspectra.formats,
and compared index by index with `oracle.brute_dft` of the actual product,
combiner or input stream over the field and root that the file declares.
References are cached per (stream, field, root), so each distinct input
costs one brute-force transform per run, however often it is requested.
"""

from __future__ import annotations

import json
import re

from crtspectra.field import build_field
from crtspectra.oracle import brute_dft

from workloads import canonical_root

_HEAD = re.compile(
    r"^N=(\d+) field=GF2m\((\d+),0x([0-9a-f]+)\) root=g\^(\d+)$")


def coset_leaders(N: int) -> list:
    """Least element of each orbit of k -> 2k mod N, ascending."""
    seen, leaders = set(), []
    for k in range(N):
        if k not in seen:
            leaders.append(k)
            j = k
            while j not in seen:
                seen.add(j)
                j = 2 * j % N
    return leaders


class Referee:
    """Judges one workload's outputs; holds the brute-force references."""

    def __init__(self, wl):
        self.wl = wl
        self._refs = {}

    def reference(self, key: str, m: int, modulus: int, e: int) -> tuple:
        ck = (key, m, modulus, e)
        if ck not in self._refs:
            fld = build_field(m, modulus)
            self._refs[ck] = brute_dft(self.wl.streams[key], fld,
                                       fld.generator ** e).values
        return self._refs[ck]

    def canonical_reference(self, key: str) -> tuple:
        fld, e, _ = canonical_root(self.wl.streams[key].period)
        return self.reference(key, fld.m, fld.modulus, e)

    def problem(self, req, code: int, text: str, stdout: str) -> str | None:
        """None when the result is right, else what is wrong with it."""
        if code != req.exit:
            return f"exit {code}, expected {req.exit}"
        how, *what = req.check
        try:
            return getattr(self, "_" + how)(text, stdout, *what)
        except (ValueError, ArithmeticError) as e:
            # output too malformed for the referee to evaluate
            return f"unreadable output: {e}"

    # one method per check kind named in workloads.Request.check ----------

    def _spectrum(self, text, stdout, key):
        lines = text.split("\n")
        mo = _HEAD.match(lines[0])
        if not mo or lines[-1] != "":
            return "malformed spectrum file"
        N, m, modulus, e = (int(mo.group(1)), int(mo.group(2)),
                            int(mo.group(3), 16), int(mo.group(4)))
        if N != self.wl.streams[key].period or len(lines) != N + 2:
            return f"N={N}, {len(lines) - 2} entries for a period-" \
                   f"{self.wl.streams[key].period} stream"
        values = []
        for k, line in enumerate(lines[1:-1]):
            idx, _, d = line.partition(" ")
            if idx != str(k):
                return f"line {k + 2}: index {idx!r}, expected {k}"
            values.append(None if d == "Z" else int(d))
        ref = self.reference(key, m, modulus, e)
        bad = [k for k in range(N) if values[k] != ref[k]]
        if bad:
            return (f"{len(bad)} values differ from brute_dft"
                    f" (first k={bad[0]})")
        return None

    def _support(self, text, stdout, *factor_paths):
        facs = [self.wl.factor_values[p] for p in factor_paths]
        N = 1
        for f in facs:
            N *= len(f)
        expect = [k for k in range(N)
                  if all(f[k % len(f)] is not None for f in facs)]
        got = [int(x) for x in text.split()]
        return None if got == expect else "support differs from the factors'"

    def _reduce(self, text, stdout, key):
        ref = self.canonical_reference(key)
        reps = [(k, ref[k]) for k in coset_leaders(len(ref))
                if ref[k] is not None]
        expect = [f"N={len(ref)} leaders={len(reps)}"]
        expect += [f"{k} {d}" for k, d in reps]
        return None if text == "\n".join(expect) + "\n" else \
            "coset leaders differ from brute_dft"

    def _point(self, text, stdout, key, k):
        d = self.canonical_reference(key)[k]
        expect = f"{k} {'Z' if d is None else d}\n"
        return None if text == expect else f"point {k}: {text.strip()!r}"

    def _verify(self, text, stdout, N):
        recs = [json.loads(line) for line in text.splitlines()]
        if len(recs) != 1:
            return f"{len(recs)} report lines, expected 1"
        r = recs[0]
        if r.get("ok") is not True or r.get("N") != N or r.get("mismatches"):
            return f"verify report {r}"
        return None

    def _tamper(self, text, stdout, N, k):
        lines = stdout.splitlines()
        if not lines or lines[0] != f"FAIL N={N} tampered_at={k} mismatches=1":
            return f"tamper verdict {lines[:1]}"
        mms = [json.loads(line) for line in lines[1:]]
        if len(mms) != 1 or mms[0].get("index") != k:
            return f"tamper mismatches {mms}"
        return None
