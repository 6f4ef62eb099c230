"""Tests of the benchmark harness itself (not of crtspectra).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import crtspectra.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import Referee  # noqa: E402
from spans import Tracer  # noqa: E402


def _files(d):
    out = {}
    for base, _, names in os.walk(d):
        for n in names:
            p = os.path.join(base, n)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, d)] = fh.read()
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    def inputs(seed, sub):
        d = str(tmp_path / sub)
        wl = workloads.build(name, seed, d)
        argvs = [[a.replace(d, "<dir>") for a in r.argv] for r in wl.pool]
        return _files(d), argvs, wl.schedule

    a = inputs(5, "a")
    assert inputs(5, "b") == a
    assert inputs(6, "c") != a


def _flip_one_exponent(text):
    lines = text.split("\n")
    for j, line in enumerate(lines[1:], start=1):
        k, _, d = line.partition(" ")
        if d not in ("", "Z"):
            n = int(lines[0].split()[0][2:])
            lines[j] = f"{k} {(int(d) + 1) % n}"
            return "\n".join(lines)
    raise AssertionError("no nonzero entry to flip")


def test_flipped_exponent_counts_as_failure(tmp_path, monkeypatch):
    wl = workloads.build("crt-cli", 3, str(tmp_path))
    i = next(j for j, r in enumerate(wl.pool) if r.kind == "crt-conv")
    runner = run.Runner(wl, crtspectra.cli.main)
    runner.call(i)
    assert runner.failures(Referee(wl)) == (0, [])

    serialize = crtspectra.cli.serialize_spectrum
    monkeypatch.setattr(crtspectra.cli, "serialize_spectrum",
                        lambda S: _flip_one_exponent(serialize(S)))
    runner.call(i)
    failed, notes = runner.failures(Referee(wl))
    assert failed == 1 and "differ from brute_dft" in notes[0]


def test_wrong_exit_code_and_raise_count_as_failures(tmp_path):
    wl = workloads.build("verify-sweep", 3, str(tmp_path))
    tamper = next(j for j, r in enumerate(wl.pool) if r.kind == "tamper")
    lax = run.Runner(wl, lambda argv: 0)  # a tampered verify must exit 1
    lax.call(tamper)
    lax.call(tamper)
    assert lax.failures(Referee(wl))[0] == 2

    def boom(argv):
        raise RuntimeError("boom")
    failing = run.Runner(wl, boom)
    failing.call(0)
    assert failing.failures(Referee(wl))[0] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, name):
    wl = workloads.build(name, 4, str(tmp_path))
    plain = run.Runner(wl, crtspectra.cli.main)
    for i in range(len(wl.pool)):
        plain.call(i)
    tracer = Tracer()
    traced = run.Runner(wl, crtspectra.cli.main)
    with tracer.installed():
        for i in range(len(wl.pool)):
            traced.call(i, tracer)
    assert set(plain.results) == set(traced.results)
    assert plain.failures(Referee(wl)) == (0, [])
    names = {s[0] for s in tracer.spans}
    assert "cli" in names and len(names) > 3
    # the tracer is gone again once uninstalled
    assert crtspectra.cli.build_field is crtspectra.field.build_field
    assert not hasattr(crtspectra.cli.build_field, "__wrapped__")


def test_host_scale_removes_a_uniform_slowdown():
    slices = [run.REF_NOMINAL_MS / 1e3 * f for f in (0.9, 1.0, 1.1)]
    t = 0.040
    assert run.host_scale(slices) * t == pytest.approx(t)
    # a host 1.5 times slower stretches the request and the slices alike
    assert run.host_scale([1.5 * r for r in slices]) * 1.5 * t == \
        pytest.approx(t)


def _result(args):
    p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                        *args], capture_output=True, text=True, cwd=ROOT,
                       timeout=170)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    args = ["--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", "0.1"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        res = _result([*args, "--trace", trace])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] >= run.MIN_REQUESTS
        assert {k: v["unit"] for k, v in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert not os.path.exists(os.path.join(BENCH, "_work"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "crt-cli", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       cwd=tmp_path, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
