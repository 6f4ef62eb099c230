"""Closed-loop benchmark of the crtspectra command line, in process.

usage: python3 perfbench/run.py --workload {crt-cli,dft-cli,verify-sweep}
                                --seed N --seconds S --trace {0,1}

One client, one process, no threads: each request calls
crtspectra.cli.main(argv), the entry point of the `crtspectra` script, and
the next starts when it returns. Inputs come from the seed (workloads.py);
every output is checked against the oracle outside the timed region
(check.py). The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run (spans.py) with --trace 1.
End-to-end times are scaled to a nominal host speed, measured by a fixed
reference loop run between the requests (see `host_scale`).
The program is taken from src/ next to this directory; without it the run
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACES = os.path.join(HERE, "traces")
SETUP_PROBES = 5
REF_ITERS = 20_000      # one slice of the host reference loop
REF_NOMINAL_MS = 2.0    # what a slice takes on the nominal host
REF_AROUND_PROBE = 10   # slices before and after each set-up probe
PROBE_TIMEOUT_S = 60
MIN_REQUESTS = 100

END_TO_END = {  # name -> unit
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def ref_slice() -> float:
    """One slice of a fixed pure-Python loop that uses no crtspectra code;
    its wall time in seconds."""
    t0 = perf_counter()
    x = 0
    for i in range(REF_ITERS):
        x ^= (i * i) & 0xFFFF
    return perf_counter() - t0


def host_scale(refs) -> float:
    """Factor that turns a time measured next to the reference slices
    `refs` into a time on the nominal host. The host's speed drifts by tens
    of percent, within seconds and over minutes, and the slices drift with
    it, so a time multiplied by this factor keeps what the program changed."""
    return REF_NOMINAL_MS / (statistics.median(refs) * 1e3)


class Runner:
    """Runs a workload's requests and keeps each distinct result."""

    def __init__(self, wl, cli_main):
        self.wl = wl
        self.main = cli_main
        self.results = {}   # (pool index, code, text, stdout) -> times seen
        self.bytes_out = []  # bytes emitted per request, in run order

    def call(self, i: int, tracer=None) -> float:
        """Run pool entry i once; returns its wall time in seconds. With a
        tracer, the call is the root span of the request's trace."""
        req = self.wl.pool[i]
        if req.out and os.path.exists(req.out):
            os.remove(req.out)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.request(req.rid) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), span:
            t0 = perf_counter()
            try:
                code = self.main(list(req.argv))
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a raise is a failed request
                code = f"raised {type(e).__name__}: {e}"
            t1 = perf_counter()
        text = ""
        if req.out and os.path.exists(req.out):
            with open(req.out, encoding="ascii", errors="replace") as fh:
                text = fh.read()
        key = (i, code, text, out.getvalue())
        self.results[key] = self.results.get(key, 0) + 1
        self.bytes_out.append(len(text) + len(out.getvalue()))
        return t1 - t0

    def failures(self, referee) -> tuple[int, list]:
        failed, notes = 0, []
        for (i, code, text, stdout), n in self.results.items():
            why = referee.problem(self.wl.pool[i], code, text, stdout)
            if why:
                failed += n
                notes.append(f"{self.wl.pool[i].rid}: {why} (x{n})")
        return failed, notes


def setup_times(wl) -> tuple[list, list]:
    """setup_s samples: SETUP_PROBES fresh interpreters, one after another,
    each scaled by the reference slices taken just before and after it.
    Returns the scaled samples and the raw ones."""
    path = os.path.join(wl.workdir, "requests.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump([[r.argv, r.exit] for r in wl.pool], fh)
    probe = os.path.join(HERE, "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        refs = [ref_slice() for _ in range(REF_AROUND_PROBE)]
        p = subprocess.run([sys.executable, probe, path], capture_output=True,
                           text=True, timeout=PROBE_TIMEOUT_S)
        if p.returncode != 0:
            raise RuntimeError(f"setup probe failed: {p.stderr.strip()}")
        refs += [ref_slice() for _ in range(REF_AROUND_PROBE)]
        raw.append(json.loads(p.stdout)["setup_s"])
        scaled.append(raw[-1] * host_scale(refs))
    return scaled, raw


def end_to_end(runner, seconds, setup) -> tuple[dict, list, list]:
    """Replay whole cycles of the schedule until `seconds` have passed and
    at least MIN_REQUESTS ran, with a reference slice between any two
    requests. Each request's time is scaled by the slices on either side
    of it. Returns the metrics, report lines and the slices."""
    order, lat, refs = [], [], [ref_slice()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(lat) < MIN_REQUESTS:
        for i in runner.wl.schedule:
            lat.append(runner.call(i))
            refs.append(ref_slice())
            order.append(i)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [t * host_scale(refs[j:j + 2]) for j, t in enumerate(lat)]

    def timing(ts):
        return {"throughput_rps": len(ts) / sum(ts),
                "latency_p50_ms": statistics.median(ts) * 1e3,
                "latency_p90_ms": statistics.quantiles(
                    ts, n=10, method="inclusive")[-1] * 1e3}
    metrics = timing(scaled)
    metrics["setup_s"] = statistics.median(setup[0])
    metrics["peak_rss_mb"] = rss_mb
    by_kind = {}
    for i, t in zip(order, scaled):
        by_kind.setdefault(runner.wl.pool[i].kind, []).append(t)
    cycles = len(lat) // len(runner.wl.schedule)
    lines = [f"{len(lat)} timed requests in {cycles} cycles; unscaled: "
             + ", ".join(
                 f"{k} {v:.4f}" for k, v in timing(lat).items())
             + f", setup_s {statistics.median(setup[1]):.4f}",
             f"setup samples {[round(s, 4) for s in setup[0]]} scaled,"
             f" {[round(s, 4) for s in setup[1]]} unscaled"]
    for kind, ts in sorted(by_kind.items()):
        lines.append(f"  {kind:14s} n={len(ts):5d}"
                     f" p50={statistics.median(ts) * 1e3:9.3f} ms"
                     f" max={max(ts) * 1e3:9.3f} ms")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines, refs


def traced(runner, seconds) -> tuple[dict, list]:
    """Alternate untraced and traced cycles of the schedule, so host drift
    hits both sides of the overhead alike; then count mul_int calls over
    one more cycle whose times are not reported. The spans are written to
    TRACES/<workload>-<seed>.tsv."""
    from spans import SELF_METRICS, Tracer, count_mul_int
    tracer = Tracer()
    sched = runner.wl.schedule
    first = len(runner.bytes_out)
    plain, deadline = [], perf_counter() + seconds
    while perf_counter() < deadline or len(plain) * len(sched) < MIN_REQUESTS:
        plain += [runner.call(i) for i in sched]
        with tracer.installed():
            for i in sched:
                runner.call(i, tracer)
    out_bytes = runner.bytes_out[first:]
    with count_mul_int() as box:
        for i in sched:
            runner.call(i)

    os.makedirs(TRACES, exist_ok=True)
    span_file = os.path.join(TRACES, f"{runner.wl.name}-{runner.wl.seed}.tsv")
    tracer.write(span_file)
    selfs = tracer.self_times()
    n = selfs["cli"][1]
    traced_ms = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans
                    if name == "cli") / n * 1e3
    plain_ms = statistics.fmean(plain) * 1e3
    m = {name: (selfs.get(span, (0.0, 0))[0] / n * 1e3, "ms")
         for span, name in SELF_METRICS.items()}
    m["field.dlogs"] = (selfs.get("field.dlog", (0, 0))[1] / n, "count")
    m["field.builds"] = (selfs.get("field.build", (0, 0))[1] / n, "count")
    m["field.mul_int_calls"] = (box[0] / len(sched), "count")
    m["formats.bytes_out"] = (statistics.fmean(out_bytes), "bytes")
    m.update((k, (v, "frac")) for k, v in tracer.ratios().items())
    m["trace.request_ms"] = (traced_ms, "ms")
    m["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    lines = [f"spans written to {os.path.relpath(span_file)}",
             f"{n} traced requests, {len(plain)} untraced; mean request"
             f" {traced_ms:.3f} ms traced, {plain_ms:.3f} ms untraced;"
             " self time per request by span:"]
    for span, name in sorted(SELF_METRICS.items(), key=lambda kv:
                             -selfs.get(kv[0], (0.0, 0))[0]):
        lines.append(f"  {name:26s} {m[name][0]:10.3f} ms"
                     f" {m[name][0] / traced_ms:7.1%}")
    return m, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crtspectra", "cli.py")):
        print(f"error: no crtspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from check import Referee
    from crtspectra.cli import main as cli_main
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup = ([], []) if args.trace else setup_times(wl)
        runner = Runner(wl, cli_main)
        for i in range(len(wl.pool)):  # warm-up: every distinct request
            runner.call(i)
        if args.trace:
            (metrics, lines), refs = traced(runner, args.seconds), []
        else:
            metrics, lines, refs = end_to_end(runner, args.seconds, setup)
        refs += [ref_slice() for _ in range(REF_AROUND_PROBE)]
        attempted = sum(runner.results.values())
        failed, notes = runner.failures(Referee(wl))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    print(f"workload {wl.name} seed {wl.seed}: {len(wl.pool)} distinct"
          f" requests, {len(wl.schedule)} per cycle ({wl.mix})")
    for line in lines + notes:
        print(line)
    print(f"attempted {attempted} failed {failed}"
          f" failed_frac {failed / attempted:.6f}")
    q1, med, q3 = statistics.quantiles(refs, n=4)
    print("diagnostic " + json.dumps(
        {"host_ref_ms": round(med * 1e3, 4),
         "host_ref_q1_q3_ms": [round(q1 * 1e3, 4), round(q3 * 1e3, 4)],
         "host_ref_slices": len(refs),
         "host_ref_nominal_ms": REF_NOMINAL_MS}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
