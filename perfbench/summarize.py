"""Median and quartiles of each metric over a set of saved runs.

usage: python3 perfbench/summarize.py RUN_OUTPUT...

Each RUN_OUTPUT is the saved stdout of one run.py invocation. Prints one
row per (workload, metric): median, first and third quartile as
statistics.quantiles(values, n=4) gives them, and the quartile spread as a
share of the median, which BENCHMARK.json's bounds are judged against.
"""

import json
import statistics
import sys


def main(paths) -> int:
    values = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1])
        name = lines[0].split()[1]  # "workload <name> seed <n>: ..."
        if not result["correct"]:
            print(f"{path}: failed {result['failed']}/{result['attempted']}")
        for metric, v in result["metrics"].items():
            values.setdefault((name, metric, v["unit"]), []).append(v["value"])
    print(f"{'workload':13s} {'metric':26s} {'n':>3s} {'median':>12s}"
          f" {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for (name, metric, unit), vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                     else (med,) * 3)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:13s} {metric:26s} {len(vs):3d} {med:12.4f} {q1:12.4f}"
              f" {q3:12.4f} {spread:8.3f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
