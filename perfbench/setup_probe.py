"""Cold start of one CLI user, measured in a fresh interpreter.

usage: python3 perfbench/setup_probe.py REQUESTS.json

REQUESTS.json is a list of [argv, expected exit code], one per distinct
request of a workload (run.py writes it). The probe times the import of
crtspectra plus one pass over those requests and prints {"setup_s": ...}.
It exits 1 if any request returns another exit code.
"""

import contextlib
import io
import json
import os
import sys
from time import perf_counter


def main() -> int:
    with open(sys.argv[1], encoding="ascii") as fh:
        requests = json.load(fh)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    t0 = perf_counter()
    from crtspectra.cli import main as cli_main
    for argv, expect in requests:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        if code != expect:
            print(f"{argv}: exit {code}, expected {expect}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
