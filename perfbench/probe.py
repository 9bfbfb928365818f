"""Report-only r-ceiling probe.

    python3 perfbench/probe.py

Runs ``canonical.genus_one_form(r)`` for r = 1, 2, ... with each r in its own
process under a hard timeout of 60 s (the per-r bound of acceptance criterion
01), and stops at the first r that times out.  Prints the seconds of each r,
timed around the call inside its process, and then ``r_ceiling``: the largest
r that finished.  The ceiling is not a gated metric: at r = 6 the time sits
near the bound, so the count flips with machine noise, while the ``wall_s``
of the ``genus1-r6`` workload carries the same information continuously.
"""

from __future__ import annotations

import subprocess
import sys

from run import ROOT, child_env

TIMEOUT_S = 60
CALL = ("import sys, time\n"
        "from qcflop import canonical\n"
        "t0 = time.perf_counter()\n"
        "canonical.genus_one_form(int(sys.argv[1]))\n"
        "print(time.perf_counter() - t0)\n")


def main() -> int:
    ceiling, r = 0, 1
    while True:
        try:
            proc = subprocess.run([sys.executable, "-c", CALL, str(r)], cwd=ROOT, env=child_env(0),
                                  capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        except subprocess.TimeoutExpired:
            print(f"r={r} timeout after {TIMEOUT_S} s", flush=True)
            break
        print(f"r={r} {float(proc.stdout):.3f} s", flush=True)
        ceiling, r = r, r + 1
    print(f"r_ceiling {ceiling}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
