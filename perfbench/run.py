"""Benchmark of the qcflop command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qcflop checkout.  Each pass is a fresh process
that imports ``qcflop.cli`` and calls ``qcflop.cli.main`` once with
``--format json --jobs 1``.  Passes run one at a time (a closed loop with a
single client) while the next pass, at the median duration so far, would
still end within S seconds; there is always at least one pass.  Every pass is
checked exactly by ``gate.py``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (median pass wall time, timed around
  ``qcflop.cli.main`` in the pass process), ``setup_s`` (median time from
  spawning a process until ``qcflop.cli`` and numpy are imported, over
  several set-up-only processes and every pass) and ``peak_rss_mb`` (median
  peak resident memory of the pass processes, from their rusage).
* ``--trace 1``: the per-layer metrics of ``tracer.py`` from traced passes.
  Their spans are written to ``.perfbench/spans-<workload>-<seed>.json``.

The seed sets the pass processes' ``PYTHONHASHSEED``: the workload arguments
are fixed, and the reports must not depend on hash order.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".perfbench"

# qcflop.cli.main arguments of each workload; FIXED_ARGS are appended to all
WORKLOADS = {
    "verify-all": ["verify", "all"],
    "appendix-r4": ["verify", "appendix", "--r", "4"],
    "genus1-r6": ["dump", "dG", "--r", "6"],
    "batyrev-r5": ["verify", "batyrev", "--r", "5"],
}
FIXED_ARGS = ["--format", "json", "--jobs", "1"]
SETUP_PROBES = 9
PASS_TIMEOUT_S = 170


def child_env(seed: int) -> dict[str, str]:
    # bytecode caches are written, so set-up times the import a user sees after an install
    env = {k: v for k, v in os.environ.items()
           if k not in ("QCFLOP_CONFIG", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join([os.fspath(ROOT / "src"), os.fspath(HERE)])
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


@dataclass
class Pass:
    setup_s: float
    rc: int
    stdout: str = ""
    stderr: str = ""
    result: dict = field(default_factory=dict)
    rss_mb: float = 0.0


def spawn(mode: str, argv: list[str], seed: int, timeout: float = PASS_TIMEOUT_S) -> Pass:
    """Run child.py once; the set-up time runs from spawning to its ready byte."""
    result_path = WORK_DIR / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    ready_r, ready_w = os.pipe()
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, tempfile.TemporaryFile(dir=WORK_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.fspath(CHILD), str(ready_w), os.fspath(result_path), mode, *argv],
            stdout=out, stderr=err, pass_fds=(ready_w,), env=child_env(seed), cwd=ROOT)
        os.close(ready_w)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            with os.fdopen(ready_r, "rb") as ready:
                got = ready.read(1)
            setup_s = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        res = Pass(setup_s, proc.returncode, out.read().decode(), err.read().decode(),
                   rss_mb=usage.ru_maxrss / 1024)
    if not got:
        raise RuntimeError(f"the pass process ended before importing qcflop.cli:\n{res.stderr}")
    if proc.returncode == 0 and mode != "setup":
        with open(result_path, encoding="utf-8") as fh:
            res.result = json.load(fh)
        result_path.unlink()
        res.rc = res.result["rc"]
    return res


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = WORKLOADS[workload] + FIXED_ARGS
    WORK_DIR.mkdir(exist_ok=True)
    spawn("setup", [], seed)  # untimed: writes bytecode caches and warms the file cache
    setups = [spawn("setup", [], seed).setup_s for _ in range(SETUP_PROBES)]
    passes, failed, durations = [], 0, []
    start = time.perf_counter()
    # stop before a pass that would, at the median pass duration so far, end past the budget
    while not passes or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        p = spawn("trace" if trace else "pass", argv, seed)
        durations.append(time.perf_counter() - t0)
        passes.append(p)
        setups.append(p.setup_s)
        reason = gate.check_pass(workload, argv, p.rc, p.stdout)
        print(f"pass {len(passes)}: wall {p.result.get('wall_s', float('nan')):.3f} s, "
              f"set-up {p.setup_s:.3f} s, {reason or 'correct'}", file=sys.stderr)
        if reason is not None:
            failed += 1
            print(p.stderr, file=sys.stderr)
    if trace:
        traced = [p.result["per_layer"] for p in passes if "per_layer" in p.result]
        metrics = {name: {"value": statistics.median(t[name][0] for t in traced),
                          "unit": unit}
                   for name, (_, unit) in (traced[0].items() if traced else ())}
        with open(WORK_DIR / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(passes[-1].result.get("spans", []), fh)
    else:
        walls = [p.result["wall_s"] for p in passes if "wall_s" in p.result]
        metrics = {
            "wall_s": {"value": statistics.median(walls) if walls else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.rss_mb for p in passes), "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": len(passes), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qcflop" / "cli.py").is_file():
        print(f"no qcflop sources under {ROOT / 'src'}; run from a qcflop checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
