"""One benchmark pass in a fresh process.

    python3 child.py READY_FD RESULT_PATH MODE [QCFLOP ARGS...]

The process imports ``qcflop.cli`` (numpy included), writes one byte to
READY_FD so the parent can time the set-up, and stops there in ``setup``
mode.  In ``pass`` mode it then calls ``qcflop.cli.main`` once and times the
call with ``time.perf_counter``; ``trace`` mode first installs the per-layer
tracer.  The result goes to RESULT_PATH as JSON; qcflop's own report goes to
standard output as usual.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time


def main() -> int:
    ready_fd, result_path, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    from qcflop import cli

    os.write(ready_fd, b"r")
    os.close(ready_fd)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(pass_id=os.getpid())
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    result = {"rc": rc, "wall_s": wall_s}
    if tracer is not None:
        result["per_layer"] = tracing.per_layer_metrics(tracer, wall_s)
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
