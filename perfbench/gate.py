"""Exact correctness gate for one benchmark pass.

A pass counts as failed unless qcflop exited with code 0 and

* for a ``verify`` workload, the sorted (anchor, params, status, residual)
  rows of its JSON report equal the reference stored in ``reference/``;
* for ``genus1-r6``, the computed dlog q coefficient of dG at r = 6 is
  -7/24 * q/(1 + q), that is num [0, -7/24] over den [1, 1], and the dropped
  constant is -7/8.  The ``closed_form`` string is not read: the CLI formats
  it from the formula, not from the computation.

To record the references again after an intended change of the reports:

    python3 perfbench/gate.py record
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

GENUS1_R = 6
GENUS1_NUM = [Fraction(0), Fraction(-7, 24)]
GENUS1_DEN = [Fraction(1), Fraction(1)]
GENUS1_CONSTANT = Fraction(-7, 8)


def report_rows(report_text: str) -> list[list[str]]:
    """The sorted (anchor, params, status, residual) rows of a JSON report."""
    entries = json.loads(report_text)["entries"]
    return sorted([e["anchor"], json.dumps(e["params"], sort_keys=True), e["status"], e["residual"]]
                  for e in entries)


def load_reference(workload: str) -> list[list[str]]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(report_text: str, reference: list[list[str]]) -> str | None:
    try:
        rows = report_rows(report_text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if rows == reference:
        return None
    if len(rows) != len(reference):
        return f"{len(rows)} entries, reference has {len(reference)}"
    first = next(i for i, (a, b) in enumerate(zip(rows, reference)) if a != b)
    return f"entry {first} is {rows[first]}, reference {reference[first]}"


def check_genus1(dump_text: str) -> str | None:
    try:
        items = {item["r"]: item for item in json.loads(dump_text)}
        item = items[GENUS1_R]
        num = [Fraction(c) for c in item["dlogq_coefficient"]["num"]]
        den = [Fraction(c) for c in item["dlogq_coefficient"]["den"]]
        const = Fraction(item["dropped_constant"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable dump: {exc!r}"
    if (num, den) != (GENUS1_NUM, GENUS1_DEN):
        return f"dlogq coefficient {num} / {den}"
    if const != GENUS1_CONSTANT:
        return f"dropped constant {const}"
    return None


def check_pass(workload: str, argv: list[str], rc: int, stdout_text: str) -> str | None:
    """None when the pass is correct, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    if argv[0] == "verify":
        return check_verify(stdout_text, load_reference(workload))
    return check_genus1(stdout_text)


def record() -> int:
    """Run every verify workload once and store its rows as the reference."""
    from run import FIXED_ARGS, ROOT, WORKLOADS, child_env

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, argv in WORKLOADS.items():
        if argv[0] != "verify":
            continue
        proc = subprocess.run([sys.executable, "-m", "qcflop.cli", *argv, *FIXED_ARGS], cwd=ROOT,
                              env=child_env(0), capture_output=True, text=True, check=True)
        rows = report_rows(proc.stdout)
        with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
        print(f"{workload}: {len(rows)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python3 perfbench/gate.py record")
    sys.exit(record())
