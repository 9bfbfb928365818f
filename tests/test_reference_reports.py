"""The reports of the benchmark's verify workloads equal their stored references.

The rows compared are the sorted (anchor, params, status, residual) of the
JSON report, as in the benchmark's exactness gate; the references under
``perfbench/reference/`` are only read here.
"""

import json
from pathlib import Path

import pytest

from qcflop import cli

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

WORKLOADS = {
    "verify-all": ["verify", "all"],
    "appendix-r4": ["verify", "appendix", "--r", "4"],
    "batyrev-r5": ["verify", "batyrev", "--r", "5"],
}


def report_rows(report_text):
    entries = json.loads(report_text)["entries"]
    return sorted([e["anchor"], json.dumps(e["params"], sort_keys=True), e["status"], e["residual"]]
                  for e in entries)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_report_rows_equal_the_reference(workload, capsys, monkeypatch):
    monkeypatch.delenv("QCFLOP_CONFIG", raising=False)
    reference = json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    assert cli.main([*WORKLOADS[workload], "--format", "json", "--jobs", "1"]) == 0
    assert report_rows(capsys.readouterr().out) == reference
