"""Self-tests of the benchmark: self-time arithmetic, tracer coverage and
determinism, and negative controls of the correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
from tracer import Span, Tracer, per_layer_metrics, span_self_times

def test_span_self_times_on_a_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "c", 2.0, 3.0, parent=1),
        Span(3, "b", 5.0, 9.0, parent=0, inner_s=1.0),
        Span(4, "late", 9.5, 11.0, parent=0),  # clipped to the parent's interval
    ]
    got = span_self_times(spans)
    assert got == pytest.approx({0: 10 - 3 - 4 - 0.5, 1: 3 - 1, 2: 1, 3: 4 - 1, 4: 1.5})


def test_self_times_add_up_to_the_root():
    spans = [Span(0, "root", 0.0, 8.0, inner_s=0.5), Span(1, "x", 1.0, 3.0, parent=0, inner_s=0.25),
             Span(2, "y", 3.0, 7.0, parent=0), Span(3, "z", 4.0, 6.0, parent=2, inner_s=2.0)]
    total_inner = sum(s.inner_s for s in spans)
    assert sum(span_self_times(spans).values()) + total_inner == pytest.approx(8.0)


def traced_pass(tmp_path: Path, argv: list[str], seed: int) -> dict:
    result = tmp_path / f"result-{seed}.json"
    ready_r, ready_w = os.pipe()
    try:
        subprocess.run([sys.executable, str(run.CHILD), str(ready_w), str(result), "trace", *argv],
                       cwd=run.ROOT, env=run.child_env(seed), stdout=subprocess.DEVNULL,
                       pass_fds=(ready_w,), check=True, timeout=120)
    finally:
        os.close(ready_w)
        os.close(ready_r)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def test_traced_pass_accounts_for_its_wall_time_and_repeats_its_counts(tmp_path):
    argv = ["verify", "appendix", "--r", "1", "--format", "json"]
    first, second = traced_pass(tmp_path, argv, 1), traced_pass(tmp_path, argv, 2)
    assert first["rc"] == 0 and second["rc"] == 0
    layers = first["per_layer"]
    wall = layers["trace.wall_s"][0]
    assert abs(layers["trace.uncovered_s"][0]) < 0.01 * wall
    assert layers["canonical.genus_one_form.calls"][0] == 4  # form, two branch flips, table
    assert layers["algebra.poly.gcd.calls"][0] > 0
    exact = [k for k, (_, unit) in layers.items() if unit in ("count", "degree", "bits", "ratio")]
    assert {k: first["per_layer"][k] for k in exact} == {k: second["per_layer"][k] for k in exact}


def test_tracer_covers_aliases_and_module_globals_and_both_self_times_agree():
    code = ("import tracer, qcflop.cli, qcflop.algebra as alg, qcflop.canonical as can\n"
            "t = tracer.Tracer(); t.install()\n"
            "assert alg.CycNumber.__rmul__ is alg.CycNumber.__mul__\n"
            "assert alg.elementary_symmetric is alg.cyclotomic.elementary_symmetric\n"
            "assert can.elementary_symmetric is alg.elementary_symmetric\n"
            "assert hasattr(can.build_spectrum, '__wrapped__')\n"
            "x = alg.CycField(3).zeta(1); y = 2 * x\n"
            "assert t.site('algebra.cyclotomic', 'CycNumber.mul').calls >= 1\n"
            "qcflop.cli.main(['verify', 'appendix', '--r', '1', '--format', 'json'])\n"
            "stack = {}\n"
            "for s in t.sites.values():\n"
            "    stack[s.layer] = stack.get(s.layer, 0.0) + s.self_s\n"
            "for layer, self_s in t.layer_self_times().items():\n"
            "    assert abs(self_s - stack.get(layer, 0.0)) < 1e-6, (layer, self_s, stack)\n")
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, env=run.child_env(0),
                   check=True, timeout=60, stdout=subprocess.DEVNULL)


def report_text(rows: list[list[str]]) -> str:
    entries = [{"anchor": a, "params": json.loads(p), "status": s, "residual": r}
               for a, p, s, r in rows]
    return json.dumps({"suite": "all", "entries": entries, "all_pass": True, "seconds": 1.0})


@pytest.mark.parametrize("workload", ["verify-all", "appendix-r4", "batyrev-r5"])
def test_gate_accepts_the_reference_and_rejects_a_flipped_entry(workload):
    argv = run.WORKLOADS[workload]
    rows = gate.load_reference(workload)
    assert rows and all(r[2] == "pass" for r in rows)
    assert gate.check_pass(workload, argv, 0, report_text(rows)) is None
    tampered = [list(r) for r in rows]
    tampered[len(rows) // 2][2] = "fail"
    assert gate.check_pass(workload, argv, 0, report_text(tampered)) is not None
    assert gate.check_pass(workload, argv, 0, report_text(rows[1:])) is not None
    assert gate.check_pass(workload, argv, 1, report_text(rows)) is not None


def genus1_dump(constant: str = "-7/8", num=("0/1", "-7/24")) -> str:
    return json.dumps([{"r": 6, "dlogq_coefficient": {"num": list(num), "den": ["1/1", "1/1"]},
                        "dropped_constant": constant, "closed_form": "(-7/24) * q/(1 + q)"}])


def test_gate_checks_the_computed_genus_one_form():
    argv = run.WORKLOADS["genus1-r6"]
    assert gate.check_pass("genus1-r6", argv, 0, genus1_dump()) is None
    assert gate.check_pass("genus1-r6", argv, 0, genus1_dump(constant="-7/9")) is not None
    assert gate.check_pass("genus1-r6", argv, 0, genus1_dump(num=("0/1", "7/24"))) is not None
    assert gate.check_pass("genus1-r6", argv, 0, "not json") is not None


def test_benchmark_json_lists_what_the_runs_report():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    emitted = {name: unit for name, (_, unit) in per_layer_metrics(Tracer(), 1.0).items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == emitted
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
