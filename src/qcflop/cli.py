"""Command line front end.

Subcommands:

  qcflop verify {appendix|flop|batyrev|cohomology|quantization|all}
  qcflop table genus1
  qcflop dump dG

A run is one serial pass over the (suite, r) cells in this process, so the
cells of one r share the frame and the stages it keeps, R1 and the genus-one
form among them.  ``--jobs`` accepts only 1; any other value is a usage error.

Exit codes: 0 when every identity passes, 1 on any failure (the failing
anchors, or the derivation error of ``table`` or ``dump``, go to stderr), 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from fractions import Fraction

from qcflop import canonical, suites
from qcflop.config import ConfigError, RunConfig, load_config, parse_sample
from qcflop.report import Report
from qcflop.serialize import fraction_str, ratfunc_q_to_json

SUITES = ("appendix", "flop", "batyrev", "cohomology", "quantization")


def _run_cell(name: str, r: int, cfg: RunConfig) -> Report:
    """One (suite, r) cell; quantization does not depend on r."""
    if name == "cohomology":
        return suites.cohomology_suite(r)
    if name == "flop":
        return suites.flop_suite(r, max_m=cfg.max_m, max_n=cfg.max_n)
    if name == "appendix":
        rep = suites.appendix_suite(r, rmatrix_order=cfg.rmatrix_order)
        rep.extend(suites.genus_one_table_suite(r, cfg.dmax))
        return rep
    if name == "batyrev":
        return suites.batyrev_suite(r, order=cfg.order, sample=parse_sample(cfg.sample),
                                    gap_tol=cfg.gap_tolerance, match_tol=cfg.tolerance)
    if name == "quantization":
        return suites.quantization_suite(dim=cfg.dim, cutoff=cfg.cutoff)
    raise ValueError(f"unknown suite {name!r}")


def run_suite(selection: str, config: RunConfig) -> Report:
    """Run the (suite, r) cells of the selected suites over the configured
    r-range one after another in this process, so that the cells of one r
    share the per-process stages (the frame and what it keeps: R1, the
    genus-one form).  The report's ``seconds`` is the wall time of the run."""
    start = time.perf_counter()
    merged = Report(suite=selection)
    for name in SUITES if selection == "all" else (selection,):
        for r in (0,) if name == "quantization" else config.rs():
            merged.extend(_run_cell(name, r, config))
    merged.seconds = time.perf_counter() - start
    return merged


def _emit(report_text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_text)
    else:
        sys.stdout.write(report_text)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", dest="r_range", help="single r or a range like 1..3")
    parser.add_argument("--order", type=int, help="series truncation order")
    parser.add_argument("--dmax", type=int, help="largest degree in tables")
    parser.add_argument("--rmatrix-order", dest="rmatrix_order", type=int,
                        help="number of recursion orders to verify")
    parser.add_argument("--max-m", dest="max_m", type=int,
                        help="largest derivative order in the flop sweeps")
    parser.add_argument("--max-n", dest="max_n", type=int,
                        help="largest point count in the genus-one sweeps")
    parser.add_argument("--sample", help="numeric sample: 're,im re,im' rationals")
    parser.add_argument("--dim", type=int, help="toy loop-space dimension")
    parser.add_argument("--cutoff", type=int, help="toy loop-space mode cutoff")
    parser.add_argument("--tolerance", type=float, help="spectrum matching tolerance")
    parser.add_argument("--gap-tolerance", dest="gap_tolerance", type=float,
                        help="eigenvalue distinctness tolerance")
    parser.add_argument("--format", choices=("json", "csv", "text"))
    parser.add_argument("--out", help="write the report to this path")
    # runs are serial; the flag stays so that command lines passing --jobs 1 still run
    parser.add_argument("--jobs", type=int, choices=(1,),
                        help="runs are serial: only 1 is accepted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcflop",
        description="Exact verification of quantum cohomology identities for "
                    "local flop models.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES + ("all",))
    _add_common_flags(verify)

    table = sub.add_parser("table", help="emit invariant tables")
    table.add_argument("which", choices=("genus1",))
    _add_common_flags(table)

    dump = sub.add_parser("dump", help="emit closed-form data")
    dump.add_argument("which", choices=("dG",))
    _add_common_flags(dump)

    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}


def cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(_overrides(args))
    report = run_suite(args.suite, config)
    _emit(report.emit(config.format), config.out)
    if not report.all_pass():
        for entry in report.failures():
            print(f"FAIL {entry.anchor} {entry.params} {entry.residual}", file=sys.stderr)
        return 1
    return 0


class DerivationError(Exception):
    """A derivation behind ``table`` or ``dump`` failed (exit code 1)."""


def _derive(derive, *args):
    """derive(*args), with the ValueError of a failed derivation (the
    FlatnessError of a diagonal that does not integrate, a CancellationError)
    raised again as a DerivationError."""
    try:
        return derive(*args)
    except ValueError as exc:
        raise DerivationError(f"r = {args[0]}: {exc}") from exc


def cmd_table(args: argparse.Namespace) -> int:
    config = load_config(_overrides(args))
    rows = []
    for r in config.rs():
        table = _derive(canonical.genus_one_table, r, config.dmax)
        for d, value in enumerate(table, start=1):
            rows.append((r, d, value))
    single_r = len(config.rs()) == 1
    if config.format == "csv":
        if single_r:
            lines = ["d,invariant"] + [f"{d},{fraction_str(v)}" for (_, d, v) in rows]
        else:
            lines = ["r,d,invariant"] + [f"{r},{d},{fraction_str(v)}" for (r, d, v) in rows]
        text = "\n".join(lines) + "\n"
    elif config.format == "json":
        payload = [{"r": r, "d": d, "invariant": fraction_str(v)} for (r, d, v) in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(f"r={r} d={d}: {v}" for (r, d, v) in rows) + "\n"
    _emit(text, config.out)
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    config = load_config(_overrides(args))
    if config.format == "csv":
        raise ConfigError("dump writes json or text")
    payload = []
    for r in config.rs():
        form, const = _derive(canonical.genus_one_form, r)
        kappa = Fraction((-1) ** (r + 1) * (r + 1), 24)
        sign = "-" if r % 2 == 1 else "+"
        payload.append({
            "r": r,
            "dlogq_coefficient": ratfunc_q_to_json(form),
            "dropped_constant": fraction_str(const),
            "closed_form": f"({kappa}) * q/(1 {sign} q)",
        })
    if config.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [f"r={item['r']}: dG/dlogq = {item['closed_form']}"
                f" (constant {item['dropped_constant']} removed)" for item in payload]
        text = "\n".join(rows) + "\n"
    _emit(text, config.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "dump":
            return cmd_dump(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DerivationError as exc:
        print(f"derivation error: {exc}", file=sys.stderr)
        return 1
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
