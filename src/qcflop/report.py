"""Verification reports: typed entries, deterministic ordering, three formats."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Entry:
    anchor: str
    params: dict
    status: str  # "pass" or "fail"
    residual: str = "0"

    def sort_key(self):
        return (self.anchor, json.dumps(self.params, sort_keys=True))


@dataclass
class Report:
    suite: str
    entries: list[Entry] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the run, set by cli.run_suite

    def add(self, anchor: str, params: dict, ok: bool, residual: str = "0") -> None:
        self.entries.append(Entry(anchor, params, "pass" if ok else "fail", residual))

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    def sorted_entries(self) -> list[Entry]:
        return sorted(self.entries, key=Entry.sort_key)

    def all_pass(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> list[Entry]:
        return [e for e in self.sorted_entries() if e.status != "pass"]

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "entries": [
                {"anchor": e.anchor, "params": e.params,
                 "status": e.status, "residual": e.residual}
                for e in self.sorted_entries()
            ],
            "all_pass": self.all_pass(),
            "seconds": round(self.seconds, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=False) + "\n"

    def to_csv(self) -> str:
        # imported here: only --format csv writes through it
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["anchor", "params", "status", "residual"])
        for e in self.sorted_entries():
            writer.writerow([e.anchor, json.dumps(e.params, sort_keys=True),
                             e.status, e.residual])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for e in self.sorted_entries():
            mark = "✓" if e.status == "pass" else "✗"
            params = json.dumps(e.params, sort_keys=True)
            tail = "" if e.residual == "0" else f"  [{e.residual}]"
            lines.append(f"{mark} {e.anchor} {params}{tail}")
        verdict = "all checks passed" if self.all_pass() else "FAILURES PRESENT"
        lines.append(f"{verdict} ({len(self.entries)} checks, {self.seconds:.2f}s)")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")
