"""Report assembly and serialization.

One Report structure feeds all three output formats.  JSON output has a
stable key order and round-trips byte-identically; csv is one row per
orbit; text is an aligned table.  Nothing time-dependent goes into the
body, so identical inputs give identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import __version__
from .padic import MultiIndex


def format_alpha(alpha: MultiIndex, p: int) -> dict[str, str]:
    """Multi-index as {slot: "num/p^pexp"} with string keys."""
    return {str(slot): f"{frac.num}/{p}^{frac.pexp}" for slot, frac in alpha.entries}


@dataclass
class Report:
    """Orbit records plus totals and certificates, in deterministic order.

    Orbit records are dicts with a fixed key set; the serializers rely on
    insertion order, so records must be built through add_orbit.
    """

    command: str
    parameters: dict
    identifications: dict = field(default_factory=dict)
    orbits: list[dict] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)
    footer: list[str] = field(default_factory=list)

    def add_orbit(self, **kwargs) -> None:
        self.orbits.append(dict(kwargs))

    @property
    def total_exponent(self) -> int:
        return sum(h for rec in self.orbits if isinstance(h := rec.get("h", 0), int))

    def to_payload(self) -> dict:
        return {
            "metadata": {
                "tool": "trcalc",
                "version": __version__,
                "command": self.command,
                "parameters": self.parameters,
                "identifications": self.identifications,
            },
            "orbits": self.orbits,
            "total_exponent": self.total_exponent,
            "certificates": self.certificates,
        }


CSV_COLUMNS = ("m", "alpha", "s", "h", "oracle_h", "pass")


def _emit_json(report: Report) -> bytes:
    text = json.dumps(report.to_payload(), indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _emit_csv(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in report.orbits:
        alpha = rec.get("alpha")
        row = [_cell(rec.get("m", "")), json.dumps(alpha, ensure_ascii=False) if alpha else "{}"]
        for key in CSV_COLUMNS[2:]:
            row.append("" if key not in rec else _cell(rec[key]))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _emit_text(report: Report) -> bytes:
    lines = [f"trcalc {__version__} :: {report.command}"]
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    lines.append(params)
    lines.append("")
    if report.orbits:
        keys = list(report.orbits[0].keys())
        rows = [[_cell(rec.get(k)) for k in keys] for rec in report.orbits]
        widths = [max(len(k), *(len(r[j]) for r in rows)) for j, k in enumerate(keys)]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        lines.append("")
    lines.append(f"total exponent: {report.total_exponent}")
    for cert in report.certificates:
        lines.append(" ".join(f"{k}={_cell(v)}" for k, v in cert.items()))
    lines.extend(report.footer)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, dict):
        return json.dumps(value, ensure_ascii=False) if value else "{}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def emit_report(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format: {fmt}")

