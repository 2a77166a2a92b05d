"""Report assembly and serialization.

A runner fills one Report, and every format shows what it put there.  The
orbit records are the table: the first record's keys name its columns, and
text (an aligned table) and csv (the same table, comma-separated) read
their columns and cells through one helper, `_table`.  JSON carries the
records as they are, with a stable key order, and round-trips
byte-identically.  The total line is printed only when the runner set one.
Nothing time-dependent goes into the body, so identical inputs give
identical bytes.
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
    """Orbit records, an optional total, certificates and a footer, in
    deterministic order.

    Every record of one report has the same keys in the same order: they
    are the table's columns in each format.  `total_exponent` is the sum
    of h over rows that are the summands of one group, so the driver sets
    it only for the commands whose rows are (`syntomic`, `kgroups`,
    `verify`), only on a job of one weight and one level, and only when
    the job ran to its end; left None, JSON has no such key and text no
    total line.
    """

    command: str
    parameters: dict
    identifications: dict = field(default_factory=dict)
    orbits: list[dict] = field(default_factory=list)
    total_exponent: int | None = None
    certificates: list[dict] = field(default_factory=list)
    footer: list[str] = field(default_factory=list)

    def add_orbit(self, **kwargs) -> None:
        self.orbits.append(dict(kwargs))

    def to_payload(self) -> dict:
        payload = {
            "metadata": {
                "tool": "trcalc",
                "version": __version__,
                "command": self.command,
                "parameters": self.parameters,
                "identifications": self.identifications,
            },
            "orbits": self.orbits,
        }
        if self.total_exponent is not None:
            payload["total_exponent"] = self.total_exponent
        payload["certificates"] = self.certificates
        return payload


def _table(report: Report) -> tuple[list[str], list[list[str]]]:
    """The orbit table: the first record's keys, and each record's cells."""
    keys = list(report.orbits[0]) if report.orbits else []
    return keys, [[_cell(rec.get(k)) for k in keys] for rec in report.orbits]


def _emit_json(report: Report) -> bytes:
    text = json.dumps(report.to_payload(), indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _emit_csv(report: Report) -> bytes:
    keys, rows = _table(report)
    if not keys:
        return b""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([keys, *rows])
    return buf.getvalue().encode("utf-8")


def _emit_text(report: Report) -> bytes:
    params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
    lines = [f"trcalc {__version__} :: {report.command}", params, ""]
    keys, rows = _table(report)
    if keys:
        widths = [max(len(k), *(len(r[j]) for r in rows)) for j, k in enumerate(keys)]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        lines.append("")
    if report.total_exponent is not None:
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
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


# every format name and its emitter; the driver's --format reads this table
FORMATS = {"text": _emit_text, "json": _emit_json, "csv": _emit_csv}


def emit_report(report: Report, fmt: str) -> bytes:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt}")
    return FORMATS[fmt](report)
