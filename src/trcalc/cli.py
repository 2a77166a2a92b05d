"""Batch command-line driver.

Subcommands cover the closed forms (syntomic, kgroups, transition), the
tower checks (ml-check, tr), and the brute-force cross-check (verify).
Reports are deterministic for a fixed job.

Exit codes: 0 success, 1 validation failure, 2 verification mismatch or
Mittag-Leffler violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields

from .drw import Orbit, TruncationParams
from .oracle import OracleError, verify_orbit
from .padic import Prime
from .prosystem import MLViolationError, ml_rows, nontrivial_towers, tr_groups, transition_rows
from .report import FORMATS, Report, emit_report, format_alpha
from .syntomic import AlphaBounds, enumerate_orbits

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2

# the flags only some commands read, in the groups `JobSpec.validate`
# refuses together: each flag's dest and help, and the commands that read
# the group; the parser registers a group only on those commands
PARTIAL_FLAGS = (
    ({"i_max": "weight range end, inclusive"}, ("syntomic", "kgroups", "verify")),
    ({"A": "orbit truncation level override", "N": "p-adic precision override"}, ("verify",)),
)

IDENTIFICATIONS = {
    "k_groups": "K_{2i-1}(A, (x); Z_p) is identified with degree-1 weight-i "
    "syntomic cohomology of A via the cyclotomic trace and the motivic filtration",
    "tr": "curves description: TR(A; Z_p) = lim_e Omega K(A[x]/x^e, (x)); "
    "TR degree 2i therefore pulls from the weight i+1 towers",
    "p_typical": "the m = 1 orbit slice is read as the p-typical summand of "
    "the product decomposition over integers coprime to p",
    "base": "groups are W(k)/p^h for a symbolic perfect field k; numeric "
    "orders are the k = F_p specialization",
}


class ValidationError(Exception):
    pass


@dataclass
class JobSpec:
    """Validated parameters of one CLI invocation.

    Every field but `bounds` is named as the dest of its flag, and `bounds`
    holds the three slot-window flags: `_spec_from_args` passes the flags
    in by name, and `_parameters_dict` reports them in field order."""

    command: str
    p: int
    i: int
    i_max: int | None = None
    e: int | None = None
    e_max: int | None = None
    bounds: AlphaBounds = field(default_factory=AlphaBounds)
    A: int | None = None
    N: int | None = None
    format: str = "text"
    out: str | None = None

    def weights(self) -> list[int]:
        return list(range(self.i, (self.i_max if self.i_max is not None else self.i) + 1))

    def levels(self) -> list[int]:
        if self.e is None:
            raise ValidationError(f"{self.command} needs --e")
        return list(range(self.e, (self.e_max if self.e_max is not None else self.e) + 1))

    def validate(self) -> None:
        try:
            Prime(self.p)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if self.command not in RUNNERS:
            raise ValidationError(f"unknown command {self.command}")
        if self.i < 0:
            raise ValidationError("--i must be nonnegative")
        for flags, readers in PARTIAL_FLAGS:
            if self.command not in readers and any(getattr(self, dest) is not None for dest in flags):
                raise ValidationError(f"{self.command} does not read {' or '.join(flags)}")
        if self.i_max is not None and self.i_max < self.i:
            raise ValidationError("--i-max below --i")
        if self.e is not None and self.e < 1:
            raise ValidationError("--e must be positive")
        if self.e_max is not None and (self.e is None or self.e_max < self.e):
            raise ValidationError("--e-max needs --e and --e-max >= --e")
        if self.command == "tr" and self.e_max is not None and self.e != 2:
            raise ValidationError("tr towers start at e=2; with --e-max, --e must be 2")
        if self.command in ("transition", "ml-check") and self.levels()[0] % self.p == 0:
            # target level of a tower command must live in the index category
            raise ValidationError(f"level {self.levels()[0]} not coprime to p={self.p}")
        if self.format not in FORMATS:
            raise ValidationError(f"unknown format {self.format}")


def _parameters_dict(spec: JobSpec) -> dict:
    """The job's set parameters in `JobSpec` field order, the slot window
    as its three flags."""
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name == "bounds":
            if value.slots:
                out.update(slots=list(value.slots), alpha_num_max=value.num_max, alpha_pexp_max=value.pexp_max)
        elif f.name not in ("command", "format", "out") and value is not None:
            out[f.name] = value
    return out


def _orbit_columns(orbit: Orbit, p: int) -> dict:
    """An orbit's `m` and `alpha` report columns, in that order."""
    return {"m": orbit.m, "alpha": format_alpha(orbit.alpha, p)}


def _weight_level_summands(spec: JobSpec):
    """(params, summands) for each weight, then each level, of `spec`."""
    for i in spec.weights():
        for e in spec.levels():
            params = TruncationParams(spec.p, e, i)
            yield params, enumerate_orbits(params, spec.bounds)


def _run_syntomic(spec: JobSpec, report: Report) -> int:
    for params, summands in _weight_level_summands(spec):
        for sm in summands:
            report.add_orbit(
                i=params.i,
                e=params.e,
                **_orbit_columns(sm.orbit, spec.p),
                s=sm.s,
                h=sm.module.h,
                module=str(sm.module),
                generator=list(sm.generator_exponents),
            )
        report.certificates.append(
            {
                "i": params.i,
                "e": params.e,
                "total_exponent": sum(sm.module.h for sm in summands),
                "reduced_h0": "0",
                "higher_degrees": "0 for every degree >= 2",
            }
        )
    return EXIT_OK


def _run_kgroups(spec: JobSpec, report: Report) -> int:
    for params, summands in _weight_level_summands(spec):
        divisors = sorted((sm.module.h for sm in summands), reverse=True)
        for sm in summands:
            report.add_orbit(i=params.i, e=params.e, **_orbit_columns(sm.orbit, spec.p), s=sm.s, h=sm.module.h)
        group = " + ".join(f"W(k)/{spec.p}^{h}" for h in divisors) or "0"
        report.certificates.append(
            {
                "degree": 2 * params.i - 1,
                "i": params.i,
                "e": params.e,
                "group": group,
                "divisors": [spec.p**h for h in divisors],
                "order_fp": spec.p ** sum(divisors),
            }
        )
    return EXIT_OK


def _run_transition(spec: JobSpec, report: Report) -> int:
    """One row per source level for each orbit nontrivial at the target,
    as `prosystem.transition_rows` reads them."""
    for sm, f, h_f, v, image in transition_rows(spec.p, spec.i, spec.bounds, spec.levels()):
        report.add_orbit(
            **_orbit_columns(sm.orbit, spec.p),
            s=sm.s,
            h=sm.module.h,
            f=f,
            h_f=h_f,
            valuation=v,
            image=image,
        )
    return EXIT_OK


def _run_ml_check(spec: JobSpec, report: Report) -> int:
    """One row per level of each nontrivial tower, with the exact stable
    image and ML index that `prosystem.ml_rows` reads; a tower whose images
    change past a certified bound prints the violation instead of its rows,
    and the job exits 2."""
    p, i = spec.p, spec.i
    levels = [e for e in spec.levels() if e % p]
    probe = levels[-1]
    towers = nontrivial_towers(p, i, spec.bounds, levels)
    status = EXIT_OK
    for tower in towers:
        try:
            rows = ml_rows(tower, probe)
        except MLViolationError as exc:
            report.certificates.append({**_orbit_columns(tower.orbit, spec.p), "ml_violation": str(exc)})
            status = EXIT_MISMATCH
            continue
        for rec in rows:
            report.add_orbit(
                **_orbit_columns(tower.orbit, p),
                e=rec.level,
                h=rec.h,
                ml_bound=rec.ml_bound,
                stabilized_image=rec.stabilized,
                ml_index=rec.ml_index,
                certified=rec.certified,
            )
    report.certificates.append(
        {"ml_condition": "PASS" if status == EXIT_OK else "FAIL", "probe": probe, "orbits": len(towers)}
    )
    return status


def _run_tr(spec: JobSpec, report: Report) -> int:
    probe = spec.levels()[-1]
    result = tr_groups(spec.p, spec.i, spec.bounds, probe)
    for orbit, verdict in result.even:
        report.add_orbit(**_orbit_columns(orbit, spec.p), kind=verdict.kind, h=verdict.h)
    report.certificates.append(
        {
            "even_degree": result.degree,
            "weight": result.weight,
            "odd_degree": result.odd.degree,
            "odd_zero": result.odd.zero,
            "lim1_zero": result.odd.lim1_zero,
            "orbits": result.odd.orbits,
        }
    )
    report.footer.append("TR_odd = 0: CERTIFIED (Mittag-Leffler past the bound f0 gives lim^1 = 0)")
    return EXIT_OK


def _run_verify(spec: JobSpec, report: Report) -> int:
    for params, summands in _weight_level_summands(spec):
        for sm in summands:
            cert = verify_orbit(params, sm, spec.A, spec.N)
            report.add_orbit(
                i=params.i,
                e=params.e,
                **_orbit_columns(sm.orbit, spec.p),
                s=cert.s,
                h=cert.h_closed,
                oracle_h=(cert.oracle_exponents[1][0] if cert.oracle_exponents[1] else 0),
                oracle_h2=list(cert.oracle_exponents[2]),
                kernel_ok=cert.kernel_ok,
                **{"pass": cert.passed},
            )
    all_pass = all(rec["pass"] for rec in report.orbits)
    report.certificates.append({"verified_orbits": len(report.orbits), "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_MISMATCH


RUNNERS = {
    "syntomic": _run_syntomic,
    "kgroups": _run_kgroups,
    "transition": _run_transition,
    "ml-check": _run_ml_check,
    "tr": _run_tr,
    "verify": _run_verify,
}


def run_command(spec: JobSpec) -> tuple[Report, int]:
    """Execute one job; returns the report plus the process exit status."""
    spec.validate()
    report = Report(
        command=spec.command,
        parameters=_parameters_dict(spec),
        identifications=dict(IDENTIFICATIONS),
    )
    try:
        code = RUNNERS[spec.command](spec, report)
    except (ValidationError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    except OracleError as exc:
        report.certificates.append({"error": str(exc)})
        return report, EXIT_MISMATCH
    if spec.command in ("syntomic", "kgroups", "verify"):
        # their rows are the summands of one group, so h adds up to its order
        report.total_exponent = sum(rec["h"] for rec in report.orbits)
    return report, code


class _Parser(argparse.ArgumentParser):
    # validation failures must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_partial_flags(cmd: argparse.ArgumentParser, name: str, flags: dict[str, str], readers: tuple) -> None:
    """One group of `PARTIAL_FLAGS` on the subcommand `name`, if it reads
    them."""
    if name in readers:
        for dest, text in flags.items():
            cmd.add_argument("--" + dest.replace("_", "-"), type=int, default=None, help=text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    weight_range, truncation = PARTIAL_FLAGS
    for name in RUNNERS:
        cmd = sub.add_parser(name, help=f"{name} computation")
        cmd.add_argument("--p", type=int, required=True, help="prime")
        cmd.add_argument("--i", type=int, required=True, help="weight (or range start)")
        _add_partial_flags(cmd, name, *weight_range)
        cmd.add_argument("--e", type=int, default=None, help="truncation exponent (or range start)")
        cmd.add_argument("--e-max", type=int, default=None, help="exponent range end, inclusive")
        cmd.add_argument("--slots", nargs="+", default=[], help="multi-index slot names")
        cmd.add_argument("--alpha-num-max", type=int, default=None, help="multi-index numerator bound")
        cmd.add_argument(
            "--alpha-pexp-max", type=int, default=None, help="multi-index denominator exponent bound"
        )
        _add_partial_flags(cmd, name, *truncation)
        cmd.add_argument("--format", choices=FORMATS, default="text")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    """The slot-window flags make `bounds`; every other flag's dest is a
    `JobSpec` field and goes in as it is."""
    flags = dict(vars(args))
    slots, num_max, pexp_max = (flags.pop(k) for k in ("slots", "alpha_num_max", "alpha_pexp_max"))
    if slots and (num_max is None or pexp_max is None):
        raise ValidationError("--slots requires --alpha-num-max and --alpha-pexp-max")
    if not slots and (num_max is not None or pexp_max is not None):
        raise ValidationError("--alpha-num-max and --alpha-pexp-max need --slots")
    try:
        bounds = AlphaBounds(tuple(slots), num_max, pexp_max) if slots else AlphaBounds()
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return JobSpec(bounds=bounds, **flags)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        report, code = run_command(spec)
    except ValidationError as exc:
        print(f"trcalc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    data = emit_report(report, spec.format)
    if not spec.out:
        sys.stdout.buffer.write(data)
        return code
    try:
        with open(spec.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"trcalc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
