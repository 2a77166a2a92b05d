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
from dataclasses import dataclass, field

from .drw import Orbit, TruncationParams
from .oracle import OracleError, verify_orbit
from .padic import Prime
from .prosystem import (
    MLViolationError,
    image_exponent,
    nontrivial_towers,
    stabilized_images,
    tr_groups,
    tr_valuation,
    transition_valuations,
)
from .report import Report, emit_report, format_alpha
from .syntomic import AlphaBounds, enumerate_orbits, orbit_summands

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2

COMMANDS = ("syntomic", "kgroups", "transition", "ml-check", "tr", "verify")
# the commands that read --i-max; only verify reads --A and --N
WEIGHT_RANGE_COMMANDS = ("syntomic", "kgroups", "verify")

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
    """Validated parameters of one CLI invocation."""

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
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command}")
        if self.i < 0:
            raise ValidationError("--i must be nonnegative")
        if self.i_max is not None and self.command not in WEIGHT_RANGE_COMMANDS:
            raise ValidationError(f"{self.command} does not read i_max")
        if (self.A is not None or self.N is not None) and self.command != "verify":
            raise ValidationError(f"{self.command} does not read A or N")
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
        if self.format not in ("text", "json", "csv"):
            raise ValidationError(f"unknown format {self.format}")


def _parameters_dict(spec: JobSpec) -> dict:
    out = {"p": spec.p, "i": spec.i}
    if spec.i_max is not None:
        out["i_max"] = spec.i_max
    if spec.e is not None:
        out["e"] = spec.e
    if spec.e_max is not None:
        out["e_max"] = spec.e_max
    if spec.bounds.slots:
        out["slots"] = list(spec.bounds.slots)
        out["alpha_num_max"] = spec.bounds.num_max
        out["alpha_pexp_max"] = spec.bounds.pexp_max
    if spec.A is not None:
        out["A"] = spec.A
    if spec.N is not None:
        out["N"] = spec.N
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
        total = 0
        for sm in summands:
            total += sm.module.h
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
                "total_exponent": total,
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
    levels = spec.levels()
    e = levels[0]
    sources = [f for f in levels[1:] if f % spec.p]
    for sm in enumerate_orbits(TruncationParams(spec.p, e, spec.i), spec.bounds):
        # h_e >= 1 forces s_e >= 1 and e not dividing m, so vals is never None
        h_e = sm.module.h
        sms_f = orbit_summands(spec.p, spec.i, sm.orbit, sources)
        vals = transition_valuations(spec.p, e, sm, sources, sms_f)
        for f, sm_f, v in zip(sources, sms_f, vals):
            h_f = sm_f.module.h
            report.add_orbit(
                **_orbit_columns(sm.orbit, spec.p),
                s=sm.s,
                h=h_e,
                f=f,
                h_f=h_f,
                valuation=v,
                image=image_exponent(h_f, h_e, v),
            )
    return EXIT_OK


def _run_ml_check(spec: JobSpec, report: Report) -> int:
    """One row per tower level, with the exact stable image and ML index.

    On a certified level the sweep has read them.  On any other with h > 0
    they lie past the probe: images into a level are constant from its
    bound on and only shrink as the source grows, so the stable image is
    the one at `ml_bound`, and when the probe has not reached it the ML
    index is the least source whose image has, found by bisection over
    the integers past the probe, each read at the next level prime to p.
    """
    p = spec.p
    levels = [e for e in spec.levels() if e % p]
    probe = levels[-1]
    towers = nontrivial_towers(p, spec.i, spec.bounds, levels)
    status = EXIT_OK
    for tower in towers:
        try:
            stab = stabilized_images(tower, probe)
        except MLViolationError as exc:
            report.certificates.append({**_orbit_columns(tower.orbit, spec.p), "ml_violation": str(exc)})
            status = EXIT_MISMATCH
            continue
        for rec in stab.per_level:
            image, ml_index = rec.stabilized, rec.ml_index
            if rec.h and not rec.certified:
                params = TruncationParams(p, rec.level, spec.i)
                exact = min(tr_valuation(params, rec.ml_bound, tower.orbit), rec.h)
                if exact != image:
                    lo, hi = probe + 1, rec.ml_bound
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if min(tr_valuation(params, mid + (mid % p == 0), tower.orbit), rec.h) == exact:
                            hi = mid
                        else:
                            lo = mid + 1
                    image, ml_index = exact, lo + (lo % p == 0)
            report.add_orbit(
                **_orbit_columns(tower.orbit, p),
                e=rec.level,
                h=rec.h,
                ml_bound=rec.ml_bound,
                stabilized_image=image,
                ml_index=ml_index,
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
        report.add_orbit(**_orbit_columns(orbit, spec.p), kind=verdict.kind, h="" if verdict.h is None else verdict.h)
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
    records = []
    for params, summands in _weight_level_summands(spec):
        for sm in summands:
            cert = verify_orbit(params, sm, spec.A, spec.N)
            records.append(
                {
                    "i": params.i,
                    "e": params.e,
                    **_orbit_columns(sm.orbit, spec.p),
                    "s": cert.s,
                    "h": cert.h_closed,
                    "oracle_h": (cert.oracle_exponents[1][0] if cert.oracle_exponents[1] else 0),
                    "oracle_h2": list(cert.oracle_exponents[2]),
                    "kernel_ok": cert.kernel_ok,
                    "pass": cert.passed,
                }
            )
    all_pass = all(rec["pass"] for rec in records)
    for rec in records:
        report.add_orbit(**rec)
    report.certificates.append(
        {"verified_orbits": len(records), "all_pass": all_pass}
    )
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
    return report, code


class _Parser(argparse.ArgumentParser):
    # validation failures must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="trcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"{name} computation")
        cmd.add_argument("--p", type=int, required=True, help="prime")
        cmd.add_argument("--i", type=int, required=True, help="weight (or range start)")
        if name in WEIGHT_RANGE_COMMANDS:
            cmd.add_argument("--i-max", type=int, default=None, help="weight range end, inclusive")
        cmd.add_argument("--e", type=int, default=None, help="truncation exponent (or range start)")
        cmd.add_argument("--e-max", type=int, default=None, help="exponent range end, inclusive")
        cmd.add_argument("--slots", nargs="+", default=[], help="multi-index slot names")
        cmd.add_argument("--alpha-num-max", type=int, default=None, help="multi-index numerator bound")
        cmd.add_argument(
            "--alpha-pexp-max", type=int, default=None, help="multi-index denominator exponent bound"
        )
        if name == "verify":
            cmd.add_argument("--A", type=int, default=None, help="orbit truncation level override")
            cmd.add_argument("--N", type=int, default=None, help="p-adic precision override")
        cmd.add_argument("--format", choices=("text", "json", "csv"), default="text")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    if args.slots:
        if args.alpha_num_max is None or args.alpha_pexp_max is None:
            raise ValidationError("--slots requires --alpha-num-max and --alpha-pexp-max")
        try:
            bounds = AlphaBounds(tuple(args.slots), args.alpha_num_max, args.alpha_pexp_max)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    elif args.alpha_num_max is not None or args.alpha_pexp_max is not None:
        raise ValidationError("--alpha-num-max and --alpha-pexp-max need --slots")
    else:
        bounds = AlphaBounds()
    return JobSpec(
        command=args.command,
        p=args.p,
        i=args.i,
        i_max=getattr(args, "i_max", None),
        e=args.e,
        e_max=args.e_max,
        bounds=bounds,
        A=getattr(args, "A", None),
        N=getattr(args, "N", None),
        format=args.format,
        out=args.out,
    )


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
