"""Input checks: every rejection of a bad job, parameter or value, and the
two exit-2 paths of the driver, each reached directly."""

import json

import pytest

import trcalc.cli as cli_module
import trcalc.oracle as oracle_module
import trcalc.prosystem as prosystem_module
from trcalc.cli import EXIT_MISMATCH, EXIT_OK, EXIT_VALIDATION, JobSpec, ValidationError, main, run_command
from trcalc.drw import CyclicWittModule, TruncationParams, degree1_walks
from trcalc.oracle import OracleError, OrbitTable, OrbitTruncation, TransitionOracle, default_truncation, oracle_cohomology
from trcalc.padic import MultiIndex, PAdicFraction, brace
from trcalc.report import FORMATS, Report, emit_report
from trcalc.syntomic import Orbit

HALF = PAdicFraction.make(1, 1, 2)


@pytest.mark.parametrize(
    "spec,message",
    [
        (JobSpec(command="syntomic", p=3, i=-1, e=2), "--i must be nonnegative"),
        (JobSpec(command="kgroups", p=3, i=1, e=0), "--e must be positive"),
        (JobSpec(command="syntomic", p=3, i=1, e_max=5), "--e-max needs --e"),
        (JobSpec(command="transition", p=3, i=1), "transition needs --e"),
        (JobSpec(command="ml-check", p=3, i=1), "ml-check needs --e"),
        (JobSpec(command="tr", p=3, i=1), "tr needs --e"),
        (JobSpec(command="verify", p=3, i=1), "verify needs --e"),
        (JobSpec(command="bogus", p=3, i=1, e=2), "unknown command bogus"),
        (JobSpec(command="syntomic", p=3, i=1, e=2, format="xml"), "unknown format xml"),
        (JobSpec(command="transition", p=3, i=1, i_max=2, e=2), "transition does not read i_max"),
        (JobSpec(command="syntomic", p=3, i=1, e=2, N=30), "syntomic does not read A or N"),
    ],
)
def test_run_command_rejects_a_bad_job(spec, message):
    with pytest.raises(ValidationError, match=message):
        run_command(spec)


SLOT_JOB = ["syntomic", "--p", "2", "--i", "2", "--e", "3", "--slots", "t"]


@pytest.mark.parametrize("num,pexp", [(0, 0), (0, 1), (1, -1), (2, -1)])
def test_slot_window_bounds_exit_1_with_the_rule_they_break(num, pexp, capsys):
    code = main(SLOT_JOB + ["--alpha-num-max", str(num), "--alpha-pexp-max", str(pexp)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_VALIDATION, "")
    assert captured.err == "trcalc: error: nonempty slot set needs a numerator bound >= 1 and a pexp bound >= 0\n"


def test_slot_window_accepts_pexp_bound_0(capsys):
    # pexp 0 keeps the integer numerators: alpha = t^1 is enumerated
    code = main(SLOT_JOB + ["--alpha-num-max", "1", "--alpha-pexp-max", "0", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    assert [row["alpha"] for row in json.loads(captured.out)["orbits"]] == [{}, {"t": "1/2^0"}, {}]


def test_ml_check_reports_a_violation_and_exits_2(monkeypatch):
    # p=3, weight 1, orbit m=1: level 2 has bound 10 inside the probe, so a
    # valuation that grows at f=13 changes an image past the bound.  Level
    # 2 is the one level of orbit m=1 with s_e = 1 (where m1 = m), so
    # lowering that block's term of source 13 raises the map (2, 13) alone
    real = prosystem_module.source_term

    def drifting(p, s_e, m1, f, sm_f):
        return real(p, s_e, m1, f, sm_f) - ((s_e, m1, f) == (1, 1, 13))

    monkeypatch.setattr(prosystem_module, "source_term", drifting)
    report, code = run_command(JobSpec(command="ml-check", p=3, i=1, e=2, e_max=28))
    assert code == EXIT_MISMATCH
    violations = [cert for cert in report.certificates if "ml_violation" in cert]
    assert [cert["m"] for cert in violations] == [1]
    assert "witness f=13" in violations[0]["ml_violation"]
    assert report.certificates[-1]["ml_condition"] == "FAIL"


def test_oracle_error_becomes_an_error_certificate_and_exits_2(monkeypatch):
    # the grown fiber of the stability recheck is replaced by another
    # orbit's, so the oracle raises and the driver records the error
    real = oracle_module.build_orbit_matrices

    def other_orbit_when_grown(params, trunc, table):
        # the grown build is the one at the table's own level
        if trunc.A < table.A:
            return real(params, trunc, table)
        return real(params, OrbitTruncation(Orbit(5), trunc.A, trunc.N), OrbitTable.of(params.p, Orbit(5), table.A))

    monkeypatch.setattr(oracle_module, "build_orbit_matrices", other_orbit_when_grown)
    report, code = run_command(JobSpec(command="verify", p=2, i=2, e=3))
    assert code == EXIT_MISMATCH
    assert "cohomology changed under truncation growth" in report.certificates[-1]["error"]


def test_oracle_error_after_the_first_orbit_keeps_its_rows_and_prints_no_total(monkeypatch):
    # orbit m=1 verifies, orbit m=5 raises: the report keeps the verified
    # row and the error, and has no total, as the job's group is unfinished
    real = cli_module.verify_orbit

    def fail_on_m5(params, sm, A, N):
        if sm.orbit.m == 5:
            raise OracleError("H^1 is not cyclic")
        return real(params, sm, A, N)

    monkeypatch.setattr(cli_module, "verify_orbit", fail_on_m5)
    report, code = run_command(JobSpec(command="verify", p=2, i=2, e=3))
    assert code == EXIT_MISMATCH
    assert [(rec["m"], rec["pass"]) for rec in report.orbits] == [(1, True)]
    assert report.certificates == [{"error": "H^1 is not cyclic"}]
    assert report.total_exponent is None
    payload = json.loads(emit_report(report, "json"))
    assert list(payload) == ["metadata", "orbits", "certificates"]
    assert "total exponent" not in emit_report(report, "text").decode()


def test_unknown_format_flag_exits_1_naming_every_format(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["syntomic", "--p", "3", "--i", "1", "--e", "2", "--format", "xml"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (EXIT_VALIDATION, "")
    choices = ", ".join(repr(name) for name in FORMATS)
    assert f"argument --format: invalid choice: 'xml' (choose from {choices})" in captured.err


@pytest.mark.parametrize(
    "p,i,levels,message",
    [
        (3, 1, [2, 6], "coprime to p"),
        (3, -1, [2, 4], "weight i >= 0"),
        (3, 1, [], "at least one level"),
        (3, 1, [-1, 2], "each >= 1"),
    ],
)
def test_transition_oracle_rejects_bad_levels_and_weights(p, i, levels, message):
    with pytest.raises(ValueError, match=message):
        TransitionOracle(p, i, Orbit(1), levels)


def test_transition_valuation_needs_a_source_at_or_above_the_target():
    with pytest.raises(ValueError, match="f >= e"):
        TransitionOracle(3, 1, Orbit(1), [2, 4]).valuation(4, 2)


def test_transition_oracle_refuses_a_level_outside_its_list():
    # the shared truncation (A=4, N=13) is sized from level 3; level 33
    # needs A=8, N=17, and read at the smaller size it gives h=5 where its
    # own truncation and the closed form give 6
    oc = TransitionOracle(2, 1, Orbit(1), [3])
    params = TruncationParams(2, 33, 1)
    assert oracle_cohomology(params, default_truncation(params, Orbit(1)))[1] == (6,)
    for read in (oc.level, oc.h_exponent, lambda e: oc.valuation(3, e)):
        with pytest.raises(ValueError, match=r"level e=33 is not among the oracle's levels \[3\]"):
            read(33)
    assert oc.h_exponent(3) == 2 and list(oc._cache) == [3]


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: TruncationParams(3, 0, 1), "e must be >= 1"),
        (lambda: TruncationParams(3, 2, -1), "weight i must be a natural number"),
        (lambda: CyclicWittModule(-1), "exponent must be a natural number"),
        (lambda: degree1_walks(2, 1, 0, MultiIndex(), [3]), "degree1_walks needs m >= 1"),
        (lambda: brace(0, 2), "m >= 1"),
        (lambda: brace(1, 0), "e >= 1"),
        (lambda: PAdicFraction.make(-1, 0, 2), "natural numbers"),
        (lambda: PAdicFraction.make(1, -1, 2), "natural numbers"),
        (lambda: MultiIndex((("u", HALF), ("t", HALF))), "distinct and sorted"),
        (lambda: MultiIndex((("t", HALF), ("t", HALF))), "distinct and sorted"),
        (lambda: MultiIndex((("t", PAdicFraction(0, 0)),)), "zero entries"),
        (lambda: emit_report(Report(command="syntomic", parameters={}), "xml"), "unknown format"),
    ],
)
def test_value_rejections(make, message):
    with pytest.raises(ValueError, match=message):
        make()
