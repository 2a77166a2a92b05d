"""Driver behavior: flag parsing, exit codes, determinism, and the three
serialization formats."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import trcalc.cli as cli_module
import trcalc.prosystem as prosystem_module
import trcalc.syntomic as syntomic_module
from test_golden import GOLDEN
from trcalc.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_VALIDATION,
    JobSpec,
    ValidationError,
    main,
    run_command,
)
from trcalc.drw import TruncationParams
from trcalc.report import emit_report
from trcalc.syntomic import AlphaBounds, Orbit, enumerate_alphas, enumerate_orbits


def roundtrip_json(data: bytes) -> bytes:
    """Parse emitted JSON and re-serialize; byte-identical by contract."""
    payload = json.loads(data.decode("utf-8"))
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_syntomic_example(capsys):
    code, out = _run(["syntomic", "--p", "3", "--i", "1", "--e", "2"], capsys)
    assert code == EXIT_OK
    assert "total exponent: 1" in out
    assert "W(k)/p^1" in out
    assert "reduced_h0=0 higher_degrees=0 for every degree >= 2" in out


def test_validation_error_nonprime(capsys):
    code = main(["syntomic", "--p", "4", "--i", "1", "--e", "2"])
    assert code == EXIT_VALIDATION


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["syntomic", "--p", "3", "--i", "1", "--e", "2", "--bogus"])
    assert exc.value.code == EXIT_VALIDATION


def test_slots_require_bounds(capsys):
    code = main(["syntomic", "--p", "2", "--i", "1", "--e", "3", "--slots", "t"])
    assert code == EXIT_VALIDATION


def test_inconsistent_range(capsys):
    code = main(["syntomic", "--p", "2", "--i", "2", "--i-max", "1", "--e", "3"])
    assert code == EXIT_VALIDATION


def test_verify_command(capsys):
    code, out = _run(
        ["verify", "--p", "2", "--i", "2", "--e", "3", "--A", "6", "--N", "24", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,alpha,s,h,oracle_h,pass"
    assert len(lines) == 3  # orbits m=1 and m=5
    assert all(line.endswith("yes") for line in lines[1:])


@pytest.mark.parametrize(
    "truncation",
    [[], ["--A", "7", "--N", "29"]],
    ids=["default-truncation", "pinned-least-precision"],
)
def test_verify_stability_recheck_has_headroom(truncation, capsys):
    # weight 6 is past the default precision's N + 2 headroom, and N=29
    # is the least precision A=7 allows at weight 3
    i = "3" if truncation else "6"
    code, out = _run(["verify", "--p", "2", "--i", i, "--e", "2"] + truncation, capsys)
    assert code == EXIT_OK
    assert "all_pass=yes" in out


def test_kgroups_values(capsys):
    code, out = _run(["kgroups", "--p", "2", "--i", "2", "--e", "3", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    cert = payload["certificates"][0]
    assert cert["degree"] == 3
    assert cert["divisors"] == [8, 2]
    assert cert["order_fp"] == 16


def test_tr_certificate_footer(capsys):
    # the footer names the argument, not the probe: Mittag-Leffler past the
    # proven bound makes lim^1 vanish
    code, out = _run(["tr", "--p", "3", "--i", "0", "--e", "2", "--e-max", "12"], capsys)
    assert out.rstrip().endswith("TR_odd = 0: CERTIFIED (Mittag-Leffler past the bound f0 gives lim^1 = 0)")
    assert code == EXIT_OK


@pytest.mark.parametrize("p,probe", [(2, 2), (3, 1)])
def test_tr_without_a_level_coprime_to_p_exits_1(p, probe, capsys):
    # no level in [2, probe] is coprime to p: the window lists no orbit, so no
    # odd-degree certificate is printed
    code = main(["tr", "--p", str(p), "--i", "1", "--e", str(probe)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith(f"trcalc: error: no level in [2, {probe}] is coprime to p={p}")


def test_json_roundtrip_and_determinism(capsys):
    argv = ["syntomic", "--p", "2", "--i", "1", "--i-max", "3", "--e", "3", "--format", "json"]
    code1, out1 = _run(argv, capsys)
    code2, out2 = _run(argv, capsys)
    assert (code1, code2) == (EXIT_OK, EXIT_OK)
    assert out1 == out2
    assert roundtrip_json(out1.encode()) == out1.encode()


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["syntomic", "--p", "3", "--i", "1", "--e", "2", "--format", "json", "--out", str(path)])
    assert code == EXIT_OK
    payload = json.loads(path.read_text())
    assert payload["total_exponent"] == 1
    assert payload["orbits"][0]["m"] == 1


def test_run_command_api():
    spec = JobSpec(command="syntomic", p=3, i=1, e=2)
    report, code = run_command(spec)
    assert code == EXIT_OK
    assert report.total_exponent == 1
    data = emit_report(report, "csv")
    assert data.decode().splitlines()[0] == "m,alpha,s,h,oracle_h,pass"


def test_run_command_rejects_bad_spec():
    with pytest.raises(ValidationError):
        run_command(JobSpec(command="syntomic", p=9, i=1, e=2))
    with pytest.raises(ValidationError):
        run_command(JobSpec(command="transition", p=3, i=1, e=3, e_max=8))


def test_alpha_serialization(capsys):
    code, out = _run(
        [
            "syntomic", "--p", "2", "--i", "2", "--e", "3",
            "--slots", "t", "--alpha-num-max", "1", "--alpha-pexp-max", "1",
            "--format", "json",
        ],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    alphas = {json.dumps(rec["alpha"], sort_keys=True) for rec in payload["orbits"]}
    assert '{"t": "1/2^1"}' in alphas


def test_empty_report_json():
    # i = 0 has no orbits; the payload still carries the stable keys
    spec = JobSpec(command="syntomic", p=3, i=0, e=2, format="json")
    report, code = run_command(spec)
    payload = json.loads(emit_report(report, "json"))
    assert payload["orbits"] == []
    assert payload["total_exponent"] == 0


def test_ml_check_exit_ok(capsys):
    code, out = _run(["ml-check", "--p", "3", "--i", "1", "--e", "2", "--e-max", "11"], capsys)
    assert code == EXIT_OK
    assert "ml_condition=PASS" in out


def test_ml_check_rows_do_not_move_with_the_probe():
    # p=2, weight 2: each row's stable image and ML index are exact, so a
    # row at a level up to 20 reads the same at probes 20, 28 and 100 (a
    # larger probe only adds orbits and levels) but for `certified`,
    # which says whether the sweep reached the row's bound.  The m=1 row at
    # e=5 has bound 257 and stable image 4 (it used to print the probe's 2)
    tables = []
    for probe in (20, 28, 100):
        report, code = run_command(JobSpec(command="ml-check", p=2, i=2, e=3, e_max=probe))
        assert code == EXIT_OK
        rows = {(rec["m"], rec["e"]): rec for rec in report.orbits if rec["e"] <= 20}
        tables.append({key: {**rec, "certified": None} for key, rec in rows.items()})
        row = rows[(1, 5)]
        assert (row["ml_bound"], row["stabilized_image"], row["certified"]) == (257, 4, False)
    assert all(table[key] == rec for table in tables[1:] for key, rec in tables[0].items())


def test_duplicate_slots_rejected(capsys):
    # a repeated slot name would enumerate every orbit once per copy
    window = ["--alpha-num-max", "1", "--alpha-pexp-max", "0"]
    argv = ["kgroups", "--p", "3", "--i", "1", "--e", "2", "--format", "json"]
    code, out = _run(argv + ["--slots", "t"] + window, capsys)
    assert code == EXIT_OK
    assert json.loads(out)["certificates"][0]["group"] == "W(k)/3^1"
    code = main(argv + ["--slots", "t", "t"] + window)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith("trcalc: error: ")


def test_bad_alpha_bounds_exit_1(capsys):
    code = main(
        ["syntomic", "--p", "2", "--i", "1", "--e", "3",
         "--slots", "t", "--alpha-num-max", "0", "--alpha-pexp-max", "1"]
    )
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("trcalc: error: ")


def test_unwritable_out_exits_1(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["syntomic", "--p", "3", "--i", "1", "--e", "2", "--out", str(path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("trcalc: error: ")
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--alpha-num-max", "--alpha-pexp-max"])
def test_alpha_bound_without_slots_exits_1(flag, capsys):
    # without --slots nothing reads the alpha bounds
    code = main(["syntomic", "--p", "3", "--i", "1", "--e", "2", flag, "3"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err.startswith("trcalc: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["transition", "--p", "3", "--i", "1", "--i-max", "3", "--e", "2", "--e-max", "5"],
        ["tr", "--p", "3", "--i", "0", "--i-max", "2", "--e", "2", "--e-max", "8"],
        ["syntomic", "--p", "3", "--i", "1", "--e", "2", "--A", "9", "--N", "3"],
        ["ml-check", "--p", "3", "--i", "1", "--e", "2", "--e-max", "8", "--N", "40"],
    ],
)
def test_flags_of_other_commands_exit_1(argv, capsys):
    # --i-max belongs to syntomic/kgroups/verify and --A/--N to verify only;
    # elsewhere nothing would read them
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_weight_range_flag_accepted_where_read(capsys):
    code, out = _run(["kgroups", "--p", "3", "--i", "1", "--i-max", "2", "--e", "2", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert [cert["i"] for cert in json.loads(out)["certificates"]] == [1, 2]


@pytest.mark.parametrize(
    "spec",
    [
        JobSpec(command="transition", p=3, i=1, i_max=3, e=2, e_max=5, A=9),
        JobSpec(command="transition", p=3, i=1, i_max=3, e=2, e_max=5),
        JobSpec(command="tr", p=3, i=0, i_max=2, e=2, e_max=8),
        JobSpec(command="syntomic", p=3, i=1, e=2, A=9),
        JobSpec(command="kgroups", p=3, i=1, e=2, N=30),
        JobSpec(command="ml-check", p=3, i=1, e=2, e_max=8, N=40),
        # tr starts its towers at e=2 and reads --e-max as the probe
        JobSpec(command="tr", p=3, i=0, e=20, e_max=30),
    ],
)
def test_run_command_rejects_fields_the_command_does_not_read(spec):
    # the library entry point holds the same line as the flag parser
    with pytest.raises(ValidationError):
        run_command(spec)



def test_python_dash_m_runs_the_driver():
    # a bare checkout has no `trcalc` script; `python -m trcalc` is the same
    # driver, so the README job gives its golden bytes
    job = ["syntomic", "--p", "3", "--i", "1", "--e", "2"]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "trcalc", *job], cwd=root, env=env, capture_output=True, timeout=120
    )
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()[:16]) == GOLDEN[(" ".join(job), "text")]


# Tower jobs beyond the README's, pinned like `test_golden.GOLDEN`: exit
# code and the first 16 hex digits of the SHA-256 of the report.  They
# cover a tower from level 1, a tower that starts above level 2, and
# multi-index windows.
TOWER_JOBS = {
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "text"): (0, "fed2ff95ca22d5f9"),
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "json"): (0, "a80d728c54255440"),
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "csv"): (0, "4fa28a6d14923b10"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "text"): (0, "41548729c8c3d12e"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "json"): (0, "53de7b44560608fa"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "csv"): (0, "f643422aac2d05a6"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "49333291ee8d46a6"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "3b0e9a3958a47f14"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "de6bce4328fc9526"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "b496f3c4113d7d6d"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "82903fef3a0b5ff7"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "4ffdf5423d598736"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "20c7bd699e61a5c1"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "b150f942273d4752"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "abcb73b41780bc55"),
}


@pytest.mark.parametrize("job,fmt", sorted(TOWER_JOBS))
def test_tower_job_bytes(job, fmt, capsysbinary):
    code = main(shlex.split(job) + ["--format", fmt])
    out = capsysbinary.readouterr().out
    assert (code, hashlib.sha256(out).hexdigest()[:16]) == TOWER_JOBS[(job, fmt)]


def _record_walks(monkeypatch, forbid_single_levels: bool = True) -> list:
    """Record every orbit walk as (orbit, levels); unless allowed, a read
    of the single-level summand cache fails."""
    walks = []
    real = syntomic_module.orbit_summands

    def recording(p, i, orbit, levels):
        walks.append((orbit, tuple(levels)))
        return real(p, i, orbit, levels)

    def forbidden(*args):
        raise AssertionError("tower commands must not read single-level summands")

    for module in (syntomic_module, prosystem_module, cli_module):
        monkeypatch.setattr(module, "orbit_summands", recording)
    if forbid_single_levels:
        for module in (syntomic_module, prosystem_module):
            monkeypatch.setattr(module, "h1_syntomic_orbit", forbidden)
    return walks


@pytest.mark.parametrize(
    "spec,weight",
    [
        (JobSpec(command="tr", p=3, i=0, e=2, e_max=30), 1),
        (JobSpec(command="tr", p=2, i=1, e=2, e_max=16, bounds=AlphaBounds(("t",), 2, 1)), 2),
        (JobSpec(command="ml-check", p=3, i=1, e=7, e_max=11), 1),
        (JobSpec(command="ml-check", p=3, i=1, e=1, e_max=5), 1),
        (JobSpec(command="ml-check", p=2, i=2, e=3, e_max=11, bounds=AlphaBounds(("t",), 2, 1)), 2),
    ],
)
def test_tower_commands_walk_each_candidate_orbit_once(spec, weight, monkeypatch):
    # every candidate orbit (m <= weight * top level, p not dividing m) is
    # walked once over the tower's levels, and never at a level below them
    levels = tuple(e for e in spec.levels() if e % spec.p)
    candidates = [
        Orbit(m, alpha)
        for alpha in enumerate_alphas(spec.bounds, spec.p)
        for m in range(1, weight * levels[-1] + 1)
        if m % spec.p
    ]
    walks = _record_walks(monkeypatch, forbid_single_levels=spec.command == "tr")
    report, code = run_command(spec)
    assert code == EXIT_OK
    assert [walk for walk in walks if walk[1] == levels] == [(orbit, levels) for orbit in candidates]
    # tr reads nothing else; ml-check reads the exact image of an unreached
    # bound with `tr_valuation`, one level at a time (none if cached)
    others = [lv for _, lv in walks if lv != levels]
    assert all(len(lv) == 1 for lv in others) and (spec.command == "ml-check" or not others)


def test_transition_walks_each_orbit_once_per_role(monkeypatch):
    # enumeration walks each candidate at the target level; each nontrivial
    # orbit then walks its sources once
    spec = JobSpec(command="transition", p=3, i=3, e=2, e_max=60)
    sources = tuple(f for f in range(4, 61) if f % 3)
    candidates = [Orbit(m) for m in range(1, 7) if m % 3]
    nontrivial = [sm.orbit for sm in enumerate_orbits(TruncationParams(3, 2, 3))]
    walks = _record_walks(monkeypatch)
    report, code = run_command(spec)
    assert code == EXIT_OK
    assert walks == [(orbit, (2,)) for orbit in candidates] + [(orbit, sources) for orbit in nontrivial]
    assert len(walks) == 6
