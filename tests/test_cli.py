"""Driver behavior: flag parsing, exit codes, determinism, and the three
serialization formats."""

import ast
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
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
    EXIT_OK,
    EXIT_VALIDATION,
    JobSpec,
    ValidationError,
    main,
    run_command,
)
from trcalc.drw import TruncationParams
from trcalc.prosystem import (
    LevelStabilization,
    ml_bound,
    ml_rows,
    nontrivial_towers,
    source_term,
    target_term,
    tr_valuation,
)
from trcalc.report import FORMATS, emit_report, format_alpha
from trcalc.syntomic import AlphaBounds, Orbit, enumerate_alphas, enumerate_orbits, level_summand, orbit_summands


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
    assert lines[0] == "i,e,m,alpha,s,h,oracle_h,oracle_h2,kernel_ok,pass"
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


def test_verify_level_alone_takes_the_default_precision_rule(capsys):
    # --A without --N takes N three above the least precision for that A,
    # as the default truncation does: i*(A+1) + 8 = 22 at i=2, A=6
    code, out = _run(["verify", "--p", "2", "--i", "2", "--e", "3", "--A", "6"], capsys)
    assert code == EXIT_OK and "all_pass=yes" in out
    alone, code = run_command(JobSpec(command="verify", p=2, i=2, e=3, A=6))
    pinned, _ = run_command(JobSpec(command="verify", p=2, i=2, e=3, A=6, N=22))
    assert code == EXIT_OK and alone.orbits == pinned.orbits and len(alone.orbits) == 2


@pytest.mark.parametrize(
    "truncation, message",
    [
        (["--A", "1"], "truncation level A=1 below required 5"),
        (["--A", "6", "--N", "5"], "precision N=5 lacks headroom for A=6"),
        (["--N", "5"], "precision N=5 lacks headroom for A=5"),
    ],
    ids=["level-below-walk", "pinned-precision", "precision-alone"],
)
def test_verify_truncation_without_headroom_exits_1(truncation, message, capsys):
    # m=1's degree-1 walk at p=2, i=2, e=3 has length 3, so A >= 5, and A=5
    # (the default) or A=6 needs N >= 2*(A+1) + 5
    code = main(["verify", "--p", "2", "--i", "2", "--e", "3"] + truncation)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert captured.err == f"trcalc: error: {message}\n"


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
    assert data.decode().splitlines()[0] == "i,e,m,alpha,s,h,module,generator"


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


def test_every_flag_dest_is_a_jobspec_field():
    # the parser's dests go straight into JobSpec, apart from the three
    # flags that make up the slot window
    fields = {f.name for f in dataclasses.fields(JobSpec)}
    window = {"slots", "alpha_num_max", "alpha_pexp_max"}
    subparsers = next(a for a in cli_module._build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == set(cli_module.RUNNERS)
    for name, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests <= fields | window, name
        assert window <= dests, name


def test_every_flag_job_keeps_its_parameters_and_bytes(capsysbinary):
    argv = shlex.split(
        "verify --p 3 --i 1 --i-max 2 --e 2 --e-max 4 --slots t --alpha-num-max 1 --alpha-pexp-max 1"
        " --A 9 --N 40 --format json"
    )
    assert main(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    parameters = json.loads(out)["metadata"]["parameters"]
    assert list(parameters) == ["p", "i", "i_max", "e", "e_max", "slots", "alpha_num_max", "alpha_pexp_max", "A", "N"]
    # a range job: no total_exponent key, as its rows span several (i, e) groups
    assert hashlib.sha256(out).hexdigest() == "56111b29bd35e60eb28ac4d73721794b3b009b7cca2fc548771edc73be47d354"



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
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "text"): (0, "6a753d15093756a0"),
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "json"): (0, "3889b489f3251652"),
    ("ml-check --p 3 --i 1 --e 1 --e-max 5", "csv"): (0, "cc9c9c8f44c1a45e"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "text"): (0, "fcde25f859c2e76c"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "json"): (0, "0797a5cee64caf39"),
    ("ml-check --p 3 --i 1 --e 7 --e-max 11", "csv"): (0, "4f21d24ed3f3bd52"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "29ebb84be2f6e1c4"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "7447b01fd3f528d0"),
    ("ml-check --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "9a52da491fc1fedb"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "c9321f107e20f9d5"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "8e8f66cb9088ebad"),
    ("tr --p 2 --i 1 --e 2 --e-max 16 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "0abfe2ee50122218"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "15a2feab84d6ee87"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "1e4650f8bff13142"),
    ("transition --p 2 --i 2 --e 3 --e-max 11 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "158fa4e3ff1b916b"),
}


@pytest.mark.parametrize("job,fmt", sorted(TOWER_JOBS))
def test_tower_job_bytes(job, fmt, capsysbinary):
    code = main(shlex.split(job) + ["--format", fmt])
    out = capsysbinary.readouterr().out
    assert (code, hashlib.sha256(out).hexdigest()[:16]) == TOWER_JOBS[(job, fmt)]


README_JOBS = sorted({job for job, _ in GOLDEN})
GROUP_COMMANDS = ("syntomic", "kgroups", "verify")  # rows are the summands of one group


def _outputs(job: str, capsysbinary) -> dict[str, str]:
    """The job's report in every format, by format name."""
    out = {}
    for fmt in FORMATS:
        main(shlex.split(job) + ["--format", fmt])
        out[fmt] = capsysbinary.readouterr().out.decode("utf-8")
    return out


def _text_table(text: str) -> tuple[list[str], list[list[str]]]:
    """The columns and the rows of cells of a text report's table, each
    cell cut out at its column of the dashed rule under the header."""
    lines = text.splitlines()
    spans = [match.span() for match in re.finditer(r"-+", lines[4])]

    def cut(line):
        return [line[a:b].rstrip() for a, b in spans]

    return cut(lines[3]), [cut(line) for line in lines[5 : lines.index("", 5)]]


@pytest.mark.parametrize("job", README_JOBS)
def test_csv_has_the_json_keys_and_the_text_cells(job, capsysbinary):
    # one column rule: the csv header is the JSON records' keys in order,
    # and csv and text print the same cells in the same rows
    out = _outputs(job, capsysbinary)
    records = json.loads(out["json"])["orbits"]
    reader = csv.DictReader(io.StringIO(out["csv"]))
    rows = list(reader)
    columns, cells = _text_table(out["text"])
    assert records and all(list(rec) == list(records[0]) for rec in records)
    assert reader.fieldnames == columns == list(records[0])
    assert len(rows) == len(cells) == len(records)
    assert [[row[k] for k in columns] for row in rows] == cells


# `syntomic`, `kgroups` and `verify` jobs over a range of weights or levels
RANGE_JOBS = [
    "syntomic --p 3 --i 1 --i-max 2 --e 2",
    "kgroups --p 3 --i 1 --e 2 --e-max 4",
    "verify --p 2 --i 1 --e 3 --e-max 5",
]
ONE_GROUP_RANGE = "syntomic --p 3 --i 1 --i-max 1 --e 2 --e-max 2"


@pytest.mark.parametrize("job", README_JOBS + sorted({job for job, _ in TOWER_JOBS}) + RANGE_JOBS + [ONE_GROUP_RANGE])
def test_only_one_group_commands_print_a_total(job, capsysbinary):
    # a total exponent is the order of one group only when the rows are the
    # summands of one (i, e) group; a range job's rows span several groups,
    # tower rows repeat a group per level or source, and a zp limit has no
    # exponent
    out = _outputs(job, capsysbinary)
    payload = json.loads(out["json"])
    params = payload["metadata"]["parameters"]
    one_group = params.get("i_max", params["i"]) == params["i"] and params.get("e_max", params["e"]) == params["e"]
    if job in RANGE_JOBS:
        assert not one_group and len({(rec["i"], rec["e"]) for rec in payload["orbits"]}) > 1
    if job.split()[0] in GROUP_COMMANDS and one_group:
        total = sum(rec["h"] for rec in payload["orbits"])
        assert list(payload) == ["metadata", "orbits", "total_exponent", "certificates"]
        assert payload["total_exponent"] == total
        assert f"\ntotal exponent: {total}\n" in out["text"]
    else:
        assert list(payload) == ["metadata", "orbits", "certificates"]
        assert "total exponent" not in out["text"]


def test_empty_report_prints_no_table(capsysbinary):
    # weight 0 has no orbits: csv prints no bytes, and text no table
    out = _outputs("syntomic --p 3 --i 0 --e 2", capsysbinary)
    assert out["csv"] == ""
    assert out["text"].splitlines()[2:4] == ["", "total exponent: 0"]


def test_tr_zp_limit_has_no_exponent(capsysbinary):
    # a zp limit is W(k) itself: h is null in JSON and "-" in text and csv
    out = _outputs("tr --p 3 --i 0 --e 2 --e-max 5", capsysbinary)
    assert [(rec["m"], rec["h"]) for rec in json.loads(out["json"])["orbits"]] == [(1, None), (2, None), (4, None)]
    assert out["csv"] == "m,alpha,kind,h\n1,{},zp,-\n2,{},zp,-\n4,{},zp,-\n"
    assert _text_table(out["text"])[1] == [[m, "{}", "zp", "-"] for m in "124"]


@pytest.mark.parametrize(
    "spec",
    [
        JobSpec(command="transition", p=3, i=1, e=2, e_max=8),  # the README job
        JobSpec(command="transition", p=2, i=2, e=3, e_max=11, bounds=AlphaBounds(("t",), 2, 1)),
    ],
)
def test_transition_rows_are_the_pair_reader(spec):
    # every printed row's valuation is `tr_valuation`'s for its orbit and
    # pair, which criterion 5 backs with the oracle, and its image is the
    # valuation clipped at h; every orbit nontrivial at e has a row per source
    report, code = run_command(spec)
    assert code == EXIT_OK
    p, e, i = spec.p, spec.e, spec.i
    orbits = [sm.orbit for sm in enumerate_orbits(TruncationParams(p, e, i), spec.bounds)]
    sources = [f for f in spec.levels()[1:] if f % p]
    assert len(report.orbits) == len(orbits) * len(sources) > 0
    for row in report.orbits:
        (orbit,) = [o for o in orbits if (o.m, format_alpha(o.alpha, p)) == (row["m"], row["alpha"])]
        assert row["valuation"] == tr_valuation(TruncationParams(p, e, i), row["f"], orbit)
        assert row["image"] == min(row["valuation"], row["h"])


def _record_walks(monkeypatch) -> list:
    """Record every orbit walk as (orbit, levels); a single-level read
    through `h1_syntomic_orbit` fails."""
    walks = []
    real = syntomic_module.orbit_summands

    def recording(p, i, orbit, levels):
        walks.append((orbit, tuple(levels)))
        return real(p, i, orbit, levels)

    def forbidden(*args):
        raise AssertionError("tower commands must not read summands through TruncationParams")

    for module in (syntomic_module, prosystem_module):
        monkeypatch.setattr(module, "orbit_summands", recording)
    for module in (syntomic_module, prosystem_module):
        monkeypatch.setattr(module, "h1_syntomic_orbit", forbidden)
    return walks


SLOT_ML_JOB = JobSpec(command="ml-check", p=2, i=2, e=3, e_max=11, bounds=AlphaBounds(("t",), 2, 1))


@pytest.mark.parametrize(
    "spec,weight,singles",
    [
        (JobSpec(command="tr", p=3, i=0, e=2, e_max=30), 1, 0),
        (JobSpec(command="tr", p=2, i=1, e=2, e_max=16, bounds=AlphaBounds(("t",), 2, 1)), 2, 0),
        (JobSpec(command="ml-check", p=3, i=1, e=7, e_max=11), 1, 8),
        (JobSpec(command="ml-check", p=3, i=1, e=1, e_max=5), 1, 4),
        (SLOT_ML_JOB, 2, 144),
    ],
)
def test_tower_commands_scan_candidates_from_the_top(spec, weight, singles, monkeypatch):
    # every candidate orbit (m <= weight * top level, p not dividing m) is
    # read one level at a time from the top, down to the first nontrivial
    # level or the first with s = 0; tr walks nothing more, and ml-check
    # walks each nontrivial orbit once over the tower's levels
    levels = tuple(e for e in spec.levels() if e % spec.p)
    candidates = [
        Orbit(m, alpha)
        for alpha in enumerate_alphas(spec.bounds, spec.p)
        for m in range(1, weight * levels[-1] + 1)
        if m % spec.p
    ]
    scans, nontrivial = [], []
    for orbit in candidates:
        for e in reversed(levels):
            scans.append((orbit, (e,)))
            sm = orbit_summands(spec.p, weight, orbit, (e,))[0]
            if sm.module.h or not sm.s:
                break
        if sm.module.h:
            nontrivial.append(orbit)
    nontrivial.sort(key=Orbit.sort_key)
    walks = _record_walks(monkeypatch)
    syntomic_module.level_summand.cache_clear()
    report, code = run_command(spec)
    assert code == EXIT_OK
    assert [walk for walk in walks if len(walk[1]) == 1 and walk[1][0] <= levels[-1]] == scans
    # no candidate is walked over all the levels just to test it
    assert len(scans) < len(candidates) * len(levels)
    if spec.command == "tr":
        assert len(report.orbits) == len(nontrivial)
    towers = [] if spec.command == "tr" else [(orbit, levels) for orbit in nontrivial]
    assert [walk for walk in walks if len(walk[1]) > 1] == towers
    # ml-check reads the image of an unreached bound one source level at a
    # time, each past the probe: the targets are the tower's own summands,
    # never walked again
    others = [lv for _, lv in walks if len(lv) == 1 and lv[0] > levels[-1]]
    assert len(others) == singles


def test_ml_check_fails_on_an_ill_defined_map_past_the_probe(monkeypatch, capsys):
    # lower the valuation of the first map read past the probe until
    # v + h_f < h_e: ml-check rejects the row with the sweep's error
    # instead of printing a clipped image.  The source's term is raised so
    # that the target's term, the last one read, minus it is that v
    probe = SLOT_ML_JOB.e_max
    real_target, real_source = prosystem_module.target_term, prosystem_module.source_term
    targets, lowered = [], []

    def recording(p, e, m1):
        base = real_target(p, e, m1)
        targets.append((e, base))
        return base

    def lowering(p, s_e, m1, f, sm_f):
        term = real_source(p, s_e, m1, f, sm_f)
        if not lowered and f > probe:
            e, base = targets[-1]
            h_e, h_f = level_summand(p, e, SLOT_ML_JOB.i, sm_f.orbit).module.h, sm_f.module.h
            term = base - (h_e - h_f - 1)
            lowered.append((e, f, h_e - h_f - 1, h_f, h_e))
        return term

    monkeypatch.setattr(prosystem_module, "target_term", recording)
    monkeypatch.setattr(prosystem_module, "source_term", lowering)
    args = ["ml-check", "--p", "2", "--i", "2", "--e", "3", "--e-max", "11"]
    code = main(args + ["--slots", "t", "--alpha-num-max", "2", "--alpha-pexp-max", "1"])
    captured = capsys.readouterr()
    (_, f, v, h_f, h_e), = lowered
    assert f > probe and v + h_f < h_e
    assert code == EXIT_VALIDATION and captured.out == ""
    assert f"map with v={v} from h={h_f} to h={h_e} is not well defined" in captured.err


def _linear_record(p, i, orbit, e, probe):
    """Level e's record read linearly: every source from max(e, 2) to
    ml_bound prime to p in turn, the stable image that of the map from
    ml_bound, and the ML index the least source with that image."""
    f0 = ml_bound(TruncationParams(p, e, i), orbit.m)
    sm_e = orbit_summands(p, i, orbit, [e])[0]
    h = sm_e.module.h
    sources = [f for f in range(max(e, 2), f0 + 1) if f % p]
    images = [0] * len(sources)
    if h:
        sms_f = orbit_summands(p, i, orbit, sources)
        m1 = p ** (sm_e.s - 1) * orbit.m  # h > 0, so s_e >= 1 and e does not divide m
        vals = [target_term(p, e, m1) - source_term(p, sm_e.s, m1, f, sm_f) for f, sm_f in zip(sources, sms_f)]
        assert all(v + sm_f.module.h >= h for v, sm_f in zip(vals, sms_f))
        images = [min(v, h) for v in vals]
    return LevelStabilization(e, h, f0, images[-1], sources[images.index(images[-1])], f0 <= probe)


ML_SHAPES = [
    (SLOT_ML_JOB, 75, 33),
    (JobSpec(command="ml-check", p=3, i=2, e=1, e_max=8, bounds=AlphaBounds(("t",), 2, 1)), 96, 36),
    (JobSpec(command="ml-check", p=5, i=3, e=2, e_max=7), 40, 27),
]


@pytest.mark.parametrize("spec,rows,past_probe", ML_SHAPES)
def test_ml_check_rows_match_a_linear_read_up_to_the_bound(spec, rows, past_probe):
    # every row's stable image is the image of the map from ml_bound, and
    # its ML index is the least source with that image
    report, code = run_command(spec)
    assert code == EXIT_OK
    p, i, probe = spec.p, spec.i, spec.e_max
    levels = [e for e in spec.levels() if e % p]
    cells = [(tower.orbit, e) for tower in nontrivial_towers(p, i, spec.bounds, levels) for e in levels]
    assert [(row["m"], row["e"]) for row in report.orbits] == [(orbit.m, e) for orbit, e in cells]
    columns = ("e", "h", "ml_bound", "stabilized_image", "ml_index", "certified")
    expected = [_linear_record(p, i, orbit, e, probe) for orbit, e in cells]
    assert [tuple(row[c] for c in columns) for row in report.orbits] == expected
    nontrivial = [row for row in report.orbits if row["h"]]
    assert (len(nontrivial), sum(row["ml_index"] > probe for row in nontrivial)) == (rows, past_probe)


@pytest.mark.parametrize("spec,rows,past_probe", ML_SHAPES)
def test_ml_rows_match_a_linear_read_up_to_the_bound(spec, rows, past_probe):
    # the reader the CLI formats, called directly on each tower
    p, i, probe = spec.p, spec.i, spec.e_max
    levels = [e for e in spec.levels() if e % p]
    records = []
    for tower in nontrivial_towers(p, i, spec.bounds, levels):
        got = ml_rows(tower, probe)
        assert got == tuple(_linear_record(p, i, tower.orbit, e, probe) for e in levels)
        records += got
    nontrivial = [rec for rec in records if rec.h]
    assert (len(nontrivial), sum(rec.ml_index > probe for rec in nontrivial)) == (rows, past_probe)


def test_cli_imports_only_the_readers_it_formats():
    # the tower arithmetic lives in prosystem: the CLI imports no bisect,
    # and from prosystem and syntomic only what it formats or validates
    imported = {}
    for node in ast.walk(ast.parse(Path(cli_module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
    assert not {"bisect", "trcalc"} & {name.split(".")[0] for name in imported}
    assert imported["prosystem"] == {"MLViolationError", "ml_rows", "nontrivial_towers", "tr_groups", "transition_rows"}
    assert imported["syntomic"] == {"AlphaBounds", "enumerate_orbits"}


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
