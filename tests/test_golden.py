"""Byte-identity of the README's command-line jobs.

Reports are deterministic for a fixed job, so each job of the README's
command-line block is pinned here in every output format by the first 16
hex digits of the SHA-256 of its bytes, together with its exit code.  The
README's own ``--format`` flag is replaced by the pinned format.  A change
that alters any report byte fails here; re-pin only for an intended change
and say why.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from trcalc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

GOLDEN = {
    ("syntomic --p 3 --i 1 --e 2", "text"): (0, "f96cd9f5792c2fc3"),
    ("syntomic --p 3 --i 1 --e 2", "json"): (0, "8cfc585a97d2e365"),
    ("syntomic --p 3 --i 1 --e 2", "csv"): (0, "ae755e5025ccd1fd"),
    ("kgroups --p 2 --i 2 --e 3", "text"): (0, "180f0955c69ec81d"),
    ("kgroups --p 2 --i 2 --e 3", "json"): (0, "f3283b14cc8724c0"),
    ("kgroups --p 2 --i 2 --e 3", "csv"): (0, "6e062e017d6b9938"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "text"): (0, "250e490ea77881cd"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "json"): (0, "e276fc1c05330bcc"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "csv"): (0, "c267c3e3e038b4f4"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "5276ec9d2eac0656"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "b0afb8fe26227548"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "24ce21cb9e669fc2"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "text"): (0, "a925d1093408aec9"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "json"): (0, "63409f2e1ca22e66"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "csv"): (0, "de5734d559ed5def"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "text"): (0, "3a858af6767de4e1"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "json"): (0, "0ee499067304fdef"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "csv"): (0, "93b0860b59b1a3fb"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "text"): (0, "afd45778b9213ce3"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "json"): (0, "06ba1a005aff8f7d"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "csv"): (0, "df5e1259da42db06"),
}


def _readme_jobs() -> list[str]:
    """The README's `trcalc` lines, without the program name, comments or
    `--format`."""
    block = re.search(r"```sh\n(trcalc .*?)```", README.read_text(), re.S).group(1)
    jobs = []
    for line in block.splitlines():
        argv = shlex.split(line.split("#")[0])[1:]
        if "--format" in argv:
            k = argv.index("--format")
            del argv[k : k + 2]
        jobs.append(" ".join(argv))
    return jobs


def test_golden_covers_every_readme_job():
    pinned = sorted({job for job, _ in GOLDEN})
    assert sorted(_readme_jobs()) == pinned


@pytest.mark.parametrize("job,fmt", sorted(GOLDEN))
def test_readme_job_bytes(job, fmt, capsysbinary):
    code = main(shlex.split(job) + ["--format", fmt])
    out = capsysbinary.readouterr().out
    assert (code, hashlib.sha256(out).hexdigest()[:16]) == GOLDEN[(job, fmt)]


def test_readme_library_quick_start(capsys):
    # the README's Python block runs as printed: the two weight-2 orbits of
    # K_3(F_2[x]/x^3, (x)) and a passing certificate for each
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["1 3", "5 1"]
    assert [line.split()[:2] for line in lines[2:]] == [["1", "True"], ["5", "True"]]
