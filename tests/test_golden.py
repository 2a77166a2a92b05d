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
    ("syntomic --p 3 --i 1 --e 2", "csv"): (0, "a3be032de0236b4c"),
    ("kgroups --p 2 --i 2 --e 3", "text"): (0, "180f0955c69ec81d"),
    ("kgroups --p 2 --i 2 --e 3", "json"): (0, "f3283b14cc8724c0"),
    ("kgroups --p 2 --i 2 --e 3", "csv"): (0, "c21e8ac5970f4d94"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "text"): (0, "250e490ea77881cd"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "json"): (0, "e276fc1c05330bcc"),
    ("verify --p 2 --i 2 --e 3 --A 6 --N 24", "csv"): (0, "44e42be2aac54717"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "text"): (0, "5276ec9d2eac0656"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "json"): (0, "b0afb8fe26227548"),
    ("verify --p 3 --i 3 --e 3 --slots t --alpha-num-max 2 --alpha-pexp-max 1", "csv"): (0, "e2b7e6d722bd6bf5"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "text"): (0, "4393e6df9771f10b"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "json"): (0, "3c5eba1b17c7c9cc"),
    ("transition --p 3 --i 1 --e 2 --e-max 8", "csv"): (0, "ce88a45e478ef363"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "text"): (0, "cc17ecd12025731d"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "json"): (0, "ac26fe51626212ae"),
    ("ml-check --p 3 --i 1 --e 2 --e-max 11", "csv"): (0, "a13831ea300f2276"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "text"): (3, "53249c448bc2c046"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "json"): (3, "b91b7826cddc2d7b"),
    ("tr --p 3 --i 0 --e 2 --e-max 30", "csv"): (3, "748e571532aace4b"),
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
