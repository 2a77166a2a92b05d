"""The three benchmark workloads: how their inputs are made and how each
item is run and checked.

Every workload is a closed loop: one client runs one item at a time and
checks it before the next starts.  Items cost very different amounts (an
oracle-verify job holds from no orbits to dozens), so any subsample of a workload's
input space shifts its medians by more than the benchmark's bounds.  A pass
is therefore the whole input space; the seed sets the order of the items.

Calls go through module attributes (``prosystem.tr_valuation``, not a name
imported from it), so the tracer's wrappers see the benchmark's own calls.
Import this module only after ``checkout.use_checkout_trcalc()``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from trcalc import cli, drw, oracle, padic, prosystem, report, syntomic

DIGESTS_PATH = Path(__file__).resolve().parent / "report_digests.json"

VERIFY_P = (2, 3, 5)
VERIFY_I = range(0, 6)
VERIFY_E = range(2, 7)
VERIFY_WINDOW_E = (2,)  # cells that are also run with the one-slot window
VERIFY_WINDOW = syntomic.AlphaBounds(("t",), 2, 1)

SWEEP_P = (2, 3)
SWEEP_I = range(1, 3)
SWEEP_LEVEL_MAX = 16

TOWER_P = (2, 3)
TOWER_I = range(1, 4)
TOWER_PROBE = 24


@dataclass
class Tally:
    """Side counts over the items run: they feed the derived per-layer
    metrics and the summary line."""

    orbits: int = 0       # orbits the oracle checked
    pairs: int = 0        # (e, f) pairs compared
    refused: int = 0      # towers whose limit classification was refused
    digests: dict = field(default_factory=dict)  # oracle-verify item key -> report digest


def alpha_window(p: int) -> list:
    """The empty multi-index plus one slot t holding num/p^pexp for
    num <= 4, pexp <= 2 (the window of acceptance criteria 5 and 6)."""
    seen = {padic.MultiIndex()}
    for num, pexp in itertools.product(range(1, 5), range(0, 3)):
        seen.add(padic.MultiIndex.from_dict({"t": padic.PAdicFraction.make(num, pexp, p)}))
    return sorted(seen, key=str)


def verify_key(item) -> str:
    p, i, e, windowed = item
    return f"p{p}-i{i}-e{e}-{'t' if windowed else 'none'}"


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def report_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class OracleVerify:
    """One item is one ``trcalc verify --format json`` job for one cell
    (p, i, e), with or without the one-slot alpha window."""

    name = "oracle-verify"

    def __init__(self, digests: dict | None = None):
        self.digests = load_digests() if digests is None else digests

    @staticmethod
    def space() -> list:
        cells = [(p, i, e, False) for p in VERIFY_P for i in VERIFY_I for e in VERIFY_E]
        cells += [(p, i, e, True) for p in VERIFY_P for i in VERIFY_I for e in VERIFY_WINDOW_E]
        return cells

    def run(self, item, tally: Tally) -> bool:
        p, i, e, windowed = item
        spec = cli.JobSpec(
            command="verify", p=p, i=i, e=e,
            bounds=VERIFY_WINDOW if windowed else syntomic.AlphaBounds(),
        )
        rep, code = cli.run_command(spec)
        data = report.emit_report(rep, "json")
        tally.orbits += len(rep.orbits)
        key = verify_key(item)
        digest = tally.digests[key] = report_digest(data)
        return (
            code == cli.EXIT_OK
            and rep.certificates[-1].get("all_pass") is True
            and all(rec["oracle_h"] == rec["h"] for rec in rep.orbits)
            and digest == self.digests.get(key)
        )


class TransitionSweep:
    """One item is one orbit, shaped like acceptance criterion 5: build the
    matrix-level transition oracle over the orbit's levels and compare every
    pair (e, f) with the closed forms."""

    name = "transition-sweep"

    @staticmethod
    def space() -> list:
        out = []
        for p in SWEEP_P:
            levels = [e for e in range(2, SWEEP_LEVEL_MAX + 1) if e % p]
            window = alpha_window(p)
            for i in SWEEP_I:
                for m in range(1, i * levels[-2] + 1):
                    if m % p == 0:
                        continue
                    for alpha in window:
                        sub = tuple(e for e in levels if i * e >= m)
                        if len(sub) >= 2:
                            out.append((p, i, syntomic.Orbit(m, alpha), sub))
        return out

    def run(self, item, tally: Tally) -> bool:
        p, i, orbit, levels = item
        tally.orbits += 1
        witness = oracle.TransitionOracle(p, i, orbit, list(levels))
        ok = True
        for e, f in itertools.combinations(levels, 2):
            tally.pairs += 1
            params = drw.TruncationParams(p, e, i)
            v = prosystem.tr_valuation(params, f, orbit)
            h_e = syntomic.h1_syntomic_orbit(params, orbit).module.h
            if v is None:
                ok = ok and h_e == 0
                continue
            h_f = syntomic.h1_syntomic_orbit(drw.TruncationParams(p, f, i), orbit).module.h
            if h_f == 0:
                # trivial source: the closed form must predict a zero image
                ok = ok and min(v, h_e) == h_e
                continue
            ok = ok and witness.h_exponent(e) == h_e and min(v, h_e) == witness.valuation(e, f)
        return ok


class TowerProbe:
    """One item is one orbit tower, shaped like acceptance criterion 6:
    build it, stabilize images up to the probe, classify the limit."""

    name = "tower-probe"

    @staticmethod
    def space() -> list:
        out = []
        for p in TOWER_P:
            levels = tuple(e for e in range(2, TOWER_PROBE + 1) if e % p)
            window = alpha_window(p)
            for i in TOWER_I:
                for m in range(1, i * levels[-1] + 1):
                    if m % p:
                        out.extend((p, i, syntomic.Orbit(m, alpha), levels) for alpha in window)
        return out

    def run(self, item, tally: Tally) -> bool:
        p, i, orbit, levels = item
        tower = prosystem.build_tower(p, i, orbit, list(levels))
        # raises MLViolationError on any image change past the bound
        stab = prosystem.stabilized_images(tower, TOWER_PROBE)
        try:
            prosystem.limit_classify(stab)
        except prosystem.ClassificationRefusedError:
            tally.refused += 1
        return all(rec.ml_index <= rec.ml_bound for rec in stab.per_level if rec.certified)


WORKLOADS = {w.name: w for w in (OracleVerify, TransitionSweep, TowerProbe)}


def make_items(workload, seed: int) -> list:
    """The workload's whole input space in the order the seed picks."""
    items = workload.space()
    random.Random(seed).shuffle(items)
    return items
