"""Rewrite report_digests.json: the digest of every oracle-verify job's JSON
report, which run.py checks each oracle-verify item against.

Reports are byte-identical for a fixed job, so the table changes only when a
change means to change report bytes.

    python3 bench/record_digests.py
"""

import json

import checkout


def main() -> None:
    checkout.use_checkout_trcalc()
    import workloads

    wl = workloads.OracleVerify(digests={})
    tally = workloads.Tally()
    for item in wl.space():
        wl.run(item, tally)
    text = json.dumps(dict(sorted(tally.digests.items())), indent=1) + "\n"
    workloads.DIGESTS_PATH.write_text(text)
    print(f"wrote {len(tally.digests)} digests to {workloads.DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
