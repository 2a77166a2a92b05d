"""Child process behind the ``setup_s`` metric.

Imports trcalc and trcalc.cli from the checkout, generates one workload's
inputs, then prints ``ready``; ``run.py`` times it from launch to that line.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import checkout


def main(argv: list[str]) -> int:
    name, seed = argv
    checkout.use_checkout_trcalc()
    import workloads

    workloads.make_items(workloads.WORKLOADS[name], int(seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
