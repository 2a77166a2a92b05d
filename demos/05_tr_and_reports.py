"""TR groups and machine-readable reports.

TR of the base ring in even degree 2i is assembled from the weight-(i+1)
towers; every tower is Mittag-Leffler past its proven bound, which is
exactly what makes the odd degrees vanish.  The same computations are
available through the batch driver, which emits deterministic text,
JSON, and CSV reports.
"""

import json

from trcalc import tr_groups
from trcalc.cli import JobSpec, run_command
from trcalc.report import emit_report
from trcalc.syntomic import AlphaBounds

result = tr_groups(3, 0, AlphaBounds(), probe=30)
print(f"TR_{result.degree} towers (weight {result.weight}):")
for orbit, verdict in result.even:
    desc = f"W(k)/3^{verdict.h}" if verdict.kind == "finite" else "W(k), pro-cyclic of unbounded order"
    print(f"  orbit m={orbit.m:>2}: {desc}")
odd = result.odd
print(f"TR_{odd.degree} = 0: Mittag-Leffler past the bound f0, over the {odd.orbits} orbits up to probe {odd.probe}")

# the same data through the report layer
spec = JobSpec(command="syntomic", p=2, i=2, e=3, format="json")
report, code = run_command(spec)
payload = json.loads(emit_report(report, "json"))
print("\nJSON report orbits:", payload["orbits"])
print("total exponent:", payload["total_exponent"])

spec = JobSpec(command="verify", p=2, i=2, e=3, A=6, N=24, format="csv")
report, code = run_command(spec)
print("\nCSV verification report:")
print(emit_report(report, "csv").decode(), end="")
print("exit code:", code)
