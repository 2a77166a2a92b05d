"""Brute-force verification of the closed forms.

Nothing in the closed-form layer is trusted on faith: every orbit can be
re-derived by building the actual integer matrices of the truncated
fiber complex (differential, divided Frobenius, canonical map) and
running exact Smith-normal-form linear algebra on them.  This demo
sweeps a small grid, compares the two answers, and then hands each
closed-form summand of one job to the oracle, printing its verification
certificate (with a content hash of the matrices).
"""

from trcalc import Orbit, TruncationParams, enumerate_orbits, h1_syntomic_orbit, verify_orbit
from trcalc.oracle import default_truncation, oracle_cohomology

mismatches = 0
checked = 0
for p in (2, 3, 5):
    for e in range(2, 7):
        for i in range(0, 4):
            params = TruncationParams(p, e, i)
            for m in range(1, i * e + 1):
                if m % p == 0:
                    continue
                orbit = Orbit(m)
                h = h1_syntomic_orbit(params, orbit).module.h
                exps = oracle_cohomology(params, default_truncation(params, orbit))
                expected = {0: (), 1: ((h,) if h else ()), 2: ()}
                checked += 1
                if exps != expected:
                    mismatches += 1
                    print(f"MISMATCH p={p} e={e} i={i} m={m}: {exps} vs {expected}")
print(f"{checked} orbits cross-checked, {mismatches} mismatches")
assert mismatches == 0

params = TruncationParams(2, 3, 2)
for sm in enumerate_orbits(params):
    cert = verify_orbit(params, sm)
    print(f"\ncertificate for p=2 e=3 i=2, orbit m={sm.orbit.m}:")
    print(f"  closed-form h: {cert.h_closed}")
    print(f"  oracle degree-1 exponents: {cert.oracle_exponents[1]}")
    print(f"  pass: {cert.passed}")
    print(f"  matrices sha256: {cert.matrices_hash}")
