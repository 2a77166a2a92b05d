"""Towers over the truncation exponent and their inverse limits.

Fixing a weight and an orbit, the groups W(k)/p^h(e) form an inverse
system over the truncation exponents e coprime to p.  The transition
maps are multiplication by an explicit p-power; once the images into a
fixed level stop shrinking (the Mittag-Leffler condition, guaranteed
past a computable bound), the inverse limit is readable off the
stabilized images.  This demo prints one tower in full and classifies
its limit.
"""

from trcalc import Orbit, TruncationParams, build_tower, limit_classify, stabilized_images, tr_valuation

p, weight, probe = 3, 1, 28
orbit = Orbit(1)
levels = [e for e in range(2, probe + 1) if e % p]

tower = build_tower(p, weight, orbit, levels)
print(f"tower for p={p}, weight={weight}, orbit m={orbit.m}:")
print("  levels:", tower.levels)
print("  exponents h:", tuple(sm.module.h for sm in tower.summands))
adjacent = zip(tower.levels, tower.levels[1:])
print(
    "  adjacent transition valuations:",
    tuple(tr_valuation(TruncationParams(p, e, weight), f, orbit) for e, f in adjacent),
)

stab = stabilized_images(tower, probe)
print("\nstabilized images into each level:")
for rec in stab.per_level:
    tag = "certified" if rec.certified else ("settled" if rec.settled else "open")
    print(
        f"  e={rec.level:>2}  h={rec.h}  bound={rec.ml_bound:>3}  "
        f"image order p^{rec.image_order_exponent}  [{tag}]"
    )

verdict = limit_classify(stab)
if verdict.kind == "finite":
    print(f"\nlimit: W(k)/{p}^{verdict.h} (lim^1 = 0: {verdict.lim1_zero})")
else:
    print(f"\nlimit: pro-cyclic of unbounded order (lim^1 = 0: {verdict.lim1_zero})")
