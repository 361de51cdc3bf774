"""
Resolving t*y = z_1...z_n by a fan subdivision
==============================================

The affine model t*y = z_1...z_n is the toric variety of model_cone(n).
Slicing the cone into n slabs sigma_1, ..., sigma_n produces a fan whose
cones are all unimodular, i.e. a resolution.  This demo certifies the
subdivision: smoothness of every cone, the exact cover of the whole model
cone, and simple normal crossings of the central fiber.

Run with:  python3 demos/03_resolution_fan.py
"""
from __future__ import annotations

from sncdegen import (
    fiber_class,
    is_smooth,
    model_cone,
    resolution_fan,
    semistable_fiber_check,
    sigma_subcone,
    toric_class,
    unit_vector,
    verify_partition,
)

############################################################################
# The subdivision
# ---------------
# sigma_subcone(n, k) is spanned by f_1..f_k, e_k..e_n where
# f_i = e_i + e_(n+1).  The n of them assemble into a fan.
n = 3
fan = resolution_fan(n)
print(f"resolution_fan({n}): {len(fan.max_cones)} maximal cones, "
      f"{len(fan.rays())} rays in rank {fan.rank}")
for k in range(1, n + 1):
    cone = sigma_subcone(n, k)
    print(f"  sigma_{k}: rays {cone.rays}  smooth={is_smooth(cone)}")

############################################################################
# Exact cover of the model cone
# -----------------------------
# verify_partition checks that every subdivision cone sits inside the
# parent.  Then every wall between two slabs must be shared by exactly one
# cone on each side, every other facet must lie on the parent's boundary,
# and one point on no wall must lie in exactly one slab.  Together these
# certify the cover of the whole cone, not just of a box, and that the
# cones meet pairwise along common faces.  bound=4 adds a sweep of the lattice
# points of [0,4]^(n+1) as a cross-check.
ok = verify_partition(fan, model_cone(n), bound=4)
print(f"partition of model_cone({n}) certified (cross-checked over [0,4]^{n + 1}):", ok)
assert ok

############################################################################
# Semistability of the central fiber
# ----------------------------------
# The degeneration parameter t is the monomial of e_(n+1)*.  The fiber
# over t = 0 is reduced with smooth components crossing normally exactly
# when every ray of the fan pairs to 0 or 1 with that direction.
check = semistable_fiber_check(fan, unit_vector(n + 1, n))
print("fiber check:", check.to_json_dict())
assert check.reduced and check.smooth and check.snc

############################################################################
# Orbit-cone counting
# -------------------
# Each face of dimension d contributes (L - 1)^(rank - d) for the open
# torus orbit it indexes; the faces meeting t = 0 carve out the fiber.
# Only the number of faces of each dimension matters, and for the chain
# of slabs that is a sum of binomials, so this stays cheap as n grows.
total = toric_class(fan)
fiber = fiber_class(fan, unit_vector(n + 1, n))
print("class of the total space :", total.render())
print("class of the fiber t = 0 :", fiber.render())
print("components of the fiber  :", fiber.evaluate(1))
assert fiber.evaluate(1) == n

############################################################################
# Scaling in n
# ------------
# The exact certificate costs time polynomial in n; a lattice sweep grows
# as (bound+1)^(n+1) and is capped at MAX_SWEEP_POINTS.
for m in (2, 4, 6, 10):
    assert verify_partition(resolution_fan(m), model_cone(m))
    print(f"n={m}: subdivision certified")
