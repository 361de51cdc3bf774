"""
Cone duality by double description
==================================

Rational polyhedral cones are stored by their extreme rays with exact
integer coordinates.  Dualizing is done by an incremental double
description pass; the result is certified by the involution dual(dual(c))
= c and, in the test suite, by an independent brute-force enumeration.

Run with:  python3 demos/02_cone_duality.py
"""
from __future__ import annotations

from sncdegen import (
    Cone,
    dual_cone,
    dual_generators,
    greedy_decompose,
    is_smooth,
    model_cone,
    unit_vector,
)

############################################################################
# A first dual computation
# ------------------------
# The positive quadrant is self-dual; a wedge is not.
quadrant = Cone([(1, 0), (0, 1)])
print("quadrant rays      :", quadrant.rays)
print("dual quadrant rays :", dual_cone(quadrant).rays)

wedge = Cone([(2, -1), (0, 1)])
print("wedge rays         :", wedge.rays)
print("dual wedge rays    :", dual_cone(wedge).rays)
assert dual_cone(dual_cone(wedge)) == wedge
print("involution dual(dual(wedge)) == wedge: OK")

############################################################################
# The model cone and its dual
# ---------------------------
# model_cone(n) lives in Z^(n+1) and is spanned by e_1..e_n together with
# f_i = e_i + e_(n+1).  Its dual has exactly n + 2 extreme rays: the dual
# units e_1*..e_(n+1)* and the vector (1, ..., 1, -1).
for n in (2, 3, 4):
    sigma = model_cone(n)
    dual = dual_cone(sigma)
    expected = dual_generators(n)
    print(f"n={n}: dual of model cone has {len(dual.rays)} extreme rays")
    assert dual.rays == tuple(sorted(expected))

############################################################################
# Smoothness from the facets
# --------------------------
# A cone is smooth when its rays extend to a lattice basis: it is
# simplicial and each ray pairs to 1 with the facet opposite it.  The
# model cone itself is singular for n >= 2 (it has 2n rays in rank n + 1).
print("quadrant smooth       :", is_smooth(quadrant))
print("wedge smooth          :", is_smooth(wedge))
print("model_cone(2) smooth  :", is_smooth(model_cone(2)))
index2 = Cone([(1, 0), (1, 2)])
print("Cone((1,0),(1,2)) smooth:", is_smooth(index2))

############################################################################
# Membership and greedy decomposition in the dual cone
# ----------------------------------------------------
# Every lattice point of the dual of the model cone decomposes as a
# nonnegative integer combination of the canonical n + 2 generators.  The
# greedy rule picks the coefficient of (1, ..., 1, -1) first.
n = 3
gens = dual_generators(n)
print(f"canonical dual generators (n={n}):")
for g in gens:
    print("   ", g)

for point in [(2, 1, 3, 1), (1, 1, 1, -1), (4, 2, 2, -2), unit_vector(n + 1, n)]:
    coeffs = greedy_decompose(point)
    assert coeffs is not None
    combo = " + ".join(f"{c}*{g}" for c, g in zip(coeffs, gens) if c)
    print(f"{point} = {combo}")

outside = (1, 0, 0, -2)
assert greedy_decompose(outside) is None
assert not dual_cone(model_cone(n)).contains(outside)
print(f"{outside} is outside the dual cone: decomposition correctly refused")
