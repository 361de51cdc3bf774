"""
Exact arrangement classes in Z[L]
=================================

Classes of hyperplane arrangements live in the polynomial subring Z[L] of
the Grothendieck ring of varieties, where L is the class of the affine
line.  This demo computes the class P(r, n) of r hyperplanes in general
position, each isomorphic to P^n inside P^(n+1), by three independent
routes, and reduces the results mod L.

Run with:  python3 demos/01_arrangement_classes.py
"""
from __future__ import annotations

from sncdegen import (
    L,
    ONE,
    arrangement_class_closed,
    arrangement_class_inclusion_exclusion,
    arrangement_class_recursive,
    proj_space_class,
    reduce_mod_L,
)

############################################################################
# Arithmetic in Z[L]
# ------------------
# GrothClass objects are immutable polynomials in L with exact integer
# coefficients.  There is no floating point anywhere: addition,
# multiplication, and powers are all exact.
p2 = proj_space_class(2)
print("[P^2]              =", p2.render())
print("[P^2]^2            =", (p2 * p2).render())
print("(L - 1)^3          =", ((L - ONE) ** 3).render())
print("L^5 at L=1         =", (L**5).evaluate(1))

############################################################################
# Three derivations of P(r, n)
# ----------------------------
# The closed form is an alternating sum of binomials times projective
# space classes.  The recursion adds one hyperplane at a time.  The
# inclusion-exclusion derivation literally sums over all nonempty subsets
# of the r hyperplanes.  All three must agree coefficient by coefficient.
for r, n in [(1, 3), (3, 2), (5, 3), (7, 4)]:
    closed = arrangement_class_closed(r, n)
    rec = arrangement_class_recursive(r, n)
    incl = arrangement_class_inclusion_exclusion(r, n)
    assert closed == rec == incl
    print(f"P({r}, {n}) = {closed.render()}")

############################################################################
# Reduction mod L
# ---------------
# The constant coefficient is the image in Z[L]/(L).  In the closed form it
# is the alternating sum of C(r, j+1) over j = 0..n, so for r <= n + 1 the
# alternating binomial identity makes the residue 1; at the boundary
# r = n + 2 it flips to 1 + (-1)^n.
for n in range(2, 6):
    residues = [reduce_mod_L(arrangement_class_closed(r, n)) for r in range(1, n + 3)]
    print(f"n={n}: residues of P(r, n) for r=1..{n + 2}:", residues)
    assert residues[:-1] == [1] * (n + 1)
    assert residues[-1] == 1 + (-1) ** n

############################################################################
# JSON form
# ---------
# Classes serialize to a plain coefficient list, constant term first.
x = arrangement_class_closed(4, 3)
d = x.to_json_dict()
print("JSON form of P(4, 3):", d)
