"""
Blow-up charts versus dual cones
================================

The subdivision of the model cone can be reached by explicit birational
geometry: repeatedly blow up and track coordinates on each chart.  A
ChartPresentation records named coordinates as lattice monomials plus the
one relation that survives; its monomial cone must reproduce the dual of
the corresponding subdivision cone.

Run with:  python3 demos/04_blowup_charts.py
"""
from __future__ import annotations

from sncdegen import (
    ChartPresentation,
    blowup_chart_sequence,
    dual_cone,
    sigma_subcone,
    singular_model_chart,
)

############################################################################
# The singular model chart
# ------------------------
# Coordinates z_1..z_n, t, y with the single relation t*y = z_1...z_n.
n = 3
chart0 = singular_model_chart(n)
print("singular model coordinates:",
      [c.name for c in chart0.coordinates])
print("relation:", chart0.render_relation())

############################################################################
# The chart sequence
# ------------------
# Chart U_k keeps a residual parameter t_(k-1) (with t_0 = t) and the
# fresh coordinate z_k' = z_k / t_(k-1).  The relation loses one factor
# per step until the last chart, where it reads t_(n-1)*y = z_n.
charts = blowup_chart_sequence(n)
for k, chart in enumerate(charts, start=1):
    names = [c.name for c in chart.coordinates]
    print(f"U_{k}: coordinates {names}")
    print(f"     relation {chart.render_relation()}")

############################################################################
# Matching the fan
# ----------------
# The monomial exponents of each chart generate a cone in the dual
# lattice.  After reduction to extreme rays it equals the dual of
# sigma_subcone(n, k) -- the replayed geometry and the lattice
# subdivision agree chart by chart.
for k, chart in enumerate(charts, start=1):
    expected = dual_cone(sigma_subcone(n, k))
    got = chart.monomial_cone()
    assert got == expected
    print(f"U_{k} monomial cone == dual(sigma_{k}): OK "
          f"({len(expected.rays)} extreme rays)")

############################################################################
# Relations are lattice identities
# --------------------------------
# A relation is stored as two index multisets into the coordinate list.
# Construction checks that the monomial sums on both sides agree in the
# lattice, so an inconsistent relation cannot even be built.
bad = None
try:
    bad = ChartPresentation(chart0.coordinates, relation=((n,), (0,)))
except ValueError as exc:
    print("inconsistent relation rejected:", exc)
assert bad is None
