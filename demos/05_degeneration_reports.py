"""
Verification reports for semistable degenerations
=================================================

A one-parameter degeneration whose central fiber is a union of d
hyperplanes in general position looks locally, along a depth-k stratum,
like t*x_(n+1) = x_1...x_k.  resolve_local_model certifies the local
resolution and packages the evidence -- including exact fiber classes
before and after, equal mod L -- into a VerificationReport.  The
full_degeneration_report aggregates the strata of a global model.

Run with:  python3 demos/05_degeneration_reports.py
"""
from __future__ import annotations

import json

from sncdegen import (
    DegenerationSpec,
    LocalModelSpec,
    central_fiber_arrangement_class,
    full_degeneration_report,
    reduce_mod_L,
    resolve_local_model,
)

############################################################################
# A local model and its report
# ----------------------------
# n = 2, k = 2 is the ordinary double point t*x_3 = x_1*x_2.  The report
# runs six named checks and records the fiber class before resolution
# (2L^2 - L, from scissor relations on the two crossing planes) and after
# (2L^2, two disjoint smooth components), both of which vanish mod L.
spec = LocalModelSpec(n=2, k=2)
print("local model:", spec.equation)
report = resolve_local_model(spec)
print(report.render_table())

############################################################################
# The JSON form
# -------------
# Reports serialize deterministically for machine consumption; the same
# payload backs the command-line interface.
payload = report.to_json_dict()
print(json.dumps(payload, indent=2)[:400], "...")
assert payload["mod_L_invariant"] is True

############################################################################
# Sweeping the local models
# -------------------------
# Every stratum depth k <= n admits the same certification; the fiber
# class after resolution always has k components at L = 1.
for n, k in [(3, 1), (3, 2), (3, 3), (5, 4)]:
    rep = resolve_local_model(LocalModelSpec(n=n, k=k))
    assert rep.passed
    print(f"n={n} k={k}: before {rep.fiber_class_before.render()}  "
          f"after {rep.fiber_class_after.render()}  "
          f"residues {reduce_mod_L(rep.fiber_class_before)} == "
          f"{reduce_mod_L(rep.fiber_class_after)}")

############################################################################
# A full degeneration
# -------------------
# d hyperplanes degenerating inside P^(n+1): the central fiber class is
# the arrangement class P(d, n), congruent to 1 mod L in the stable range
# d <= n + 1, and every stratum depth k = 1..min(d, n) is certified.
deg = DegenerationSpec(n=3, d=4)
print("central fiber class:",
      central_fiber_arrangement_class(deg).render())
full = full_degeneration_report(deg)
for check in full.checks:
    mark = "PASS" if check.passed else "FAIL"
    print(f"  [{mark}] {check.name}")
assert full.passed
print("degeneration n=3 d=4: all checks pass")
