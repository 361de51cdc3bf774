"""Acceptance criteria, one test per criterion.

Each test prints (and records for the end-of-run summary) a single
pass/fail line.  Where a criterion states a runtime budget, wall time is
measured cold within the test and enforced.
"""

import itertools
import random
import time

import conftest
from oracles import (
    affine_union_class_oracle,
    orbit_class_oracle,
    random_unimodular_cone,
)
from sncdegen.degeneration import (
    DegenerationSpec,
    LocalModelSpec,
    full_degeneration_report,
    resolve_local_model,
)
from sncdegen.grothring import (
    L,
    arrangement_class_closed,
    arrangement_class_inclusion_exclusion,
    arrangement_class_recursive,
    reduce_mod_L,
)
from sncdegen.toriclat import (
    Cone,
    blowup_chart_sequence,
    dual_cone,
    dual_generators,
    greedy_decompose,
    is_smooth,
    model_cone,
    resolution_fan,
    semistable_fiber_check,
    sigma_subcone,
    unit_vector,
    verify_partition,
)


def report(num, description, ok, detail=""):
    print(conftest.record_acceptance(num, description, ok, detail))


def test_criterion_1_triple_agreement():
    t0 = time.perf_counter()
    failures = [(r, n) for r in range(1, 13) for n in range(0, 13)
                if not (arrangement_class_closed(r, n)
                        == arrangement_class_recursive(r, n)
                        == arrangement_class_inclusion_exclusion(r, n))]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(1, "arrangement-class triple agreement", ok,
           f"r<=12, n<=12, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0, elapsed


def test_criterion_2_mod_L_congruence():
    low = [(r, n) for n in range(0, 13) for r in range(1, n + 2)
           if reduce_mod_L(arrangement_class_closed(r, n)) != 1]
    boundary = [n for n in range(0, 13)
                if reduce_mod_L(arrangement_class_closed(n + 2, n)) != 1 + (-1) ** n]
    ok = not low and not boundary
    report(2, "mod-L congruence of arrangement classes", ok,
           "residue 1 for r<=n+1, residue 1+(-1)^n at r=n+2")
    assert not low, low
    assert not boundary, boundary


def test_criterion_3_dual_cone_generators():
    failures = [n for n in range(2, 9)
                if sorted(dual_cone(model_cone(n)).rays) != sorted(dual_generators(n))]
    report(3, "dual-cone generators of the model cone", not failures,
           "n=2..8, exact set equality")
    assert not failures, failures


def test_criterion_4_resolution_certification():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        fan = resolution_fan(n)
        if not all(is_smooth(c) for c in fan):
            failures.append((n, "smooth"))
        if not verify_partition(fan, model_cone(n)):
            failures.append((n, "partition"))
        if not semistable_fiber_check(fan, unit_vector(n + 1, n)).snc:
            failures.append((n, "semistable"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(4, "resolution certification", ok, f"n=1..8, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0, elapsed


def test_criterion_5_chart_dual_match():
    failures = []
    for n in range(2, 9):
        for k, chart in enumerate(blowup_chart_sequence(n), start=1):
            if Cone(chart.monomials()) != dual_cone(sigma_subcone(n, k)):
                failures.append((n, k, "cone"))
            if chart.relation is None:
                failures.append((n, k, "relation missing"))
                continue
            left, right = chart.relation
            lsum = [sum(chart.monomials()[i][j] for i in left) for j in range(n + 1)]
            rsum = [sum(chart.monomials()[i][j] for i in right) for j in range(n + 1)]
            if lsum != rsum:
                failures.append((n, k, "relation identity"))
    report(5, "chart/dual-cone match", not failures,
           "n=2..8, all charts, relations as lattice identities")
    assert not failures, failures


def test_criterion_6_fiber_class_invariance():
    failures = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            before = L ** (n - k + 1) * affine_union_class_oracle(k)
            after = L ** (n - k) * orbit_class_oracle(
                resolution_fan(k), unit_vector(k + 1, k))
            if reduce_mod_L(before) != 0 or reduce_mod_L(after) != 0:
                failures.append((n, k, "residue"))
            rep = resolve_local_model(LocalModelSpec(n=n, k=k))
            if rep.fiber_class_before != before or rep.fiber_class_after != after:
                failures.append((n, k, "oracle mismatch"))
    exact = resolve_local_model(LocalModelSpec(n=2, k=2))
    if exact.fiber_class_before != 2 * L**2 - L:
        failures.append((2, 2, "exact before"))
    if exact.fiber_class_after != 2 * L**2:
        failures.append((2, 2, "exact after"))
    report(6, "fiber-class invariance mod L", not failures,
           "k<=n<=8 via scissor/orbit oracles; n=k=2 exact")
    assert not failures, failures


def test_criterion_7_degeneration_reports():
    t0 = time.perf_counter()
    failures = [(n, d) for n in range(2, 9) for d in range(1, n + 2)
                if not full_degeneration_report(DegenerationSpec(n=n, d=d)).passed]
    flagship = full_degeneration_report(DegenerationSpec(n=3, d=4)).passed
    elapsed = time.perf_counter() - t0
    ok = not failures and flagship and elapsed < 10.0
    report(7, "degeneration reports", ok,
           f"n=2..8, all d<=n+1, incl. n=3 d=4, {elapsed:.2f}s")
    assert not failures, failures
    assert flagship
    assert elapsed < 10.0, elapsed


def test_criterion_8_greedy_decomposition():
    failures = []
    members = 0
    for n in range(1, 5):
        gens = dual_generators(n)
        dual = dual_cone(model_cone(n))
        for v in itertools.product(range(-5, 6), repeat=n + 1):
            coeffs = greedy_decompose(v)
            if dual.contains(v):
                if coeffs is None:
                    failures.append((n, v, "rejected member"))
                    continue
                members += 1
                acc = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                            for i in range(n + 1))
                if acc != v or any(c < 0 for c in coeffs):
                    failures.append((n, v, "bad expansion"))
            elif coeffs is not None:
                failures.append((n, v, "accepted non-member"))
    report(8, "greedy decomposition in the dual cone", not failures,
           f"n<=4, bound 5, {members} lattice points")
    assert not failures, failures[:5]


def test_criterion_9_duality_involution():
    rng = random.Random(20260823)
    failures = []
    for i in range(200):
        c = random_unimodular_cone(rng, max_rank=5)
        if dual_cone(dual_cone(c)) != c:
            failures.append(("random", i, c.rays))
    for n in range(1, 9):
        c = model_cone(n)
        if dual_cone(dual_cone(c)) != c:
            failures.append(("model", n))
    report(9, "duality involution", not failures,
           "200 random unimodular cones rank<=5 + model cones n<=8")
    assert not failures, failures[:3]
