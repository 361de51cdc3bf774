"""Unit tests for the degeneration reports and fiber-class accounting."""

import json

import pytest
from hypothesis import given, settings

from oracles import affine_union_class_oracle, affine_union_point_count
from test_mutations import MUTANTS, certified, plus
from test_toriclat import refined_slab_fans
from sncdegen import degeneration, fans, toriclat
from sncdegen._intmat import unit
from sncdegen.degeneration import (
    CheckResult,
    DegenerationSpec,
    LocalModelSpec,
    VerificationReport,
    affine_coordinate_arrangement_class,
    full_degeneration_report,
    resolve_local_model,
)
from sncdegen.grothring import GrothClass, L, proj_space_class, reduce_mod_L
from sncdegen.fans import Cone, Fan, model_cone, sigma_subcone
from sncdegen.toriclat import certify_local


# -- specs --------------------------------------------------------------


def test_local_spec_validation():
    LocalModelSpec(n=3, k=3)
    with pytest.raises(ValueError):
        LocalModelSpec(n=3, k=0)
    with pytest.raises(ValueError):
        LocalModelSpec(n=3, k=4)
    with pytest.raises(ValueError):
        LocalModelSpec(n=0, k=1)


def test_local_spec_equation():
    assert LocalModelSpec(n=3, k=2).equation == "t*x4 = x1*x2"
    assert LocalModelSpec(n=2, k=2).to_json_dict() == {
        "type": "local", "n": 2, "k": 2, "equation": "t*x3 = x1*x2"}


def test_degeneration_spec_validation():
    DegenerationSpec(n=2, d=3)
    DegenerationSpec(n=5, d=6)
    with pytest.raises(ValueError):
        DegenerationSpec(n=2, d=4)  # outside the Fano range
    with pytest.raises(ValueError):
        DegenerationSpec(n=2, d=0)
    with pytest.raises(ValueError):
        DegenerationSpec(n=0, d=1)


# -- the scissor oracle -------------------------------------------------


def test_scissor_oracle_values():
    assert affine_coordinate_arrangement_class(1) == GrothClass([1])
    assert affine_coordinate_arrangement_class(2) == 2 * L - 1
    for k in range(1, 11):
        assert affine_coordinate_arrangement_class(k) == L**k - (L - 1) ** k, k
        assert affine_coordinate_arrangement_class(k) == affine_union_class_oracle(k), k


def test_scissor_recursion_has_no_size_cap():
    # far beyond any 2^k subset enumeration
    for k in range(1, 65):
        assert affine_coordinate_arrangement_class(k) == L**k - (L - 1) ** k, k


def test_scissor_oracle_matches_point_counts():
    # Evaluating a class of Z[L] at L = p counts F_p points (Katz, appendix
    # to Hausel-Rodriguez-Villegas, Invent. Math. 174, 2008), and the five
    # primes fix every class of degree <= 4 here.
    for k in range(1, 5):
        for p in (2, 3, 5, 7, 11):
            assert (affine_coordinate_arrangement_class(k).evaluate(p)
                    == affine_union_point_count(k, p)), (k, p)


def test_scissor_recursion_makes_linear_work(groth_additions):
    # one subset at a time would make 2^16 - 1 additions
    affine_coordinate_arrangement_class(16)
    assert 0 < len(groth_additions) <= 2 * 16


def test_scissor_oracle_validation():
    with pytest.raises(ValueError):
        affine_coordinate_arrangement_class(0)
    assert affine_coordinate_arrangement_class(31) == L**31 - (L - 1) ** 31


# -- local model resolution ---------------------------------------------


def test_resolve_local_model_n2_k2():
    report = resolve_local_model(LocalModelSpec(n=2, k=2))
    assert report.fiber_class_before == 2 * L**2 - L
    assert report.fiber_class_after == 2 * L**2
    assert report.mod_L_invariant
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_resolve_local_model_smooth_case():
    report = resolve_local_model(LocalModelSpec(n=3, k=1))
    assert report.fiber_class_before == report.fiber_class_after == L**3
    assert report.passed


def test_resolve_local_model_n4_k3():
    report = resolve_local_model(LocalModelSpec(n=4, k=3))
    assert report.passed and report.mod_L_invariant


def test_resolve_local_model_invariance_sweep():
    for n in range(1, 9):
        for k in range(1, n + 1):
            report = resolve_local_model(LocalModelSpec(n=n, k=k))
            diff = report.fiber_class_before - report.fiber_class_after
            assert reduce_mod_L(diff) == 0, (n, k)
            assert report.passed, (n, k)


def slab_rows(fan, k):
    """The rows, by name, of `fan` certified against the model cone of
    t*y = z_1*...*z_k in the fiber direction e_{k+1}* of t."""
    return {row.name: row for row in certify_local(fan, model_cone(k), unit(k + 1, k)).rows}


def test_certify_local_reads_only_its_arguments():
    # equal arguments built apart give equal rows, whatever was certified in
    # between, and the slab data give the cached rows that every command prints
    for k in range(1, 6):
        slabs = fans.resolution_fan(k)
        first = certify_local(slabs, model_cone(k), unit(k + 1, k)).rows
        certify_local(Fan(slabs.max_cones[1:] or slabs.max_cones), model_cone(k), unit(k + 1, 0))
        again = certify_local(Fan(slabs.max_cones), Cone(model_cone(k).rays),
                              list(unit(k + 1, k))).rows
        assert first == again == toriclat.slab_certificate(k).rows, k


def test_partition_check_names_its_witness():
    # the slab fan of k = 3 with sigma_1 missing
    check = slab_rows(Fan([sigma_subcone(3, j) for j in range(2, 4)]), 3)[
        "partition of model cone"]
    assert not check.passed
    assert check.detail.startswith("unmatched wall with rays")


def test_unimodular_check_names_its_witness():
    rows = slab_rows(Fan([model_cone(3)]), 3)
    assert not rows["cones unimodular"].passed
    assert rows["cones unimodular"].detail == (
        f"{model_cone(3)!r} is not unimodular: 6 rays in rank 4")
    assert not rows["semistable fiber"].passed
    assert rows["semistable fiber"].detail == "reduced=True, smooth=False"


def test_semistable_check_names_its_witness():
    # the ray (1, 2) pairs 2 with the fiber direction e_2*
    index2 = Cone([(1, 0), (1, 2)])
    rows = slab_rows(Fan([index2]), 1)
    assert not rows["semistable fiber"].passed
    assert rows["semistable fiber"].detail == (
        "reduced=False, smooth=False; ray [1, 2] pairs 2 with the fiber direction")
    assert rows["cones unimodular"].detail == (
        f"{index2!r} is not unimodular: ray [1, 0] pairs 2 with its opposite facet")


def test_resolved_fiber_class_check_can_fail(monkeypatch, cold_caches):
    # one component too many at L=1
    plus(fans, "fiber_class", 1)(monkeypatch)
    report = resolve_local_model(LocalModelSpec(n=3, k=2))
    check = next(c for c in report.checks if c.name == "resolved fiber class")
    assert not check.passed and not report.passed


def test_a_local_report_without_an_orbit_count_has_no_class_after(monkeypatch, cold_caches):
    # the determinant-2 slab data has a cone that is not unimodular, so no
    # orbit count gives a class after, and no class is claimed invariant
    certified("determinant-2")(monkeypatch)
    report = resolve_local_model(LocalModelSpec(n=3, k=3))
    no_count = "premise 'cones unimodular' fails"
    assert {c.name: c.detail for c in report.checks if not c.passed} == {
        **MUTANTS["determinant-2"][2],
        "resolved fiber class": no_count, "mod-L invariance": no_count}
    assert report.fiber_class_after is None and not report.mod_L_invariant
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["fiber_class_after"] is None and data["mod_L_invariant"] is False
    table = report.render_table().splitlines()
    assert "  fiber class after:  none" in table
    assert "  mod-L residues: 0 -> none (CHANGED)" in table


@settings(max_examples=50, deadline=None, derandomize=True)
@given(refined_slab_fans(top=4, weighted=True))
def test_class_rows_fail_on_their_premise_iff_it_fails_on_random_refinements(case):
    # the orbit count needs unimodular cones: without them both class rows
    # fail on that premise and compute nothing, and with them neither
    # names it, whether or not its class is the slab fan's
    k, fan = case
    certificate = certify_local(fan, model_cone(k), unit(k + 1, k))
    rows = {c.name: c for c in degeneration._local_report(
        LocalModelSpec(n=k, k=k), certificate).checks}
    failed = not rows["cones unimodular"].passed
    for name in ("resolved fiber class", "mod-L invariance"):
        assert ((rows[name].passed, rows[name].detail)
                == (False, "premise 'cones unimodular' fails")) is failed, name


# -- central fiber class ------------------------------------------------


def test_central_fiber_class_values():
    def before(n, d):
        return full_degeneration_report(DegenerationSpec(n=n, d=d)).fiber_class_before

    assert before(2, 1) == proj_space_class(2)
    assert reduce_mod_L(before(3, 4)) == 1
    assert reduce_mod_L(before(5, 6)) == 1


# -- aggregated reports -------------------------------------------------


def strata(report):
    return sorted({c.name.split(":")[0] for c in report.checks if c.name.startswith("stratum")})


def test_full_report_quartic_threefolds():
    report = full_degeneration_report(DegenerationSpec(n=3, d=4))
    assert report.passed
    assert strata(report) == ["stratum k=1", "stratum k=2", "stratum k=3"]


def test_full_report_cubic_surfaces():
    assert full_degeneration_report(DegenerationSpec(n=2, d=3)).passed


def test_full_report_d1_certifies_k1():
    # one hyperplane meets {F = 0} in the points of the k = 1 model
    report = full_degeneration_report(DegenerationSpec(n=4, d=1))
    assert report.passed
    assert strata(report) == ["stratum k=1"]


def test_full_report_certifies_every_stratum_that_occurs():
    # H_1 and H_2 meet {F = 0} in two points of P^3: the ordinary double
    # point t*x_3 = x_1*x_2 is the stratum k = 2 = min(d, n)
    for n, d, top in [(2, 2, 2), (5, 3, 3), (4, 5, 4)]:
        report = full_degeneration_report(DegenerationSpec(n=n, d=d))
        assert report.passed
        assert strata(report) == [f"stratum k={k}" for k in range(1, top + 1)], (n, d)


def test_full_report_needs_n_at_least_2():
    with pytest.raises(ValueError):
        full_degeneration_report(DegenerationSpec(n=1, d=2))


def test_full_report_caps_the_deepest_stratum(monkeypatch, cold_caches):
    # refused before any stratum is resolved
    monkeypatch.setattr(degeneration, "resolve_local_model", None)
    top = degeneration.MAX_CERTIFIED_STRATUM
    with pytest.raises(ValueError, match=f"k <= {top}, got k={top + 1}"):
        full_degeneration_report(DegenerationSpec(n=top + 1, d=top + 2))
    with pytest.raises(ValueError, match=f"got k={top + 2}"):
        full_degeneration_report(DegenerationSpec(n=top + 3, d=top + 2))


def test_full_report_sweep():
    for n in range(2, 9):
        for d in range(1, n + 2):
            report = full_degeneration_report(DegenerationSpec(n=n, d=d))
            assert report.passed, (n, d)
            assert report.mod_L_invariant, (n, d)


# -- report objects -----------------------------------------------------


def test_report_json_schema():
    report = resolve_local_model(LocalModelSpec(n=2, k=2))
    data = json.loads(json.dumps(report.to_json_dict()))
    assert set(data) == {"model", "checks", "fiber_class_before",
                         "fiber_class_after", "mod_L_invariant"}
    assert data["model"] == {"type": "local", "n": 2, "k": 2,
                             "equation": "t*x3 = x1*x2"}
    assert data["fiber_class_before"] == {"coeffs": [0, -1, 2]}
    assert data["fiber_class_after"] == {"coeffs": [0, 0, 2]}
    assert data["mod_L_invariant"] is True
    for check in data["checks"]:
        assert set(check) == {"name", "pass", "detail"}


def test_report_table_rendering():
    report = resolve_local_model(LocalModelSpec(n=2, k=2))
    table = report.render_table()
    assert "model: local" in table
    assert "[PASS]" in table and "[FAIL]" not in table
    assert "overall: PASS" in table


def test_report_passed_requires_all_checks():
    report = VerificationReport(
        model=LocalModelSpec(n=2, k=2),
        checks=(CheckResult("good", True, ""), CheckResult("bad", False, "broken")),
        fiber_class_before=GrothClass([1]),
        fiber_class_after=GrothClass([1]),
    )
    assert not report.passed
    assert "[FAIL] bad" in report.render_table()


def test_report_passed_reads_the_checks_only():
    # the mod-L comparison enters the verdict as a check, not on its own
    report = VerificationReport(
        model=LocalModelSpec(n=2, k=2),
        checks=(CheckResult("good", True, ""),),
        fiber_class_before=GrothClass([1]),
        fiber_class_after=GrothClass([0, 1]),
    )
    assert report.passed and not report.mod_L_invariant
