"""Every check can fail: the mutants that show it, and two tables of them.

`MUTANTS` holds mutants of the slab data of t*y = z_1*...*z_k, each passed
to `certify_local` as data, with the rows each must flip at k = 3 and the
witness each must name.  "semistable fiber" is reduced and smooth together,
so a cone that is not unimodular flips it with "cones unimodular"; the
doubled fiber direction flips it alone, and so do the zero direction and
one that pairs negatively with a ray, whose monomials are no functions
that vanish on a reduced fiber.  `DUALITY_MUTANTS` does the same
for the model cone, its dual and its canonical dual generators, passed to
`certify_duality`.

`FLIPS` maps the name of every check that `report`, `verify`, `dual` and
`resolve` print to a mutant of the package that flips it, and the
triple-agreement mutant also flips the verdict of `class`.  Each runs
between two `clear_caches()` calls, so that no cache carries a mutant into
another run.
"""

import json
import re
import types

import pytest

from conftest import clear_caches
from sncdegen import (cmd_dual, cmd_resolve, cmd_verify, degeneration, duality, fans, grothring,
                      toriclat)
from sncdegen._intmat import dot, primitive, unit, vadd
from sncdegen.cli import EXIT_FAILED, main
from sncdegen.duality import certify_duality, dual_generators
from sncdegen.grothring import L, ONE
from sncdegen.fans import Cone, Fan, dual_cone, model_cone, resolution_fan, sigma_subcone
from sncdegen.toriclat import blowup_chart_sequence, certify_local, restrict_certificate

K = 3


def fiber_of_t(k):
    """The fiber direction e_{k+1}* of the slab data."""
    return unit(k + 1, k)


def perturbed_ray(k):
    """The slab fan of rank k+1 with e_3 moved to e_1 + e_3 in sigma_1:
    still unimodular, still in the model cone and still paired 0 with the
    fiber direction."""
    sigma_1, *rest = resolution_fan(k).max_cones
    e1, e3 = unit(k + 1, 0), unit(k + 1, 2)
    return Fan([Cone([vadd(e1, e3) if r == e3 else r for r in sigma_1.rays]), *rest])


def dropped_slab(k):
    """The slab fan of rank k+1 without sigma_2."""
    sigma_1, _, *rest = resolution_fan(k).max_cones
    return Fan([sigma_1, *rest])


def determinant_2(k):
    """sigma_1 split at w = f_1 + 2e_1 + e_2 + ... + e_k, which pairs 1 with
    the fiber direction: the piece with e_1 replaced by w has determinant 2,
    the coefficient of e_1, and the others determinant 1."""
    sigma_1, *rest = resolution_fan(k).max_cones
    w = (3, *[1] * k)
    return Fan([*(Cone([w if r == out else r for r in sigma_1.rays]) for out in sigma_1.rays),
                *rest])


# mutant -> (fan, fiber direction, {row it flips at k = K: the detail that row prints})
MUTANTS = {
    "perturbed-ray": (perturbed_ray, fiber_of_t, {
        "partition of model cone":
            "unmatched wall with rays [[0, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]] and normal "
            "[1, 0, -1, -1]: 1 maximal cone(s) on its side, 0 across it"}),
    "dropped-slab": (dropped_slab, fiber_of_t, {
        "partition of model cone":
            "unmatched wall with rays [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]] and normal "
            "[1, 0, 0, -1]: 1 maximal cone(s) on its side, 0 across it"}),
    "determinant-2": (determinant_2, fiber_of_t, {
        "cones unimodular":
            "Cone(rank=4, rays=[(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (3, 1, 1, 1)]) "
            "is not unimodular: ray [0, 0, 1, 0] pairs 2 with its opposite facet",
        "semistable fiber": "reduced=True, smooth=False"}),
    "doubled-direction": (resolution_fan, lambda k: (0,) * k + (2,), {
        "semistable fiber":
            "reduced=False, smooth=True; ray [0, 0, 1, 1] pairs 2 with the fiber direction"}),
    # no fiber ray at all: "reduced" must not be read off an empty list
    "zero-direction": (resolution_fan, lambda k: (0,) * (k + 1), {
        "semistable fiber": "reduced=False, smooth=True; the direction is zero"}),
    # 1/t, a unit on the torus and no function on the model
    "negative-direction": (resolution_fan, lambda k: (0,) * k + (-1,), {
        "semistable fiber":
            "reduced=False, smooth=True; ray [0, 0, 1, 1] pairs -1 with the fiber direction"}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_flips_exactly_its_rows_and_names_its_witness(name):
    fan, direction, flipped = MUTANTS[name]
    rows = certify_local(fan(K), model_cone(K), direction(K)).rows
    assert {row.name: row.detail for row in rows if not row.passed} == flipped


@pytest.mark.parametrize("k", range(1, K))
def test_restriction_maps_the_fiber_direction_to_the_face(k):
    # e_{K+1}* restricts to e_{k+1}*, and the restriction of the slab data
    # passes; a direction that pairs negatively restricts to one that does
    # too, and fails the same row alone
    top = certify_local(resolution_fan(K), model_cone(K), fiber_of_t(K))
    restricted = restrict_certificate(top, k)
    assert restricted.direction == fiber_of_t(k)
    assert all(row.passed for row in restricted.rows)
    fan, direction, _ = MUTANTS["negative-direction"]
    mutant = restrict_certificate(certify_local(fan(K), model_cone(K), direction(K)), k)
    assert mutant.direction == direction(k)
    assert [row.name for row in mutant.rows if not row.passed] == ["semistable fiber"]


def test_every_certificate_row_has_a_mutant_that_flips_it():
    rows = certify_local(resolution_fan(K), model_cone(K), fiber_of_t(K)).rows
    assert all(row.passed for row in rows)
    assert {row.name for row in rows} == {
        name for _, _, flipped in MUTANTS.values() for name in flipped}


# -- mutants of the package's data and derivations -------------------------


def plus_at(f, by, at=None):
    """f, with `by` added to its value at the arguments `at`, or at every
    argument when `at` is None."""
    def mutant(*args):
        value = f(*args)
        return value + by if at in (None, args) else value
    return mutant


def without_last_generator(n):
    return dual_generators(n)[:-1]


def with_extra_generator(n):
    return dual_generators(n) + [(1,) * (n + 1)]


def redundant_facet_model_cone(n):
    """model_cone(n) with the primitive sum of its first two facets added
    to its facet list: the same rays, so the same cone, and a facet list
    that is not irredundant."""
    sigma = model_cone(n)
    facets = sorted({*sigma.inequalities, primitive(vadd(*sigma.inequalities[:2]))})
    incidence = {ray: sum(1 << j for j, u in enumerate(facets) if dot(u, ray) == 0)
                 for ray in sigma.rays}
    return Cone.__new__(Cone)._store(sigma.rank, incidence, facets)


def redundant_facet_at_3(n):
    return redundant_facet_model_cone(n) if n == 3 else model_cone(n)


def shifted_first_chart(n):
    """blowup_chart_sequence(n) with e_1* added to the monomials of z2 and
    y in chart U_1: its relation y = z1'*z2 still holds, so the chart is
    built, and its cone loses the ray e_2*."""
    first, *rest = blowup_chart_sequence(n)
    coords = [duality.Coordinate(c.name, vadd(c.monomial, unit(n + 1, 0)))
              if c.name in ("z2", "y") else c for c in first.coordinates]
    return [duality.ChartPresentation(coords, first.relation), *rest]


def true_dual(sigma):
    """n -> the dual of the cone sigma(n)."""
    return lambda n: dual_cone(sigma(n))


def orthant_dual(n):
    """The dual of the positive orthant, which is not the model's dual."""
    return dual_cone(Cone([unit(n + 1, i) for i in range(n + 1)]))


# mutant -> (n, model cone, its dual, canonical generators or None,
#            {row it flips at n: its detail})
DUALITY_MUTANTS = {
    "without-last-generator": (2, model_cone, true_dual(model_cone), without_last_generator, {
        "dual generators": "ray [1, 1, -1] of the dual cone is not a canonical generator"}),
    "with-extra-generator": (2, model_cone, true_dual(model_cone), with_extra_generator, {
        "dual generators": "canonical generator [1, 1, 1] is not a ray of the dual cone"}),
    "redundant-facet": (3, redundant_facet_model_cone, true_dual(redundant_facet_model_cone),
                        dual_generators, {
        "duality involution": "facet [0, 0, 1, 1] of sigma is not a ray of the dual cone"}),
    # a wrong dual given as data: the first slab's, not the model cone's
    "dual-of-first-slab": (2, model_cone, true_dual(lambda n: sigma_subcone(n, 1)),
                           dual_generators, {
        "dual generators": "ray [1, 0, -1] of the dual cone is not a canonical generator",
        "duality involution": "ray [1, 0, -1] of the dual cone is not a facet of sigma"}),
    # at n = 1 no generators are passed, so the involution alone can fail
    "orthant-dual-n1": (1, model_cone, orthant_dual, lambda n: None, {
        "duality involution": "facet [1, -1] of sigma is not a ray of the dual cone"}),
}


@pytest.mark.parametrize("name", DUALITY_MUTANTS)
def test_duality_mutant_flips_exactly_its_row_and_names_its_witness(name):
    n, sigma, dual, generators, flipped = DUALITY_MUTANTS[name]
    rows = certify_duality(sigma(n), dual(n), generators(n))
    assert {row.name: row.detail for row in rows if not row.passed} == flipped


@pytest.mark.parametrize("n", [2, 3])
def test_every_duality_row_has_a_mutant_that_flips_it(n):
    rows = certify_duality(model_cone(n), dual_cone(model_cone(n)), dual_generators(n))
    assert all(row.passed for row in rows)
    assert {row.name for row in rows} == {
        name for *_, flipped in DUALITY_MUTANTS.values() for name in flipped}


def test_no_generators_no_generator_row():
    rows = certify_duality(model_cone(1), dual_cone(model_cone(1)), None)
    assert [(row.name, row.passed) for row in rows] == [("duality involution", True)]


# -- patches: each a function of `monkeypatch` that puts a mutant in place --


def plus(module, name, by, at=None):
    """`module.name` with `by` added to its value at the arguments `at`, or
    at every argument when `at` is None."""
    return lambda monkeypatch: monkeypatch.setattr(
        module, name, plus_at(getattr(module, name), by, at))


def in_commands(name, value):
    """`name` bound to `value` in `fans`, `toriclat` or `duality`, whichever
    defines it, as the command modules alone see it.  They read those
    functions through their bindings of the three modules, so the patch
    replaces each binding by a copy of the module with one name changed:
    patching the module itself would reach its own callers too
    (`singular_model_chart`, which `blowup_chart_sequence` replays, reads
    `dual_generators`)."""
    module = next(m for m in (fans, toriclat, duality) if hasattr(m, name))
    binding = module.__name__.rpartition(".")[2]

    def patch(monkeypatch):
        view = types.ModuleType(module.__name__)
        vars(view).update(vars(module), **{name: value})
        for command in (cmd_dual, cmd_resolve, cmd_verify):
            if hasattr(command, binding):
                monkeypatch.setattr(command, binding, view)
    return patch


def certified(mutant):
    """`toriclat.slab_certificate(k)`, the one seam through which the
    commands read a certificate, certifying the slab-data mutant `mutant`
    of `MUTANTS` at every depth k >= K, and the slab data below."""
    fan, direction, _ = MUTANTS[mutant]
    slab_certificate = toriclat.slab_certificate
    return lambda monkeypatch: monkeypatch.setattr(toriclat, "slab_certificate", lambda k: (
        certify_local(fan(k), model_cone(k), direction(k)) if k >= K else slab_certificate(k)))


#: The name of each check that the commands of `COMMANDS` print, without its
#: "stratum k=...: " prefix or its ", n=...", " n=..." or " n=... d=..."
#: suffix -> a patch of a mutant that flips it.  One orbit too many flips
#: "mod-L invariance" at k = n, where no factor L^{n-k} hides its residue.
FLIPS = {
    "triple agreement": plus(grothring, "arrangement_class_inclusion_exclusion", L, (2, 3)),
    "residue 1 for r <= n+1": plus(grothring, "arrangement_class_closed", ONE, (2, 3)),
    "boundary residue r=n+2": plus(grothring, "arrangement_class_closed", ONE, (5, 3)),
    "dual generators": in_commands("dual_generators", without_last_generator),
    "duality involution": in_commands("model_cone", redundant_facet_at_3),
    "cones unimodular": certified("determinant-2"),
    "partition of model cone": certified("dropped-slab"),
    "semistable fiber": certified("doubled-direction"),
    "charts match dual cones": in_commands("blowup_chart_sequence", shifted_first_chart),
    "central fiber class = 1 mod L": plus(degeneration, "arrangement_class_closed", ONE),
    "singular fiber class": plus(degeneration, "affine_coordinate_arrangement_class", L, (2,)),
    "resolved fiber class": plus(fans, "fiber_class", 1),
    "mod-L invariance": plus(fans, "fiber_class", 1),
    "degeneration": plus(degeneration, "arrangement_class_closed", ONE),
}

COMMANDS = [("report", "--n", "4", "--d", "5"), ("verify", "--scope", "all", "--max-n", "4"),
            ("dual", "--n", "3"), ("resolve", "--n", "4")]


def check_name(printed):
    """A printed check name without its stratum prefix or its n, d suffix."""
    return re.sub(r"^stratum k=\d+: |,? n=\d+(?: d=\d+)?$", "", printed)


def printed_checks(capsys, argv):
    main([*argv, "--format", "json"])
    return json.loads(capsys.readouterr().out)["checks"]


def test_the_table_names_exactly_the_printed_checks(capsys):
    assert {check_name(row["name"]) for argv in COMMANDS
            for row in printed_checks(capsys, argv)} == set(FLIPS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_printed_check_has_a_mutant_that_flips_it(capsys, monkeypatch, argv):
    names = sorted({check_name(row["name"]) for row in printed_checks(capsys, argv)})
    for name in names:
        clear_caches()
        with monkeypatch.context() as patched:
            FLIPS[name](patched)
            failing = {check_name(row["name"]) for row in printed_checks(capsys, argv)
                       if not row["pass"]}
        clear_caches()
        assert name in failing, name


def test_triple_agreement_mutant_fails_class(capsys, monkeypatch):
    clear_caches()
    with monkeypatch.context() as patched:
        FLIPS["triple agreement"](patched)
        code = main(["class", "--r", "2", "--n", "3", "--format", "json"])
    clear_caches()
    assert code == EXIT_FAILED
    assert '"agree": false' in capsys.readouterr().out
