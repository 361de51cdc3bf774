"""Every row of the local certificate can fail: a table of mutants of the
slab data of t*y = z_1*z_2*z_3, each passed to `certify_local` as data, with
the rows it must flip and the witness each must name.

"semistable fiber" is reduced and smooth together, so a cone that is not
unimodular flips it with "cones unimodular"; the doubled fiber direction
flips it alone."""

import pytest

from sncdegen._intmat import unit, vadd
from sncdegen.toriclat import Cone, Fan, certify_local, model_cone, resolution_fan

K = 3
SLABS = resolution_fan(K).max_cones  # sigma_1, sigma_2, sigma_3
T = unit(K + 1, K)  # the fiber direction e_4*
E1, E3 = unit(K + 1, 0), unit(K + 1, 2)


def perturbed_ray() -> Fan:
    """sigma_1 with e_3 moved to e_1 + e_3: still unimodular, still in the
    model cone and still paired 0 with the fiber direction."""
    moved = Cone([vadd(E1, E3) if r == E3 else r for r in SLABS[0].rays])
    return Fan([moved, *SLABS[1:]])


def dropped_slab() -> Fan:
    return Fan([SLABS[0], SLABS[2]])


def determinant_2() -> Fan:
    """sigma_1 split at w = f_1 + 2e_1 + e_2 + e_3, which pairs 1 with the
    fiber direction: the piece with e_1 replaced by w has determinant 2,
    the coefficient of e_1, and the others determinant 1."""
    w = (3, 1, 1, 1)
    return Fan([*(Cone([w if r == out else r for r in SLABS[0].rays]) for out in SLABS[0].rays),
                *SLABS[1:]])


# mutant -> (fan, fiber direction, {row it flips: the detail that row prints})
MUTANTS = {
    "perturbed-ray": (perturbed_ray, T, {
        "partition of model cone":
            "unmatched wall with rays [[0, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]] and normal "
            "[1, 0, -1, -1]: 1 maximal cone(s) on its side, 0 across it"}),
    "dropped-slab": (dropped_slab, T, {
        "partition of model cone":
            "unmatched wall with rays [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]] and normal "
            "[1, 0, 0, -1]: 1 maximal cone(s) on its side, 0 across it"}),
    "determinant-2": (determinant_2, T, {
        "cones unimodular":
            "Cone(rank=4, rays=[(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (3, 1, 1, 1)]) "
            "is not unimodular: ray [0, 0, 1, 0] pairs 2 with its opposite facet",
        "semistable fiber": "reduced=True, smooth=False"}),
    "doubled-direction": (lambda: resolution_fan(K), (0, 0, 0, 2), {
        "semistable fiber":
            "reduced=False, smooth=True; ray [0, 0, 1, 1] pairs 2 with the fiber direction"}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_flips_exactly_its_rows_and_names_its_witness(name):
    fan, direction, flipped = MUTANTS[name]
    rows = certify_local(fan(), model_cone(K), direction).rows
    assert {row.name: row.detail for row in rows if not row.passed} == flipped


def test_every_certificate_row_has_a_mutant_that_flips_it():
    rows = certify_local(resolution_fan(K), model_cone(K), T).rows
    assert all(row.passed for row in rows)
    assert {row.name for row in rows} == {
        name for _, _, flipped in MUTANTS.values() for name in flipped}
