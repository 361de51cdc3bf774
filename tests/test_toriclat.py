"""Unit tests for the cone/fan machinery and the toric resolution."""

import functools
import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import clear_caches, src_env
from oracles import (
    affine_union_class_oracle,
    dual_rays_brute,
    extreme_rays_brute,
    face_table_oracle,
    faces_via_facets,
    orbit_class_oracle,
    partition_sweep_oracle,
    random_unimodular_cone,
    random_unimodular_matrix,
    simplicial_coordinates,
    slab_orbit_class_closed_form,
)
from oracles import _rank as oracle_rank
from sncdegen import _intmat, checks, fans, toriclat
from sncdegen._intmat import dot, invariant_factors, primitive, unit, vadd, vscale
from sncdegen.grothring import GrothClass, L, reduce_mod_L
from sncdegen.duality import (
    ChartPresentation,
    Coordinate,
    dual_generators,
    greedy_decompose,
    singular_model_chart,
)
from sncdegen.fans import (
    Cone,
    Fan,
    dual_cone,
    fiber_class,
    fiber_rays,
    is_smooth,
    model_cone,
    resolution_fan,
    sigma_subcone,
    toric_class,
    unit_vector,
)
from sncdegen.fans import _exchange, _orbit_sum
from sncdegen.toriclat import (
    blowup_chart_sequence,
    certify_local,
    restrict_certificate,
    semistable_fiber_check,
    verify_partition,
)
from sncdegen.toriclat import (
    MAX_SWEEP_POINTS,
    _common_face,
    _face_of,
    _generic_point,
    _partition_failure,
    _sweep_box,
    _sweep_uncovered,
    _unmatched_wall,
)

E = unit_vector


def orthant(rank):
    return Cone([E(rank, i) for i in range(rank)])


# -- Cone construction and canonicalization -----------------------------


def test_cone_canonicalizes_generators():
    c = Cone([(2, 0), (1, 0), (0, 3), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.rank == 2


def test_cone_rejects_zero_generator():
    with pytest.raises(ValueError):
        Cone([(0, 0), (1, 0)])


def test_cone_rejects_line():
    with pytest.raises(ValueError):
        Cone([(1, 0), (-1, 0), (0, 1)])


def test_cone_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        Cone([(1, 0), (1, 0, 0)])


@pytest.mark.parametrize("gens", [
    [],                          # no generators, so no rank
    [(1, 1, 0)],                 # a ray in Z^3
    [(0, 1, 1), (0, 1, -1)],     # a plane in Z^3
    [(1, 0), (1, 0, 0)],         # mixed lengths
], ids=["empty", "ray", "plane", "mixed"])
def test_cone_is_full_dimensional_or_refused(gens):
    with pytest.raises(ValueError):
        Cone(gens)


def redundant_generators(rng, rank, count):
    """A pointed full-dimensional generator set with redundant members:
    `count` random vectors of the positive orthant, a doubled copy of one,
    the sum of two (on a face or inside), the sum of the vectors on each
    facet (on that facet, not extreme when the facet holds two or more)
    and the sum of all (inside), mapped by a random unimodular matrix.
    Facets come from the brute-force oracle."""
    while True:
        base = [tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(count)]
        base = [v for v in base if any(v)]
        if base and oracle_rank(base, rank) == rank:
            break
    extra = [tuple(2 * x for x in base[0]), tuple(map(sum, zip(*base))),
             tuple(map(sum, zip(*rng.sample(base, min(2, len(base))))))]
    for a in extreme_rays_brute(base, rank):
        on = [v for v in base if dot(a, v) == 0]
        if len(on) > 1:
            extra.append(tuple(map(sum, zip(*on))))
    m = random_unimodular_matrix(rng, rank)
    gens = base + extra
    rng.shuffle(gens)
    return [tuple(dot(row, v) for row in m) for v in gens]


@pytest.mark.parametrize("rank, count", [(2, 5), (3, 6), (3, 8), (4, 6), (4, 7)])
def test_cone_facets_and_rays_against_brute_oracle(rank, count):
    # the facets are the rays of the dual, and the rays are the facets of
    # the dual, both by (rank-1)-subset kernel enumeration
    rng = random.Random(1000 * rank + count)
    for _ in range(8):
        gens = redundant_generators(rng, rank, count)
        c = Cone(gens)
        facets = extreme_rays_brute(gens, rank)
        assert list(c.inequalities) == facets, gens
        assert list(c.rays) == extreme_rays_brute(facets, rank), gens


def test_cone_drops_a_generator_inside_an_edge_of_four_facets():
    # the cone over the 4-dimensional cross-polytope, whose every edge lies
    # on four facets: the edge midpoint is on rank - 1 facets, yet not extreme
    rays = [tuple(s * (i == j) for j in range(4)) + (1,)
            for i in range(4) for s in (1, -1)]
    midpoint = (1, 1, 0, 0, 2)
    c = Cone(rays + [midpoint, (0, 0, 0, 0, 1)])
    assert sum(dot(a, midpoint) == 0 for a in c.inequalities) == 4
    assert sorted(c.rays) == sorted(rays)
    assert list(c.inequalities) == extreme_rays_brute(rays, 5)


def incidence_by_pairings(c):
    return tuple(sum(1 << j for j, a in enumerate(c.inequalities) if dot(a, r) == 0)
                 for r in c.rays)


def test_stored_incidence_matches_the_pairings():
    # model cones and their duals are not simplicial, so their double
    # descriptions insert rows past the simplicial start
    rng = random.Random(23)
    cones = [random_unimodular_cone(rng, max_rank=5) for _ in range(30)]
    cones += [Cone(redundant_generators(rng, rank, count)) for rank, count in [(3, 6), (4, 7)]]
    for n in range(1, 9):
        cones += [model_cone(n), dual_cone(model_cone(n))]
    for c in cones:
        assert list(c._incidence.items()) == list(zip(c.rays, incidence_by_pairings(c))), c


def test_simplicial_cone_builds_with_no_pairing(monkeypatch, cold_caches):
    # a slab's double description stops at the simplicial start, whose
    # zero sets hold by construction, and Cone reads its incidence off them
    slab = sigma_subcone(6, 3)
    expected = incidence_by_pairings(slab)
    monkeypatch.setattr(_intmat, "dot", None)  # any dot product would raise
    monkeypatch.setattr(toriclat, "dot", None)
    c = Cone(slab.rays)
    assert (c.inequalities == slab.inequalities
            and list(c._incidence.items()) == list(zip(slab.rays, expected)))


@st.composite
def independent_generators(draw):
    """rank generators of Z^rank, rank 2..6, linearly independent."""
    rank = draw(st.integers(2, 6))
    gens = [tuple(draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)))
            for _ in range(rank)]
    assume(len(invariant_factors(gens)) == rank)
    return gens


@settings(max_examples=200, deadline=None, derandomize=True)
@given(independent_generators())
def test_simplicial_cone_agrees_with_the_general_path(gens):
    # rank generators skip the rank test and the extremality filter; with
    # g0 + g1 added, a redundant generator, the cone takes the general path
    simplicial = Cone(gens)
    general = Cone(gens + [vadd(gens[0], gens[1])])
    assert simplicial.rays == general.rays
    assert simplicial.inequalities == general.inequalities
    assert list(simplicial._incidence.items()) == list(general._incidence.items())
    # the last generator replaced by minus the sum of the others: still
    # rank distinct primitive generators, but they span a hyperplane
    singular = gens[:-1] + [vscale(-1, functools.reduce(vadd, gens[:-1]))]
    with pytest.raises(ValueError):
        Cone(singular)


def same_cone(c, d):
    """Equal in the canonical data a cone stores, order included."""
    return (c.rays == d.rays and c.inequalities == d.inequalities
            and list(c._incidence.items()) == list(d._incidence.items()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(independent_generators(), st.data())
def test_exchange_pivot_agrees_with_double_description(gens, data):
    c = Cone(gens)
    out = data.draw(st.sampled_from(c.rays))
    kept = [r for r in c.rays if r != out]
    new = data.draw(st.lists(st.integers(-5, 5), min_size=c.rank, max_size=c.rank)
                    .filter(any))
    try:
        expected = Cone(kept + [new])
    except ValueError:  # new lies in the span of the kept rays
        with pytest.raises(ValueError):
            _exchange(c, out, new)
    else:
        assert same_cone(_exchange(c, out, new), expected)
    # a nonzero combination of the kept rays pairs 0 with the facet opposite out
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(kept), max_size=len(kept))
                       .filter(any))
    in_span = functools.reduce(vadd, (vscale(x, r) for x, r in zip(coeffs, kept)))
    with pytest.raises(ValueError):
        _exchange(c, out, in_span)


def test_slabs_by_exchange_equal_their_double_description():
    for n in range(1, 13):
        for k in range(1, n + 1):
            slab = sigma_subcone(n, k)
            assert same_cone(slab, Cone(slab.rays)), (n, k)


def test_cone_value_semantics():
    a = Cone([(1, 0), (0, 1), (1, 1)])
    b = orthant(2)
    assert a == b and hash(a) == hash(b)
    assert a != Cone([(1, 0), (1, 2)])


# -- membership ---------------------------------------------------------


def test_contains_orthant():
    c = orthant(3)
    assert c.contains((1, 2, 3))
    assert not c.contains((1, -1, 0))
    assert c.contains((0, 0, 0))
    with pytest.raises(ValueError):
        c.contains((1, 2))


def test_contains_model_generator():
    assert model_cone(2).contains((1, 0, 1))


# -- duality ------------------------------------------------------------


def test_dual_cone_runs_one_double_description(monkeypatch, cold_caches):
    # the dual's generators are the stored facets; only the dual's own
    # facets need a double description
    c = Cone(model_cone(5).rays)  # built before the count starts
    calls = []
    extreme_rays = fans.extreme_rays
    monkeypatch.setattr(fans, "extreme_rays",
                        lambda *args: calls.append(args) or extreme_rays(*args))
    assert sorted(dual_cone(c).rays) == sorted(dual_generators(5))
    assert len(calls) == 1


def test_slab_facets_are_the_rays_of_its_dual():
    # `verify` compares each chart with its slab's stored facets, not with a
    # built dual cone; the double description is the reference for that
    for n in range(1, 17):
        for k, slab in enumerate(resolution_fan(n), start=1):
            dual = dual_cone(slab)
            assert dual.rays == slab.inequalities, (n, k)
            assert dual.inequalities == slab.rays, (n, k)


def test_orthant_self_dual():
    for rank in range(1, 5):
        assert dual_cone(orthant(rank)) == orthant(rank)


def test_dual_of_model_cone_n2():
    d = dual_cone(model_cone(2))
    assert set(d.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)}


def test_dual_generators_match():
    for n in range(2, 9):
        d = dual_cone(model_cone(n))
        assert sorted(d.rays) == sorted(dual_generators(n)), n


def test_dual_rejects_lower_dimensional():
    with pytest.raises(ValueError):
        dual_cone(Cone([(1, 1, 0)]))


def test_dual_against_brute_oracle():
    rng = random.Random(42)
    for _ in range(40):
        c = random_unimodular_cone(rng, max_rank=4)
        assert sorted(dual_cone(c).rays) == dual_rays_brute(c)
    for n in (1, 2, 3):
        assert sorted(dual_cone(model_cone(n)).rays) == dual_rays_brute(model_cone(n))


def test_duality_involution_small():
    rng = random.Random(7)
    for _ in range(40):
        c = random_unimodular_cone(rng, max_rank=5)
        assert dual_cone(dual_cone(c)) == c


def test_dual_pairing_definition():
    rng = random.Random(11)
    for _ in range(20):
        c = random_unimodular_cone(rng, max_rank=4)
        d = dual_cone(c)
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(c.rank))
            in_dual = all(sum(a * b for a, b in zip(v, r)) >= 0 for r in c.rays)
            assert d.contains(v) == in_dual


# -- greedy decomposition in the dual model cone ------------------------


def test_greedy_examples():
    assert greedy_decompose((1, 1, -1)) == [0, 0, 0, 1]
    assert greedy_decompose((2, 1, -1)) == [1, 0, 0, 1]
    assert greedy_decompose((1, 0, -1)) is None
    assert greedy_decompose((3, 2, 5)) == [3, 2, 5, 0]


def test_greedy_exhaustive_small():
    for n in (1, 2, 3):
        gens = dual_generators(n)
        dual = dual_cone(model_cone(n))
        points = [(), ]
        grid = range(-3, 4)
        import itertools as it
        for v in it.product(grid, repeat=n + 1):
            coeffs = greedy_decompose(v)
            if dual.contains(v):
                assert coeffs is not None, v
                acc = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                            for i in range(n + 1))
                assert acc == v
                assert all(c >= 0 for c in coeffs)
            else:
                assert coeffs is None, v


# -- smoothness ---------------------------------------------------------


def test_is_smooth_examples():
    assert is_smooth(sigma_subcone(2, 1))
    assert is_smooth(sigma_subcone(2, 2))
    assert not is_smooth(model_cone(2))
    assert not is_smooth(Cone([(1, 1), (1, -1)]))          # index 2 sublattice
    assert is_smooth(orthant(4))


def smith_smooth(c):
    """The Smith-form criterion: one invariant factor per ray, all 1."""
    factors = invariant_factors(c.rays)
    return len(factors) == len(c.rays) and all(f == 1 for f in factors)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 6), st.sampled_from([2, 3]))
def test_is_smooth_agrees_with_the_smith_form(seed, rank, index):
    rng = random.Random(seed)
    smooth = random_unimodular_cone(rng, rank=rank)
    assert is_smooth(smooth) and smith_smooth(smooth)
    if rank == 1:
        return  # the only primitive rays are ±1
    # move the first ray to index * r_0 + sum_j c_j r_j: still primitive,
    # since gcd(index, c) = 1, and the ray matrix now has |det| = index
    first, *rest = smooth.rays
    coeffs = [rng.randint(-2, 2) for _ in rest]
    if math.gcd(index, *coeffs) != 1:
        coeffs[0] = 1
    moved_ray = functools.reduce(vadd, (vscale(c, r) for c, r in zip(coeffs, rest)),
                                 vscale(index, first))
    moved = Cone([moved_ray, *rest])
    assert len(moved.rays) == rank and math.prod(invariant_factors(moved.rays)) == index
    assert not is_smooth(moved) and not smith_smooth(moved)


def test_is_smooth_agrees_with_the_smith_form_on_non_simplicial_cones():
    rng = random.Random(3)
    cones = [model_cone(n) for n in range(1, 7)]
    cones += [dual_cone(model_cone(n)) for n in range(2, 7)]
    cones += [Cone(redundant_generators(rng, rank, count))
              for rank, count in [(2, 4), (3, 5), (3, 6), (4, 6)] for _ in range(5)]
    for c in cones:
        assert is_smooth(c) == smith_smooth(c), c
    assert not any(is_smooth(model_cone(n)) for n in range(2, 7))


# -- the model cone and its subdivision ---------------------------------


def test_model_cone_rays():
    c = model_cone(2)
    assert set(c.rays) == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert c.rank == 3


def test_model_cone_n1_equals_sigma1():
    assert model_cone(1) == sigma_subcone(1, 1)
    assert len(resolution_fan(1)) == 1


def test_resolution_fan_n2():
    fan = resolution_fan(2)
    ray_sets = [set(c.rays) for c in fan]
    assert ray_sets == [
        {(1, 0, 1), (1, 0, 0), (0, 1, 0)},
        {(1, 0, 1), (0, 1, 1), (0, 1, 0)},
    ]


def test_resolution_fan_smooth():
    for n in range(1, 6):
        fan = resolution_fan(n)
        assert len(fan) == n
        assert all(is_smooth(c) for c in fan), n


def test_sigma_subcone_validation():
    with pytest.raises(ValueError):
        sigma_subcone(3, 0)
    with pytest.raises(ValueError):
        sigma_subcone(3, 4)
    with pytest.raises(ValueError):
        model_cone(0)


def assert_refused_as_a_fan(a, b):
    """The package's check of the fan axiom refuses the cones a and b:
    certifying them against a parent holding both fails."""
    assert not verify_partition(Fan([a, b]), Cone(a.rays + b.rays))


def test_fan_rejects_non_face_intersection():
    a = Cone([(1, 0), (1, 1)])
    b = Cone([(2, 1), (0, 1)])
    assert not _common_face(a, b)
    assert_refused_as_a_fan(a, b)


@pytest.mark.parametrize("a, b", [
    # they meet in cone(s1, s3), a diagonal of a's square facet x4 >= 0,
    # which that facet separates from b's other rays
    (Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 1, 1)]),
     Cone([(1, 0, 1, 0), (-1, 0, 1, 0), (0, 0, 1, -1), (0, 1, 1, -1)])),
    # they meet in the ray (1, 1, 0) inside the orthant's facet z >= 0
    (Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
     Cone([(1, 1, 0), (1, 0, -1), (0, 1, -1)])),
], ids=["diagonal-of-a-facet", "ray-inside-a-facet"])
def test_separated_face_refuses_a_facet_that_meets_more_than_a_face(a, b):
    assert not _common_face(a, b)
    assert_refused_as_a_fan(a, b)


def test_separated_face_holds_on_every_slab_pair():
    for n in range(1, 11):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert _common_face(sigma_subcone(n, i), sigma_subcone(n, j)), (n, i, j)


def test_fan_accepts_a_pair_with_no_shared_ray():
    a, b = Cone([(1, 0), (1, 1)]), Cone([(-1, 0), (-1, 1)])
    assert _common_face(a, b)


def test_slab_fan_axiom_runs_no_double_description(monkeypatch, cold_caches):
    # the partition certificate proves the fan axiom, so `Fan` pairs nothing
    slabs = [sigma_subcone(12, k) for k in range(1, 13)]
    for module in (fans, toriclat):
        monkeypatch.setattr(module, "dot", None)  # any pairing would raise
        monkeypatch.setattr(module, "extreme_rays", None)
    assert len(Fan(slabs)) == 12


def test_slab_fan_checks_run_no_smith_form(monkeypatch, cold_caches):
    # unimodularity is read off the stored incidence; the Smith form is
    # left to the failure witness and the tests' oracle
    smith = _intmat.invariant_factors

    def refuse(rows):
        raise AssertionError("Smith normal form computed")

    for name, module in list(sys.modules.items()):
        if name == "sncdegen" or name.startswith("sncdegen."):
            for key, value in list(vars(module).items()):
                if value is smith:
                    monkeypatch.setattr(module, key, refuse)
    for n in range(1, 13):
        # fresh cones, whose smoothness no earlier test has cached
        fan = Fan([Cone(c.rays) for c in resolution_fan.__wrapped__(n)])
        direction = unit_vector(n + 1, n)
        assert semistable_fiber_check(fan, direction).snc, n
        assert fiber_class(fan, direction) == slab_orbit_class_closed_form(n, fiber=True), n


def permuted_slab_fans(n):
    """The slab fan of rank n+1 with x_1..x_n permuted, for each
    permutation, as a set of cones."""
    return {frozenset(Cone([(*(r[i] for i in perm), r[n]) for r in c.rays])
                      for c in resolution_fan(n))
            for perm in itertools.permutations(range(n))}


def test_partition_certificate_implies_the_fan_axiom():
    # mixtures of permuted slab fans: at n = 3 every set of at most 4
    # cones, at n = 4 the 24 permuted fans and 2,000 seeded sets of 4.
    # Whenever the certificate passes, every pair meets in a common face.
    rng = random.Random(22)
    fans4 = permuted_slab_fans(4)
    cones3, cones4 = (sorted(frozenset().union(*fans), key=lambda c: c.rays)
                      for fans in (permuted_slab_fans(3), fans4))
    assert (len(cones3), len(cones4)) == (12, 32)
    mixtures = {3: [sub for size in range(1, 5) for sub in itertools.combinations(cones3, size)],
                4: [*map(tuple, fans4), *(rng.sample(cones4, 4) for _ in range(2000))]}
    meets = functools.lru_cache(maxsize=None)(_common_face)
    outcomes = set()
    for n, sets in mixtures.items():
        parent = model_cone(n)
        for cones in sets:
            certified = _partition_failure(Fan(cones), parent) is None
            fan_axiom = all(meets(a, b) for a, b in itertools.combinations(cones, 2))
            assert fan_axiom or not certified, cones
            outcomes.add((n, certified, fan_axiom))
    assert {(3, True, True), (3, False, False), (4, True, True), (4, False, False)} <= outcomes


def test_fan_rejects_mixed_rank():
    with pytest.raises(ValueError):
        Fan([orthant(2), orthant(3)])
    with pytest.raises(ValueError):
        Fan([])


def test_fan_accepts_disjoint_halves():
    a = Cone([(1, 0), (0, 1)])
    b = Cone([(-1, 0), (0, -1)])
    fan = Fan([a, b])  # they meet only in the origin
    assert len(fan) == 2


def test_face_of_against_facet_oracle():
    # every ray subset of small random cones, redundant generators dropped
    rng = random.Random(5)
    cones = [Cone(redundant_generators(rng, rank, count))
             for rank, count in [(2, 4), (3, 5), (3, 6), (4, 5)] for _ in range(6)]
    cones += [model_cone(3), sigma_subcone(3, 2), orthant(4)]
    for c in cones:
        assert not _face_of(c, c.rays[:1] + (tuple(map(sum, zip(*c.rays))),))  # not a ray
        faces = faces_via_facets(c)
        for size in range(len(c.rays) + 1):
            for sub in itertools.combinations(c.rays, size):
                assert _face_of(c, sub) == (frozenset(sub) in faces), (c, sub)


def test_face_tests_read_the_stored_incidence(monkeypatch, cold_caches):
    fan, parent = resolution_fan(4), model_cone(4)
    monkeypatch.setattr(toriclat, "dot", None)  # any dot product would raise
    assert _unmatched_wall(fan, parent) is None
    assert all(_face_of(c, c.rays[:2]) for c in fan)


def test_fan_rays_sorted_dedup():
    fan = resolution_fan(3)
    rays = fan.rays()
    assert rays == tuple(sorted(set(rays)))
    assert len(rays) == 6  # e1..e3, f1..f3


# -- partition certification --------------------------------------------


def test_partition_model_n2():
    assert verify_partition(resolution_fan(2), model_cone(2), bound=6)


def test_partition_missing_cone_fails():
    partial = Fan([sigma_subcone(2, 1)])
    assert not verify_partition(partial, model_cone(2), bound=6)


def test_partition_model_n4():
    assert verify_partition(resolution_fan(4), model_cone(4), bound=4)


def test_partition_wrong_parent_fails():
    # sigma(2) sits inside the orthant but does not fill it: e3 is missed
    assert not verify_partition(resolution_fan(2), orthant(3), bound=2)


def test_partition_negative_coordinates():
    wedge = Cone([(1, 1), (-1, 1)])  # y >= |x|, needs the signed sweep
    left = Cone([(-1, 1), (0, 1)])
    right = Cone([(0, 1), (1, 1)])
    assert verify_partition(Fan([left, right]), wedge, bound=3)
    assert not verify_partition(Fan([right]), wedge, bound=3)


def test_partition_validation():
    with pytest.raises(ValueError):
        verify_partition(resolution_fan(2), model_cone(2), bound=-1)


def drop_one_slab_fans(n):
    """(k, the slab fan of rank n+1 without sigma_k) for k = 1..n, n >= 2."""
    for k in range(1, n + 1):
        yield k, Fan([sigma_subcone(n, j) for j in range(1, n + 1) if j != k])


def slab_walls(n, j):
    """Both normals of the wall x_{n+1} = x_1 + ... + x_j between sigma_j
    and sigma_{j+1}, as they appear in a witness."""
    normal = [1] * j + [0] * (n - j) + [-1]
    return {str(normal), str([-x for x in normal])}


def test_partition_rejects_every_drop_one_slab_fan():
    for n in range(2, 9):
        for k, fan in drop_one_slab_fans(n):
            assert not verify_partition(fan, model_cone(n)), (n, k)
            witness = _partition_failure(fan, model_cone(n))
            assert witness.startswith("unmatched wall"), (n, k, witness)
            assert witness.endswith("1 maximal cone(s) on its side, 0 across it")
            # the open wall is one that sigma_k shared with a neighbour
            normals = slab_walls(n, k - 1) | slab_walls(n, k)
            assert any(f"normal {v}:" in witness for v in normals), (n, k, witness)


def test_partition_rejects_doubled_slab():
    # n=1: the one slab is the whole model cone, so every wall lies on the
    # boundary and only the generic point sees the double cover
    fan = Fan([sigma_subcone(1, 1)] * 2)
    assert not verify_partition(fan, model_cone(1))
    assert "is covered 2 times" in _partition_failure(fan, model_cone(1))
    # n>=2: a wall of the doubled slab is a facet of three maximal cones
    for n in range(2, 6):
        for k in range(1, n + 1):
            fan = Fan(list(resolution_fan(n)) + [sigma_subcone(n, k)])
            assert not verify_partition(fan, model_cone(n)), (n, k)
            witness = _partition_failure(fan, model_cone(n))
            assert witness.startswith("unmatched wall"), (n, k, witness)
            assert witness.endswith("1 maximal cone(s) on its side, 2 across it")


def test_partition_rejects_orthant_parent():
    # the slabs lie in the orthant, but the wall x_{n+1} = x_1 + ... + x_n
    # of sigma_n is not on the orthant's boundary
    for n in range(1, 6):
        witness = _partition_failure(resolution_fan(n), orthant(n + 1))
        assert witness.startswith("unmatched wall"), (n, witness)
        assert f"normal {[1] * n + [-1]}:" in witness
        assert witness.endswith("0 across it")


def test_partition_names_ray_outside_parent():
    witness = _partition_failure(resolution_fan(2), sigma_subcone(2, 1))
    assert witness.startswith("ray [0, 1, 1] of Cone(")
    assert witness.endswith("lies outside the parent")


def test_slab_facets_are_the_slab_inequalities():
    # x_i >= 0 for i != k, x_{n+1} >= x_1 + ... + x_{k-1} and
    # x_{n+1} <= x_1 + ... + x_k; x_k >= 0 is implied, so it is no facet
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = [E(n + 1, i) for i in range(n) if i != k - 1]
            expected.append(tuple([-1] * (k - 1) + [0] * (n - k + 1) + [1]))
            expected.append(tuple([1] * k + [0] * (n - k) + [-1]))
            assert sigma_subcone(n, k).inequalities == tuple(sorted(expected)), (n, k)


def test_generic_point_is_interior_and_off_every_wall():
    for n in range(1, 7):
        fan, parent = resolution_fan(n), model_cone(n)
        p = _generic_point(fan, parent)
        assert all(dot(a, p) > 0 for a in parent.inequalities)
        assert all(dot(a, p) != 0 for c in fan for a in c.inequalities)
        assert sum(c.contains(p) for c in fan) == 1


def test_generic_point_moves_off_a_wall():
    # with weights 1, 2 the point (2, 1) lies on the wall through (2, 1);
    # the next weights 1, 3 give (3, 1)
    fan = Fan([Cone([(1, 0), (2, 1)]), Cone([(2, 1), (0, 1)])])
    assert _generic_point(fan, orthant(2)) == (3, 1)
    assert verify_partition(fan, orthant(2))


def test_partition_agrees_with_sweep_oracle():
    for n in range(1, 5):
        parent = model_cone(n)
        fans = [resolution_fan(n), Fan(list(resolution_fan(n)) * 2)]
        if n > 1:  # at n=1 dropping the one slab leaves no fan
            fans += [fan for _, fan in drop_one_slab_fans(n)]
        for fan in fans:
            assert verify_partition(fan, parent) == partition_sweep_oracle(fan, parent, 2)
        assert verify_partition(resolution_fan(n), parent)


def test_opt_in_sweep_finds_uncovered_point():
    for n in range(2, 5):
        parent = model_cone(n)
        for k, fan in drop_one_slab_fans(n):
            p = _sweep_uncovered(fan, parent, _sweep_box(parent, 2))
            assert p is not None and parent.contains(p), (n, k)
            assert not any(c.contains(p) for c in fan), (n, k)
        assert _sweep_uncovered(resolution_fan(n), parent, _sweep_box(parent, 3)) is None


def test_opt_in_sweep_catches_what_walls_miss(monkeypatch, cold_caches):
    # with wall matching disabled, a dropped slab that the generic point
    # misses passes at bound 0 and is caught by the sweep at bound 2
    monkeypatch.setattr(toriclat, "_unmatched_wall", lambda f, parent: None)
    parent = model_cone(3)
    caught = 0
    for k, fan in drop_one_slab_fans(3):
        if _partition_failure(fan, parent) is None:
            witness = _partition_failure(fan, parent, bound=2)
            assert witness.startswith("lattice point") and "uncovered" in witness, k
            caught += 1
    assert caught


def test_sweep_box_cap():
    assert (9 + 1) ** 5 == MAX_SWEEP_POINTS
    assert _sweep_box(model_cone(4), 9) == range(0, 10)
    with pytest.raises(ValueError, match="above the cap"):
        _sweep_box(model_cone(4), 10)
    with pytest.raises(ValueError, match="above the cap"):
        verify_partition(resolution_fan(8), model_cone(8), bound=4)
    assert _sweep_box(Cone([(1, 1), (-1, 1)]), 3) == range(-3, 4)
    assert _sweep_box(model_cone(8), 0) == range(0, 1)


def test_import_does_not_load_numpy():
    subprocess.run(
        [sys.executable, "-c", "import sncdegen, sys; assert 'numpy' not in sys.modules"],
        env=src_env(), check=True)


# -- semistability ------------------------------------------------------


def test_semistable_resolution_n3():
    check = semistable_fiber_check(resolution_fan(3), E(4, 3))
    assert (check.reduced, check.smooth, check.snc) == (True, True, True)


def test_semistable_singular_model():
    fan = Fan([model_cone(2)])
    check = semistable_fiber_check(fan, E(3, 2))
    assert check.reduced and not check.smooth and not check.snc


def test_semistable_doubled_direction():
    check = semistable_fiber_check(resolution_fan(2), (0, 0, 2))
    assert not check.reduced and not check.snc


def test_semistable_validation():
    with pytest.raises(ValueError):
        semistable_fiber_check(resolution_fan(2), (1, 0))


def test_fiber_rays_are_the_rays_pairing_positively():
    # the components of the central fiber: the rays f_i = e_i + e_{n+1} of the
    # slab fan, whatever the multiplicity the direction gives them
    fan = resolution_fan(3)
    assert fiber_rays(fan, E(4, 3)) == ((0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1))
    assert fiber_rays(fan, (0, 0, 0, 2)) == fiber_rays(fan, E(4, 3))
    assert fiber_rays(fan, (0, 0, 0, 0)) == ()
    with pytest.raises(ValueError):
        fiber_rays(fan, (1, 0))


def test_fiber_check_json():
    check = semistable_fiber_check(resolution_fan(2), E(3, 2))
    assert check.to_json_dict() == {"reduced": True, "smooth": True, "snc": True}


# -- orbit-cone class counting ------------------------------------------


def test_toric_class_orthant():
    assert toric_class(Fan([orthant(2)])) == L**2
    assert toric_class(Fan([orthant(5)])) == L**5


def test_toric_class_resolution_n2():
    assert toric_class(resolution_fan(2)) == L**3 + L**2


def test_toric_class_against_oracle():
    for n in range(1, 9):
        fan = resolution_fan(n)
        assert toric_class(fan) == orbit_class_oracle(fan), n


def test_toric_class_counts_max_cones_at_one():
    for n in (1, 2, 3, 4, 5):
        fan = resolution_fan(n)
        cls = toric_class(fan)
        assert cls.coeffs[-1] == 1 and cls.degree == n + 1
        assert cls.evaluate(1) == len(fan)


def test_fiber_class_resolution_n2():
    assert fiber_class(resolution_fan(2), E(3, 2)) == 2 * L**2


def test_fiber_class_mod_L_matches_singular_model():
    resolved = fiber_class(resolution_fan(2), E(3, 2))
    singular = L * (2 * L - 1)  # {z1*z2 = 0} x A^1_y, by scissor relations
    assert reduce_mod_L(resolved) == reduce_mod_L(singular) == 0


def test_fiber_class_against_oracle():
    for n in range(1, 9):
        fan = resolution_fan(n)
        d = E(n + 1, n)
        assert fiber_class(fan, d) == orbit_class_oracle(fan, d), n


def slab_fan(n, order):
    return Fan([sigma_subcone(n, k) for k in order])


def fiber_directions(n):
    """e_{n+1}*, the model's fiber; e_1*; and (1, ..., 1, 0)."""
    return [E(n + 1, n), E(n + 1, 0), tuple([1] * n + [0])]


def test_face_counts_chain_matches_enumeration():
    for n in range(1, 11):
        fan = resolution_fan(n)
        table = fans._face_table(fan, (0,) * (n + 1))
        assert table == face_table_oracle(fan, (0,) * (n + 1)), n
        f_vector = [sum(row) for row in table]
        assert f_vector[0] == 1 and f_vector[n + 1] == n, n
        for d in fiber_directions(n):
            table = fans._face_table(fan, d)
            assert table == face_table_oracle(fan, d), (n, d)
            assert [sum(row) for row in table] == f_vector, (n, d)
            assert sum(table[0][1:]) == 0, (n, d)


def test_face_table_against_oracle_on_slab_fans():
    for n in range(1, 11):
        fan = resolution_fan(n)
        wide = (2, *[1] * (n - 1), -3)  # pairs 2 with e_1, -1 with f_1
        assert {2, -1} <= {dot(wide, r) for r in fan.rays()}
        for d in [*fiber_directions(n), wide]:
            assert fans._face_table(fan, d) == face_table_oracle(fan, d), (n, d)


def consecutive_face_table(fan, direction):
    """sum_k w(S_k) - sum_k w(S_k ∩ S_{k+1}) over the ray sets in the fan's
    order, w(S) the subsets of S by size and by fiber rays: the face table
    when the cones holding any one face are consecutive, and only then."""
    rank = fan.rank
    table = [[0] * (rank + 1) for _ in range(rank + 1)]
    sets = [frozenset(c.rays) for c in fan]
    for sign, family in ((1, sets), (-1, [a & b for a, b in zip(sets, sets[1:])])):
        for rays in family:
            p = sum(dot(direction, r) > 0 for r in rays)
            for h, i in itertools.product(range(p + 1), range(len(rays) - p + 1)):
                table[h + i][h] += sign * math.comb(p, h) * math.comb(len(rays) - p, i)
    return table


@pytest.mark.parametrize("order, chain", [
    ((5, 4, 3, 2, 1), True),        # reversed slabs
    ((1, 3, 2, 4, 5), False),       # sigma_1 ∩ sigma_2 is not in sigma_3
    ((1, 1, 2, 3, 4, 5), True),     # a slab twice, adjacent
    ((1, 2, 1, 3, 4, 5), False),    # a slab twice, not adjacent
])
def test_orbit_counting_cone_orders_against_oracle(order, chain):
    # every order counts the same faces; on the chain orders the table is
    # also the sum over consecutive intersections alone, and on no other
    fan = slab_fan(5, order)
    assert toric_class(fan) == orbit_class_oracle(fan)
    for d in fiber_directions(5):
        assert fiber_class(fan, d) == orbit_class_oracle(fan, d), d
        table = fans._face_table(fan, d)
        assert table == face_table_oracle(fan, d), d
        assert (consecutive_face_table(fan, d) == table) is chain, d


def star_subdivision(fan, face, centre=None):
    """The star subdivision of a simplicial fan at the cone on the rays
    `face`: each maximal cone holding them splits into one piece per ray of
    the face, that ray exchanged for v, in the fan's order.  v is `centre`,
    a point of the face's relative interior, or else the sum of its rays."""
    v, cones = centre or functools.reduce(vadd, face), []
    for c in fan:
        split = set(face) <= set(c.rays)
        cones += [Cone([v if r == out else r for r in c.rays]) for out in face] if split else [c]
    return Fan(cones)


def slab_star(k):
    """The slab fan of depth k, star-subdivided at v = a + b, a the first
    ray in sorted order that pairs 0 with e_{k+1}* and b the last that
    pairs 1: each slab holding both splits in two, one of a, b exchanged
    for v.  The pieces alternate, so the cones holding b are not
    consecutive."""
    fan, d = resolution_fan(k), E(k + 1, k)
    rays = sorted(fan.rays())
    a = next(r for r in rays if dot(d, r) == 0)
    b = [r for r in rays if dot(d, r) == 1][-1]
    return star_subdivision(fan, (a, b))


#: The fiber classes of `slab_star(k)` in the direction e_{k+1}*, k = 2..4.
STAR_FIBER_CLASSES = {2: L + 3 * L**2, 3: 2 * L**2 + 4 * L**3, 4: 3 * L**3 + 5 * L**4}


@pytest.mark.parametrize("k", range(2, 7))
def test_face_table_against_oracle_on_star_subdivisions(k):
    fan = slab_star(k)
    assert len(fan) == 2 * k and all(is_smooth(c) for c in fan)
    for d in [(0,) * (k + 1), *fiber_directions(k)]:
        assert fans._face_table(fan, d) == face_table_oracle(fan, d), d
    fiber = fiber_class(fan, E(k + 1, k))
    assert fiber == orbit_class_oracle(fan, E(k + 1, k))
    if k in STAR_FIBER_CLASSES:
        assert fiber == STAR_FIBER_CLASSES[k]


@st.composite
def refined_slab_fans(draw, top=5, weighted=False):
    """(k, fan): the slab fan of a depth k = 2..top after one to three star
    subdivisions, each at a face of at least two rays of some maximal cone.
    Unweighted, these are smooth fans that are no chains.  With `weighted`,
    a subdivision may take the centre primitive(2a + b + ...), a the face's
    first ray: in a unimodular cone the piece that exchanges a for it has
    determinant 2, the other pieces 1."""
    k = draw(st.integers(2, top))
    fan = resolution_fan(k)
    for _ in range(draw(st.integers(1, 3))):
        rays = draw(st.sampled_from(fan.max_cones)).rays
        face = draw(st.lists(st.sampled_from(rays), min_size=2, unique=True))
        centre = (primitive(functools.reduce(vadd, face, face[0]))
                  if weighted and draw(st.booleans()) else None)
        fan = star_subdivision(fan, face, centre)
    return k, fan


@settings(max_examples=200, deadline=None, derandomize=True)
@given(refined_slab_fans())
def test_face_table_against_oracle_on_random_star_subdivisions(case):
    k, fan = case
    assert all(is_smooth(c) for c in fan)
    for d in [(0,) * (k + 1), E(k + 1, k), E(k + 1, 0)]:
        assert fans._face_table(fan, d) == face_table_oracle(fan, d), d


@settings(max_examples=50, deadline=None, derandomize=True)
@given(refined_slab_fans(top=4))
def test_fiber_class_against_oracle_on_random_star_subdivisions(case):
    k, fan = case
    for d in [E(k + 1, k), E(k + 1, 0)]:
        assert fiber_class(fan, d) == orbit_class_oracle(fan, d), d


@settings(max_examples=100, deadline=None, derandomize=True)
@given(refined_slab_fans(top=4, weighted=True))
def test_unimodular_row_agrees_with_the_smith_form_on_random_refinements(case):
    k, fan = case
    unimodular, *_ = certify_local(fan, model_cone(k), E(k + 1, k)).rows
    assert unimodular.passed == all(smith_smooth(c) for c in fan)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(refined_slab_fans(top=5, weighted=True), st.data())
def test_partition_row_against_the_sweep_on_random_refinements(case, data):
    # a refinement partitions the model cone; without one of its maximal
    # cones it does not, and that cone's ray sum, interior to it, lies in
    # no cone that remains
    k, fan = case
    parent, d = model_cone(k), E(k + 1, k)
    assert certify_local(fan, parent, d).rows[1].passed
    assert partition_sweep_oracle(fan, parent, 2)
    dropped = data.draw(st.sampled_from(fan.max_cones))
    rest = [c for c in fan if c != dropped]
    assert not certify_local(Fan(rest), parent, d).rows[1].passed
    point = functools.reduce(vadd, dropped.rays)
    coordinates = [simplicial_coordinates(c.rays, point) for c in rest]
    assert not any(cs is not None and min(cs) >= 0 for cs in coordinates)


@pytest.mark.parametrize("k", range(8, 17))
def test_orbit_counts_of_large_star_subdivisions(k):
    # past the oracle's reach: at L = 1 only the maximal cones count, at
    # L = 0 the alternating sum of the f-vector of a subdivided pointed
    # cone, which is 0
    fan = slab_star(k)
    d = E(k + 1, k)
    toric = toric_class(fan)
    assert toric.evaluate(1) == len(fan) and toric.evaluate(0) == 0
    assert fiber_class(fan, d).evaluate(1) == sum(
        any(dot(d, r) > 0 for r in c.rays) for c in fan)


def test_orbit_classes_at_large_n_against_closed_form():
    # past the oracle's reach: it would enumerate about n * 2^n faces here
    for n in (16, 20):
        fan = resolution_fan(n)
        toric = toric_class(fan)
        fiber = fiber_class(fan, E(n + 1, n))
        assert toric == slab_orbit_class_closed_form(n), n
        assert fiber == slab_orbit_class_closed_form(n, fiber=True), n
        assert toric.evaluate(1) == fiber.evaluate(1) == n


def test_slab_closed_form_matches_facet_oracle():
    for n in range(1, 6):
        fan = resolution_fan(n)
        assert slab_orbit_class_closed_form(n) == orbit_class_oracle(fan), n
        assert (slab_orbit_class_closed_form(n, fiber=True)
                == orbit_class_oracle(fan, E(n + 1, n))), n


def test_orbit_counting_rejects_singular_fan():
    fan = Fan([model_cone(2)])
    with pytest.raises(ValueError):
        toric_class(fan)
    with pytest.raises(ValueError):
        fiber_class(fan, E(3, 2))
    with pytest.raises(ValueError):
        fiber_class(resolution_fan(2), (1, 0))


def test_scissor_oracle_consistency():
    for k in range(1, 11):
        assert L**k - (L - 1) ** k == affine_union_class_oracle(k), k


def test_orbit_sum_is_the_power_per_term_formula():
    # Horner's rule against sum_j count[j] * (L-1)^{rank-j}, one power per term
    rng = random.Random(28)
    for rank in range(15):
        count = [rng.randint(-60, 60) for _ in range(rank + 1)]
        assert _orbit_sum(count) == sum(
            (c * (L - 1) ** (rank - j) for j, c in enumerate(count)), GrothClass()), count


# -- restriction to a face ----------------------------------------------


def test_restriction_is_the_slab_certificate_of_each_stratum():
    # the cones of the depth-K slab fan in x_{k+1} = ... = x_K = 0, written in
    # x_1..x_k, x_{K+1}, are the slab fan of depth k: the same rays, and the
    # projected opposite facets are the facets a double description finds
    for K in range(2, 10):
        top = toriclat.slab_certificate(K)
        for k in range(1, K):
            restricted, slab = restrict_certificate(top, k), toriclat.slab_certificate(k)
            assert [(c.rays, c.inequalities, c._incidence) for c in restricted.fan] == [
                (c.rays, c.inequalities, c._incidence) for c in slab.fan], (K, k)
            if K <= 6:
                assert [Cone(c.rays).inequalities for c in restricted.fan] == [
                    c.inequalities for c in restricted.fan], (K, k)
            assert restricted.direction == slab.direction == unit(k + 1, k)
            assert restricted.fiber == slab.fiber
            assert restricted.rows[0] == slab.rows[0] and restricted.rows[2] == slab.rows[2]
            assert restricted.rows[1].passed, (K, k)
            assert (fiber_class(restricted.fan, restricted.direction)
                    == fiber_class(slab.fan, slab.direction)), (K, k)


def test_restriction_names_its_face():
    top = toriclat.slab_certificate(6)
    assert [restrict_certificate(top, k).rows[1].detail for k in range(1, 6)] == [
        "restricted from k=6 to x2=...=x6=0", "restricted from k=6 to x3=...=x6=0",
        "restricted from k=6 to x4=...=x6=0", "restricted from k=6 to x5=x6=0",
        "restricted from k=6 to x6=0"]


def test_restriction_runs_no_double_description_and_no_partition(monkeypatch, cold_caches):
    top = certify_local(resolution_fan(7), model_cone(7), unit(8, 7))  # not cached yet
    calls = []
    for module in (fans, toriclat):
        monkeypatch.setattr(module, "extreme_rays", lambda *args: calls.append(args))
    monkeypatch.setattr(toriclat, "verify_partition", lambda *args: calls.append(args))
    assert all(restrict_certificate(top, k).rows[1].passed for k in range(1, 7))
    assert calls == []


def test_restriction_is_cached_until_the_certificates_are_cleared(cold_caches):
    top = toriclat.slab_certificate(4)
    assert restrict_certificate(top, 2) is restrict_certificate(top, 2)
    clear_caches()
    assert restrict_certificate.cache_info().currsize == 0


def test_restriction_needs_a_lower_stratum():
    top = toriclat.slab_certificate(3)
    for k in (0, 3, 4):
        with pytest.raises(ValueError, match="need 1 <= k < 3"):
            restrict_certificate(top, k)


def star_with_determinant_2(K):
    """The slab fan of depth K with sigma_1 split at f_1 + 2e_1 + e_2 + ...
    + e_K: one piece has determinant 2, the fan still partitions the
    model cone and its fiber stays reduced."""
    sigma_1, *rest = resolution_fan(K)
    w = (3,) + (1,) * K
    return Fan([*(Cone([w if r == out else r for r in sigma_1.rays]) for out in sigma_1.rays),
                *rest])


@pytest.mark.parametrize("fan, failed", [
    (lambda K: Fan(resolution_fan(K).max_cones[:-1]), "partition of model cone"),
    (lambda K: Fan([model_cone(K)]), "cones unimodular"),
    (star_with_determinant_2, "cones unimodular"),
], ids=["dropped-slab", "model-cone", "determinant-2"])
def test_a_failed_top_certificate_flips_every_row_derived_from_it(fan, failed):
    # a top whose cones are not unimodular or do not partition the model cone
    # restricts to no stratum: each derived row fails on the premise, the
    # top's row named with its depth
    K = 4
    top = certify_local(fan(K), model_cone(K), unit(K + 1, K))
    assert [row.name for row in top.rows if not row.passed][:1] == [failed]
    why = f"premise '{failed} at k={K}' fails"
    for k in range(1, K):
        restricted = restrict_certificate(top, k)
        assert restricted.fan is None and not restricted.fiber.smooth
        assert [(row.passed, row.detail) for row in restricted.rows] == [(False, why)] * 3


def test_a_restriction_of_a_failed_top_restricts_again():
    # a failed top restricts to no fan; its depth is read off the direction
    top = certify_local(Fan([model_cone(3)]), model_cone(3), unit(4, 3))
    twice = restrict_certificate(restrict_certificate(top, 2), 1)
    why = "premise 'cones unimodular at k=2' fails"
    assert twice.fan is None and twice.direction == (0, 1)
    assert [(row.passed, row.detail) for row in twice.rows] == [(False, why)] * 3


def test_a_top_fiber_direction_reaches_every_derived_row():
    # 2e_{K+1}* restricts to 2e_{k+1}*, which pairs 2 with f_1..f_k: the
    # witness is the least of them, f_k
    K = 4
    top = certify_local(resolution_fan(K), model_cone(K), (0,) * K + (2,))
    for k in range(1, K):
        restricted = restrict_certificate(top, k)
        assert restricted.direction == (0,) * k + (2,)
        assert [row.passed for row in restricted.rows] == [True, True, False], k
        assert restricted.rows[2].detail.endswith(
            f"ray {list(unit(k, k - 1) + (1,))} pairs 2 with the fiber direction"), k


def test_restriction_to_the_wrong_face_fails_with_its_witness():
    # the slab fan of depth 3 with x_3 and x_4 swapped, certified against the
    # swapped model cone in the swapped direction, passes every row; but its
    # cones in x_2 = x_3 = 0 are those of the face x_2 = x_4 = 0 of the slab
    # fan, whose rays are e_1 and e_3, not the model rays e_1 and f_1
    swap = lambda v: (v[0], v[1], v[3], v[2])
    top = certify_local(Fan([Cone(map(swap, c.rays)) for c in resolution_fan(3)]),
                        Cone(map(swap, model_cone(3).rays)), swap(unit(4, 3)))
    assert all(row.passed for row in top.rows)
    assert [restrict_certificate(top, k).rows[1] for k in (1, 2)] == [
        checks.CheckResult("partition of model cone", False,
                           "restricted from k=3 to x2=x3=0: ray [0, 1] is a ray "
                           "of the restricted fan only"),
        checks.CheckResult("partition of model cone", False,
                           "restricted from k=3 to x3=0: ray [0, 0, 1] is a ray "
                           "of the restricted fan only")]


# -- chart presentations ------------------------------------------------


def test_chart_relation_validation():
    z = Coordinate("z", (1, 0))
    w = Coordinate("w", (0, 1))
    p = Coordinate("p", (1, 1))
    chart = ChartPresentation((z, w, p), relation=((2,), (0, 1)))
    assert chart.render_relation() == "p = z*w"
    with pytest.raises(ValueError):
        ChartPresentation((z, w, p), relation=((2,), (0, 0)))
    with pytest.raises(ValueError):
        ChartPresentation((z, w, p), relation=((3,), (0, 1)))
    with pytest.raises(ValueError):
        ChartPresentation((), ((), ()))
    with pytest.raises(ValueError):
        ChartPresentation((z, Coordinate("bad", (1, 0, 0))), ((), ()))


def test_singular_model_chart():
    chart = singular_model_chart(2)
    assert [c.name for c in chart.coordinates] == ["z1", "z2", "t", "y"]
    assert chart.monomials() == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))
    assert chart.render_relation() == "t*y = z1*z2"
    assert chart.monomial_cone() == dual_cone(model_cone(2))


def test_blowup_charts_n2():
    u1, u2 = blowup_chart_sequence(2)
    assert [c.name for c in u1.coordinates] == ["t", "z1'", "z2", "y"]
    assert set(u1.monomials()) == {(0, 0, 1), (1, 0, -1), (0, 1, 0), (1, 1, -1)}
    assert u1.monomial_cone() == dual_cone(sigma_subcone(2, 1))
    assert u1.render_relation() == "y = z1'*z2"

    assert [c.name for c in u2.coordinates] == ["t1", "z1", "z2", "y"]
    assert (-1, 0, 1) in u2.monomials() and (1, 1, -1) in u2.monomials()
    assert u2.monomial_cone() == dual_cone(sigma_subcone(2, 2))
    assert u2.render_relation() == "t1*y = z2"


def test_blowup_charts_match_duals():
    for n in range(2, 7):
        charts = blowup_chart_sequence(n)
        assert len(charts) == n
        for k, chart in enumerate(charts, start=1):
            assert chart.monomial_cone() == dual_cone(sigma_subcone(n, k)), (n, k)
            # the solved form of the docstring of blowup_chart_sequence
            solved = (f"y = z{k}'" + "".join(f"*z{i}" for i in range(k + 1, n + 1))
                      if k < n else f"t{n - 1}*y = z{n}")
            assert chart.render_relation() == solved, (n, k)
            assert is_smooth(chart.monomial_cone()), (n, k)


def test_blowup_needs_n_at_least_2():
    with pytest.raises(ValueError):
        blowup_chart_sequence(1)
