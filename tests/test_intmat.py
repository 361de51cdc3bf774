"""Property tests for the fraction-free elimination in `_intmat.rref` and
the routines that read their answers off it.  Every expected value comes
from a route that shares no code with `rref`: Smith normal form
(`invariant_factors`), direct pairings or kernel enumeration
(`extreme_rays_brute`)."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import src_env
from oracles import extreme_rays_brute, random_unimodular_matrix
from sncdegen._intmat import (
    dot, extreme_rays, invariant_factors, mat_rank, primitive, rref)

ENTRIES = st.integers(-5, 5)
# Fixed examples, so a run is repeatable.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """Integer matrices up to 6 x 8, of any shape; rows repeated or scaled
    now and then so that rank-deficient inputs are common."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.integers(-2, 2))
            rows[i] = [c * a for a in rows[draw(st.integers(0, i - 1))]]
    return rows


def independent(rows):
    return len(invariant_factors(rows)) == len(rows)


@PROPERTY
@given(matrices())
def test_rank_is_the_number_of_invariant_factors(rows):
    assert mat_rank(rows) == len(rref(rows)[1]) == len(invariant_factors(rows))


@PROPERTY
@given(matrices())
def test_rref_rows_are_reduced_and_span_the_input(rows):
    reduced, pivots = rref(rows)
    assert len(reduced) == len(pivots)
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(reduced, pivots)):
        assert math.gcd(*row) == 1, row
        assert row[col] > 0, row
        assert all(a == 0 for a in row[:col]), row
        assert all(other[col] == 0 for k, other in enumerate(reduced) if k != i)
    # same row space: stacking the output under the input adds no rank
    rank = len(invariant_factors(rows))
    assert len(invariant_factors(rows + reduced)) == rank


def assert_rays_invert(base, rays):
    """base . ray = c e_j with c > 0, each j once."""
    m = len(base)
    assert len(rays) == m
    hit = []
    for ray in rays:
        assert math.gcd(*ray) == 1
        pairings = [dot(row, ray) for row in base]
        support = [j for j, x in enumerate(pairings) if x != 0]
        assert len(support) == 1 and pairings[support[0]] > 0, (base, ray, pairings)
        hit.append(support[0])
    assert sorted(hit) == list(range(m))


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_rays_of_a_unimodular_simplicial_cone(m, seed):
    base = random_unimodular_matrix(random.Random(seed), m)
    assert_rays_invert(base, [r for r, _ in extreme_rays(base, m)])


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(ENTRIES, min_size=m, max_size=m), min_size=m, max_size=m)))
def test_rays_of_a_simplicial_cone(base):
    assume(independent(base))
    assert_rays_invert(base, [r for r, _ in extreme_rays(base, len(base))])


@PROPERTY
@given(st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=m - 1, max_size=m - 1),
    st.lists(st.integers(-2, 2), min_size=m - 1, max_size=m - 1))))
def test_a_singular_square_system_is_refused(system):
    # a square system skips the choice of independent rows, so the inverse
    # that starts double description must notice the missing rank itself
    rows, coeffs = system
    last = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows) + 1)]
    base = rows + [last]
    assume(all(map(any, base)) and len({primitive(r) for r in base}) == len(base))
    with pytest.raises(ValueError, match="not pointed"):
        extreme_rays(base, len(base))


@st.composite
def pointed_systems(draw, max_rank=4, max_extra=4):
    """(rows, rank): up to rank + 4 nonzero rows of rank up to 4, spanning
    it; rows repeated or positively rescaled now and then, so that one
    primitive inequality often stands at several positions."""
    rank = draw(st.integers(1, max_rank))
    nrows = rank + draw(st.integers(0, max_extra))
    rows = [draw(st.lists(ENTRIES, min_size=rank, max_size=rank)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.integers(1, 3))
            rows[i] = [c * a for a in rows[draw(st.integers(0, i - 1))]]
    assume(all(any(row) for row in rows) and len(invariant_factors(rows)) == rank)
    return rows, rank


@PROPERTY
@given(pointed_systems())
def test_zero_sets_are_the_positions_pairing_to_zero(system):
    rows, rank = system
    found = extreme_rays(rows, rank)
    assert [r for r, _ in found] == extreme_rays_brute(rows, rank)
    for ray, zeros in found:
        assert zeros == sum(1 << i for i, row in enumerate(rows) if dot(row, ray) == 0), ray


def test_dot_refuses_a_length_mismatch():
    # map, like zip, would stop silently at the shorter vector
    for u, v in [((1, 2, 3), (1, 2)), ((), (1,)), ((4,), ())]:
        with pytest.raises(ValueError, match="length mismatch"):
            dot(u, v)
    assert dot((), ()) == 0 and dot((2, -3), (5, 7)) == -11


@PROPERTY
@given(st.lists(ENTRIES, min_size=1, max_size=8).filter(any), st.integers(1, 6))
def test_primitive_divides_out_the_content(v, c):
    scaled = [c * a for a in v]
    p = primitive(scaled)
    assert math.gcd(*p) == 1 and p == primitive(v)
    k = next(a // b for a, b in zip(scaled, p) if b)
    assert k > 0 and [k * b for b in p] == scaled


def test_primitive_keeps_signs_and_refuses_zero():
    assert primitive((-4, 6, 0)) == (-2, 3, 0)
    assert primitive([-3]) == (-1,)
    assert primitive((0, -5, 10)) == (0, -1, 2)
    for v in [(0, 0, 0), (0,), (), []]:
        with pytest.raises(ValueError):
            primitive(v)


def test_package_import_loads_no_fractions():
    code = "import sys, sncdegen, sncdegen.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
