"""Independent oracles used by the test suite.

Each function here derives its answer by a different route than the
library code it checks: faces are enumerated through facet-normal subsets
rather than generator subsets, extreme rays through exhaustive kernel
enumeration, random smooth cones through explicit unimodular row
operations, classes in Z[L] through point counts over finite fields
(a class is a polynomial in L, and evaluating it at L = p counts F_p
points), subset sizes mask by mask, and the closed arrangement formula term
by term in class arithmetic.  Deliberately slow and simple.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from math import comb
from typing import Sequence

from sncdegen._intmat import Vec, dot, primitive, vscale
from sncdegen.grothring import L, ONE, ZERO, proj_space_class
from sncdegen.fans import Cone


def extreme_rays_brute(ineqs: Sequence[Sequence[int]], rank: int) -> list[Vec]:
    """Independent oracle for extreme_rays: enumerate (rank-1)-subsets of the
    inequality rows and keep the one-dimensional kernels that satisfy the
    full system.  Exponential; for tests only.
    """
    rows = [primitive(a) for a in ineqs]
    if _rank(rows, rank) < rank:
        raise ValueError("inequality system is not pointed")
    found = set()
    for subset in itertools.combinations(range(len(rows)), rank - 1):
        sub = [rows[i] for i in subset]
        if _rank(sub, rank) != rank - 1:
            continue
        v = _kernel_vector(sub, rank)
        for cand in (v, vscale(-1, v)):
            if all(dot(a, cand) >= 0 for a in rows):
                found.add(primitive(cand))
    return sorted(found)


def _gauss_jordan(rows: Sequence[Sequence[int]], ncols: int):
    """Reduced row echelon form over Q of the first ncols columns, by
    Gauss-Jordan elimination in Fractions: (rows, pivot columns), each
    pivot scaled to 1.  The oracles' own elimination, independent of the
    library's fraction-free `rref`."""
    aug = [[Fraction(a) for a in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    return aug, pivots


def _rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank over Q of a matrix with ncols columns."""
    return len(_gauss_jordan(rows, ncols)[1])


def _kernel_vector(rows: Sequence[Sequence[int]], rank: int) -> Vec:
    """A nonzero integer vector in the kernel of a matrix of rank rank-1."""
    aug, pivots = _gauss_jordan(rows, rank)
    free = next(c for c in range(rank) if c not in pivots)
    sol = [Fraction(0)] * rank
    sol[free] = Fraction(1)
    for row_i, col in enumerate(pivots):
        sol[col] = -aug[row_i][free]
    denom = math.lcm(*(f.denominator for f in sol))
    return primitive(tuple(int(f * denom) for f in sol))


def dual_rays_brute(cone):
    """Extreme rays of the dual cone by (rank-1)-subset kernel enumeration."""
    return extreme_rays_brute(cone.rays, cone.rank)


def faces_via_facets(cone):
    """All faces of a full-dimensional cone, as frozensets of rays, derived
    from facet-normal subsets: a face is the set of rays on which some
    collection of facet normals vanishes simultaneously."""
    faces = set()
    facets = cone.inequalities
    for size in range(len(facets) + 1):
        for sub in itertools.combinations(facets, size):
            rays = frozenset(r for r in cone.rays
                             if all(dot(a, r) == 0 for a in sub))
            faces.add(rays)
    return faces


def fan_faces_via_facets(fan):
    faces = set()
    for c in fan:
        faces |= faces_via_facets(c)
    return faces


def orbit_class_oracle(fan, direction=None):
    """Toric (or fiber) class by facet-derived face enumeration, with face
    dimension computed by matrix rank rather than by counting generators."""
    total = ZERO
    for face in fan_faces_via_facets(fan):
        if direction is not None and not any(dot(direction, r) >= 1 for r in face):
            continue
        total = total + (L - ONE) ** (fan.rank - _rank(list(face), fan.rank))
    return total


def face_table_oracle(fan, direction):
    """table[j][h]: the faces of a smooth fan with j rays, h of them pairing
    positively with `direction`, by facet-derived face enumeration, with j
    the face's dimension by matrix rank rather than its number of rays."""
    table = [[0] * (fan.rank + 1) for _ in range(fan.rank + 1)]
    for face, dim in _faces_with_dimension(fan.max_cones):
        table[dim][sum(dot(direction, r) > 0 for r in face)] += 1
    return table


@functools.lru_cache(maxsize=None)
def _faces_with_dimension(cones):
    """Each face of the fan of `cones` with its dimension, shared by the
    directions that a test holds one fan's table against."""
    rank = cones[0].rank
    return [(face, _rank(list(face), rank)) for face in fan_faces_via_facets(cones)]


def slab_orbit_class_closed_form(n, fiber=False):
    """Toric (or, with `fiber`, e_{n+1}*-fiber) class of the slab fan of
    the model cone, from binomials alone.

    A face of the slab sigma_k = cone(f_1..f_k, e_k..e_n) is
    {f_i : i in F} ∪ {e_i : i in E} with F ⊆ [1, k] and E ⊆ [k, n], so
    the faces of the fan are the pairs with max F <= min E.  With |F| = a
    and |E| = b both positive there are C(n, a+b) such pairs with
    max F < min E and C(n, a+b-1) with max F = min E; with F or E empty
    there are C(n, b) or C(n, a).  Only the f_i pair positively with
    e_{n+1}*, so the fiber keeps the faces with F nonempty.
    """
    def pairs(a, b):
        if a == 0:
            return 0 if fiber else comb(n, b)
        if b == 0:
            return comb(n, a)
        return comb(n, a + b) + comb(n, a + b - 1)

    total = ZERO
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b <= n + 1:
                total = total + pairs(a, b) * (L - ONE) ** (n + 1 - a - b)
    return total


def simplicial_coordinates(rays, point):
    """The coefficients c with sum_i c_i * rays[i] == point, for linearly
    independent rays, by Gauss-Jordan elimination over Q; None when the
    point is outside their span."""
    m = len(rays)
    rows, _ = _gauss_jordan([[r[i] for r in rays] + [x] for i, x in enumerate(point)], m)
    if any(row[m] != 0 for row in rows[m:]):
        return None
    return [row[m] for row in rows[:m]]


def scaled_inverse(rays):
    """D * B^-1 for the square matrix B whose columns are the linearly
    independent `rays`, D > 0 the least common denominator of B^-1, by one
    Gauss-Jordan elimination over Q of [B | I]: row i pairs with a point
    to D times its i-th coordinate over the rays."""
    m = len(rays)
    rows, pivots = _gauss_jordan(
        [[r[i] for r in rays] + [int(i == j) for j in range(m)] for i in range(m)], m)
    if len(pivots) < m:
        raise ValueError("the rays are not linearly independent")
    inverse = [row[m:] for row in rows]
    denom = math.lcm(*(x.denominator for row in inverse for x in row))
    return [[int(x * denom) for x in row] for row in inverse]


def partition_sweep_oracle(fan, parent, bound):
    """Bounded lattice sweep of a fan of simplicial cones over the parent:
    every lattice point of the parent in [0, bound]^rank lies in some cone
    and in the interior of at most one.  Cone membership comes from the
    signs of the point's coordinates over the cone's rays, not from facet
    normals: each cone's ray matrix is inverted once, by `scaled_inverse`,
    and a point's scaled coordinates are integer pairings with its rows."""
    inverses = [scaled_inverse(c.rays) for c in fan]
    for p in itertools.product(range(bound + 1), repeat=parent.rank):
        if not all(sum(map(operator.mul, a, p)) >= 0 for a in parent.inequalities):
            continue
        least = [min(sum(map(operator.mul, row, p)) for row in inverse) for inverse in inverses]
        if not any(x >= 0 for x in least):
            return False
        if sum(x > 0 for x in least) > 1:
            return False
    return True


def affine_union_class_oracle(k):
    """[{x_1*...*x_k = 0} in A^k] by literal inclusion-exclusion over the k
    coordinate hyperplanes: a subset S of them meets in A^{k-|S|}."""
    total = ZERO
    for mask in range(1, 1 << k):
        s = mask.bit_count()
        term = L ** (k - s)
        total = total + (term if s % 2 == 1 else -term)
    return total


def subset_size_counts_oracle(r):
    """The number of nonempty subsets of each size of r elements, as
    `count[size]`, by visiting every mask and taking its `bit_count`."""
    count = [0] * (r + 1)
    for mask in range(1, 1 << r):
        count[mask.bit_count()] += 1
    return tuple(count)


def arrangement_class_termwise_oracle(r, n):
    """The closed arrangement formula sum_j (-1)^j C(r, j+1) [P^{n-j}],
    summed term by term as classes of Z[L]; terms with j >= r vanish."""
    total = ZERO
    for j in range(min(n, r - 1) + 1):
        total = total + (-1) ** j * comb(r, j + 1) * proj_space_class(n - j)
    return total


def affine_union_point_count(k, p):
    """Number of x in F_p^k with x_1*...*x_k = 0, by brute force over all
    p^k points."""
    return sum(math.prod(x) % p == 0
               for x in itertools.product(range(p), repeat=k))


def projective_points(m, p):
    """The points of P^m(F_p), one representative each: the vectors whose
    first nonzero coordinate is 1."""
    for lead in range(m + 1):
        for tail in itertools.product(range(p), repeat=m - lead):
            yield (0,) * lead + (1,) + tail


def hyperplane_union_point_count(r, n, p):
    """Number of points of P^{n+1}(F_p) on at least one of the first r
    coordinate hyperplanes {x_i = 0}, by brute force over P^{n+1}(F_p)."""
    return sum(any(x[i] == 0 for i in range(r)) for x in projective_points(n + 1, p))


def arrangement_point_count_oracle(r, n, p):
    """Number of points of P^{n+1}(F_p) on at least one of r hyperplanes
    in general position, by brute force over P^{n+1}(F_p).  The hyperplanes
    are built, not assumed: their normals are (1, a, a^2, ..., a^{n+1}) for
    a = 0, 1, ..., p-1, then (0, ..., 0, 1) for a = infinity, the first r
    of these (r <= p+1).  Any n+2 of them are independent, since their
    matrix is Vandermonde (or, with infinity, has a Vandermonde minor).

    A point count shows only the image of a class under counting (L -> p):
    counts that match P(r, n) at enough primes fix its polynomial in L,
    but they do not show that the classes are equal in K_0."""
    if not 1 <= r <= p + 1:
        raise ValueError(f"need 1 <= r <= p+1, got r={r}, p={p}")
    normals = [tuple(pow(a, i, p) for i in range(n + 2)) for a in range(min(r, p))]
    normals += [(0,) * (n + 1) + (1,)] * (r - len(normals))
    return sum(any(sum(map(operator.mul, u, x)) % p == 0 for u in normals)
               for x in projective_points(n + 1, p))


def lagrange_coefficients(points):
    """The coefficients, constant term first and trailing zeros dropped, of
    the polynomial of degree < len(points) through the points (x, y), by
    exact Lagrange interpolation; it must have integer coefficients."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(yi)  # prod_{j != i} (x - xj)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"the interpolating polynomial is not integral: {coeffs}")
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return [int(c) for c in coeffs]


def random_unimodular_matrix(rng, rank, steps=20):
    """A random element of GL(rank, Z) built from elementary operations."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if rank == 1:
        return [(rng.choice([-1, 1]),)]
    for _ in range(steps):
        i, j = rng.sample(range(rank), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.3:
            m[i] = [-a for a in m[i]]
    return [tuple(row) for row in m]


def random_unimodular_cone(rng, max_rank=5, rank=None):
    """A random full-dimensional smooth cone: the rows of a random
    GL(rank, Z) matrix, of a random rank up to max_rank unless given."""
    if rank is None:
        rank = rng.randint(1, max_rank)
    return Cone(random_unimodular_matrix(rng, rank))
