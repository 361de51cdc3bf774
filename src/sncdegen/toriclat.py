"""Exact lattice-polyhedral machinery for the toric resolution of the
local model  t*y = z_1*...*z_n.

The ambient lattice is N = Z^{n+1} with standard basis e_1, ..., e_{n+1};
the model cone sigma is generated by e_1, ..., e_n together with
f_i = e_i + e_{n+1}.  The affine variety Spec k[sigma^v ∩ M] is exactly
the hypersurface t*y = z_1...z_n, and subdividing sigma into the slabs

    sigma_k = cone(f_1, ..., f_k, e_k, ..., e_n),
    x_1 + ... + x_{k-1} <= x_{n+1} <= x_1 + ... + x_k,

resolves it with a reduced simple normal crossing central fiber.  This
module provides the cones, fans and chart presentations for that story,
plus exact certification routines: cone duality by the double description
method, unimodularity by Smith normal form, a whole-cone partition
certificate (wall matching plus one generic point, with an opt-in bounded
lattice sweep as a cross-check), semistability of the fiber direction, and
orbit-cone class counting in Z[L].  Everything is integer-exact and pure
Python.

Orbit counting needs only the f-vector of a smooth fan (cones by number
of rays).  When the maximal cones form a chain, as the slabs do, it is a
sum of binomials over the cones and their consecutive intersections,
polynomial in n; any other fan falls back to enumerating its faces,
exponential in the rank.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ._intmat import (
    Vec,
    dot,
    extreme_rays,
    invariant_factors,
    mat_rank,
    primitive,
    rref,
    unit,
    vadd,
    vscale,
    vsub,
)
from .grothring import GrothClass, L, ONE, ZERO

__all__ = [
    "Cone",
    "Fan",
    "Coordinate",
    "ChartPresentation",
    "FiberCheck",
    "unit_vector",
    "dual_cone",
    "greedy_decompose",
    "is_smooth",
    "model_cone",
    "sigma_subcone",
    "resolution_fan",
    "dual_generators",
    "verify_partition",
    "semistable_fiber_check",
    "toric_class",
    "fiber_class",
    "blowup_chart_sequence",
    "singular_model_chart",
]

def unit_vector(rank: int, i: int) -> Vec:
    """Standard basis vector e_{i+1} (0-based index i) in Z^rank."""
    return unit(rank, i)


def _as_vec(v: Sequence[int]) -> Vec:
    return tuple(operator.index(c) for c in v)


class Cone:
    """A strongly convex rational polyhedral cone, stored by a canonical
    list of primitive extreme-ray generators.

    Construction canonicalizes: generators are made primitive, duplicates
    and non-extreme generators are dropped, and the result is sorted.  A
    full-dimensional cone gets its primitive, irredundant facet normals by
    one double description and keeps which facets pass through each ray.
    A face is generated by the generators it contains, so a generator is
    extreme iff no other lies on all the facets through it.  Cones of lower
    dimension need linearly independent generators.

    Instances are value objects: equality and hashing go through the
    canonical (rank, rays) pair, and all derived data is cached.
    """

    __slots__ = ("_rank", "_rays", "_dim", "_inequalities", "_incidence", "_dual",
                 "_smooth")

    def __init__(self, rays: Iterable[Sequence[int]], rank: Optional[int] = None):
        ray_list = [_as_vec(r) for r in rays]
        if rank is None:
            if not ray_list:
                raise ValueError("rank is required for a cone with no generators")
            rank = len(ray_list[0])
        if rank < 1:
            raise ValueError(f"ambient rank must be positive, got {rank}")
        if any(len(r) != rank for r in ray_list):
            raise ValueError("all generators must have the ambient rank as length")
        prim = sorted({primitive(r) for r in ray_list})
        self._rank = rank
        self._dim = mat_rank(prim)
        self._dual = None
        self._smooth = None

        if self._dim == rank:
            facets = extreme_rays(prim, rank)
            if mat_rank(facets) < rank:
                raise ValueError("cone is not strongly convex (contains a line)")
            # bit j of on[i] is set iff generator i lies on facet j
            on = [sum(1 << j for j, a in enumerate(facets) if dot(a, r) == 0) for r in prim]
            keep = [i for i, m in enumerate(on)
                    if all(m & other != m for k, other in enumerate(on) if k != i)]
            self._rays = tuple(prim[i] for i in keep)
            self._inequalities = tuple(facets)
            self._incidence = tuple(on[i] for i in keep)
        else:
            if len(prim) != self._dim:
                raise ValueError(
                    "lower-dimensional cones require linearly independent generators")
            self._rays = tuple(prim)
            self._inequalities = self._incidence = None

    # -- basic data -----------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self._rays

    @property
    def inequalities(self) -> Optional[tuple[Vec, ...]]:
        """Facet normals (full-dimensional cones only), each pairing >= 0
        with every point of the cone."""
        return self._inequalities

    def contains(self, v: Sequence[int]) -> bool:
        """Exact membership test for an integer vector."""
        vec = _as_vec(v)
        if len(vec) != self._rank:
            raise ValueError("vector length must equal the ambient rank")
        if self._inequalities is not None:
            return all(dot(a, vec) >= 0 for a in self._inequalities)
        # The rays are independent, so v is in their span iff the last
        # column gets no pivot; then v = sum_i c_i * ray_i and row i ends
        # in p_i * c_i, with pivot p_i > 0.
        rows, pivots = rref(zip(*self._rays, vec))
        return (pivots == list(range(len(self._rays)))
                and all(row[-1] >= 0 for row in rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self._rank == other._rank and self._rays == other._rays

    def __hash__(self) -> int:
        return hash(("Cone", self._rank, self._rays))

    def __repr__(self) -> str:
        return f"Cone(rank={self._rank}, rays={list(self._rays)})"


def dual_cone(c: Cone) -> Cone:
    """The dual cone {m in M : <m, x> >= 0 for all x in c}, generated by the
    facet normals of c.  Requires a full-dimensional input (then the dual is
    strongly convex, and duality is an involution on canonical generator
    sets)."""
    if c.dim < c.rank:
        raise ValueError("dual_cone requires a full-dimensional cone")
    if c._dual is None:
        c._dual = Cone(c.inequalities, rank=c.rank)
    return c._dual


def is_smooth(c: Cone) -> bool:
    """True iff the generators extend to a Z-basis of the ambient lattice:
    the Smith normal form of the generator matrix has all invariant
    factors equal to 1, with one factor per generator.
    """
    if c._smooth is None:
        factors = invariant_factors(c.rays)
        c._smooth = len(factors) == len(c.rays) and all(f == 1 for f in factors)
    return c._smooth


class Fan:
    """A fan presented by its maximal cones.

    Construction verifies the fan axiom exactly: every pairwise
    intersection of maximal cones is a common face of both, established
    through the facet descriptions (so all maximal cones must be
    full-dimensional).
    """

    __slots__ = ("_rank", "_max_cones")

    def __init__(self, max_cones: Iterable[Cone], rank: int):
        cones = tuple(max_cones)
        if not cones:
            raise ValueError("a fan needs at least one maximal cone")
        for c in cones:
            if c.rank != rank:
                raise ValueError("all cones must share the ambient rank")
            if c.inequalities is None:
                raise ValueError("maximal cones must be full-dimensional")
        for a, b in itertools.combinations(cones, 2):
            if not _common_face(a, b):
                raise ValueError(
                    f"cones do not meet in a common face: {a!r} and {b!r}")
        self._rank = rank
        self._max_cones = cones

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def max_cones(self) -> tuple[Cone, ...]:
        return self._max_cones

    def rays(self) -> tuple[Vec, ...]:
        """All extreme rays of the fan, deduplicated, in canonical order."""
        return tuple(sorted({r for c in self._max_cones for r in c.rays}))

    def __iter__(self):
        return iter(self._max_cones)

    def __len__(self) -> int:
        return len(self._max_cones)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return (self._rank == other._rank
                and sorted(c.rays for c in self._max_cones)
                == sorted(c.rays for c in other._max_cones))

    def __hash__(self) -> int:
        return hash(("Fan", self._rank, tuple(sorted(c.rays for c in self._max_cones))))

    def __repr__(self) -> str:
        return f"Fan(rank={self._rank}, max_cones={len(self._max_cones)})"

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: the deduplicated ray list plus each
        maximal cone as a sorted list of indices into it."""
        rays = self.rays()
        index = {r: i for i, r in enumerate(rays)}
        return {
            "rank": self._rank,
            "rays": [list(r) for r in rays],
            "max_cones": [sorted(index[r] for r in c.rays) for c in self._max_cones],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Fan":
        rays = [tuple(r) for r in data["rays"]]
        cones = [Cone([rays[i] for i in idxs], rank=data["rank"])
                 for idxs in data["max_cones"]]
        return cls(cones, rank=data["rank"])


def _face_of(cone: Cone, face_rays: Sequence[Vec]) -> bool:
    """Is the cone spanned by face_rays a face of `cone`, i.e. are they all
    the rays of `cone` on every facet that contains them?"""
    on = dict(zip(cone.rays, cone._incidence))
    common = functools.reduce(operator.and_, (on.get(r, 0) for r in face_rays), -1)
    return {r for r, m in on.items() if m & common == common} == set(face_rays)


def _common_face(a: Cone, b: Cone) -> bool:
    meet = extreme_rays(list(a.inequalities) + list(b.inequalities), a.rank)
    return _face_of(a, meet) and _face_of(b, meet)


# -- the model cone and its subdivision ---------------------------------


def _f_vector(rank: int, i: int) -> Vec:
    return vadd(unit(rank, i), unit(rank, rank - 1))


@functools.lru_cache(maxsize=None)
def model_cone(n: int) -> Cone:
    """The cone sigma = cone(e_1, ..., e_n, f_1, ..., f_n) in Z^{n+1},
    whose affine toric variety is the hypersurface t*y = z_1*...*z_n."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    rank = n + 1
    rays = [unit(rank, i) for i in range(n)] + [_f_vector(rank, i) for i in range(n)]
    return Cone(rays, rank=rank)


@functools.lru_cache(maxsize=None)
def sigma_subcone(n: int, k: int) -> Cone:
    """The k-th slab cone sigma_k = cone(f_1, ..., f_k, e_k, ..., e_n).
    Its facets are x_i >= 0 for i != k and
    x_1 + ... + x_{k-1} <= x_{n+1} <= x_1 + ... + x_k; x_k >= 0 follows
    from the last two and is not a facet.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rank = n + 1
    rays = [_f_vector(rank, i) for i in range(k)] + [unit(rank, i) for i in range(k - 1, n)]
    return Cone(rays, rank=rank)


def _ones_partial(rank: int, count: int) -> Vec:
    """e_1* + ... + e_count* as a vector in Z^rank."""
    return tuple(1 if i < count else 0 for i in range(rank))


@functools.lru_cache(maxsize=None)
def resolution_fan(n: int) -> Fan:
    """The subdivision of the model cone into the slabs sigma_1, ..., sigma_n.
    Every maximal cone is unimodular, so the associated toric variety is a
    resolution of the model hypersurface."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    return Fan([sigma_subcone(n, k) for k in range(1, n + 1)], rank=n + 1)


def dual_generators(n: int) -> list[Vec]:
    """The n+2 canonical generators of the dual of the model cone, in the
    order e_1*, ..., e_n*, e_{n+1}*, e_1* + ... + e_n* - e_{n+1}*.
    (For n >= 2 these are exactly the extreme rays of dual_cone(model_cone(n)).)
    """
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    rank = n + 1
    last = tuple([1] * n + [-1])
    return [unit(rank, i) for i in range(rank)] + [last]


def greedy_decompose(v: Sequence[int]) -> Optional[list[int]]:
    """Express a lattice point of the dual model cone as a nonnegative
    integer combination of the n+2 canonical dual generators, in the
    order of `dual_generators(n)`, where n + 1 = len(v).

    The decomposition follows the sign of the last coordinate a_{n+1}:
    when a_{n+1} >= 0 the point is a combination of e_1*, ..., e_{n+1}*
    directly; when a_{n+1} < 0, subtracting -a_{n+1} copies of
    e_1* + ... + e_n* - e_{n+1}* lands in the positive orthant.  Returns
    None when v lies outside the dual cone (some defining inequality
    a_i >= 0 or a_i + a_{n+1} >= 0 fails).  The expansion is re-verified
    exactly before returning.
    """
    vec = _as_vec(v)
    n = len(vec) - 1
    if n < 1:
        raise ValueError("vectors must have length at least 2")
    body, last = vec[:n], vec[n]
    if any(a < 0 for a in body) or any(a + last < 0 for a in body):
        return None
    if last >= 0:
        coeffs = list(body) + [last, 0]
    else:
        coeffs = [a + last for a in body] + [0, -last]
    acc = (0,) * (n + 1)
    for c, g in zip(coeffs, dual_generators(n)):
        acc = vadd(acc, vscale(c, g))
    if acc != vec or any(c < 0 for c in coeffs):
        raise AssertionError(f"greedy expansion failed to reproduce {vec}")
    return coeffs


# -- certification ------------------------------------------------------


#: Largest opt-in partition sweep, in lattice points: a few seconds in pure Python.
MAX_SWEEP_POINTS = 10**5


def verify_partition(f: Fan, parent: Cone, bound: int = 0) -> bool:
    """Certify that the maximal cones of f partition the parent cone:

    (a) every maximal cone is contained in the parent,
    (b) every pairwise intersection of maximal cones is a common face,
        which holds by construction: `Fan` refuses any other cones,
    (c) the cones subdivide the whole parent (De Loera-Rambau-Santos,
        *Triangulations*, ch. 4): every facet of a maximal cone either
        lies on a facet of the parent or is the facet of exactly one
        other maximal cone, with the opposite normal; and one point of
        the parent lying on no facet hyperplane is covered exactly once,
    (d) library-level cross-check only, opt-in through `bound` and never
        set by `report` or `verify`: every lattice point of the parent in
        the box [lo, bound]^rank lies in some maximal cone, where lo = 0
        when the parent lies in the nonnegative orthant and -bound
        otherwise.  The default bound 0 sweeps the origin only; larger
        boxes than MAX_SWEEP_POINTS raise ValueError.

    All checks are exact and cover the whole parent; (d) adds nothing to
    the verdict unless (a)-(c) are wrong.  `_partition_failure` names the
    witness of a failure.
    """
    return _partition_failure(f, parent, bound) is None


def _partition_failure(f: Fan, parent: Cone, bound: int = 0) -> Optional[str]:
    """None when f partitions the parent, else a one-line witness."""
    if parent.inequalities is None:
        raise ValueError("verify_partition requires a full-dimensional parent")
    box = _sweep_box(parent, bound)
    for c in f:
        outside = next((r for r in c.rays if not parent.contains(r)), None)
        if outside is not None:
            return f"ray {list(outside)} of {c!r} lies outside the parent"
    wall = _unmatched_wall(f, parent)
    if wall is not None:
        return wall
    point = _generic_point(f, parent)
    count = sum(1 for c in f if c.contains(point))
    if count != 1:
        return f"generic point {list(point)} is covered {count} times"
    missed = _sweep_uncovered(f, parent, box)
    if missed is not None:
        return f"lattice point {list(missed)} of the parent is uncovered"
    return None


def _unmatched_wall(f: Fan, parent: Cone) -> Optional[str]:
    """The first facet of a maximal cone that lies inside the parent but is
    not the facet of exactly one maximal cone on its other side."""
    boundary = set(parent.inequalities)
    walls = [(tuple(r for r, m in zip(c.rays, c._incidence) if m >> j & 1), a)
             for c in f for j, a in enumerate(c.inequalities) if a not in boundary]
    seen = Counter(walls)
    for rays, a in walls:
        across = seen[rays, vscale(-1, a)]
        if across != 1:
            return (f"unmatched wall with rays {sorted(map(list, rays))} and normal "
                    f"{list(a)}: {seen[rays, a]} maximal cone(s) on its side, "
                    f"{across} across it")
    return None


def _generic_point(f: Fan, parent: Cone) -> Vec:
    """An interior point of the parent on no facet hyperplane of the parent
    or of any maximal cone: sum_i t^i r_i over the parent's rays, for the
    least t >= 2 that works.  Each hyperplane vanishes at finitely many t
    (the rays span the lattice), so the search ends."""
    normals = [a for c in (parent, *f) for a in c.inequalities]
    for t in itertools.count(2):
        point = functools.reduce(
            vadd, (vscale(t**i, r) for i, r in enumerate(parent.rays)))
        if all(dot(a, point) != 0 for a in normals):
            return point


def _sweep_box(parent: Cone, bound: int) -> range:
    """The coordinate range [lo, bound] of the opt-in sweep."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    lo = 0 if all(c >= 0 for r in parent.rays for c in r) else -bound
    points = (bound - lo + 1) ** parent.rank
    if points > MAX_SWEEP_POINTS:
        raise ValueError(
            f"a sweep with bound={bound} in rank {parent.rank} visits {points} "
            f"points, above the cap of {MAX_SWEEP_POINTS}")
    return range(lo, bound + 1)


def _sweep_uncovered(f: Fan, parent: Cone, box: range) -> Optional[Vec]:
    """The first lattice point of the parent in box^rank that no maximal
    cone contains, or None."""
    for p in itertools.product(box, repeat=parent.rank):
        if parent.contains(p) and not any(c.contains(p) for c in f):
            return p
    return None


@dataclass(frozen=True)
class FiberCheck:
    """Semistability report for the fiber of a monomial direction."""

    reduced: bool
    smooth: bool

    @property
    def snc(self) -> bool:
        return self.reduced and self.smooth

    def to_json_dict(self) -> dict:
        return {"reduced": self.reduced, "smooth": self.smooth, "snc": self.snc}


def semistable_fiber_check(f: Fan, direction: Sequence[int]) -> FiberCheck:
    """Check that the fiber of the monomial with exponent `direction` over
    zero is reduced with simple normal crossing support:

    * reduced  — every ray pairing positively with the direction pairs to
      exactly 1 (multiplicity-one components);
    * smooth   — every maximal cone is unimodular;
    * snc      — both (smooth toric ambient + reduced invariant divisors).
    """
    d = _as_vec(direction)
    if len(d) != f.rank:
        raise ValueError("direction must live in the dual lattice of the fan")
    pairings = [dot(d, r) for r in f.rays()]
    reduced = all(p == 1 for p in pairings if p > 0)
    smooth = all(is_smooth(c) for c in f)
    return FiberCheck(reduced=reduced, smooth=smooth)


def _is_chain(ray_sets: Sequence[frozenset[Vec]]) -> bool:
    """True iff S_i ∩ S_j ⊆ S_k for all i < k < j, i.e. the sets that
    contain any given ray subset are consecutive.  O(c^3) set operations
    for c sets."""
    return all(ray_sets[i] & ray_sets[j] <= ray_sets[k]
               for i, j in itertools.combinations(range(len(ray_sets)), 2)
               for k in range(i + 1, j))


def _face_counts(f: Fan, hot: Optional[Callable[[Vec], bool]] = None) -> list[int]:
    """The f-vector of a smooth fan: count[j] is the number of distinct
    faces with j rays, j = 0..rank.  With `hot`, only faces containing a
    ray r with hot(r) are counted.

    Smooth cones are simplicial, so the faces of a maximal cone are the
    subsets of its ray set S.  Those with j rays, at least one hot, number
    w(S)[j] = C(|S|, j) - C(|S| - p, j), p the hot rays in S (w(S)[j] =
    C(|S|, j) without a filter).  When the ray sets, in the fan's order,
    pass `_is_chain`, the cones containing a given face have consecutive
    indices, so inclusion-exclusion collapses to

        count = sum_k w(S_k) - sum_k w(S_k ∩ S_{k+1}),

    which costs O(c^3) set operations for the test plus O(c * rank)
    binomials.  Any other fan falls back to enumerating the distinct ray
    subsets, up to c * 2^rank of them.
    """
    for c in f:
        if not is_smooth(c):
            raise ValueError(f"orbit counting requires smooth cones, got {c!r}")
    ray_sets = [frozenset(c.rays) for c in f]
    hot_rays = None if hot is None else frozenset(
        r for rays in ray_sets for r in rays if hot(r))
    count = [0] * (f.rank + 1)

    if _is_chain(ray_sets):
        def add_weight(rays: frozenset[Vec], sign: int) -> None:
            for j in range(len(rays) + 1):
                count[j] += sign * math.comb(len(rays), j)
            if hot_rays is not None:  # less the subsets with no hot ray
                cold = len(rays - hot_rays)
                for j in range(cold + 1):
                    count[j] -= sign * math.comb(cold, j)

        for rays in ray_sets:
            add_weight(rays, 1)
        for a, b in zip(ray_sets, ray_sets[1:]):
            add_weight(a & b, -1)
        return count

    faces = {frozenset(sub) for rays in ray_sets
             for size in range(len(rays) + 1)
             for sub in itertools.combinations(rays, size)}
    for face in faces:
        if hot_rays is None or face & hot_rays:
            count[len(face)] += 1
    return count


def _orbit_sum(rank: int, count: Sequence[int]) -> GrothClass:
    """sum_j count[j] * (L-1)^{rank-j}: each j-ray cone of a smooth fan is
    a torus orbit of dimension rank - j."""
    torus = L - ONE
    return sum((c * torus ** (rank - j) for j, c in enumerate(count) if c), ZERO)


def toric_class(f: Fan) -> GrothClass:
    """Class in Z[L] of the toric variety of a smooth fan.

    By the orbit-cone correspondence (Cox-Little-Schenck, Toric Varieties,
    §3.2) each j-ray cone, the zero cone included, contributes a torus
    orbit (L-1)^{rank-j}, so the class is sum_j count[j] * (L-1)^{rank-j}
    over the fan's f-vector.  `_face_counts` gets the f-vector from the
    chain formula when the maximal cones form a chain, as the slabs of
    `resolution_fan` do (polynomial in n), and by enumerating faces
    otherwise (exponential in the rank).
    """
    return _orbit_sum(f.rank, _face_counts(f))


def fiber_class(f: Fan, direction: Sequence[int]) -> GrothClass:
    """Class in Z[L] of the fiber over zero of the monomial with exponent
    `direction`: the orbit sum of `toric_class` restricted to the cones
    meeting the support of the monomial's zero divisor, i.e. those with a
    ray r pairing dot(direction, r) >= 1.  Same f-vector computation and
    cost as `toric_class`, with that filter."""
    d = _as_vec(direction)
    if len(d) != f.rank:
        raise ValueError("direction must live in the dual lattice of the fan")
    return _orbit_sum(f.rank, _face_counts(f, hot=lambda r: dot(d, r) >= 1))


# -- chart presentations ------------------------------------------------


@dataclass(frozen=True)
class Coordinate:
    """A named affine coordinate given by its monomial exponent vector."""

    name: str
    monomial: Vec

    def __post_init__(self):
        object.__setattr__(self, "monomial", _as_vec(self.monomial))


@dataclass(frozen=True)
class ChartPresentation:
    """A symbolic affine chart: named coordinate monomials in the dual
    lattice M, plus an optional binomial relation prod(left) = prod(right)
    given by multisets of coordinate indices.

    The relation is validated on construction as an identity of lattice
    vectors: the sum of the left monomials equals the sum of the right
    monomials.
    """

    coordinates: tuple[Coordinate, ...]
    relation: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __post_init__(self):
        coords = tuple(self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if not coords:
            raise ValueError("a chart needs at least one coordinate")
        rank = len(coords[0].monomial)
        if any(len(c.monomial) != rank for c in coords):
            raise ValueError("all monomials must share the ambient rank")
        if self.relation is not None:
            left, right = self.relation
            left, right = tuple(left), tuple(right)
            object.__setattr__(self, "relation", (left, right))
            for idx in left + right:
                if not 0 <= idx < len(coords):
                    raise ValueError(f"relation index {idx} out of range")
            lsum = functools.reduce(vadd, (coords[i].monomial for i in left),
                                    (0,) * rank)
            rsum = functools.reduce(vadd, (coords[i].monomial for i in right),
                                    (0,) * rank)
            if lsum != rsum:
                raise ValueError(
                    f"relation is not a lattice identity: {lsum} != {rsum}")

    @property
    def rank(self) -> int:
        return len(self.coordinates[0].monomial)

    def monomials(self) -> tuple[Vec, ...]:
        return tuple(c.monomial for c in self.coordinates)

    def monomial_cone(self) -> Cone:
        """The cone generated by the coordinate monomials (canonicalized)."""
        return Cone(self.monomials(), rank=self.rank)

    def render_relation(self) -> Optional[str]:
        if self.relation is None:
            return None
        left, right = self.relation
        fmt = lambda idxs: "*".join(self.coordinates[i].name for i in idxs) or "1"
        return f"{fmt(left)} = {fmt(right)}"

    def to_json_dict(self) -> dict:
        data: dict = {
            "coords": [{"name": c.name, "monomial": list(c.monomial)}
                       for c in self.coordinates],
        }
        if self.relation is not None:
            data["relation"] = {"left": list(self.relation[0]),
                                "right": list(self.relation[1])}
        else:
            data["relation"] = None
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChartPresentation":
        coords = tuple(Coordinate(c["name"], tuple(c["monomial"]))
                       for c in data["coords"])
        rel = data.get("relation")
        relation = None if rel is None else (tuple(rel["left"]), tuple(rel["right"]))
        return cls(coordinates=coords, relation=relation)


def singular_model_chart(n: int) -> ChartPresentation:
    """The starting presentation of the model: coordinates z_1, ..., z_n,
    t, y with monomials e_1*, ..., e_n*, e_{n+1}*, e_1*+...+e_n*-e_{n+1}*
    and the defining relation t*y = z_1*...*z_n."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    rank = n + 1
    coords = [Coordinate(f"z{i + 1}", unit(rank, i)) for i in range(n)]
    coords.append(Coordinate("t", unit(rank, n)))
    coords.append(Coordinate("y", tuple([1] * n + [-1])))
    return ChartPresentation(
        coordinates=tuple(coords),
        relation=((n, n + 1), tuple(range(n))),
    )


def _residual_monomial(rank: int, j: int) -> Vec:
    """Monomial of the residual coordinate after j blow-up steps:
    e_{n+1}* - e_1* - ... - e_j*."""
    return vsub(unit(rank, rank - 1), _ones_partial(rank, j))


def blowup_chart_sequence(n: int) -> list[ChartPresentation]:
    """Replay the resolution as a sequence of n-1 blow-ups, returning the
    n smooth charts U_1, ..., U_n.

    Step k blows up the locus where the residual coordinate t_{k-1} (with
    t_0 = t) and z_k vanish together.  In the chart U_k the substitution
    z_k = t_{k-1} * z_k' turns the running relation into the solved form
    y = z_k' * z_{k+1} * ... * z_n; the residual chart keeps z_k and
    continues with t_k = t_{k-1} / z_k.  After n-1 steps the residual
    chart is itself smooth with relation t_{n-1} * y = z_n, and is
    returned as U_n.

    Coordinate naming: "t" (residual, step 0) then "t1", "t2", ...;
    original coordinates "z1", ..., "zn" and "y"; the substituted
    coordinate at step k is "zk'".  The coordinate monomials of U_k
    generate exactly the dual cone of sigma_k.
    """
    if n < 2:
        raise ValueError(f"the blow-up sequence needs n >= 2, got {n}")
    rank = n + 1
    y_mono = tuple([1] * n + [-1])
    charts = []
    for k in range(1, n):
        t_name = "t" if k == 1 else f"t{k - 1}"
        coords = [Coordinate(t_name, _residual_monomial(rank, k - 1))]
        coords += [Coordinate(f"z{i}", unit(rank, i - 1)) for i in range(1, k)]
        coords.append(Coordinate(f"z{k}'",
                                 vsub(_ones_partial(rank, k), unit(rank, n))))
        coords += [Coordinate(f"z{i}", unit(rank, i - 1)) for i in range(k + 1, n + 1)]
        coords.append(Coordinate("y", y_mono))
        # y = z_k' * z_{k+1} * ... * z_n ; coordinate k holds z_k'
        charts.append(ChartPresentation(
            coordinates=tuple(coords),
            relation=((n + 1,), tuple(range(k, n + 1))),
        ))
    final_name = "t" if n == 1 else f"t{n - 1}"
    coords = [Coordinate(final_name, _residual_monomial(rank, n - 1))]
    coords += [Coordinate(f"z{i}", unit(rank, i - 1)) for i in range(1, n + 1)]
    coords.append(Coordinate("y", y_mono))
    # t_{n-1} * y = z_n
    charts.append(ChartPresentation(
        coordinates=tuple(coords),
        relation=((0, n + 1), (n,)),
    ))
    return charts
