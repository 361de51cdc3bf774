"""Cones and fans of the toric resolution of the local model
t*y = z_1*...*z_n, and their orbit counts in Z[L].

The ambient lattice is N = Z^{n+1} with standard basis e_1, ..., e_{n+1};
the model cone sigma is generated by e_1, ..., e_n together with
f_i = e_i + e_{n+1}.  The affine variety Spec k[sigma^v ∩ M] is exactly
the hypersurface t*y = z_1...z_n, and subdividing sigma into the slabs

    sigma_k = cone(f_1, ..., f_k, e_k, ..., e_n),
    x_1 + ... + x_{k-1} <= x_{n+1} <= x_1 + ... + x_k,

resolves it with a reduced simple normal crossing central fiber; only
sigma_1 runs a double description, and each later slab comes from the one
before by an exchange pivot of e_k for f_{k+1}, O(rank^2).  This module
holds the geometry of that story: cones and fans, the dual cone by the
double description method, unimodularity from the pairing of each ray with
the one facet not through it (read off the stored ray-facet incidence, no
Smith normal form), the model cone and its slab subdivision, the rays of a
fiber, and orbit-cone class counting in Z[L].  Everything is integer-exact
and pure Python.

Two consumers run it without the certificate of `toriclat`: the orbit
API (`fiber_class`, `toric_class`) and `dual`.  It reads `grothring` by
`from . import grothring`, which runs it on first use, so only an orbit
count runs Z[L] code (`tests/test_imports.py` pins both).

Orbit counting reads one table of a smooth fan: its faces by number of
rays and by number of rays that pair positively with the fiber direction,
a signed sum of binomials over the ray sets of the maximal cones and their
intersections, by one inclusion-exclusion for every fan.  When the cones
form a chain, as the slabs do, only consecutive intersections remain and
the count is polynomial in n.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from ._intmat import Vec, as_vec, dot, extreme_rays, mat_rank, primitive, unit, vscale
from . import grothring


def unit_vector(rank: int, i: int) -> Vec:
    """Standard basis vector e_{i+1} (0-based index i) in Z^rank."""
    return unit(rank, i)


class Cone:
    """A full-dimensional, strongly convex rational polyhedral cone, stored
    by a canonical list of primitive extreme-ray generators.

    The rank is the common length of the generators, which must span it.
    Construction canonicalizes: generators are made primitive, duplicates
    and non-extreme generators are dropped, and the result is sorted.  The
    primitive, irredundant facet normals come from one double description,
    and the cone keeps which facets pass through each ray, read off the
    zero sets that the double description returns: `_incidence` maps each
    ray, in order, to that bitmask.  A slab after the first stores the
    same data from `_exchange` instead.  A face is generated by the
    generators it contains, so a generator is extreme iff no other lies on
    all the facets through it.  A simplicial cone, rank generators, skips that
    filter and the strong-convexity rank test: generators that span are
    then independent, so all are extreme and the cone is pointed.

    Instances are value objects: equality and hashing go through the
    canonical (rank, rays) pair; smoothness is cached, the dual is not.
    """

    __slots__ = ("_rank", "_rays", "_inequalities", "_incidence", "_smooth")

    def __init__(self, rays: Iterable[Sequence[int]]):
        ray_list = [as_vec(r) for r in rays]
        if not ray_list:
            raise ValueError("a cone needs at least one generator")
        rank = len(ray_list[0])
        if any(len(r) != rank for r in ray_list):
            raise ValueError("all generators must have the same length")
        prim = sorted({primitive(r) for r in ray_list})
        found = extreme_rays(prim, rank)  # raises unless the generators span
        facets = [a for a, _ in found]
        # bit j of on[i] is set iff generator i lies on facet j: bit i of
        # facet j's zero set, transposed
        on = [sum(1 << j for j, (_, zeros) in enumerate(found) if zeros >> i & 1)
              for i in range(len(prim))]
        keep = range(rank)  # rank spanning generators: independent, all extreme
        if len(prim) > rank:
            if mat_rank(facets) < rank:
                raise ValueError("cone is not strongly convex (contains a line)")
            keep = [i for i, m in enumerate(on)
                    if all(m & other != m for k, other in enumerate(on) if k != i)]
        self._store(rank, {prim[i]: on[i] for i in keep}, facets)

    def _store(self, rank: int, incidence: dict[Vec, int], facets: Sequence[Vec]) -> "Cone":
        """Set the slots: sorted rays, mapped to their masks over the sorted facets."""
        self._rank = rank
        self._incidence = incidence
        self._rays = tuple(incidence)
        self._inequalities = tuple(facets)
        self._smooth = None
        return self

    # -- basic data -----------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self._rays

    @property
    def inequalities(self) -> tuple[Vec, ...]:
        """Facet normals, each pairing >= 0 with every point of the cone."""
        return self._inequalities

    def contains(self, v: Sequence[int]) -> bool:
        """Exact membership test for an integer vector."""
        vec = as_vec(v)
        if len(vec) != self._rank:
            raise ValueError("vector length must equal the ambient rank")
        return all(dot(a, vec) >= 0 for a in self._inequalities)

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
    facet normals of c.  It is full-dimensional because c is strongly
    convex, and strongly convex because c is full-dimensional, so duality
    is an involution on canonical generator sets.  One double description
    and no cache: a caller that needs the dual twice keeps it."""
    return Cone(c.inequalities)


def is_smooth(c: Cone) -> bool:
    """True iff the generators form a Z-basis of the ambient lattice: the
    cone is simplicial and each ray pairs to exactly 1 with the one facet
    not through it, read off the stored incidence.

    For the rays B (as rows) and the primitive facet normals U opposite
    them (as columns), B·U = diag(<r_j, u_j>), so all pairings are 1 iff
    det B = ±1: if they are, det B · det U = 1; if det B = ±1, the columns
    of B^-1 are integral, pair to 1 with their rays and are primitive, so
    they are the u_j.  One pairing per ray, no Smith normal form.
    """
    if c._smooth is None:
        c._smooth = len(c.rays) == c.rank and all(
            dot(u, r) == 1 for r, u in opposite_facets(c).items())
    return c._smooth


def opposite_facets(c: Cone) -> dict[Vec, Vec]:
    """Each ray of a simplicial cone with the facet its mask lacks."""
    facets = c.inequalities
    full = (1 << len(facets)) - 1
    return {r: facets[(full & ~m).bit_length() - 1] for r, m in c._incidence.items()}


def _exchange(c: Cone, out: Vec, new: Sequence[int]) -> Cone:
    """The simplicial cone c with the ray `out` swapped for `new`, in O(rank^2):
    u_out, the facet opposite `out` signed so that p = <u_out, new> > 0, is
    opposite `new`, and each other facet u becomes primitive(p u - <u, new> u_out).
    p = 0 puts `new` in the span of the kept rays: ValueError."""
    new = primitive(new)
    opposite = opposite_facets(c)
    u_out = opposite.pop(out)
    p = dot(u_out, new)
    if p == 0:
        raise ValueError(f"ray {list(new)} lies in the span of the rays kept")
    if p < 0:
        u_out, p = vscale(-1, u_out), -p
    for r, u in opposite.items():
        x = dot(u, new)
        if x:
            opposite[r] = primitive([p * a - x * b for a, b in zip(u, u_out)])
    opposite[new] = u_out
    return simplicial_cone(c.rank, opposite)


def simplicial_cone(rank: int, opposite: dict[Vec, Vec]) -> Cone:
    """The simplicial cone with these rays, each mapped to the primitive
    facet normal opposite it, stored without a double description."""
    facets = sorted(opposite.values())
    bit = {u: 1 << j for j, u in enumerate(facets)}
    full = (1 << rank) - 1
    return Cone.__new__(Cone)._store(
        rank, {r: full & ~bit[opposite[r]] for r in sorted(opposite)}, facets)


class Fan:
    """A fan presented by its maximal cones, which must share one rank.

    Construction checks only that shape.  The fan axiom, that every two
    cones meet in a common face, is proved by `toriclat.verify_partition`
    against a parent cone, the package's only check of it; every fan the
    library builds passes it against its parent.  The pairwise test
    `toriclat._common_face` checks no fan of the package: it is the tests'
    reference for that proof."""

    __slots__ = ("_rank", "_max_cones", "_rays")

    def __init__(self, max_cones: Iterable[Cone]):
        cones = tuple(max_cones)
        if not cones:
            raise ValueError("a fan needs at least one maximal cone")
        rank = cones[0].rank
        if any(c.rank != rank for c in cones):
            raise ValueError("all cones must share the ambient rank")
        self._rank = rank
        self._max_cones = cones
        self._rays = tuple(sorted({r for c in cones for r in c.rays}))

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def max_cones(self) -> tuple[Cone, ...]:
        return self._max_cones

    def rays(self) -> tuple[Vec, ...]:
        """All extreme rays of the fan, deduplicated, in canonical order."""
        return self._rays

    def __iter__(self):
        return iter(self._max_cones)

    def __len__(self) -> int:
        return len(self._max_cones)

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


# -- the model cone and its subdivision ---------------------------------


def _f_vector(rank: int, i: int) -> Vec:
    return unit(rank - 1, i) + (1,)  # e_{i+1} + e_rank


def model_rays(n: int) -> list[Vec]:
    """e_1, ..., e_n, f_1, ..., f_n in Z^{n+1}: the rays of `model_cone(n)`."""
    rank = n + 1
    return [unit(rank, i) for i in range(n)] + [_f_vector(rank, i) for i in range(n)]


@functools.lru_cache(maxsize=None)
def model_cone(n: int) -> Cone:
    """The cone sigma = cone(e_1, ..., e_n, f_1, ..., f_n) in Z^{n+1},
    whose affine toric variety is the hypersurface t*y = z_1*...*z_n."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    return Cone(model_rays(n))


def sigma_subcone(n: int, k: int) -> Cone:
    """The k-th slab cone sigma_k = cone(f_1, ..., f_k, e_k, ..., e_n).
    Its facets are x_i >= 0 for i != k and
    x_1 + ... + x_{k-1} <= x_{n+1} <= x_1 + ... + x_k; x_k >= 0 follows
    from the last two and is not a facet.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return resolution_fan(n).max_cones[k - 1]


@functools.lru_cache(maxsize=None)
def resolution_fan(n: int) -> Fan:
    """The subdivision of the model cone into the slabs sigma_1, ..., sigma_n,
    certified by `toriclat.verify_partition` against `model_cone(n)`.  Every
    maximal cone is unimodular, so the associated toric variety is a
    resolution of the model hypersurface.  sigma_1 comes from one double
    description, each later slab from the one before by `_exchange`."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    rank = n + 1
    slabs = [Cone([_f_vector(rank, 0), *(unit(rank, i) for i in range(n))])]
    for k in range(1, n):
        slabs.append(_exchange(slabs[-1], unit(rank, k - 1), _f_vector(rank, k)))
    return Fan(slabs)


# -- orbit counting -----------------------------------------------------


def fiber_rays(f: Fan, direction: Sequence[int]) -> tuple[Vec, ...]:
    """The rays of `f` that pair positively with `direction`, in the fan's
    order.  Each is one component D_rho of the fiber over zero of the
    monomial with exponent `direction`; every count of that fiber reads
    its rays here."""
    d = as_vec(direction)
    if len(d) != f.rank:
        raise ValueError("direction must live in the dual lattice of the fan")
    return tuple(r for r in f.rays() if dot(d, r) > 0)


def _maximal(sets: Iterable[int]) -> list[int]:
    """The distinct ray sets of a family, as bitmasks, that lie in no other:
    largest first, in first-seen order among equals, each tested against the
    larger ones kept before it."""
    kept: list[int] = []
    for s in sorted(dict.fromkeys(sets), key=int.bit_count, reverse=True):
        for t in kept:
            if s & t == s:
                break
        else:
            kept.append(s)
    return kept


def _face_table(f: Fan, direction: Sequence[int]) -> list[list[int]]:
    """table[j][h] is the number of distinct faces of a smooth fan with j
    rays, h of them among `fiber_rays(f, direction)`.

    Smooth cones are simplicial, so the faces of a maximal cone are the
    subsets of its ray set S, w(S)[j][h] = C(p, h) * C(|S| - p, j - h) of
    them with j rays, h among the p fiber rays of S.  A family S_1, ..., S_c
    has the faces of each S_k less those it shares with the sets before it,
    the faces of the family S_k ∩ S_1, ..., S_k ∩ S_{k-1}, counted the same
    way with the opposite sign.  `_maximal` cuts each family to an
    antichain, so each S_k ∩ S_i is smaller than S_k and the recursion is at
    most rank + 1 deep.  On a chain, where the cones holding a face have
    consecutive indices (the slabs and their restrictions), S_k ∩ S_{k-1} is
    the one set kept, and the count is sum_k w(S_k) - sum_k w(S_k ∩ S_{k-1}),
    polynomial in n; other families can cost exponentially in the rank.
    Terms with equal p add into one row of C(|S| - p, .), expanded once per
    distinct p at the end.
    """
    bit = {r: 1 << i for i, r in enumerate(f.rays())}  # a ray set is a bitmask
    fiber = sum(bit[r] for r in fiber_rays(f, direction))
    for c in f:
        if not is_smooth(c):
            raise ValueError(f"orbit counting requires smooth cones, got {c!r}")
    cold: dict[int, list[int]] = {}  # p -> signed sum of C(|S| - p, i), by i

    def count(sets: list[int], sign: int) -> None:
        for k, rays in enumerate(sets):
            p, q = (rays & fiber).bit_count(), (rays & ~fiber).bit_count()
            row = cold.setdefault(p, [0] * (f.rank + 1 - p))
            for i in range(q + 1):
                row[i] += sign * math.comb(q, i)
            if k:
                count(_maximal(rays & s for s in sets[:k]), -sign)

    count(_maximal(sum(bit[r] for r in c.rays) for c in f), 1)
    table = [[0] * (f.rank + 1) for _ in range(f.rank + 1)]
    for p, row in cold.items():
        for h in range(p + 1):
            hot = math.comb(p, h)
            for j, c in enumerate(row, start=h):
                table[j][h] += hot * c
    return table


def _orbit_sum(count: Sequence[int]) -> grothring.GrothClass:
    """sum_j count[j] * (L-1)^{rank-j}, rank = len(count) - 1, by Horner's
    rule on the coefficients: each j-ray cone of a smooth fan is a torus
    orbit of dimension rank - j."""
    coeffs: list[int] = []
    for c in count:  # coeffs * (L-1) + c
        coeffs = [a - b for a, b in zip([c, *coeffs], [*coeffs, 0])]
    return grothring.GrothClass(coeffs)


def toric_class(f: Fan) -> grothring.GrothClass:
    """Class in Z[L] of the toric variety of a smooth fan.

    By the orbit-cone correspondence (Cox-Little-Schenck, Toric Varieties,
    §3.2) each j-ray cone, the zero cone included, contributes a torus
    orbit (L-1)^{rank-j}, so the class is sum_j count[j] * (L-1)^{rank-j}
    over the fan's f-vector, the row sums of `_face_table` (zero direction).
    """
    return _orbit_sum([sum(row) for row in _face_table(f, (0,) * f.rank)])


def fiber_class(f: Fan, direction: Sequence[int]) -> grothring.GrothClass:
    """Class in Z[L] of the fiber over zero of the monomial with exponent
    `direction`: the orbit sum of `toric_class` restricted to the cones
    meeting the support of the monomial's zero divisor, i.e. those with a
    ray that pairs positively with `direction`: the sums over h >= 1 of
    `_face_table`."""
    return _orbit_sum([sum(row[1:]) for row in _face_table(f, direction)])
