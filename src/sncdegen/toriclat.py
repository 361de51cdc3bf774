"""Exact lattice-polyhedral machinery for the toric resolution of the
local model  t*y = z_1*...*z_n.

The ambient lattice is N = Z^{n+1} with standard basis e_1, ..., e_{n+1};
the model cone sigma is generated by e_1, ..., e_n together with
f_i = e_i + e_{n+1}.  The affine variety Spec k[sigma^v ∩ M] is exactly
the hypersurface t*y = z_1...z_n, and subdividing sigma into the slabs

    sigma_k = cone(f_1, ..., f_k, e_k, ..., e_n),
    x_1 + ... + x_{k-1} <= x_{n+1} <= x_1 + ... + x_k,

resolves it with a reduced simple normal crossing central fiber; only
sigma_1 runs a double description, and each later slab comes from the one
before by an exchange pivot of e_k for f_{k+1}, O(rank^2).  This module
provides the cones and fans for that story, plus exact certification
routines: cone duality by the double description method, unimodularity
from the pairing of each ray with the one facet not through it (read off
the stored ray-facet incidence, no Smith normal form), a whole-cone
partition certificate (wall matching plus one generic point, with an
opt-in bounded lattice sweep as a cross-check) that also proves the fan
axiom, semistability of the fiber direction, and orbit-cone class
counting in Z[L].  Everything is integer-exact and pure Python.

`certify_local(fan, parent, direction)` gives the rows of a strictly
semistable model from its data alone; `slab_certificate(k)` is its cached
call on the slab data, and `restrict_certificate(top, k)` restricts that
to a face, the certificate of a lower depth.  It reads `grothring` and
`checks` by `from . import x`, which runs `x` on first use, so a
certificate runs no Z[L] code (`tests/test_imports.py` pins this).

The dual side of the model, its canonical dual generators, the duality
rows and the chart records, is in `duality`, which `report` and the orbit
API never run.  Two functions of that side stay here: `dual_cone`, which
caches nothing, and `blowup_chart_sequence(n)`, which reads `duality` by
`from . import duality`, so that module runs only when a chart is built.
Both are spans of the benchmark's tracer (`perfbench/traced.py`), which
looks them up in this module.  The replay builds its charts from
`duality.singular_model_chart(n)` by substitution, with no reference to
the fan, so they are an oracle for the slabs: the monomials of chart U_k
generate the dual of sigma_k, whose rays are sigma_k's stored facets.

Orbit counting reads one table of a smooth fan: its faces by number of
rays and by number of rays that pair positively with the fiber direction,
a signed sum of binomials over the ray sets of the maximal cones and their
intersections, by one inclusion-exclusion for every fan.  When the cones
form a chain, as the slabs do, only consecutive intersections remain and
the count is polynomial in n.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from typing import Iterable, NamedTuple, Optional, Sequence

from ._intmat import (
    Vec,
    as_vec,
    dot,
    extreme_rays,
    first_difference,
    mat_rank,
    primitive,
    unit,
    vadd,
    vscale,
    vsub,
)
from . import checks, duality, grothring


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
            dot(u, r) == 1 for r, u in _opposite_facets(c).items())
    return c._smooth


def _opposite_facets(c: Cone) -> dict[Vec, Vec]:
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
    opposite = _opposite_facets(c)
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
    return _simplicial(c.rank, opposite)


def _simplicial(rank: int, opposite: dict[Vec, Vec]) -> Cone:
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
    cones meet in a common face, is proved by `verify_partition` against a
    parent cone, the package's only check of it; every fan the library
    builds passes it against its parent.  The pairwise test `_common_face`
    checks no fan of the package: it is the tests' reference for that
    proof."""

    __slots__ = ("_rank", "_max_cones")

    def __init__(self, max_cones: Iterable[Cone]):
        cones = tuple(max_cones)
        if not cones:
            raise ValueError("a fan needs at least one maximal cone")
        rank = cones[0].rank
        if any(c.rank != rank for c in cones):
            raise ValueError("all cones must share the ambient rank")
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


def _face_of(cone: Cone, face_rays: Sequence[Vec]) -> bool:
    """Is the cone spanned by face_rays a face of `cone`, i.e. are they all
    the rays of `cone` on every facet that contains them?  Used only by
    `_common_face`."""
    on = cone._incidence
    common = functools.reduce(operator.and_, (on.get(r, 0) for r in face_rays), -1)
    return {r for r, m in on.items() if m & common == common} == set(face_rays)


def _common_face(a: Cone, b: Cone) -> bool:
    """The complete test: the extreme rays of a ∩ b, from one double
    description on the facets of both, span a face of each.

    No code of the package calls it: `verify_partition` proves the fan
    axiom.  It stays as the reference that the tests hold that proof
    against, and as a span of the benchmark's tracer."""
    meet = [r for r, _ in extreme_rays(a.inequalities + b.inequalities, a.rank)]
    return _face_of(a, meet) and _face_of(b, meet)


# -- the model cone and its subdivision ---------------------------------


def _f_vector(rank: int, i: int) -> Vec:
    return unit(rank - 1, i) + (1,)  # e_{i+1} + e_rank


def _model_rays(n: int) -> list[Vec]:
    """e_1, ..., e_n, f_1, ..., f_n in Z^{n+1}: the rays of `model_cone(n)`."""
    rank = n + 1
    return [unit(rank, i) for i in range(n)] + [_f_vector(rank, i) for i in range(n)]


@functools.lru_cache(maxsize=None)
def model_cone(n: int) -> Cone:
    """The cone sigma = cone(e_1, ..., e_n, f_1, ..., f_n) in Z^{n+1},
    whose affine toric variety is the hypersurface t*y = z_1*...*z_n."""
    if n < 1:
        raise ValueError(f"the model needs n >= 1, got {n}")
    return Cone(_model_rays(n))


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
    certified by `verify_partition` against `model_cone(n)`.  Every
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


# -- certification ------------------------------------------------------


#: Largest opt-in partition sweep, in lattice points: a few seconds in pure Python.
MAX_SWEEP_POINTS = 10**5


def verify_partition(f: Fan, parent: Cone, bound: int = 0) -> bool:
    """Certify that the maximal cones of f partition the parent cone:

    (a) every maximal cone is contained in the parent,
    (b) every pairwise intersection of maximal cones is a common face,
        which follows from (a) and (c), as shown below,
    (c) the cones subdivide the whole parent (De Loera-Rambau-Santos,
        *Triangulations*, ch. 4): every facet of a maximal cone either
        lies on a facet of the parent or is the facet of exactly one
        other maximal cone, with the opposite normal; and one point of
        the parent lying on no facet hyperplane is covered exactly once,
    (d) library-level cross-check only, opt-in through `bound` and never
        set by a command: every lattice point of the parent in
        the box [lo, bound]^rank lies in some maximal cone, where lo = 0
        when the parent lies in the nonnegative orthant and -bound
        otherwise.  The default bound 0 sweeps the origin only; larger
        boxes than MAX_SWEEP_POINTS raise ValueError.

    All checks are exact and cover the whole parent; (d) adds nothing to
    the verdict unless (a)-(c) are wrong.  `_partition_failure` names the
    witness of a failure.

    Proof of (b), for full-dimensional cones, simplicial or not.  (1) Crossing
    a generic point of a facet hyperplane, wall matching leaves as many cones
    as it enters, so every generic point of the parent lies in equally many
    cones: one, as the point of (c) does.  (2) Let p lie in the relative
    interior of a face F of a cone.  Near p, every facet of a cone with face F
    contains F, and its partner across the wall has face F too, so (1) run in
    a small ball around p shows that every cone through p has face F.
    (3) Take p in the relative interior of σ ∩ τ, and F the least face of σ
    containing p.  By (2) F is a face of τ, so F ⊆ σ ∩ τ ⊆ F.
    """
    return _partition_failure(f, parent, bound) is None


def _partition_failure(f: Fan, parent: Cone, bound: int = 0) -> Optional[str]:
    """None when f partitions the parent, else a one-line witness."""
    box = _sweep_box(parent, bound)
    outside = {r for r in f.rays() if not parent.contains(r)}
    if outside:
        c, ray = next((c, r) for c in f for r in c.rays if r in outside)
        return f"ray {list(ray)} of {c!r} lies outside the parent"
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
    walls = [(tuple(r for r, m in c._incidence.items() if m >> j & 1), a)
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


class FiberCheck(NamedTuple):
    """Semistability report for the fiber of a monomial direction."""

    reduced: bool
    smooth: bool

    @property
    def snc(self) -> bool:
        return self.reduced and self.smooth

    def to_json_dict(self) -> dict:
        return {"reduced": self.reduced, "smooth": self.smooth, "snc": self.snc}


def fiber_rays(f: Fan, direction: Sequence[int]) -> tuple[Vec, ...]:
    """The rays of `f` that pair positively with `direction`, in the fan's
    order.  Each is one component D_rho of the fiber over zero of the
    monomial with exponent `direction`; every count of that fiber reads
    its rays here."""
    d = as_vec(direction)
    if len(d) != f.rank:
        raise ValueError("direction must live in the dual lattice of the fan")
    return tuple(r for r in f.rays() if dot(d, r) > 0)


def semistable_fiber_check(f: Fan, direction: Sequence[int]) -> FiberCheck:
    """Check that the fiber of the monomial with exponent `direction` over
    zero is reduced with simple normal crossing support:

    * reduced  — every ray pairing positively with the direction pairs to
      exactly 1 (multiplicity-one components);
    * smooth   — every maximal cone is unimodular;
    * snc      — both (smooth toric ambient + reduced invariant divisors).
    """
    d = as_vec(direction)
    reduced = all(dot(d, r) == 1 for r in fiber_rays(f, d))
    smooth = all(is_smooth(c) for c in f)
    return FiberCheck(reduced=reduced, smooth=smooth)


class LocalCertificate(NamedTuple):
    """What `certify_local` or `restrict_certificate` certified: the fan
    (None for a restriction of a fan that failed), the fiber direction, the
    fan's `FiberCheck` for it and the three rows that every command prints."""

    fan: Optional[Fan]
    direction: Vec
    fiber: FiberCheck
    rows: tuple[checks.CheckResult, checks.CheckResult, checks.CheckResult]


def certify_local(fan: Fan, parent: Cone, direction: Sequence[int]) -> LocalCertificate:
    """Certify that `fan` is a strictly semistable model of the toric
    variety of `parent` over the monomial with exponent `direction`: rows
    "cones unimodular", "partition of model cone" and "semistable fiber".
    Pure, so a mutant is an argument; a witness is computed only on failure."""
    failure = None if verify_partition(fan, parent) else _partition_failure(fan, parent)
    return _certificate(fan, direction, failure, "walls matched, generic point covered once")


def _certificate(fan: Fan, direction: Sequence[int], failure: Optional[str],
                 covered: str) -> LocalCertificate:
    """The rows of `fan` in `direction`, its partition's witness `failure`
    (None if it holds) and the detail `covered` of a pass given."""
    direction = as_vec(direction)
    fiber = semistable_fiber_check(fan, direction)
    unimodular = f"{len(fan)} maximal cone(s) of the rank-{fan.rank} subdivision"
    if not fiber.smooth:
        cone = next(c for c in fan if not is_smooth(c))
        why = f"{len(cone.rays)} rays in rank {cone.rank}"
        if len(cone.rays) == cone.rank:  # simplicial: a ray pairs > 1
            why = next(f"ray {list(r)} pairs {dot(u, r)} with its opposite facet"
                       for r, u in _opposite_facets(cone).items() if dot(u, r) != 1)
        unimodular = f"{cone!r} is not unimodular: {why}"
    semistable = f"reduced={fiber.reduced}, smooth={fiber.smooth}"
    if not fiber.reduced:
        ray = next(r for r in fan.rays() if dot(direction, r) > 1)
        semistable += f"; ray {list(ray)} pairs {dot(direction, ray)} with the fiber direction"
    rows = (checks.CheckResult("cones unimodular", fiber.smooth, unimodular),
            checks.CheckResult("partition of model cone", failure is None, failure or covered),
            checks.CheckResult("semistable fiber", fiber.snc, semistable))
    return LocalCertificate(fan, direction, fiber, rows)


@functools.lru_cache(maxsize=None)
def slab_certificate(k: int) -> LocalCertificate:
    """`certify_local` on the slab data of t*y = z_1*...*z_k: the slab fan
    of rank k+1, the model cone and the fiber direction e_{k+1}* of t,
    certified once per k for `resolve`, `verify` and `report` alike."""
    return certify_local(resolution_fan(k), model_cone(k), unit(k + 1, k))


@functools.lru_cache(maxsize=None)
def restrict_certificate(top: LocalCertificate, k: int) -> LocalCertificate:
    """The certificate of depth k read off `top`, one of depth K > k against
    `model_cone(K)`, with no double description: the cones of top.fan in
    the face F_k = {x_{k+1} = ... = x_K = 0} and the fiber direction, in the
    coordinates x_1..x_k, x_{K+1}.  The depth-k model is the depth-K model
    localized at z_{k+1}*...*z_K.  If top's cones are unimodular and
    partition the model cone, this is sound: (1) the cones of a subdivision
    that lie in a face subdivide it, and a simplicial cone meets F_k in the
    face its rays there span, so the maximal ones have k+1 rays in F_k;
    (2) a face of a unimodular cone is unimodular in its saturated
    sublattice, with the projected opposite facets as its facets; (3)
    e_{K+1}* restricts to e_{k+1}*.  The partition row also checks, in
    O(K^2), that the projected rays in F_k are those of `model_cone(k)`.
    A top that fails either condition restricts to no fan, and each row
    names the top row that failed."""
    depth = len(top.direction) - 1
    if not 1 <= k < depth:
        raise ValueError(f"need 1 <= k < {depth}, got k={k}")
    proj = operator.itemgetter(*range(k), depth)
    broken = next((row.name for row in top.rows[:2] if not row.passed), None)
    if broken is not None:
        why = f"no restriction from k={depth}: its row {broken!r} fails"
        return LocalCertificate(None, proj(top.direction), FiberCheck(False, False), tuple(
            row._replace(passed=False, detail=why) for row in top.rows))
    cones, got = [], set()
    for c in top.fan:
        inside = [r for r in c.rays if not any(r[k:depth])]
        got.update(inside)
        if len(inside) == k + 1:
            opposite = _opposite_facets(c)
            face = _simplicial(k + 1, {proj(r): proj(opposite[r]) for r in inside})
            face._smooth = True  # by (2)
            cones.append(face)
    zero = [f"x{i}" for i in range(k + 1, depth + 1)]
    source = (f"restricted from k={depth} to "
              f"{'='.join(zero if len(zero) < 3 else [zero[0], '...', zero[-1]])}=0")
    difference = first_difference(map(proj, got), _model_rays(k))
    failure = None if difference is None else (
        f"{source}: ray {list(difference[0])} is a ray of the "
        f"{'restricted fan' if difference[1] else 'model cone'} only")
    return _certificate(Fan(cones), proj(top.direction), failure, source)


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


# -- the blow-up replay -------------------------------------------------


def blowup_chart_sequence(n: int) -> list[duality.ChartPresentation]:
    """Replay the resolution as a sequence of n-1 blow-ups of
    `duality.singular_model_chart(n)`, returning the n smooth charts U_1,
    ..., U_n.

    Step k blows up the locus where the residual coordinate t_{k-1} (with
    t_0 = t) and z_k vanish together.  In the chart U_k the substitution
    z_k = t_{k-1} * z_k' gives z_k' the monomial z_k - t_{k-1} and turns the
    running relation into the solved form y = z_k' * z_{k+1} * ... * z_n;
    the residual chart keeps z_k and continues with t_k = t_{k-1} / z_k,
    monomial t_{k-1} - z_k.  After n-1 steps the residual chart is itself
    smooth with relation t_{n-1} * y = z_n, and is returned as U_n.

    Coordinate naming: "t" (residual, step 0) then "t1", "t2", ...;
    original coordinates "z1", ..., "zn" and "y"; the substituted
    coordinate at step k is "zk'".  Every monomial comes from the
    substitutions alone, so the charts are an oracle independent of the
    fan: the coordinate monomials of U_k generate exactly the dual cone
    of sigma_k, which the tests and `verify` check.
    """
    if n < 2:
        raise ValueError(f"the blow-up sequence needs n >= 2, got {n}")
    *z, t, y = duality.singular_model_chart(n).coordinates
    charts = []
    for k, z_k in enumerate(z[:-1], start=1):
        prime = duality.Coordinate(f"z{k}'", vsub(z_k.monomial, t.monomial))
        # y = z_k' * z_{k+1} * ... * z_n ; coordinate k holds z_k'
        charts.append(duality.ChartPresentation((t, *z[:k - 1], prime, *z[k:], y),
                                                ((n + 1,), range(k, n + 1))))
        t = duality.Coordinate(f"t{k}", vsub(t.monomial, z_k.monomial))
    # t_{n-1} * y = z_n
    charts.append(duality.ChartPresentation((t, *z, y), ((0, n + 1), (n,))))
    return charts
