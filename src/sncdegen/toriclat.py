"""The certificate of a toric resolution of the local model
t*y = z_1*...*z_n: a whole-cone partition proof, unimodularity and
semistability of the fiber direction, as the three rows that every
command prints, and the blow-up replay of the resolution.

The cones, fans, the model cone and its slabs, and the orbit count in
Z[L] are in `fans`; this module reads them from there.  The partition
certificate is wall matching plus one generic point, with an opt-in
bounded lattice sweep as a cross-check, and it also proves the fan axiom.
Everything is integer-exact and pure Python.

`certify_local(fan, parent, direction)` gives the rows of a strictly
semistable model from its data alone; `slab_certificate(k)` is its cached
call on the slab data, and `restrict_certificate(top, k)` restricts that
to a face, the certificate of a lower depth.  It reads `checks` by
`from . import checks`, which runs it on first use.  `report`, `resolve`
and `verify` run this module; the orbit API and `dual` do not
(`tests/test_imports.py` pins this).

The dual side of the model, its canonical dual generators, the duality
rows and the chart records, is in `duality`.  `blowup_chart_sequence(n)`
stays here and reads `duality` by `from . import duality`, so that module
runs only when a chart is built.  The replay builds its charts from
`duality.singular_model_chart(n)` by substitution, with no reference to
the fan, so they are an oracle for the slabs: the monomials of chart U_k
generate the dual of sigma_k, whose rays are sigma_k's stored facets.

The benchmark's tracer (`perfbench/traced.py`) looks up its spans of the
toric code in this module, those of `fans` included, so this module binds
them all: `TRACED` holds the three that it never calls.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import NamedTuple, Optional, Sequence

from ._intmat import Vec, as_vec, dot, extreme_rays, first_difference, unit, vadd, vscale, vsub
from .fans import (
    Cone,
    Fan,
    dual_cone,
    fiber_class,
    is_smooth,
    model_cone,
    model_rays,
    opposite_facets,
    resolution_fan,
    simplicial_cone,
    toric_class,
)
from . import checks, duality

#: The spans of perfbench/traced.py bound here from `fans` and not called
#: here: see the docstring.
TRACED = (dual_cone, fiber_class, toric_class)


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


def semistable_fiber_check(f: Fan, direction: Sequence[int]) -> FiberCheck:
    """Check that the fiber of the monomial with exponent `direction` over
    zero is reduced with simple normal crossing support:

    * reduced  — the direction is nonzero and pairs 0 or 1 with every ray:
      the monomial is a function on the fan's toric variety, not a unit,
      and its fiber has multiplicity-one components (`_unreduced`);
    * smooth   — every maximal cone is unimodular;
    * snc      — both (smooth toric ambient + reduced invariant divisors).
    """
    reduced = _unreduced(f, as_vec(direction)) is None
    smooth = all(is_smooth(c) for c in f)
    return FiberCheck(reduced=reduced, smooth=smooth)


def _unreduced(f: Fan, direction: Vec) -> Optional[str]:
    """None when the fiber of `direction` is reduced, else the witness: a
    zero direction, or the first ray that pairs neither 0 nor 1 with it.
    A ray pairing < 0 makes the monomial no function on the fan's toric
    variety, one pairing > 1 a component of higher multiplicity."""
    if len(direction) != f.rank:
        raise ValueError("direction must live in the dual lattice of the fan")
    if not any(direction):
        return "the direction is zero"
    ray = next((r for r in f.rays() if not 0 <= dot(direction, r) <= 1), None)
    return None if ray is None else (
        f"ray {list(ray)} pairs {dot(direction, ray)} with the fiber direction")


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
                       for r, u in opposite_facets(cone).items() if dot(u, r) != 1)
        unimodular = f"{cone!r} is not unimodular: {why}"
    semistable = f"reduced={fiber.reduced}, smooth={fiber.smooth}"
    if not fiber.reduced:
        semistable += f"; {_unreduced(fan, direction)}"
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
            opposite = opposite_facets(c)
            face = simplicial_cone(k + 1, {proj(r): proj(opposite[r]) for r in inside})
            face._smooth = True  # by (2)
            cones.append(face)
    zero = [f"x{i}" for i in range(k + 1, depth + 1)]
    source = (f"restricted from k={depth} to "
              f"{'='.join(zero if len(zero) < 3 else [zero[0], '...', zero[-1]])}=0")
    difference = first_difference(map(proj, got), model_rays(k))
    failure = None if difference is None else (
        f"{source}: ray {list(difference[0])} is a ray of the "
        f"{'restricted fan' if difference[1] else 'model cone'} only")
    return _certificate(Fan(cones), proj(top.direction), failure, source)



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
