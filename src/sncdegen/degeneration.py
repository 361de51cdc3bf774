"""Degeneration bookkeeping: local normal forms on arrangement strata,
their toric resolutions, and central-fiber class accounting in Z[L].

The setting is a pencil degenerating a smooth degree-d hypersurface in
P^{n+1} to a union of d hyperplanes in general position (the Fano range
is d <= n+1).  Near a point lying on exactly k of the hyperplanes the
total space has local equation t*x_{n+1} = x_1*...*x_k times a free
A^{n-k} factor; that normal form is resolved by the fan machinery of
`toriclat`, and the class of the central fiber is tracked exactly in
Z[L] before and after, certifying that its residue modulo L never
changes.  Before the resolution the singular fiber {x_1*...*x_k = 0}
gets its class from a fibration recursion, O(k) operations in Z[L],
checked against the closed form L^k - (L-1)^k.  A report certifies its
deepest stratum, up to MAX_CERTIFIED_STRATUM, and restricts that one
toric certificate to every lower stratum.  Reports are machine-checkable:
a list of named pass/fail checks plus the two fiber classes,
serializable to JSON and renderable as a table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence, Union

from . import toriclat
from ._intmat import Vec, dot
from .checks import CheckResult, render_checks
from .grothring import (
    GrothClass,
    L,
    ONE,
    ZERO,
    arrangement_class_closed,
    reduce_mod_L,
)


class LocalModelSpec(NamedTuple("LocalModelSpec", [("n", int), ("k", int)])):
    """Local normal form t*x_{n+1} = x_1*...*x_k on a depth-k stratum of
    the arrangement: n is the fiber dimension, k the number of branches
    through the point (1 <= k <= n); n-k coordinates are free."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return super().__new__(cls, n, k)

    @property
    def equation(self) -> str:
        zs = "*".join(f"x{i + 1}" for i in range(self.k))
        return f"t*x{self.n + 1} = {zs}"

    def to_json_dict(self) -> dict:
        return {"type": "local", "n": self.n, "k": self.k, "equation": self.equation}


#: Deepest stratum k whose toric certificate `full_degeneration_report`
#: builds (one slab fan of rank k+1, restricted to every lower stratum): a
#: time budget of 0.10-0.14 s cold for the whole report at k = 24 (10
#: runs, 2 vCPUs), not a bound of the mathematics.
MAX_CERTIFIED_STRATUM = 24


class DegenerationSpec(NamedTuple("DegenerationSpec", [("n", int), ("d", int)])):
    """A pencil of degree-d hypersurfaces of dimension n degenerating to d
    hyperplanes in general position, as `full_degeneration_report`, its
    only consumer, certifies it: n >= 2, the Fano range d <= n+1, and a
    deepest stratum min(d, n) of at most MAX_CERTIFIED_STRATUM."""

    __slots__ = ()

    def __new__(cls, n: int, d: int):
        if n < 2:
            raise ValueError(f"the degeneration model needs n >= 2, got n={n}")
        if not 1 <= d <= n + 1:
            raise ValueError(f"degree must satisfy 1 <= d <= n+1, got d={d}, n={n}")
        if min(d, n) > MAX_CERTIFIED_STRATUM:
            raise ValueError(f"the toric certificate is limited to strata of depth "
                             f"k <= {MAX_CERTIFIED_STRATUM}, got k={min(d, n)}")
        return super().__new__(cls, n, d)

    def to_json_dict(self) -> dict:
        return {"type": "degeneration", "n": self.n, "d": self.d}


class VerificationReport(NamedTuple("VerificationReport", [
        ("model", Union[LocalModelSpec, DegenerationSpec]),
        ("checks", tuple[CheckResult, ...]),
        ("fiber_class_before", GrothClass),
        ("fiber_class_after", GrothClass)])):
    """Machine-checkable outcome of a resolution or degeneration run.

    `fiber_class_before` and `fiber_class_after` are the central-fiber
    classes on the two sides of the resolution; `mod_L_invariant` states
    that their residues modulo L agree.  The report passes iff every check
    does: for a local model that comparison is one of the checks ("mod-L
    invariance"), and an aggregate report carries it once per stratum."""

    __slots__ = ()

    def __new__(cls, model: Union[LocalModelSpec, DegenerationSpec],
                checks: Sequence[CheckResult], fiber_class_before: GrothClass,
                fiber_class_after: GrothClass):
        return super().__new__(cls, model, tuple(checks), fiber_class_before,
                               fiber_class_after)

    @property
    def mod_L_invariant(self) -> bool:
        return (reduce_mod_L(self.fiber_class_before)
                == reduce_mod_L(self.fiber_class_after))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "checks": [c.to_json_dict() for c in self.checks],
            "fiber_class_before": self.fiber_class_before.to_json_dict(),
            "fiber_class_after": self.fiber_class_after.to_json_dict(),
            "mod_L_invariant": self.mod_L_invariant,
        }

    def render_table(self) -> str:
        """Human-readable fixed-width table of the report."""
        model = self.model.to_json_dict()
        desc = ", ".join(f"{k}={v}" for k, v in model.items() if k != "type")
        lines = [f"model: {model['type']} ({desc})", *render_checks(self.checks)]
        lines.append(f"  fiber class before: {self.fiber_class_before.render()}")
        lines.append(f"  fiber class after:  {self.fiber_class_after.render()}")
        lines.append(
            f"  mod-L residues: {reduce_mod_L(self.fiber_class_before)} -> "
            f"{reduce_mod_L(self.fiber_class_after)} "
            f"({'invariant' if self.mod_L_invariant else 'CHANGED'})")
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def affine_coordinate_arrangement_class(k: int) -> GrothClass:
    """Class of the union of the k coordinate hyperplanes of A^k, by the
    fibration recursion that splits on whether x_k = 0:

        A(1) = 1,    A(k) = L^{k-1} + (L-1)*A(k-1),

    the slice x_k = 0 being A^{k-1} and each point of x_k != 0, a copy of
    L-1, carrying the union of k-1 hyperplanes.  This is the
    scissor-relation route to the singular central fiber; it equals
    L^k - (L-1)^k but shares no arithmetic with that closed form, so the
    two expressions check each other.  O(k) operations in Z[L], no cap.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    total, power, torus = ONE, ONE, L - ONE
    for _ in range(k - 1):
        power = power * L
        total = power + torus * total
    return total


@functools.lru_cache(maxsize=None)
def _resolved_fiber(cones: tuple[toriclat.Cone, ...], direction: Vec) -> tuple[GrothClass, int]:
    """The orbit count of the central fiber of a unimodular fan and its
    components, one D_rho per ray rho pairing positively with the direction;
    cached by the cones, which every depth K > k restricts to alike."""
    fan = toriclat.Fan(cones)
    return (toriclat.fiber_class(fan, direction),
            sum(1 for r in fan.rays() if dot(direction, r) > 0))


def resolve_local_model(spec: LocalModelSpec) -> VerificationReport:
    """Resolve the local normal form t*x_{n+1} = x_1*...*x_k and account
    for the central-fiber class on both sides, from the certificate of the
    slab fan of rank k+1, `toriclat.slab_certificate(k)`.

    The toric work happens in rank k+1 (the free A^{n-k} factor enters
    multiplicatively as L^{n-k}).  Checks: (a) all maximal cones of the
    subdivision are unimodular, (b) the subdivision partitions the model
    cone (exact whole-cone certificate), (c) the fiber direction is
    semistable, (d) the singular fiber class, L^{n-k+1} times the
    fibration recursion of `affine_coordinate_arrangement_class`, equals
    L^{n-k+1}*(L^k - (L-1)^k), (e) the resolved fiber class, the
    rank-(k+1) orbit count times L^{n-k}, is L^{n-k} times the slab fan's
    class k*L^k, (f) the two classes agree modulo L.  Without unimodular
    cones there is no orbit count: the class after is reported as 0 and
    (e) and (f) fail.  `full_degeneration_report` calls it for its deepest
    stratum only.
    """
    return _local_report(spec, toriclat.slab_certificate(spec.k))


@functools.lru_cache(maxsize=None)
def _depth_classes(k: int) -> tuple[GrothClass, GrothClass, GrothClass]:
    """L^k, the singular fiber's closed form L^k - (L-1)^k and the
    fibration recursion `affine_coordinate_arrangement_class(k)` that
    checks it: the classes of a stratum that depend on its depth alone,
    once per depth.  The recursion is looked up in the module on each
    cache miss, so a mutant patched in after the cache is cleared reaches
    every report."""
    power = L**k
    return power, power - (L - ONE) ** k, affine_coordinate_arrangement_class(k)


def _local_report(spec: LocalModelSpec,
                  certificate: toriclat.LocalCertificate) -> VerificationReport:
    """The six checks of `resolve_local_model` on a certificate of depth k,
    the classes of depth k read from `_depth_classes(k)`."""
    n, k = spec.n, spec.k
    fan = certificate.fan
    after_core, components = (_resolved_fiber(fan.max_cones, certificate.direction)
                              if certificate.fiber.smooth else (None, 0))

    power, closed_form, scissor = _depth_classes(k)
    free = L ** (n - k)  # the A^{n-k} factor
    before = free * L * scissor
    after = ZERO if after_core is None else free * after_core
    expected = free * power * k
    no_count = "no orbit count: " + (
        "no fan was restricted" if fan is None else "the cones are not unimodular")
    resolved = no_count
    if after_core is not None:
        # on the slab fan there are k components, the class at L=1
        resolved = (f"orbit count gives {after.render()}; "
                    f"{components} component(s) at L=1")
        if after != expected:
            resolved += f"; expected {expected.render()}"

    checks = (
        *certificate.rows,
        CheckResult(
            "singular fiber class", scissor == closed_form,
            f"scissor oracle gives {before.render()} = "
            f"L^{n - k + 1}*(L^{k} - (L-1)^{k})"),
        CheckResult(
            "resolved fiber class", after == expected, resolved),
        CheckResult(
            "mod-L invariance",
            after_core is not None and reduce_mod_L(before) == reduce_mod_L(after),
            no_count if after_core is None
            else f"residues {reduce_mod_L(before)} == {reduce_mod_L(after)}"),
    )
    return VerificationReport(
        model=spec,
        checks=checks,
        fiber_class_before=before,
        fiber_class_after=after,
    )


def full_degeneration_report(spec: DegenerationSpec) -> VerificationReport:
    """End-to-end certificate for the degeneration: the central fiber's
    class is congruent to 1 modulo L, and every local normal form that
    occurs on a stratum of the arrangement is resolved with an unchanged
    fiber-class residue.  In the family H_1*...*H_d + t*F = 0 in P^{n+1},
    the total space is the graph t = -H_1*...*H_d/F off {F = 0}; where F
    and exactly k of the H_i vanish it is t*x_{n+1} = x_1*...*x_k with
    x_{n+1} = F, for each k = 1..min(d, n).

    Only the deepest stratum K = min(d, n) is certified, by
    `resolve_local_model`; each k < K reads its rows off the restriction
    `toriclat.restrict_certificate(slab_certificate(K), k)`, so a mutant of
    the top certificate reaches every stratum.

    Per-stratum checks are flattened into the aggregate check list under
    a "stratum k=..." prefix.  The report's own before/after classes both
    record the central fiber's class, the arrangement class P(d, n) of d
    copies of P^n from `arrangement_class_closed`, whose residue is 1
    throughout the Fano range d <= n+1: the local resolutions leave it
    untouched modulo L, which is the invariant being certified.
    """
    n, d = spec.n, spec.d
    depth = min(d, n)
    cls = arrangement_class_closed(d, n)
    residue = reduce_mod_L(cls)
    checks = [CheckResult(
        "central fiber class = 1 mod L", residue == 1,
        f"[{d} hyperplanes in P^{n + 1}] = {cls.render()}, residue {residue}")]
    top = resolve_local_model(LocalModelSpec(n=n, k=depth))
    for k in range(1, depth + 1):
        sub = top if k == depth else _local_report(LocalModelSpec(n=n, k=k), (
            toriclat.restrict_certificate(toriclat.slab_certificate(depth), k)))
        checks += [c._replace(name=f"stratum k={k}: {c.name}") for c in sub.checks]
    return VerificationReport(
        model=spec,
        checks=tuple(checks),
        fiber_class_before=cls,
        fiber_class_after=cls,
    )
