"""The dual side of the model  t*y = z_1*...*z_n:  the canonical generators
of the dual of the model cone, the decomposition of its lattice points, the
duality rows of a cone, and the chart records of the blow-up replay.

The dual of sigma = cone(e_1, ..., e_n, f_1, ..., f_n), f_i = e_i + e_{n+1},
is generated by e_1*, ..., e_{n+1}* and e_1* + ... + e_n* - e_{n+1}*, the
monomials of z_1, ..., z_n, t and y in `singular_model_chart(n)`.  A
`ChartPresentation` names such monomials and one binomial relation among
them; `toriclat.blowup_chart_sequence(n)` replays the resolution from the
singular chart into the charts U_1, ..., U_n.

Only `dual`, `resolve` and `verify --scope lemma-toric` run this module;
`report` and the orbit API do not (`tests/test_imports.py` pins this).  It
reads `fans`, for its cones, and `checks` by `from . import x`, which runs
`x` on first use, so `dual_generators` and `greedy_decompose` run only
`_intmat`, and `dual` runs no certificate code of `toriclat`.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional, Sequence

from ._intmat import Vec, as_vec, first_difference, unit, vadd, vscale
from . import checks, fans


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
    vec = as_vec(v)
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


def certify_duality(sigma: fans.Cone, dual: fans.Cone,
                    generators: Optional[Sequence[Vec]]) -> list[checks.CheckResult]:
    """The duality rows of `sigma` and `dual`, the dual its caller built:
    "dual generators", whether the rays of `dual` are the list `generators`
    (no row when it is None), and "duality involution", decided by
    exchange: the dual's rays must be sigma's stored facets, and the dual's
    facets, the rays of dual(dual(sigma)), sigma's rays.  So it builds no
    cone, and a redundant facet of sigma, which the dual drops from its
    rays, fails the row.  A failing row names the least vector that
    differs.  Pure, so a mutant, a wrong dual included, is an argument."""
    rays = ("ray", " of the dual cone", dual.rays)
    rows = []
    if generators is not None:
        missing = _first_missing(rays, ("canonical generator", "", generators))
        rows.append(checks.CheckResult("dual generators", missing is None,
                                       missing or f"{len(generators)} canonical generators"))
    missing = (_first_missing(rays, ("facet", " of sigma", sigma.inequalities))
               or _first_missing(("facet", " of the dual cone", dual.inequalities),
                                 ("ray", " of sigma", sigma.rays)))
    rows.append(checks.CheckResult("duality involution", missing is None,
                                   missing or "dual(dual(sigma)) == sigma"))
    return rows


def _first_missing(ours: tuple[str, str, Sequence[Vec]],
                   theirs: tuple[str, str, Sequence[Vec]]) -> Optional[str]:
    """None if two lists of vectors, each given as (noun, owner, vectors),
    agree as multisets; else the least vector on which they differ, named
    as a member of the list that holds it and not of the other."""
    difference = first_difference(ours[2], theirs[2])
    if difference is None:
        return None
    vector, extra = difference
    (noun, owner, _), (other, other_owner, _) = (ours, theirs) if extra else (theirs, ours)
    return f"{noun} {list(vector)}{owner} is not a {other}{other_owner}"


# -- chart presentations ------------------------------------------------


class Coordinate(NamedTuple("Coordinate", [("name", str), ("monomial", Vec)])):
    """A named affine coordinate given by its monomial exponent vector."""

    __slots__ = ()

    def __new__(cls, name: str, monomial: Sequence[int]):
        return super().__new__(cls, name, as_vec(monomial))


class ChartPresentation(NamedTuple("ChartPresentation", [
        ("coordinates", tuple[Coordinate, ...]),
        ("relation", tuple[tuple[int, ...], tuple[int, ...]])])):
    """A symbolic affine chart: named coordinate monomials in the dual
    lattice M, plus a binomial relation prod(left) = prod(right) given by
    multisets of coordinate indices.

    The relation is validated on construction as an identity of lattice
    vectors: the sum of the left monomials equals the sum of the right
    monomials.
    """

    __slots__ = ()

    def __new__(cls, coordinates: Iterable[Coordinate],
                relation: tuple[Sequence[int], Sequence[int]]):
        coords = tuple(coordinates)
        if not coords:
            raise ValueError("a chart needs at least one coordinate")
        rank = len(coords[0].monomial)
        if any(len(c.monomial) != rank for c in coords):
            raise ValueError("all monomials must share the ambient rank")
        left, right = map(tuple, relation)
        for idx in left + right:
            if not 0 <= idx < len(coords):
                raise ValueError(f"relation index {idx} out of range")
        lsum = functools.reduce(vadd, (coords[i].monomial for i in left), (0,) * rank)
        rsum = functools.reduce(vadd, (coords[i].monomial for i in right), (0,) * rank)
        if lsum != rsum:
            raise ValueError(f"relation is not a lattice identity: {lsum} != {rsum}")
        return super().__new__(cls, coords, (left, right))

    def monomials(self) -> tuple[Vec, ...]:
        return tuple(c.monomial for c in self.coordinates)

    def monomial_cone(self) -> fans.Cone:
        """The cone generated by the coordinate monomials (canonicalized)."""
        return fans.Cone(self.monomials())

    def render_relation(self) -> str:
        left, right = self.relation
        fmt = lambda idxs: "*".join(self.coordinates[i].name for i in idxs) or "1"
        return f"{fmt(left)} = {fmt(right)}"

    def to_json_dict(self) -> dict:
        return {
            "coords": [{"name": c.name, "monomial": list(c.monomial)}
                       for c in self.coordinates],
            "relation": {"left": list(self.relation[0]), "right": list(self.relation[1])},
        }


def singular_model_chart(n: int) -> ChartPresentation:
    """The starting presentation of the model: coordinates z_1, ..., z_n,
    t, y with monomials e_1*, ..., e_n*, e_{n+1}*, e_1*+...+e_n*-e_{n+1}*
    and the defining relation t*y = z_1*...*z_n."""
    names = [f"z{i + 1}" for i in range(n)] + ["t", "y"]
    return ChartPresentation(
        coordinates=tuple(map(Coordinate, names, dual_generators(n))),
        relation=((n, n + 1), tuple(range(n))),
    )
