"""Exact integer vector/matrix helpers shared by the cone machinery.

Everything here works on plain Python ints (arbitrary precision) and tuples;
no floating point and no fractions are used anywhere.  Vectors are tuples
of ints, matrices are sequences of row tuples.

All linear algebra over Q goes through one routine, `rref`: a
fraction-free Gauss-Jordan elimination whose rows stay primitive integer
vectors.  Rank (`mat_rank`), the greedy choice of independent rows and
the inverse of a square matrix (the simplicial start of `extreme_rays`)
are all read off its output.  A square system skips the greedy choice:
all its rows are the start, and a singular one shows in the pivots of
that inverse, so a simplicial cone costs one elimination (a slab after
the first costs none: `fans._exchange` pivots it from the last).
The Smith normal form in `invariant_factors` is a different algorithm (it
works over Z, not Q) and keeps its own loop; no code of the package calls
it.  `fans.is_smooth` decides unimodularity, and a failed check names
its witness, from the pairing of each ray with its opposite facet; the
Smith form is the tests' oracle for both, and a span of the benchmark's
tracer.

`extreme_rays` returns each ray with its zero set over the input rows, a
bitmask kept alongside the rays through the double description, so a
caller (`fans.Cone`) reads the ray-row incidence without pairing
them again.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Iterable, Optional, Sequence

Vec = tuple[int, ...]


def as_vec(v: Sequence[int]) -> Vec:
    """`v` as a tuple of ints, each read through `operator.index`, so an
    entry that is not an integer raises TypeError."""
    return tuple(map(operator.index, v))


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def vadd(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: int, v: Sequence[int]) -> Vec:
    return tuple(c * a for a in v)


def unit(rank: int, i: int) -> Vec:
    """Standard basis vector with a 1 in position i (0-based)."""
    if not 0 <= i < rank:
        raise ValueError(f"index {i} out of range for rank {rank}")
    return (0,) * i + (1,) + (0,) * (rank - i - 1)


def primitive(v: Sequence[int]) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v) if g == 1 else tuple(a // g for a in v)


def first_difference(ours: Iterable[Vec], theirs: Iterable[Vec]) -> Optional[tuple[Vec, bool]]:
    """The least vector on which two lists differ as multisets, and whether
    it is surplus in `ours` (else in `theirs`); None if they agree."""
    mine, other = Counter(ours), Counter(theirs)
    surplus = mine - other
    first = min(surplus + (other - mine), default=None)
    return None if first is None else (first, first in surplus)


def rref(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z, by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968, without the division by the
    previous pivot: each updated row is divided by its own gcd instead).

    Returns (rows, pivots): the nonzero rows of the reduced matrix and the
    increasing pivot column of each.  Every returned row is primitive, its
    pivot entry is positive, and each pivot column is zero outside its own
    row.  The row space is that of the input over Q.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == len(work):
            break
        k = next((k for k in range(r, len(work)) if work[k][col] != 0), None)
        if k is None:
            continue
        prow = work[k]
        g = math.gcd(*prow) if prow[col] > 0 else -math.gcd(*prow)
        prow = [a // g for a in prow]
        work[k], work[r] = work[r], prow
        p = prow[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    return work[:len(pivots)], pivots


def mat_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(rref(rows)[1])


def invariant_factors(rows: Iterable[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors (Smith normal form diagonal) of an
    integer matrix, in divisibility order.
    """
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return []
    nrows, ncols = len(a), len(a[0])
    factors: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        # locate a minimal-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        # clear the row and column of the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
            for j in range(t + 1, ncols):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
        # pivot must divide the rest of the block
        pivot = a[t][t]
        culprit = next((i for i in range(t + 1, nrows)
                        if any(x % pivot for x in a[i][t:])), None)
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors


def extreme_rays(ineqs: Sequence[Sequence[int]], rank: int) -> list[tuple[Vec, int]]:
    """Extreme rays of the cone {x : <a, x> >= 0 for all a in ineqs}, each
    with its zero set: bit i of the mask is set iff the ray pairs to 0 with
    ineqs[i], counted by position (a repeated or rescaled row has a bit of
    its own).  Sorted by ray.

    Incremental double description: start from a simplicial subsystem of
    full rank, then insert the remaining inequalities one at a time, keeping
    only extreme rays via the combinatorial adjacency test on zero sets.
    The system must be pointed (the inequality rows span rank `rank`);
    otherwise a ValueError is raised.
    """
    bits: dict[Vec, int] = {}  # primitive row -> the input positions it stands for
    for i, a in enumerate(ineqs):
        p = primitive(a)
        bits[p] = bits.get(p, 0) | 1 << i
    rows = list(bits)
    # A square system is its own base.  Otherwise the pivot columns of the
    # transpose are the first rows, in order, that are independent of the
    # rows before them.
    base = range(rank) if len(rows) == rank else rref(zip(*rows))[1]

    # Row i of rref([B | I]) is [p_i e_i | p_i (B^-1)_i], so the columns of
    # B^-1, rescaled by lcm(p) > 0, are the rays of the simplicial cone
    # B x >= 0: ray j pairs positively with base row j and to zero with the
    # rest.  With fewer than rank rows, or a singular B, a pivot falls short
    # of a column of B or lands in the I block.
    reduced, pivots = rref([list(rows[i]) + list(unit(rank, j)) for j, i in enumerate(base)])
    if pivots != list(range(rank)):
        raise ValueError("inequality system is not pointed (rows do not span full rank)")
    scale = math.lcm(*(row[i] for i, row in enumerate(reduced)))
    rays = [primitive([row[rank + j] * (scale // row[i]) for i, row in enumerate(reduced)])
            for j in range(rank)]
    on_base = sum(bits[rows[i]] for i in base)  # distinct rows have disjoint bits
    masks = [on_base & ~bits[rows[i]] for i in base]

    for idx in sorted(set(range(len(rows))) - set(base)):
        a = rows[idx]
        bit = bits[a]
        s = [dot(a, r) for r in rays]
        masks = [m | bit if x == 0 else m for m, x in zip(masks, s)]
        if all(x >= 0 for x in s):
            continue

        def adjacent(p: int, q: int) -> bool:
            common = masks[p] & masks[q]
            return not any(k != p and k != q and common & m == common
                           for k, m in enumerate(masks))

        pos = [k for k, x in enumerate(s) if x > 0]
        neg = [k for k, x in enumerate(s) if x < 0]
        new_rays = [r for r, x in zip(rays, s) if x >= 0]
        new_masks = [m for m, x in zip(masks, s) if x >= 0]
        for p in pos:
            for q in neg:
                if not adjacent(p, q):
                    continue
                raw = vadd(vscale(-s[q], rays[p]), vscale(s[p], rays[q]))
                g = math.gcd(*raw)
                new_rays.append(tuple(c // g for c in raw))
                new_masks.append(masks[p] & masks[q] | bit)
        rays, masks = new_rays, new_masks
        if not rays:
            break
    return sorted(dict(zip(rays, masks)).items())
