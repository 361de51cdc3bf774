"""Exact arithmetic in Z[L], the subring of the Grothendieck ring of
varieties generated by the Lefschetz class L = [A^1].

A class is an integer polynomial in L, stored as a coefficient list indexed
by the power of L.  All arithmetic is exact (arbitrary-precision integers,
no floating point).  Reduction modulo L — the constant coefficient — is the
invariant of interest for the degeneration bookkeeping: a union of r simple
normal crossing hyperplanes in projective space has class congruent to 1
modulo L whenever r is at most the ambient dimension.

Three independent derivations of the hyperplane-arrangement class are
provided (closed formula, recursion, subset inclusion-exclusion) so that
each can serve as an oracle for the others.  The residue is read from the
class itself: `reduce_mod_L(arrangement_class_closed(r, n))` is the
alternating sum sum_{j=0}^{n} (-1)^j C(r, j+1), which is 1 for r <= n+1.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable


class GrothClass:
    """An element of Z[L]: an exact integer polynomial in the Lefschetz
    class L = [A^1].

    `coeffs[i]` is the coefficient of L^i.  Trailing zeros are trimmed on
    construction, so equal classes always have identical coefficient tuples.
    Instances are immutable and hashable; arithmetic returns new objects,
    and plain ints coerce to constant classes in mixed expressions.

    >>> P2 = proj_space_class(2)
    >>> P2.coeffs
    (1, 1, 1)
    >>> (L * P2 - 1).render()
    '-1 + L + L^2 + L^3'
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("GrothClass is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree in L; -1 for the zero class."""
        return len(self._coeffs) - 1

    # -- ring structure -------------------------------------------------

    @staticmethod
    def _coerce(value) -> "GrothClass":
        if isinstance(value, GrothClass):
            return value
        return GrothClass([operator.index(value)])

    def __add__(self, other) -> "GrothClass":
        other = self._coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return GrothClass([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self) -> "GrothClass":
        return GrothClass([-c for c in self._coeffs])

    def __sub__(self, other) -> "GrothClass":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "GrothClass":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "GrothClass":
        other = self._coerce(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return GrothClass(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GrothClass":
        e = operator.index(exponent)
        if e < 0:
            raise ValueError("negative powers are not defined in Z[L]")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, GrothClass):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(("GrothClass", self._coeffs))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- presentation ---------------------------------------------------

    def evaluate(self, value: int) -> int:
        """Evaluate the polynomial at an integer value of L."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def render(self) -> str:
        """ASCII rendering `c0 + c1*L + c2*L^2 + ...` omitting zero terms."""
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                var = "L" if i == 1 else f"L^{i}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"GrothClass({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return self.render()

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self._coeffs)}


ZERO = GrothClass()
ONE = GrothClass([1])
L = GrothClass([0, 1])

#: Largest set whose 2^size subsets the literal inclusion-exclusion may
#: enumerate: a resource limit, not a bound of the mathematics.  The
#: tally doubles in time with each hyperplane; at 26 it takes 0.8-1.4 s
#: cold for `class --r 26 --n 25`, with a peak RSS of 16 MB.
MAX_ENUMERATION_SIZE = 26


def proj_space_class(n: int) -> GrothClass:
    """Class of projective n-space: 1 + L + ... + L^n.

    >>> proj_space_class(0).render()
    '1'
    >>> proj_space_class(3).render()
    '1 + L + L^2 + L^3'
    """
    if n < 0:
        raise ValueError(f"projective space needs n >= 0, got {n}")
    return GrothClass([1] * (n + 1))


def reduce_mod_L(x: GrothClass) -> int:
    """Image of a class in Z[L]/(L) = Z: the constant coefficient."""
    return x.coeffs[0] if x.coeffs else 0


def _validate_rn(r: int, n: int) -> None:
    if r < 1:
        raise ValueError(f"need at least one hyperplane, got r={r}")
    if n < 0:
        raise ValueError(f"hyperplane dimension must be nonnegative, got n={n}")


def arrangement_class_closed(r: int, n: int) -> GrothClass:
    """Class of a union of r simple normal crossing hyperplanes (each a
    copy of P^n) inside P^{n+1}, by the alternating closed formula

        P(r, n) = sum_{j=0}^{n} (-1)^j C(r, j+1) [P^{n-j}],

    read coefficientwise: [P^{n-j}] reaches L^i exactly when j <= n-i, so
    the coefficient of L^i is the partial sum of the alternating binomials
    up to j = n-i, and one running sum gives all n+1 coefficients in O(n)
    integer operations, with no arithmetic on classes.  The constant
    coefficient, the full alternating sum, is the residue modulo L: 1 for
    r <= n+1, by the alternating-binomial identity.

    >>> arrangement_class_closed(3, 1).render()
    '3*L'
    """
    _validate_rn(r, n)
    partial, sums = 0, []
    for j in range(n + 1):
        c = math.comb(r, j + 1)
        partial += c if j % 2 == 0 else -c
        sums.append(partial)
    return GrothClass(reversed(sums))


@functools.lru_cache(maxsize=None)
def arrangement_class_recursive(r: int, n: int) -> GrothClass:
    """Same class as arrangement_class_closed, derived instead from the
    recursion P(r, n) = P(r-1, n) + [P^n] - P(r-1, n-1): the r-th
    hyperplane contributes [P^n] minus its own trace arrangement of the
    first r-1 hyperplanes.  Base cases: P(r, 0) = r and P(1, n) = [P^n].
    Classes are immutable, so each (r, n) is computed once and shared.
    """
    _validate_rn(r, n)
    if n == 0:
        return GrothClass([r])
    if r == 1:
        return proj_space_class(n)
    return (arrangement_class_recursive(r - 1, n) + proj_space_class(n)
            - arrangement_class_recursive(r - 1, n - 1))


#: Elements of the low block of `_subset_sizes`: its table of subset
#: sizes is 2^16 bytes.
_BLOCK = 16
#: `bytes.translate` table adding 1 to every byte (sizes stay below 256).
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _size_table(m: int) -> bytes:
    """Byte `mask` holds the size of subset `mask` of m elements, built by
    doubling: the subsets containing the next element are the ones before
    it, each one larger."""
    table = b"\0"
    for _ in range(m):
        table += table.translate(_PLUS_ONE)
    return table


@functools.lru_cache(maxsize=None)
def _subset_sizes(r: int) -> tuple[int, ...]:
    """`count[s]` is the number of nonempty subsets of size s of r
    elements, tallied subset by subset: for each subset of the elements
    above the low block, the low block's size table is shifted by its
    size and its bytes are counted by value.  At most 2^16 sizes are held
    at a time, so memory stays flat in r."""
    low_bits = min(r, _BLOCK)
    low = _size_table(low_bits)
    count = [0] * (r + 1)
    for k in _size_table(r - low_bits):
        block = low.translate(bytes(range(k, 256)) + bytes(range(k)))
        for s in range(k, k + low_bits + 1):
            count[s] += block.count(s)
    count[0] -= 1  # the empty subset
    return tuple(count)


def arrangement_class_inclusion_exclusion(r: int, n: int) -> GrothClass:
    """Same class a third way: literal inclusion-exclusion over all 2^r - 1
    nonempty subsets S of the hyperplanes.  The normal crossing hypothesis
    makes the intersection over S a copy of P^{n+1-|S|} (empty once |S|
    exceeds n+1), so the union's class is

        sum_S (-1)^{|S|+1} [P^{n+1-|S|}].

    The enumeration is deliberately literal — every subset gets its own
    byte holding its size, and the bytes are tallied by value, with no
    binomial anywhere (see `_subset_sizes`) — so this path shares no
    arithmetic with the closed formula; the class is built once from the
    counts.  The tally costs about 1 s at r = 26, so r is capped at
    MAX_ENUMERATION_SIZE.
    """
    _validate_rn(r, n)
    if r > MAX_ENUMERATION_SIZE:
        raise ValueError(f"subset enumeration is limited to "
                         f"r <= {MAX_ENUMERATION_SIZE}, got r={r}")
    count = _subset_sizes(r)
    coeffs = [0] * (n + 1)
    for s in range(1, min(r, n + 1) + 1):
        term = count[s] if s % 2 == 1 else -count[s]
        for i in range(n + 2 - s):  # [P^{n+1-s}] = 1 + L + ... + L^{n+1-s}
            coeffs[i] += term
    return GrothClass(coeffs)

