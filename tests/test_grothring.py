"""Unit tests for the Z[L] arithmetic and the arrangement-class formulas."""

import json
import random
import tracemalloc

import pytest

from oracles import (
    arrangement_class_termwise_oracle,
    arrangement_point_count_oracle,
    hyperplane_union_point_count,
    lagrange_coefficients,
    subset_size_counts_oracle,
)
from sncdegen.cli import CLASS_MAX_N
from sncdegen.grothring import (
    GrothClass,
    L,
    ONE,
    ZERO,
    _subset_sizes,
    arrangement_class_closed,
    arrangement_class_inclusion_exclusion,
    arrangement_class_recursive,
    proj_space_class,
    reduce_mod_L,
)


def rand_class(rng, max_degree=8, bound=100):
    return GrothClass([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree + 1))])


# -- representation -----------------------------------------------------


def test_trailing_zeros_trimmed():
    assert GrothClass([1, 2, 0, 0]).coeffs == (1, 2)
    assert GrothClass([0, 0]).coeffs == ()
    assert GrothClass().coeffs == ()


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        GrothClass([1.5])
    with pytest.raises(TypeError):
        GrothClass(["1"])


def test_immutable():
    x = GrothClass([1, 2])
    with pytest.raises(AttributeError):
        x._coeffs = (3,)
    assert hash(x) == hash(GrothClass([1, 2, 0]))


@pytest.mark.parametrize("c", range(-3, 4))
def test_constant_class_hashes_as_its_int(c):
    # equal objects hash equally, so a set holds c and its class once;
    # GrothClass([0]) is ZERO and GrothClass([1]) is ONE
    assert GrothClass([c]) == c and hash(GrothClass([c])) == hash(c)
    assert len({c, GrothClass([c])}) == 1


def test_degree():
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert L.degree == 1
    assert proj_space_class(4).degree == 4


def test_render():
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert L.render() == "L"
    assert GrothClass([-1]).render() == "-1"
    assert GrothClass([1, 1, 1]).render() == "1 + L + L^2"
    assert GrothClass([0, -1, 2]).render() == "-L + 2*L^2"
    assert GrothClass([2, 0, -3]).render() == "2 - 3*L^2"


def test_json_round_trip():
    for cs in [(), (1,), (0, -1, 2), (5, 4, 3, 2, 1)]:
        x = GrothClass(cs)
        blob = json.dumps(x.to_json_dict())
        assert GrothClass(json.loads(blob)["coeffs"]) == x
    assert GrothClass([1, 2, 0]).to_json_dict() == {"coeffs": [1, 2]}


# -- ring structure -----------------------------------------------------


def test_basic_arithmetic():
    assert L + 1 == GrothClass([1, 1])
    assert 1 + L == GrothClass([1, 1])
    assert L - L == ZERO
    assert 2 - L == GrothClass([2, -1])
    assert L * L == GrothClass([0, 0, 1])
    assert 3 * L == GrothClass([0, 3])
    assert L**0 == ONE
    assert L**3 == GrothClass([0, 0, 0, 1])
    assert (L - 1) ** 2 == GrothClass([1, -2, 1])
    assert -proj_space_class(1) == GrothClass([-1, -1])
    assert bool(ZERO) is False and bool(L) is True


def test_pow_squares_only_while_bits_remain(monkeypatch, cold_caches):
    # square-and-multiply: one squaring per bit after the first, one
    # product per set bit (the first onto ONE), and no squaring past the top
    calls = []
    mul = GrothClass.__mul__
    monkeypatch.setattr(GrothClass, "__mul__",
                        lambda self, other: calls.append(other) or mul(self, other))
    base = L - 2
    for k in range(1, 41):
        calls.clear()
        power = base**k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1"), k
        repeated = ONE
        for _ in range(k):
            repeated = mul(repeated, base)
        assert power == repeated, k


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        L ** (-1)


def test_ring_axioms_random():
    rng = random.Random(20260823)
    for _ in range(200):
        a, b, c = (rand_class(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO
        assert a - a == ZERO


def test_reduce_mod_L_is_ring_hom():
    rng = random.Random(987)
    assert reduce_mod_L(ZERO) == 0
    assert reduce_mod_L(GrothClass([1, 2, 1])) == 1
    for _ in range(200):
        a, b = rand_class(rng), rand_class(rng)
        assert reduce_mod_L(a + b) == reduce_mod_L(a) + reduce_mod_L(b)
        assert reduce_mod_L(a * b) == reduce_mod_L(a) * reduce_mod_L(b)


def test_evaluate():
    assert proj_space_class(3).evaluate(1) == 4
    assert (L**2 - L).evaluate(5) == 20
    assert ZERO.evaluate(7) == 0


# -- arrangement classes ------------------------------------------------


def test_proj_space_validation():
    with pytest.raises(ValueError):
        proj_space_class(-1)


def test_closed_known_values():
    assert arrangement_class_closed(1, 4) == proj_space_class(4)
    assert arrangement_class_closed(2, 1) == GrothClass([1, 2])
    assert arrangement_class_closed(3, 1) == GrothClass([0, 3])
    assert arrangement_class_closed(5, 0) == GrothClass([5])
    assert arrangement_class_closed(3, 2) == GrothClass([1, 0, 3])
    assert arrangement_class_closed(4, 2) == GrothClass([2, -2, 4])


def test_inclusion_exclusion_known_values():
    assert arrangement_class_inclusion_exclusion(2, 1) == GrothClass([1, 2])
    assert arrangement_class_inclusion_exclusion(3, 1) == GrothClass([0, 3])
    assert reduce_mod_L(arrangement_class_inclusion_exclusion(3, 1)) == 0
    assert reduce_mod_L(arrangement_class_inclusion_exclusion(4, 2)) == 2


def test_recursive_base_cases():
    assert arrangement_class_recursive(1, 4) == proj_space_class(4)
    assert arrangement_class_recursive(7, 0) == GrothClass([7])
    assert arrangement_class_recursive(2, 1) == GrothClass([1, 2])


def test_recursion_depth_is_flat_in_r(cold_caches):
    # a recursion nesting once per hyperplane would pass the interpreter's
    # recursion limit here, from a cold cache
    for r, n in ((1200, 2), (1000, 5)):
        assert arrangement_class_recursive(r, n) == arrangement_class_closed(r, n), (r, n)


def test_recursion_computes_each_cell_of_its_band_once(groth_additions):
    # one addition and one subtraction (itself an addition) for each
    # (r', n') with 2 <= r' <= 18 and r' - 1 <= n' <= 17, of which there
    # are 17 + 16 + ... + 1 = 153
    assert arrangement_class_recursive(18, 17) == arrangement_class_closed(18, 17)
    assert len(groth_additions) == 2 * 153


def test_triple_agreement():
    for r in range(1, 13):
        for n in range(0, 13):
            closed = arrangement_class_closed(r, n)
            assert arrangement_class_recursive(r, n) == closed, (r, n)
            assert arrangement_class_inclusion_exclusion(r, n) == closed, (r, n)


def test_inclusion_exclusion_matches_closed_form_up_to_20():
    # the subset tally is cached per r, so each r enumerates its 2^r
    # subsets once, whatever the number of n
    for r in range(1, 21):
        for n in range(21):
            assert arrangement_class_inclusion_exclusion(r, n) == \
                arrangement_class_closed(r, n), (r, n)


def test_subset_sizes_match_mask_by_mask_count():
    # r = 15, 16, 17 straddle the edge of the 2^16-subset low block
    for r in range(1, 21):
        assert _subset_sizes(r) == subset_size_counts_oracle(r), r


def test_closed_matches_termwise_class_sum():
    for r in range(1, 21):
        for n in range(21):
            assert arrangement_class_closed(r, n) == \
                arrangement_class_termwise_oracle(r, n), (r, n)
    assert arrangement_class_closed(26, CLASS_MAX_N) == \
        arrangement_class_termwise_oracle(26, CLASS_MAX_N)


def test_arrangement_classes_match_point_counts():
    # Evaluating a class of Z[L] at L = p counts F_p points (Katz, appendix
    # to Hausel-Rodriguez-Villegas, Invent. Math. 174, 2008): the first r
    # coordinate hyperplanes of P^{n+1} are in general position for
    # r <= n+2, and the five primes fix every class of degree <= 4 here.
    for n in range(0, 4):
        for r in range(1, n + 3):
            for p in (2, 3, 5, 7, 11):
                count = hyperplane_union_point_count(r, n, p)
                for route in (arrangement_class_closed, arrangement_class_recursive,
                              arrangement_class_inclusion_exclusion):
                    assert route(r, n).evaluate(p) == count, (route.__name__, r, n, p)


def test_arrangement_class_is_rebuilt_from_an_explicit_arrangement():
    # P(r, n) has degree n in L, so its values at n+1 points fix it: count an
    # explicit arrangement in general position over F_p for n+1 primes
    # p >= r-1 and interpolate.  Past r = n+2 the coordinate hyperplanes are
    # not in general position, and at r = p+1 the normal at infinity is used
    for r, n in [(1, 1), (4, 1), (3, 2), (6, 2), (4, 3), (6, 3), (8, 3)]:
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17) if p >= r - 1][:n + 1]
        counts = [(p, arrangement_point_count_oracle(r, n, p)) for p in primes]
        assert lagrange_coefficients(counts) == list(arrangement_class_closed(r, n).coeffs), (r, n)


def test_inclusion_exclusion_makes_no_arithmetic_per_subset(groth_additions):
    # one class per subset would make 2^16 - 1 additions
    arrangement_class_inclusion_exclusion(16, 15)
    assert len(groth_additions) <= 2 * 16


def test_inclusion_exclusion_memory_is_flat(cold_caches):
    # a table of all 2^22 subset sizes would take 4 MB
    tracemalloc.start()
    try:
        arrangement_class_inclusion_exclusion(22, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_congruence_low_range():
    for n in range(0, 13):
        for r in range(1, n + 2):
            assert reduce_mod_L(arrangement_class_closed(r, n)) == 1, (r, n)


def test_congruence_boundary():
    for n in range(0, 13):
        residue = reduce_mod_L(arrangement_class_closed(n + 2, n))
        assert residue == 1 + (-1) ** n, n


def test_argument_validation():
    for bad in [(0, 2), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError):
            arrangement_class_closed(*bad)
        with pytest.raises(ValueError):
            arrangement_class_recursive(*bad)
        with pytest.raises(ValueError):
            arrangement_class_inclusion_exclusion(*bad)
    with pytest.raises(ValueError):
        arrangement_class_inclusion_exclusion(27, 2)
