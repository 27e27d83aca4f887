from fractions import Fraction
from math import factorial

import pytest

from rectsym.partitions import conjugate, hooks, partitions_of
from rectsym.polyring import LaurentPoly
from rectsym.powersum import (
    CharCache,
    PExpansion,
    WeightMismatch,
    char_row,
    char_value,
    class_sizes,
    plethysm_p,
    schur_coefficient_of_p,
    schur_to_p,
    zee,
)
from rectsym.schur import schur_coefficients, schur_poly_of_partition

# p-basis references for the tests; the library itself only reads single
# Schur coefficients of a p expansion (schur_coefficient_of_p).


def power_sum_poly(k, n):
    """p_k in n variables."""
    return sum((LaurentPoly.variable(n, i, k) for i in range(n)), LaurentPoly.zero(n))


def p_expansion_to_poly(expansion, n):
    """Evaluate a p expansion in n variables; the result must be integral."""
    out = LaurentPoly.zero(n)
    for rho, c in expansion.terms.items():
        term = LaurentPoly.constant(n, c)
        for part in rho:
            term = term * power_sum_poly(part, n)
        out = out + term
    assert all(Fraction(c).denominator == 1 for c in out.terms.values()), out
    return out.map_coefficients(int)


def p_to_schur(expansion, cache=None):
    """Every nonzero Schur coefficient of a p expansion."""
    out = {}
    for lam in partitions_of(expansion.weight):
        c = schur_coefficient_of_p(expansion, lam, cache)
        if c:
            out[lam] = c
    return out


def internal_product(a, b):
    """Kronecker product on the p basis: p_rho * p_sigma = delta z_rho p_rho."""
    if a.weight != b.weight:
        raise WeightMismatch(f"weights {a.weight} != {b.weight}")
    terms = {rho: zee(rho) * c * b.terms[rho] for rho, c in a.terms.items() if rho in b.terms}
    return PExpansion(a.weight, terms)


def dim(lam):
    """Number of standard tableaux, by the hook length formula."""
    total = factorial(sum(lam))
    for row in hooks(lam):
        for h in row:
            total //= h
    return total


def test_zee():
    assert zee(()) == 1
    assert zee((3,)) == 3
    assert zee((2, 1)) == 2
    assert zee((1, 1, 1)) == 6
    assert zee((2, 2)) == 8
    assert zee((1,) * 4) == 24


def test_zee_sums_to_factorial():
    # sum over cycle types of n!/z_rho = n!
    for n in range(1, 7):
        assert sum(factorial(n) // zee(rho) for rho in partitions_of(n)) == factorial(n)


def test_class_sizes_sum_to_factorial():
    for n in range(11):
        assert sum(class_sizes(n)) == factorial(n)


def test_class_sizes_aligned_with_partitions_of():
    # S_3: one identity, three transpositions, two 3-cycles
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert class_sizes(3) == (2, 3, 1)


def test_char_table_s3():
    # rows indexed by lam, columns by partitions_of(3) = (3), (2,1), (1,1,1)
    assert char_row((3,)) == (1, 1, 1)
    assert char_row((2, 1)) == (-1, 0, 2)
    assert char_row((1, 1, 1)) == (1, -1, 1)


def test_char_table_s4_row():
    # chi^(2,2) on (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    assert char_row((2, 2)) == (0, -1, 2, 0, 2)


def test_char_value():
    assert char_value((2, 1), (1, 1, 1)) == 2
    assert char_value((2, 1), (3,)) == -1
    assert char_value((4, 2), (1,) * 6) == dim((4, 2))


def test_char_dimension_column():
    for w in range(1, 7):
        ones = (1,) * w
        for lam in partitions_of(w):
            assert char_value(lam, ones) == dim(lam)
    # rectangles of the benchmark ladder, up to weight 32
    for lam in [(3,) * 6, (4,) * 7, (10,) * 3, (5,) * 6, (4,) * 8]:
        assert char_value(lam, (1,) * sum(lam)) == dim(lam), lam


def test_char_orthogonality():
    # sum over classes of |class| chi^a chi^b = n! when a == b, else 0
    cache = CharCache()
    for n in range(11):
        sizes = class_sizes(n)
        rows = [char_row(lam, cache) for lam in partitions_of(n)]
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                dot = sum(c * x * y for c, x, y in zip(sizes, a, b))
                assert dot == (factorial(n) if i == j else 0), (n, i, j)


def test_char_row_cache_agrees_with_fresh():
    cache = CharCache()
    for lam in partitions_of(5):
        assert char_row(lam, cache) == char_row(lam)


def test_char_rejects_malformed_partition():
    with pytest.raises(ValueError):
        char_row((1, 2))
    with pytest.raises(ValueError):
        char_row((1, 2), CharCache())
    with pytest.raises(ValueError):
        char_value((1, 2), (3,))
    with pytest.raises(ValueError):
        char_value((2, -1, 2), (3,))


def test_char_value_rejects_non_positive_cycle_part():
    with pytest.raises(ValueError):
        char_value((2, 1), (2, 1, 0))
    with pytest.raises(ValueError):
        char_value((3,), (4, -1))


def test_char_strips_trailing_zeros():
    cache = CharCache()
    assert char_row((2, 1, 0), cache) == char_row((2, 1)) == (-1, 0, 2)
    assert char_value((2, 1, 0, 0), (3,)) == -1


def test_char_values_are_power_sum_schur_coefficients():
    # p_rho = sum over lam of chi^lam(rho) s_lam, read off the polynomial
    # product of power sums in n variables by Schur elimination
    for n in range(1, 8):
        for rho in partitions_of(n):
            poly = power_sum_poly(rho[0], n)
            for part in rho[1:]:
                poly = poly * power_sum_poly(part, n)
            coeffs = schur_coefficients(poly, n)
            for lam in partitions_of(n):
                assert char_value(lam, rho) == coeffs.get(lam, 0), (lam, rho)


def test_char_conjugation_twists_by_sign():
    cache = CharCache()
    for n in range(13):
        signs = [(-1) ** (n - len(rho)) for rho in partitions_of(n)]
        for lam in partitions_of(n):
            twisted = tuple(s * x for s, x in zip(signs, char_row(lam, cache)))
            assert char_row(conjugate(lam), cache) == twisted, lam


def test_schur_to_p_round_trip():
    cache = CharCache()
    for w in range(6):
        for lam in partitions_of(w):
            back = p_to_schur(schur_to_p(lam, cache), cache)
            assert back == {lam: 1}


def test_schur_coefficient_of_p():
    cache = CharCache()
    ex = schur_to_p((3, 1), cache)
    assert schur_coefficient_of_p(ex, (3, 1), cache) == 1
    assert schur_coefficient_of_p(ex, (2, 2), cache) == 0


def test_p_expansion_evaluates_to_schur_poly():
    cache = CharCache()
    n = 3
    for w in range(5):
        for lam in partitions_of(w):
            poly = p_expansion_to_poly(schur_to_p(lam, cache), n)
            assert poly == schur_poly_of_partition(lam, n)


def test_power_sum_poly():
    p2 = power_sum_poly(2, 3)
    assert p2.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_internal_product_weight_mismatch():
    with pytest.raises(WeightMismatch):
        internal_product(schur_to_p((2,)), schur_to_p((3,)))


def test_internal_product_trivial_identity():
    # the one-row Schur function is the unit of the internal product
    cache = CharCache()
    for lam in partitions_of(4):
        prod = internal_product(schur_to_p((4,), cache), schur_to_p(lam, cache))
        assert prod.terms == schur_to_p(lam, cache).terms


def test_internal_product_sign_twist():
    # pairing with the one-column shape conjugates
    cache = CharCache()
    prod = internal_product(schur_to_p((1, 1, 1), cache), schur_to_p((2, 1), cache))
    assert p_to_schur(prod, cache) == {(2, 1): 1}
    prod = internal_product(schur_to_p((1, 1, 1), cache), schur_to_p((3,), cache))
    assert p_to_schur(prod, cache) == {(1, 1, 1): 1}


def test_plethysm_p_single_powers():
    # p_2 composed with p_3 is p_6
    a = PExpansion(2, {(2,): Fraction(1)})
    b = PExpansion(3, {(3,): Fraction(1)})
    out = plethysm_p(a, b)
    assert out.weight == 6
    assert out.terms == {(6,): Fraction(1)}


def test_plethysm_p_stretches_cycle_types():
    # p_2 composed with (p_1)^2 gives (p_2)^2
    a = PExpansion(2, {(2,): Fraction(1)})
    b = PExpansion(2, {(1, 1): Fraction(1)})
    assert plethysm_p(a, b).terms == {(2, 2): Fraction(1)}


def test_plethysm_p_h2_of_h2():
    # h_2 = (p_11 + p_2)/2; h_2[h_2] expands to s_4 + s_(2,2)
    h2 = PExpansion(2, {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    out = plethysm_p(h2, h2)
    assert p_to_schur(out) == {(4,): 1, (2, 2): 1}
