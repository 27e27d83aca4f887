from math import factorial

import pytest

from rectsym.partitions import conjugate, hooks, partitions_of
from rectsym.polyring import LaurentPoly
from rectsym.powersum import (
    CharCache,
    char_row,
    char_value,
    class_sizes,
    zee,
)
from rectsym.schur import schur_coefficients


def power_sum_poly(k, n):
    """p_k in n variables."""
    return sum((LaurentPoly.variable(n, i, k) for i in range(n)), LaurentPoly.zero(n))


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


def test_power_sum_poly():
    p2 = power_sum_poly(2, 3)
    assert p2.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
