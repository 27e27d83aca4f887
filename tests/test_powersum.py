from collections import Counter
from math import factorial, prod

import pytest

from rectsym.partitions import conjugate, hooks, partitions_of
from rectsym.polyring import LaurentPoly
from rectsym.powersum import (
    CharCache,
    _position,
    _row,
    char_row,
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


def test_zee_of_unsorted_cycle_type_is_multiplicity_formula():
    for n in range(10):
        for rho in partitions_of(n):
            want = prod(i**m * factorial(m) for i, m in Counter(rho).items())
            for shuffled in (rho, rho[::-1], rho[1:] + rho[:1]):
                assert zee(shuffled) == want, shuffled


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


def test_class_sizes_by_blocks_match_centralizer_orders():
    # built by first-part blocks, with no partition enumerated
    for n in range(31):
        want = tuple(factorial(n) // zee(rho) for rho in partitions_of(n))
        assert class_sizes(n) == want, n


def test_class_sizes_rejects_negative_weight():
    with pytest.raises(ValueError):
        class_sizes(-1)


def test_char_table_s3():
    # rows indexed by lam, columns by partitions_of(3) = (3), (2,1), (1,1,1)
    assert char_row((3,)) == (1, 1, 1)
    assert char_row((2, 1)) == (-1, 0, 2)
    assert char_row((1, 1, 1)) == (1, -1, 1)


def test_char_table_s4_row():
    # chi^(2,2) on (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    assert char_row((2, 2)) == (0, -1, 2, 0, 2)


def test_char_value():
    # chi^lam at the n-cycle, the first class of partitions_of(n): (-1)^k for
    # the hook (n-k, 1^k), and 0 for every other shape
    for n in range(1, 13):
        for lam in partitions_of(n):
            hook = len(lam) == 1 or lam[1] == 1
            want = (-1) ** (len(lam) - 1) if hook else 0
            assert char_row(lam)[0] == want, lam


def test_char_dimension_column():
    # the class (1^w) comes last in partitions_of order
    for w in range(1, 7):
        for lam in partitions_of(w):
            assert char_row(lam)[-1] == dim(lam)
    # rectangles of the benchmark ladder, up to weight 32
    for lam in [(3,) * 6, (4,) * 7, (10,) * 3, (5,) * 6, (4,) * 8]:
        assert char_row(lam)[-1] == dim(lam), lam


def test_char_dimension_column_at_weight_20():
    # the hook length formula on every shape, not only rectangles
    cache = CharCache()
    for lam in partitions_of(20):
        assert char_row(lam, cache)[-1] == dim(lam), lam


def test_position_is_place_in_ascending_partitions():
    # the one class order every engine reads: partitions_of backwards
    for n in range(21):
        for i, rho in enumerate(reversed(partitions_of(n))):
            assert _position(rho) == i, rho


def test_char_value_is_row_entry_at_every_class():
    # the engines read chi^lam(rho) off the lex-ascending row at
    # _position(rho); that is the entry of char_row at rho
    cache = CharCache()
    for n in range(13):
        classes = partitions_of(n)
        for lam in classes:
            row = char_row(lam)
            for i, rho in enumerate(classes):
                assert _row(lam, cache)[_position(rho)] == row[i], (lam, rho)


def test_char_column_orthogonality():
    # sum over lam of chi^lam(rho) chi^lam(sigma) = z_rho when rho == sigma,
    # else 0
    cache = CharCache()
    for n in range(13):
        classes = partitions_of(n)
        rows = [char_row(lam, cache) for lam in classes]
        for i, rho in enumerate(classes):
            for j in range(i, len(classes)):
                dot = sum(row[i] * row[j] for row in rows)
                assert dot == (zee(rho) if i == j else 0), (rho, classes[j])


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
        char_row((2, -1, 2))


def test_char_strips_trailing_zeros():
    cache = CharCache()
    assert char_row((2, 1, 0), cache) == char_row((2, 1)) == (-1, 0, 2)
    assert char_row((2, 1, 0, 0))[0] == -1


def test_char_values_are_power_sum_schur_coefficients():
    # p_rho = sum over lam of chi^lam(rho) s_lam, read off the polynomial
    # product of power sums in n variables by Schur elimination
    for n in range(1, 8):
        for rho in partitions_of(n):
            poly = power_sum_poly(rho[0], n)
            for part in rho[1:]:
                poly = poly * power_sum_poly(part, n)
            coeffs = schur_coefficients(poly, n)
            i = partitions_of(n).index(rho)
            for lam in partitions_of(n):
                assert char_row(lam)[i] == coeffs.get(lam, 0), (lam, rho)


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
