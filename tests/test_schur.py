import pytest
from hypothesis import given, settings, strategies as st

from rectsym.partitions import partitions_of, to_partition, zero_pad
from rectsym.polyring import LaurentPoly
from rectsym.schur import (
    LengthMismatch,
    NotSymmetric,
    alternant,
    check_inversion_law,
    check_translation_law,
    delta,
    schur_coefficients,
    schur_poly,
    schur_poly_of_partition,
    sort_with_sign,
)


def var(n, i):
    return LaurentPoly.variable(n, i)


def vandermonde(n):
    """prod_{i<j} (x_i - x_j)."""
    out = LaurentPoly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (var(n, i) - var(n, j))
    return out


def expand_by_elimination(p, n):
    """Reference reader: subtract c * s_e for the lex-leading monomial x^e
    until nothing is left.  Polynomial (not Laurent) symmetric input only."""
    out = {}
    while p:
        e = max(p.terms)
        c = p.terms[e]
        out[to_partition(e)] = c
        p = p - schur_poly_of_partition(to_partition(e), n).scale(c)
    return out


def test_delta():
    assert delta(1) == (0,)
    assert delta(4) == (3, 2, 1, 0)


def test_alternant_vandermonde():
    for n in range(1, 5):
        assert alternant(delta(n)) == vandermonde(n)


def test_alternant_with_repeats_vanishes():
    assert alternant((2, 2, 0)) == 0
    assert alternant((1, 0, 0)) == 0


def test_alternant_length_check():
    with pytest.raises(LengthMismatch):
        alternant((1, 0), 3)


def test_schur_poly_small():
    x1, x2 = var(2, 0), var(2, 1)
    assert schur_poly((1, 0), 2) == x1 + x2
    assert schur_poly((1, 1), 2) == x1 * x2
    assert schur_poly((2, 0), 2) == x1 * x1 + x1 * x2 + x2 * x2
    assert schur_poly((0,) * 3, 3) == 1


def test_schur_poly_rejects_bad_input():
    with pytest.raises(LengthMismatch):
        schur_poly((1,), 2)
    with pytest.raises(ValueError):
        schur_poly((0, 1), 2)


def test_schur_poly_negative_rows():
    # s_(0,-1) is s_(1,0) with inverted variables
    p = schur_poly((0, -1), 2)
    assert p == schur_poly((1, 0), 2).invert_variables()


def test_schur_of_partition_length_overflow():
    assert schur_poly_of_partition((1, 1, 1), 2) == 0


def test_schur_of_partition_monomial_content():
    # s_(2,1) at n=3: Kostka numbers K_(2,1),mu
    p = schur_poly_of_partition((2, 1), 3)
    assert p.terms.get((2, 1, 0), 0) == 1
    assert p.terms.get((1, 1, 1), 0) == 2
    assert p.terms.get((3, 0, 0), 0) == 0


def test_tableau_sum_vs_bialternant():
    for w in range(7):
        for lam in partitions_of(w):
            for n in range(len(lam), 6):
                assert schur_poly_of_partition(lam, n) == schur_poly(zero_pad(lam, n), n)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_schur_of_partition_validates(n):
    for bad in ((1, 2), (2, -1)):
        with pytest.raises(ValueError):
            schur_poly_of_partition(bad, n)
    assert schur_poly_of_partition((1, 0, 0), n) == schur_poly_of_partition((1,), n)


def test_pieri_product():
    n = 3
    p = schur_poly_of_partition((1,), n) * schur_poly_of_partition((1,), n)
    assert schur_coefficients(p, n) == {(2,): 1, (1, 1): 1}


def test_product_expansion_full():
    # s_(2,1) * s_(1) at n=3
    n = 3
    p = schur_poly_of_partition((2, 1), n) * schur_poly_of_partition((1,), n)
    got = schur_coefficients(p, n)
    assert got == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_expansion_routes_agree():
    n = 3
    for a in ((2, 1), (2, 2), (3,)):
        for b in ((1,), (1, 1), (2,)):
            p = schur_poly_of_partition(a, n) * schur_poly_of_partition(b, n)
            got = schur_coefficients(p, n)
            full = expand_by_elimination(p, n)
            for nu in full:
                assert got.get(nu, 0) == full[nu]
            assert got.get((9, 9, 9), 0) == 0


def test_reader_matches_elimination_on_products():
    # every s_a * s_b with |a| + |b| <= 6, in 1 to 4 variables
    checked = 0
    for n in range(1, 5):
        for w in range(7):
            for wa in range(w + 1):
                for a in partitions_of(wa):
                    for b in partitions_of(w - wa):
                        p = schur_poly_of_partition(a, n) * schur_poly_of_partition(b, n)
                        assert schur_coefficients(p, n) == expand_by_elimination(p, n), (a, b, n)
                        checked += 1
    assert checked > 300


def test_sort_with_sign():
    assert sort_with_sign((0, 2, 1)) == ((2, 1, 0), 1)
    assert sort_with_sign((0, 1, 2)) == ((2, 1, 0), -1)
    assert sort_with_sign((-1, 3)) == ((3, -1), -1)
    assert sort_with_sign((1, 0, 1)) is None
    assert sort_with_sign(()) == ((), 1)


def test_schur_coefficient_of_too_long():
    p = schur_poly_of_partition((1,), 2)
    assert schur_coefficients(p, 2).get((1, 1, 1), 0) == 0


def test_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        schur_coefficients(var(2, 0), 2)
    with pytest.raises(LengthMismatch):
        schur_coefficients(var(2, 0), 3)


def test_expand_laurent_shift():
    # s_(1,-1) reads as itself, a sequence with a negative row
    with pytest.raises(ValueError):
        schur_coefficients(schur_poly((1, -1), 2), 2)
    # a Laurent input whose terms cancel down to partitions reads fine
    p = schur_poly((1, -1), 2) * schur_poly((1, 1), 2)
    assert schur_coefficients(p, 2) == {(2,): 1}


def test_expand_zero():
    assert schur_coefficients(LaurentPoly.zero(2), 2) == {}


def test_arity_zero_reads():
    assert schur_coefficients(LaurentPoly.constant(0, 5), 0).get((), 0) == 5
    assert schur_coefficients(LaurentPoly.constant(0, 5), 0).get((1,), 0) == 0


@st.composite
def signed_sequences(draw, n):
    vals = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return tuple(sorted(vals, reverse=True))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), signed_sequences(n), st.integers(-2, 2))))
@settings(max_examples=60, deadline=None)
def test_translation_law_samples(args):
    n, seq, k = args
    assert check_translation_law(seq, n, k)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), signed_sequences(n))))
@settings(max_examples=60, deadline=None)
def test_inversion_law_samples(args):
    n, seq = args
    assert check_inversion_law(seq, n)
