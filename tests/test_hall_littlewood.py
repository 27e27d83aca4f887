"""Hall-Littlewood polynomials, Kostka-Foulkes, and the charge statistic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rectsym.hall_littlewood import (
    charge,
    charge_standard,
    check_hl_inversion_law,
    check_hl_translation_law,
    expand_in_hl,
    hl_poly,
    kostka_foulkes,
    kostka_foulkes_oracle,
    monomial_symmetric_poly,
    reading_word,
    specialize_t,
)
from rectsym.partitions import (
    count_ssyt,
    iter_ssyt,
    partitions_of,
    zero_pad,
)
from rectsym.polyring import TPoly
from rectsym.schur import NotSymmetric, schur_poly, schur_poly_of_partition


def test_hl_poly_str():
    assert str(hl_poly((2, 0), 2)) == "x1^2 + (1 - t)*x1*x2 + x2^2"


def test_hl_columns_are_elementary():
    # P_(1^m) = e_m, independent of t
    for n in range(1, 4):
        for m in range(1, n + 1):
            p = hl_poly((1,) * m, n)
            for e, c in p.terms.items():
                assert sorted(e, reverse=True) == [1] * m + [0] * (n - m)
                assert c == 1


def test_hl_one_row():
    # P_(2) = m_2 + (1-t) m_11
    expect = monomial_symmetric_poly((2,), 2) + monomial_symmetric_poly(
        (1, 1), 2
    ).scale(TPoly([1, -1]))
    assert hl_poly((2,), 2) == expect


def test_hl_two_one():
    # P_(2,1) = m_21 + (2 - t - t^2) m_111
    expect = monomial_symmetric_poly((2, 1), 3) + monomial_symmetric_poly(
        (1, 1, 1), 3
    ).scale(TPoly([2, -1, -1]))
    assert hl_poly((2, 1), 3) == expect


def test_hl_specializations():
    # t=0 gives the Schur polynomial, t=1 the monomial symmetric polynomial
    for n in range(1, 4):
        for w in range(5):
            for mu in partitions_of(w):
                if len(mu) > n:
                    continue
                p = hl_poly(mu, n)
                assert specialize_t(p, 0) == schur_poly_of_partition(mu, n)
                assert specialize_t(p, 1) == monomial_symmetric_poly(mu, n)


def test_hl_negative_entries():
    # padded sequences with negative entries shift a smaller P
    assert hl_poly((1, -1), 2) == hl_poly((2, 0), 2).shift((-1, -1))


def test_hl_laws_small_grid():
    for n in range(1, 4):
        for w in range(4):
            for mu in partitions_of(w):
                if len(mu) > n:
                    continue
                assert check_hl_inversion_law(mu, n)
                for k in (-1, 0, 1, 2):
                    assert check_hl_translation_law(mu, n, k)


def test_expand_in_hl_schur():
    shift, entries = expand_in_hl(schur_poly_of_partition((2, 1), 3), 3)
    assert shift == 0
    assert entries == {(2, 1, 0): 1, (1, 1, 1): TPoly([0, 1, 1])}


def test_expand_in_hl_shifted():
    # s_(1,-1) = s_(2,0) shifted down; translation folds into the keys
    shift, entries = expand_in_hl(schur_poly((1, -1), 2), 2)
    assert shift == -1
    assert entries == {(1, -1): 1, (0, 0): TPoly([0, 1])}


def test_expand_in_hl_rejects_asymmetric():
    from rectsym.polyring import LaurentPoly

    try:
        expand_in_hl(LaurentPoly.variable(2, 0), 2)
    except NotSymmetric:
        pass
    else:
        assert False, "expected NotSymmetric"


def test_kostka_foulkes_pins():
    assert kostka_foulkes((1,), (1,)) == TPoly.const(1)
    assert kostka_foulkes((2,), (1, 1)) == TPoly([0, 1])
    assert kostka_foulkes((1, 1), (2,)) == TPoly()
    assert kostka_foulkes((3,), (3,)) == TPoly.const(1)
    assert kostka_foulkes((3,), (1, 1, 1)) == TPoly([0, 0, 0, 1])
    assert kostka_foulkes((2, 1), (1, 1, 1)) == TPoly([0, 1, 1])
    assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == TPoly([0, 0, 1, 0, 1])
    # weight mismatch is zero, not an error
    assert kostka_foulkes((2, 1), (1, 1)) == TPoly()


def test_kostka_foulkes_diagonal_and_dominance():
    for w in range(6):
        parts = partitions_of(w)
        for lam in parts:
            assert kostka_foulkes(lam, lam) == TPoly.const(1)
        for lam in parts:
            for mu in parts:
                # K vanishes unless lam dominates mu
                depth = max(len(lam), len(mu))
                a, b = zero_pad(lam, depth), zero_pad(mu, depth)
                doms = all(
                    sum(a[: i + 1]) >= sum(b[: i + 1]) for i in range(depth)
                )
                if not doms:
                    assert kostka_foulkes(lam, mu) == TPoly()


def test_charge_pins():
    assert charge(()) == 0
    assert charge((1,)) == 0
    assert charge((1, 2)) == 1
    assert charge((2, 1)) == 0
    assert charge((1, 1, 2)) == 1
    assert charge((3, 2, 1)) == 0
    assert charge((1, 2, 3)) == 3
    assert charge_standard([0, 1, 2]) == 3
    assert charge_standard([2, 1, 0]) == 0


def test_reading_word():
    assert reading_word([[1, 1], [2]]) == [2, 1, 1]
    assert reading_word([[1, 2, 2], [3]]) == [3, 1, 2, 2]
    assert reading_word([]) == []


def test_charge_vs_elimination():
    for w in range(5):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                assert kostka_foulkes(lam, mu) == kostka_foulkes_oracle(lam, mu)


def test_kostka_foulkes_at_one_counts_tableaux():
    for lam, mu in [
        ((2, 1), (1, 1, 1)),
        ((3, 1), (2, 1, 1)),
        ((2, 2), (1, 1, 1, 1)),
        ((4, 2), (2, 2, 1, 1)),
    ]:
        n = len(mu)
        count = sum(1 for _ in iter_ssyt(lam, n, content=zero_pad(mu, n)))
        assert kostka_foulkes_oracle(lam, mu).subs(1) == count


def test_kostka_foulkes_six_boxes():
    # K_(2,2,1,1),(1^6) at t=1 equals the number of standard tableaux
    poly = kostka_foulkes_oracle((2, 2, 1, 1), (1,) * 6)
    assert poly == kostka_foulkes((2, 2, 1, 1), (1,) * 6)
    assert poly.subs(1) == 9
    assert count_ssyt((2, 2, 1, 1), 6) >= 9


def test_kostka_foulkes_strips_trailing_zeros():
    assert kostka_foulkes((3,), (2, 1, 0)) == TPoly.t()
    assert kostka_foulkes_oracle((3,), (2, 1, 0)) == TPoly.t()


def test_kostka_foulkes_rejects_unsorted_partition():
    with pytest.raises(ValueError):
        kostka_foulkes((2, 1), (1, 2))


def test_kostka_foulkes_rejects_negative_part():
    with pytest.raises(ValueError):
        kostka_foulkes((2, -1, 1), (2,))


def _partitions_of_length(w, rows):
    return [p for p in partitions_of(w) if len(p) <= rows]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kostka_foulkes_charge_matches_elimination(data):
    # past criterion 2's weight <= 6, at arity <= 4
    w = data.draw(st.integers(0, 9))
    lam = data.draw(st.sampled_from(_partitions_of_length(w, 4)))
    mu = data.draw(st.sampled_from(_partitions_of_length(w, 4)))
    assert kostka_foulkes(lam, mu) == kostka_foulkes_oracle(lam, mu)
