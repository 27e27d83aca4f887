"""Littlewood-Richardson, Kronecker, and plethysm coefficients."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rectsym.coefficients import (
    ArityTooSmall,
    kronecker_coefficient,
    kronecker_oracle,
    kronecker_oracle_table,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from rectsym.partitions import conjugate, contains, partitions_of
from rectsym.powersum import CharCache, NonIntegralResult, char_row


def test_lr_pieri_row():
    # s_lam * s_(1) adds one box in all distinct ways
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (3, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2, 2)) == 1
    assert lr_coefficient((2, 1), (1,), (2, 1, 1)) == 1


def test_lr_classic_square():
    # s_(2,1)^2 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    expect = {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    for nu in partitions_of(6):
        assert lr_coefficient((2, 1), (2, 1), nu) == expect.get(nu, 0)


def test_lr_degenerate_cases():
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((3,), (), (3,)) == 1
    assert lr_coefficient((2, 1), (1,), (3,)) == 0  # length over arity
    assert lr_coefficient((2,), (1,), (2,)) == 0  # weight mismatch
    assert lr_coefficient((3,), (1,), (2, 2)) == 0  # lam not inside nu
    assert lr_coefficient((2, 1, 0), (1,), (3, 1)) == 1  # trailing zero
    assert lr_coefficient_oracle((1, 0, 0), (1,), (2,)) == 1


def test_lr_rejects_malformed_partition():
    with pytest.raises(ValueError):
        lr_coefficient((1,), (1,), (1, 2))


def test_lr_symmetry_and_containment():
    for w in range(6):
        for a in range(w + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(w - a):
                    for nu in partitions_of(w):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(mu, lam, nu)
                        if c:
                            assert contains(nu, lam) and contains(nu, mu)


def test_lr_lattice_words_against_schur_product():
    for w in range(7):
        for a in range(w + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(w - a):
                    for nu in partitions_of(w):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)


def _inside(nu, w):
    return [p for p in partitions_of(w) if contains(nu, p)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lr_lattice_words_match_schur_product_past_criterion_2(data):
    # |nu| <= 14 with at most six rows; lam and mu drawn inside nu
    w = data.draw(st.integers(0, 14))
    nu = data.draw(st.sampled_from(partitions_of(w, 6)))
    a = data.draw(st.integers(0, w))
    lam = data.draw(st.sampled_from(_inside(nu, a)))
    mu = data.draw(st.sampled_from(_inside(nu, w - a)))
    assert lr_coefficient(lam, mu, nu) == lr_coefficient_oracle(lam, mu, nu)


def test_kronecker_trivial_row():
    # pairing against the trivial character picks out equal arguments
    for mu in partitions_of(3):
        for nu in partitions_of(3):
            assert kronecker_coefficient((3,), mu, nu) == (1 if mu == nu else 0)
            assert kronecker_coefficient(mu, nu, (3,)) == (1 if mu == nu else 0)


def test_kronecker_sign_twist():
    # tensoring with the sign character conjugates
    cache = CharCache()
    for mu in partitions_of(4):
        for nu in partitions_of(4):
            expect = 1 if conjugate(mu) == nu else 0
            assert kronecker_coefficient((1, 1, 1, 1), mu, nu, cache) == expect


def test_kronecker_symmetries():
    cache = CharCache()
    for w in (3, 4):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                for nu in partitions_of(w):
                    g = kronecker_coefficient(lam, mu, nu, cache)
                    for a, b, c in itertools.permutations((lam, mu, nu)):
                        assert kronecker_coefficient(a, b, c, cache) == g
                    assert (
                        kronecker_coefficient(conjugate(lam), conjugate(mu), nu, cache)
                        == g
                    )


def test_kronecker_weight_mismatch():
    assert kronecker_coefficient((2,), (1,), (2,)) == 0
    assert kronecker_coefficient((), (), ()) == 1


def test_kronecker_non_integral_sum_raises():
    cache = CharCache()
    row = char_row((2, 1), cache)
    cache.rows[(2, 1)] = (row[0] + 1,) + row[1:]
    with pytest.raises(NonIntegralResult):
        kronecker_coefficient((2, 1), (2, 1), (2, 1), cache)


def test_kronecker_rejects_malformed_indices():
    with pytest.raises(ValueError):
        kronecker_coefficient((2, 1), (2, 1), (1, 2))
    with pytest.raises(ValueError):
        kronecker_coefficient((2, -1, 1), (2,), (2,))
    # trailing zeros are canonicalised away, not rejected
    assert kronecker_coefficient((2, 1, 0), (2, 1), (3, 0)) == 1


def test_kronecker_against_bialphabet_oracle():
    cache = CharCache()
    for w in range(5):
        box = max(w, 1)
        for nu in partitions_of(w):
            table = kronecker_oracle_table(nu, box, box, cache)
            for lam in partitions_of(w):
                for mu in partitions_of(w):
                    got = kronecker_oracle(lam, mu, nu, box, box, cache, table)
                    assert got == kronecker_coefficient(lam, mu, nu, cache), (
                        lam,
                        mu,
                        nu,
                    )


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_kronecker_matches_garsia_remmel_oracle_past_criterion_2(data):
    # weight up to 12; the oracle computes the one triple, with no table
    w = data.draw(st.integers(0, 12))
    lam, mu, nu = (data.draw(st.sampled_from(partitions_of(w))) for _ in range(3))
    got = kronecker_oracle(lam, mu, nu, len(lam), len(mu))
    assert got == kronecker_coefficient(lam, mu, nu)


@pytest.mark.parametrize("l,m", [(2, 3), (3, 2), (1, 4)])
def test_kronecker_oracle_table_unequal_alphabets(l, m):
    # exactly the engine's nonzero values on lam with <= l rows and mu with
    # <= m rows, and nothing at all when nu has more than l*m rows
    cache = CharCache()
    for w in range(6):
        for nu in partitions_of(w):
            table = kronecker_oracle_table(nu, l, m, cache)
            if len(nu) > l * m:
                assert table == {}, nu
                continue
            expect = {}
            for lam in partitions_of(w, l):
                for mu in partitions_of(w, m):
                    g = kronecker_coefficient(lam, mu, nu, cache)
                    if g:
                        expect[(lam, mu)] = g
            assert table == expect, nu


def test_kronecker_oracle_arity_guard():
    try:
        kronecker_oracle((1, 1), (2,), (2,), 1, 2)
    except ArityTooSmall:
        pass
    else:
        assert False, "expected ArityTooSmall"


def test_kronecker_oracle_strips_trailing_zeros():
    # the oracle table is keyed by stripped partitions; g((2),(2),(2)) = 1
    assert kronecker_oracle((2, 0), (2,), (2,), 2, 2) == 1


def test_kronecker_oracle_rejects_malformed_indices():
    with pytest.raises(ValueError):
        kronecker_oracle((2, 1), (2, 1), (1, 2), 2, 2)


def test_plethysm_symmetric_square_of_vector_forms():
    # Sym^2(Sym^2 V) = S_(4) + S_(2,2)
    assert plethysm_coefficient((2,), (2,), (4,)) == 1
    assert plethysm_coefficient((2,), (2,), (2, 2)) == 1
    assert plethysm_coefficient((2,), (2,), (3, 1)) == 0
    # Sym^2(Wedge^2 V) = S_(2,2) + S_(1,1,1,1)
    assert plethysm_coefficient((2,), (1, 1), (2, 2)) == 1
    assert plethysm_coefficient((2,), (1, 1), (1, 1, 1, 1)) == 1
    assert plethysm_coefficient((2,), (1, 1), (2, 1, 1)) == 0
    # Wedge^2(Wedge^2 V) = S_(2,1,1)
    assert plethysm_coefficient((1, 1), (1, 1), (2, 1, 1)) == 1
    assert plethysm_coefficient((1, 1), (1, 1), (2, 2)) == 0
    # Wedge^2(Sym^2 V) = S_(3,1)
    assert plethysm_coefficient((1, 1), (2,), (3, 1)) == 1


def test_plethysm_degenerate_cases():
    assert plethysm_coefficient((), (), ()) == 1
    assert plethysm_coefficient((), (2,), ()) == 1
    assert plethysm_coefficient((2,), (2,), (5,)) == 0  # weight mismatch
    assert plethysm_coefficient((1,), (2, 1), (2, 1)) == 1


def test_plethysm_rejects_malformed_partition():
    with pytest.raises(ValueError):
        plethysm_coefficient((2,), (1,), (1, 2))


def test_plethysm_oracle_rejects_malformed_partition():
    with pytest.raises(ValueError):
        plethysm_oracle((2,), (1,), (1, 2))


def test_plethysm_full_expansions_weight_4():
    # every nu of weight 4, so both arity branches and the zeros are read
    expect = {
        ((2,), (2,)): {(4,): 1, (2, 2): 1},
        ((1, 1), (1, 1)): {(2, 1, 1): 1},
        ((2,), (1, 1)): {(2, 2): 1, (1, 1, 1, 1): 1},
    }
    for (lam, mu), table in expect.items():
        for nu in partitions_of(4):
            assert plethysm_coefficient(lam, mu, nu) == table.get(nu, 0), (lam, mu, nu)


@pytest.mark.parametrize(
    "mu, nu",
    [((1,), (2,)), ((1, 1), (1, 1, 1, 1))],
    ids=["one-row", "four-rows"],
)
def test_plethysm_non_integral_sum_raises(mu, nu):
    # a doctored outer character row leaves a remainder in the exact
    # division, on the polynomial route and on the power sum route
    cache = CharCache()
    row = char_row((2,), cache)
    cache.rows[(2,)] = (row[0] + 1,) + row[1:]
    with pytest.raises(NonIntegralResult):
        plethysm_coefficient((2,), mu, nu, cache)


def test_plethysm_against_evaluation_oracle():
    for a in range(1, 7):
        for b in range(1, 7):
            if a * b > 6:
                continue
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    for nu in partitions_of(a * b):
                        assert plethysm_coefficient(lam, mu, nu) == plethysm_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_plethysm_matches_oracle_past_criterion_2(data):
    # |nu| up to 12 with one to five rows: both arity branches of the engine
    a = data.draw(st.integers(1, 6))
    b = data.draw(st.integers(1, 12 // a))
    lam = data.draw(st.sampled_from(partitions_of(a)))
    mu = data.draw(st.sampled_from(partitions_of(b)))
    nu = data.draw(st.sampled_from([p for p in partitions_of(a * b) if len(p) <= 5]))
    assert plethysm_coefficient(lam, mu, nu) == plethysm_oracle(lam, mu, nu)
