from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rectsym.polyring import (
    ArityMismatch,
    InexactDivision,
    LaurentPoly,
    TPoly,
    ZeroPolynomial,
    divide_by_variable_difference,
    t_factorial,
)


# ---------------------------------------------------------------------------
# TPoly


def test_tpoly_basics():
    t = TPoly.t()
    assert str(t) == "t"
    assert str(TPoly()) == "0"
    assert str(1 - t) == "1 - t"
    assert str(t + t * t) == "t + t^2"
    assert str(TPoly((2, 0, -3))) == "2 - 3*t^2"


def test_tpoly_int_equality():
    assert TPoly() == 0
    assert TPoly.const(5) == 5
    assert TPoly.t() != 1
    assert 1 + TPoly.t() - TPoly.t() == 1


def test_tpoly_arithmetic():
    t = TPoly.t()
    assert (1 + t) * (1 - t) == 1 - t * t
    assert (1 + t) * (1 + t) == TPoly((1, 2, 1))
    assert -(1 - t) == t - 1


def test_tpoly_subs():
    p = TPoly((1, 2, 1))  # (1+t)^2
    assert p.subs(1) == 4
    assert p.subs(0) == 1
    assert p.subs(-1) == 0
    assert p.subs(Fraction(1, 2)) == Fraction(9, 4)


def test_tpoly_exact_div():
    t = TPoly.t()
    num = (1 + t) * (1 + t + t * t)
    assert num.exact_div(1 + t) == 1 + t + t * t
    with pytest.raises(InexactDivision):
        (1 + t).exact_div(TPoly((0, 1)))
    with pytest.raises(ZeroPolynomial):
        (1 + t).exact_div(TPoly())


@given(st.lists(st.integers(-5, 5), max_size=5), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_tpoly_mul_div_round_trip(a, b):
    pa, pb = TPoly(a), TPoly(b)
    if not pb:
        return
    assert (pa * pb).exact_div(pb) == pa


def test_t_factorial():
    t = TPoly.t()
    assert t_factorial(0) == 1
    assert t_factorial(1) == 1
    assert t_factorial(2) == 1 + t
    assert t_factorial(3) == (1 + t) * (1 + t + t * t)
    assert t_factorial(4).subs(1) == 24


# ---------------------------------------------------------------------------
# LaurentPoly


def xvar(n, i):
    return LaurentPoly.variable(n, i)


def test_laurent_construction_drops_zeros():
    p = LaurentPoly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}


def test_laurent_arity_checks():
    with pytest.raises(ArityMismatch):
        LaurentPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ArityMismatch):
        xvar(2, 0) + xvar(3, 0)


def test_laurent_equality_with_int():
    assert LaurentPoly.zero(3) == 0
    assert LaurentPoly.constant(3, 7) == 7
    assert xvar(2, 0) != 0


def test_laurent_add_mul():
    x, y = xvar(2, 0), xvar(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    p = (x + y) * (x + y)
    assert p.terms.get((1, 1), 0) == 2
    assert p.terms.get((2, 0), 0) == 1
    assert p.terms.get((5, 5), 0) == 0


def test_laurent_negative_exponents():
    x = xvar(1, 0)
    inv = x.invert_variables()
    assert inv.terms == {(-1,): 1}
    assert x * inv == 1


def test_laurent_shift_and_frobenius():
    x, y = xvar(2, 0), xvar(2, 1)
    p = x + y
    assert p.shift((1, 1)).terms == {(2, 1): 1, (1, 2): 1}


def test_laurent_is_symmetric():
    x, y = xvar(2, 0), xvar(2, 1)
    assert (x + y).is_symmetric()
    assert (x * x + x * y + y * y).is_symmetric()
    assert not (x + y * y).is_symmetric()


def test_laurent_str():
    x, y = xvar(2, 0), xvar(2, 1)
    assert str(x * x + x * y + y * y) == "x1^2 + x1*x2 + x2^2"
    assert str(LaurentPoly.zero(2)) == "0"
    t = TPoly.t()
    p = (x * y).scale(1 - t)
    assert str(p) == "(1 - t)*x1*x2"


@st.composite
def small_polys(draw, arity=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(-2, 3)) for _ in range(arity))
        terms[e] = draw(st.integers(-4, 4))
    return LaurentPoly(arity, terms)


@given(small_polys(), st.integers(0, 2), st.integers(0, 2))
def test_synthetic_division_inverts_multiplication(p, i, j):
    if i == j:
        return
    diff = xvar(3, i) - xvar(3, j)
    assert divide_by_variable_difference(p * diff, i, j) == p


def test_synthetic_division_rejects_non_multiple():
    x, y = xvar(2, 0), xvar(2, 1)
    with pytest.raises(InexactDivision):
        divide_by_variable_difference(x + y, 0, 1)
