"""Schur Laurent polynomials in n variables, and the one reader of Schur
coefficients.

Two constructions, one job each.  For a partition lam,
schur_poly_of_partition sums the tableau monomials: s_lam is the sum of
x^(content of T) over the semistandard tableaux T of shape lam with entries
in 1..n.  The bialternant s_lam = a_(lam+delta) / a_delta with
delta = (n-1, ..., 1, 0) (schur_poly) makes sense for any weakly decreasing
integer sequence lam of length n, not just partitions; it serves the signed
shapes of the Hall-Littlewood polynomials, and it proves by direct
computation the two little laws this package leans on everywhere:

  translation   s_(lam + (k,...,k)) = (x1...xn)^k * s_lam
  inversion     s_lam(1/x1, ..., 1/xn) = s_(box complement of lam in 0 x n)

The same identity reads coefficients back.  For symmetric f = sum c_alpha
x^alpha, a_delta * f = sum c_alpha a_(alpha+delta), and sort_with_sign turns
each a_(alpha+delta) into +-a_(nu+delta) or zero; so schur_coefficients reads
every s_nu off in one pass over the terms of f.
"""

from functools import lru_cache
from itertools import permutations
from operator import add, sub

from .partitions import (
    complement,
    is_weakly_decreasing,
    iter_ssyt,
    ssyt_weight,
    to_count,
    to_partition,
)
from .polyring import LaurentPoly, divide_by_variable_difference


class LengthMismatch(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


def delta(n):
    """The staircase (n-1, n-2, ..., 0)."""
    return tuple(range(n - 1, -1, -1))


def sort_with_sign(seq):
    """(seq sorted decreasingly, sign of the sorting permutation), or None
    when an entry repeats, which is when the alternant of seq vanishes."""
    out = list(seq)
    sign = 1
    for i in range(1, len(out)):
        v = out[i]
        j = i
        while j and out[j - 1] < v:
            out[j] = out[j - 1]
            j -= 1
            sign = -sign
        if j and out[j - 1] == v:
            return None
        out[j] = v
    return tuple(out), sign


def alternant(seq, n=None):
    """sum over w in S_n of sgn(w) * x^(w(seq)), as a LaurentPoly."""
    seq = tuple(seq)
    if n is None:
        n = len(seq)
    if len(seq) != n:
        raise LengthMismatch(f"sequence {seq} in arity {n}")
    hit = sort_with_sign(seq)
    if hit is None:
        return LaurentPoly.zero(n)
    base = hit[1]
    r = LaurentPoly(n)
    r.terms = {e: base * sort_with_sign(e)[1] for e in permutations(seq)}
    return r


def _divide_by_vandermonde(p, n):
    # one binomial factor at a time; each factor divides exactly
    for i in range(n):
        for j in range(i + 1, n):
            p = divide_by_variable_difference(p, i, j)
    return p


@lru_cache(maxsize=None)
def schur_poly(lam, n):
    """Schur Laurent polynomial of the weakly decreasing sequence lam.

    lam must have length exactly n; pad partitions with zeros first.
    """
    lam = tuple(lam)
    if len(lam) != n:
        raise LengthMismatch(f"{lam} must have length {n}")
    if not is_weakly_decreasing(lam):
        raise ValueError(f"{lam} is not weakly decreasing")
    if n == 0:
        return LaurentPoly.constant(0, 1)
    num = alternant(tuple(l + d for l, d in zip(lam, delta(n))), n)
    return _divide_by_vandermonde(num, n)


def schur_poly_of_partition(p, n):
    """s_p in n variables for a partition p (trailing zeros allowed), as the
    tableau monomial sum: one x^(content of T) per semistandard tableau T of
    shape p with entries in 1..n.  Zero when p has more than n rows; a p that
    is not a partition, or an n that is not a nonnegative integer, raises
    ValueError, before the memo sees it.
    """
    return _tableau_sum(to_partition(p), to_count(n, "number of variables"))


@lru_cache(maxsize=None)
def _tableau_sum(p, n):
    """schur_poly_of_partition on a partition p, memoised."""
    out = {}
    if len(p) <= n:
        for tab in iter_ssyt(p, n):
            e = ssyt_weight(tab, n)
            out[e] = out.get(e, 0) + 1
    r = LaurentPoly(n)
    r.terms = out
    return r


# ---------------------------------------------------------------------------
# reading Schur coefficients


def schur_coefficients(p, n):
    """Partition-keyed Schur coefficients of a symmetric polynomial.

    One pass over the terms: a_delta * p = sum_alpha c_alpha a_(alpha+delta),
    and each a_(alpha+delta) is sign * a_(nu+delta) with nu + delta the
    decreasing sort of alpha + delta, or zero when alpha + delta repeats an
    entry.  A nonzero coefficient at a sequence with a negative row raises
    ValueError: the input is Laurent, not a partition expansion.
    """
    if p.arity != n:
        raise LengthMismatch(f"arity {p.arity} vs {n}")
    if not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    d = delta(n)
    acc = {}
    for e, c in p.terms.items():
        hit = sort_with_sign(map(add, e, d))
        if hit is not None:
            beta, sign = hit
            acc[beta] = acc.get(beta, 0) + sign * c
    return {to_partition(map(sub, beta, d)): c for beta, c in acc.items() if c}


# ---------------------------------------------------------------------------
# the two foundation laws, checked by direct polynomial identity


def check_translation_law(lam, n, k):
    """s_(lam+(k^n)) == (x1...xn)^k * s_lam, returned as a bool."""
    lam = tuple(lam)
    lhs = schur_poly(tuple(a + k for a in lam), n)
    rhs = schur_poly(lam, n).shift((k,) * n)
    return lhs == rhs


def check_inversion_law(lam, n):
    """s_lam(1/x) == s_(complement of lam in the 0 x n box)."""
    lam = tuple(lam)
    lhs = schur_poly(lam, n).invert_variables()
    rhs = schur_poly(complement(lam, 0, n), n)
    return lhs == rhs
