"""Schur Laurent polynomials in n variables and expansion in that basis.

The construction is the bialternant: s_lam = a_(lam+delta) / a_delta with
delta = (n-1, ..., 1, 0).  It makes sense for any weakly decreasing integer
sequence lam of length n, not just partitions, and the two little laws this
package leans on everywhere are proved by direct computation here:

  translation   s_(lam + (k,...,k)) = (x1...xn)^k * s_lam
  inversion     s_lam(1/x1, ..., 1/xn) = s_(box complement of lam in 0 x n)
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .partitions import (
    complement,
    is_weakly_decreasing,
    to_partition,
    iter_ssyt,
    ssyt_weight,
    zero_pad,
)
from .polyring import LaurentPoly, divide_by_variable_difference


class LengthMismatch(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


def delta(n):
    """The staircase (n-1, n-2, ..., 0)."""
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _signed_perms(n):
    """All (permutation, sign) pairs of S_n."""
    out = []
    for p in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        out.append((p, -1 if inv & 1 else 1))
    return tuple(out)


def alternant(seq, n=None):
    """sum over w in S_n of sgn(w) * x^(w(seq)), as a LaurentPoly."""
    seq = tuple(seq)
    if n is None:
        n = len(seq)
    if len(seq) != n:
        raise LengthMismatch(f"sequence {seq} in arity {n}")
    if len(set(seq)) < n:
        return LaurentPoly.zero(n)
    terms = {}
    for p, sign in _signed_perms(n):
        e = [0] * n
        for i, s in enumerate(seq):
            e[p[i]] = s
        terms[tuple(e)] = sign
    r = LaurentPoly(n)
    r.terms = terms
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


@lru_cache(maxsize=None)
def schur_poly_of_partition(p, n):
    """schur_poly of a partition zero-padded to arity n; 0 if too long.

    For partition shapes the tableau monomial sum gives the same polynomial
    as the bialternant (an invariant under test) and costs far less at high
    arity, where the alternant has n! terms before division.
    """
    if len(p) > n:
        return LaurentPoly.zero(n)
    if n >= 6:
        return schur_poly_ssyt(p, n)
    return schur_poly(zero_pad(p, n), n)


def schur_poly_ssyt(p, n):
    """Same polynomial, as the tableau monomial sum.  Partition shapes only."""
    out = {}
    for tab in iter_ssyt(p, n):
        e = ssyt_weight(tab, n)
        out[e] = out.get(e, 0) + 1
    r = LaurentPoly(n)
    r.terms = out
    return r


# ---------------------------------------------------------------------------
# expansion


@dataclass(frozen=True)
class SchurExpansion:
    """Expansion of a symmetric Laurent polynomial in Schur polynomials.

    entries maps weakly decreasing length-arity sequences (possibly with
    negative rows) to coefficients.  shift records the power of x1...xn that
    was factored out before elimination; keys already include it.
    """

    arity: int
    shift: int
    entries: dict

    def as_partition_dict(self):
        out = {}
        for key, c in self.entries.items():
            if key and key[-1] < 0:
                raise ValueError(f"negative row in {key}; not a partition expansion")
            out[to_partition(key)] = c
        return out


def expand_in_schur(p, n, check=True):
    """Write a symmetric LaurentPoly as an integer combination of Schur
    polynomials by triangular elimination on lex-leading monomials."""
    if p.arity != n:
        raise LengthMismatch(f"arity {p.arity} vs {n}")
    if check and not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    if not p:
        return SchurExpansion(n, 0, {})
    shift = min(p.min_exponents()) if n else 0
    work = p.shift((-shift,) * n) if shift else p
    entries = {}
    while work:
        e = work.leading_monomial()
        if not is_weakly_decreasing(e) or (e and e[-1] < 0):
            raise NotSymmetric(f"leading monomial {e} is not dominant")
        c = work.terms[e]
        entries[tuple(x + shift for x in e)] = c
        work = work - schur_poly_of_partition(to_partition(e), n).scale(c)
    return SchurExpansion(n, shift, entries)


def schur_coefficients(p, n):
    """Partition-keyed Schur coefficients of a genuinely polynomial input."""
    return expand_in_schur(p, n).as_partition_dict()


def schur_coefficient_of(p, nu, n):
    """Single Schur coefficient of a symmetric polynomial, read against the
    delta alternant: coeff = sum over w of sgn(w) * p[nu + delta - w(delta)].
    Avoids both the full product with a_delta and elimination."""
    if p.arity != n:
        raise LengthMismatch(f"arity {p.arity} vs {n}")
    if n == 0:
        return p.coefficient(()) if not nu else 0
    if len(nu) > n:
        return 0
    target = tuple(a + d for a, d in zip(zero_pad(nu, n), delta(n)))
    total = 0
    terms = p.terms
    for w, sign in _signed_perms(n):
        shifted = [0] * n
        for i in range(n):
            shifted[w[i]] = n - 1 - i
        c = terms.get(tuple(t - s for t, s in zip(target, shifted)))
        if c:
            total += sign * c
    return total


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
