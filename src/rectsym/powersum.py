"""Power sum expansions, symmetric group characters and their products.

Characters come from the border-strip recursion on beta sets: removing a
k-strip from a shape is subtracting k from one beta number while keeping all
of them distinct, and the sign counts the beta numbers jumped over.  A
CharCache can be shared across many computations (a whole verification sweep,
say); every function also works with a private one.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import partitions_of
from .polyring import LaurentPoly


class WeightMismatch(ValueError):
    pass


class NonIntegralResult(ArithmeticError):
    pass


@lru_cache(maxsize=None)
def zee(rho):
    """Centralizer order: prod i^(m_i) m_i! over the multiplicities of rho."""
    out = 1
    mult = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part**m * factorial(m)
    return out


@lru_cache(maxsize=None)
def class_sizes(n):
    """Conjugacy class sizes n!/z_rho of S_n, aligned with partitions_of(n)."""
    total = factorial(n)
    return tuple(total // zee(rho) for rho in partitions_of(n))


@dataclass
class PExpansion:
    """A symmetric function of one weight written in the p basis.

    terms maps cycle types to Fraction (or int) coefficients; zero
    coefficients are simply absent.
    """

    weight: int
    terms: dict = field(default_factory=dict)

    def coefficient(self, rho):
        return self.terms.get(tuple(rho), 0)


# ---------------------------------------------------------------------------
# characters


class CharCache:
    """Shared memo for border-strip recursions plus whole character rows."""

    def __init__(self):
        self.strip = {}
        self.rows = {}


def _beta_set(lam):
    L = len(lam)
    return tuple(lam[i] + L - 1 - i for i in range(L))


def _char_beta(beta, suffixes, idx, memo):
    if idx == len(suffixes):
        return 1
    key = (beta, suffixes[idx])
    got = memo.get(key)
    if got is not None:
        return got
    k = suffixes[idx][0]
    total = 0
    for pos, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        jumped = sum(1 for j in range(pos + 1, len(beta)) if beta[j] > nb)
        new_beta = tuple(sorted(beta[:pos] + beta[pos + 1 :] + (nb,), reverse=True))
        sub = _char_beta(new_beta, suffixes, idx + 1, memo)
        total += -sub if jumped & 1 else sub
    memo[key] = total
    return total


def char_value(lam, rho, cache=None):
    """Character of the symmetric group: chi^lam evaluated on cycle type rho."""
    lam = tuple(lam)
    rho = tuple(sorted(rho, reverse=True))
    if sum(lam) != sum(rho):
        raise WeightMismatch(f"|{lam}| != |{rho}|")
    if not lam:
        return 1
    memo = cache.strip if cache is not None else {}
    suffixes = [rho[i:] for i in range(len(rho))]
    return _char_beta(_beta_set(lam), suffixes, 0, memo)


def char_row(lam, cache=None):
    """chi^lam on every cycle type of its weight, aligned with partitions_of."""
    lam = tuple(lam)
    if cache is not None and lam in cache.rows:
        return cache.rows[lam]
    memo = cache.strip if cache is not None else {}
    beta = _beta_set(lam)
    row = []
    for rho in partitions_of(sum(lam)):
        suffixes = [rho[i:] for i in range(len(rho))]
        row.append(_char_beta(beta, suffixes, 0, memo) if lam else 1)
    row = tuple(row)
    if cache is not None:
        cache.rows[lam] = row
    return row


# ---------------------------------------------------------------------------
# basis changes and products


def schur_to_p(lam, cache=None):
    """s_lam = sum over cycle types of chi^lam(rho)/z_rho * p_rho."""
    lam = tuple(lam)
    n = sum(lam)
    row = char_row(lam, cache)
    terms = {}
    for rho, chi in zip(partitions_of(n), row):
        if chi:
            terms[rho] = Fraction(chi, zee(rho))
    return PExpansion(n, terms)


def p_to_schur(expansion, cache=None):
    """Integer Schur coefficients of a p expansion; the result must be an
    integral combination or NonIntegralResult is raised."""
    n = expansion.weight
    out = {}
    for lam in partitions_of(n):
        row = char_row(lam, cache)
        total = Fraction(0)
        for rho, chi in zip(partitions_of(n), row):
            c = expansion.terms.get(rho)
            if c and chi:
                total += chi * c
        if total:
            if total.denominator != 1:
                raise NonIntegralResult(f"coefficient of s_{lam} is {total}")
            out[lam] = int(total)
    return out


def schur_coefficient_of_p(expansion, lam, cache=None):
    """Single Schur coefficient of a p expansion, with integrality check."""
    row = char_row(tuple(lam), cache)
    total = Fraction(0)
    for rho, chi in zip(partitions_of(expansion.weight), row):
        c = expansion.terms.get(rho)
        if c and chi:
            total += chi * c
    if total.denominator != 1:
        raise NonIntegralResult(f"coefficient of s_{tuple(lam)} is {total}")
    return int(total)


def internal_product(a, b):
    """Kronecker product on the p basis: p_rho * p_sigma = delta z_rho p_rho."""
    if a.weight != b.weight:
        raise WeightMismatch(f"weights {a.weight} != {b.weight}")
    terms = {}
    for rho, c in a.terms.items():
        d = b.terms.get(rho)
        if d:
            w = zee(rho) * c * d
            if w:
                terms[rho] = w
    return PExpansion(a.weight, terms)


def _merge_cycle_types(r1, r2):
    return tuple(sorted(r1 + r2, reverse=True))


def plethysm_p(outer, inner):
    """Plethysm on the p basis: p_k picks up every part of inner times k."""
    result = {}
    for rho, c in outer.terms.items():
        prod = {(): Fraction(1)}
        for part in rho:
            stretched = {}
            for sigma, d in inner.terms.items():
                key = tuple(part * s for s in sigma)
                stretched[key] = stretched.get(key, 0) + d
            nxt = {}
            for k1, c1 in prod.items():
                for k2, c2 in stretched.items():
                    key = _merge_cycle_types(k1, k2)
                    w = nxt.get(key, 0) + c1 * c2
                    if w:
                        nxt[key] = w
                    elif key in nxt:
                        del nxt[key]
            prod = nxt
        for key, w in prod.items():
            s = result.get(key, 0) + c * w
            if s:
                result[key] = s
            elif key in result:
                del result[key]
    return PExpansion(outer.weight * inner.weight, result)


# ---------------------------------------------------------------------------
# evaluation in finitely many variables


def power_sum_poly(k, n):
    """p_k in n variables."""
    out = LaurentPoly(n)
    out.terms = {tuple(k if j == i else 0 for j in range(n)): 1 for i in range(n)}
    return out


def p_expansion_to_poly(expansion, n):
    """Evaluate a p expansion in n variables.  Coefficients stay Fractions."""
    out = LaurentPoly.zero(n)
    prods = {}
    for rho in sorted(expansion.terms, reverse=True):
        c = expansion.terms[rho]
        cur = prods.get(rho)
        if cur is None:
            cur = LaurentPoly.constant(n, 1)
            for part in rho:
                cur = cur * power_sum_poly(part, n)
            prods[rho] = cur
        out = out + cur.scale(c)
    return out


def to_int_poly(p):
    """Clear exact Fractions down to ints; raises if any denominator survives."""

    def conv(c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise NonIntegralResult(f"coefficient {c} is not an integer")
            return int(c)
        return c

    return p.map_coefficients(conv)
