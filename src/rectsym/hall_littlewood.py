"""Kostka-Foulkes polynomials and Hall-Littlewood polynomials over Z[t].

The engine, kostka_foulkes, is the Lascoux-Schutzenberger charge generating
function: K_(lam,mu)(t) sums t^charge over the semistandard tableaux of shape
lam and content mu.  Its oracle, kostka_foulkes_oracle, enumerates no
tableaux: it solves s_lam = sum_rho K_(lam,rho)(t) P_rho for K from the Schur
expansions of the P_rho, which are unitriangular in dominance order
(Macdonald, Symmetric Functions and Hall Polynomials, III.2).

P_mu(x; t) is the symmetrization of x^mu prod_{i<j} (x_i - t x_j)/(x_i - x_j),
normalized by v_mu(t) so the leading coefficient is 1.  Rather than summing
n! rational terms, multiply out T = x^mu prod (x_i - t x_j) once and
antisymmetrize it monomial by monomial with schur.sort_with_sign (each
exponent sorted decreasingly with its sign, repeats dropped).  Divided by the
delta alternant, each strictly decreasing exponent beta becomes the Schur
polynomial of beta - delta, so the sum is P_mu's Schur expansion times
v_mu(t); hl_schur divides each coefficient exactly by v_mu(t) and no
fraction ever appears.  hl_poly sums the Schur polynomials.

The normalization v_mu counts multiplicities in mu padded with zeros to the
full arity, zeros included; that convention is what makes P well behaved
under inverting the variables.
"""

from functools import lru_cache
from operator import add, sub

from .partitions import (
    is_weakly_decreasing,
    iter_ssyt,
    partitions_of,
    to_partition,
    zero_pad,
)
from .polyring import LaurentPoly, TPoly, t_factorial
from .schur import delta, schur_poly, sort_with_sign


@lru_cache(maxsize=None)
def t_vandermonde(n):
    """prod_{i<j} (x_i - t x_j), with TPoly coefficients."""
    out = LaurentPoly.constant(n, TPoly.const(1))
    minus_t = -TPoly.t()
    for i in range(n):
        for j in range(i + 1, n):
            factor = LaurentPoly(n)
            ei = [0] * n
            ei[i] = 1
            ej = [0] * n
            ej[j] = 1
            factor.terms = {tuple(ei): TPoly.const(1), tuple(ej): minus_t}
            out = out * factor
    return out


def v_poly(mu, n):
    """Normalization v_(mu,n)(t): product of [m]_t! over the multiplicities
    of the values of mu padded with zeros to length n (zeros count)."""
    padded = zero_pad(mu, n)
    out = TPoly.const(1)
    for value in set(padded):
        out = out * t_factorial(padded.count(value))
    return out


@lru_cache(maxsize=None)
def hl_schur(mu, n):
    """Schur expansion of the Hall-Littlewood P_mu in n variables: a dict
    from length-n weakly decreasing sequences to TPoly coefficients.

    mu may be any weakly decreasing integer sequence of length up to n;
    shorter ones are padded with zeros (so they must be nonnegative).
    """
    if not is_weakly_decreasing(mu):
        raise ValueError(f"{mu} is not weakly decreasing")
    if len(mu) < n and mu and mu[-1] < 0:
        raise ValueError(f"pad {mu} to length {n} explicitly")
    padded = zero_pad(mu, n)
    acc = {}
    for e, c in t_vandermonde(n).terms.items():
        hit = sort_with_sign(map(add, e, padded))
        if hit is None:
            continue
        beta, sign = hit
        acc[beta] = acc.get(beta, TPoly()) + (c if sign > 0 else -c)
    v_mu = v_poly(padded, n)
    d = delta(n)
    # the Schur expansion of P_mu is integral, so v_mu divides every entry
    return {
        tuple(map(sub, beta, d)): c.exact_div(v_mu) for beta, c in acc.items() if c
    }


def hl_poly(mu, n):
    """Hall-Littlewood P_mu in n variables, coefficients in Z[t]: the sum of
    its Schur expansion, hl_schur(mu, n), which says what mu may be."""
    total = {}
    for shape, c in hl_schur(tuple(mu), n).items():
        for e, w in schur_poly(shape, n).terms.items():
            v = total.get(e, 0) + c * w
            if v:
                total[e] = v
            elif e in total:
                del total[e]
    out = LaurentPoly(n)
    out.terms = total
    return out


# ---------------------------------------------------------------------------
# Kostka-Foulkes by unitriangularity


def kostka_foulkes_oracle(lam, mu):
    """K_(lam,mu)(t) as a TPoly, solved from s_lam = sum_rho K_(lam,rho)
    P_rho in the Schur basis; zero when the weights differ.  Each index must
    be a partition (trailing zeros allowed), else ValueError.

    P_rho is s_rho plus Schur terms strictly below rho in dominance, so
    walking the partitions rho in lex-descending order (which extends
    dominance), K_(lam,rho) is what is left of s_rho's coefficient once the
    P of every earlier rho has been subtracted.
    """
    lam, mu = to_partition(lam), to_partition(mu)
    if sum(lam) != sum(mu):
        return TPoly()
    n = max(len(lam), len(mu))
    target = zero_pad(mu, n)
    rest = {zero_pad(lam, n): TPoly.const(1)}
    for rho in partitions_of(sum(lam), n):
        rho = zero_pad(rho, n)
        if rho == target:
            break
        k = rest.get(rho)
        if k:
            for shape, c in hl_schur(rho, n).items():
                rest[shape] = rest.get(shape, TPoly()) - k * c
    return rest.get(target, TPoly())


# ---------------------------------------------------------------------------
# charge


def charge_standard(positions):
    """Charge of a standard subword given the position of each letter 1..r:
    start the index at 0 and raise it whenever the next letter sits to the
    right of the previous one."""
    total = 0
    idx = 0
    for r in range(1, len(positions)):
        if positions[r] > positions[r - 1]:
            idx += 1
        total += idx
    return total


def charge(word):
    """Charge of a word whose content is a partition.

    Repeatedly extract a standard subword: scan right to left (cyclically)
    for the first 1, then keep scanning for the first 2, and so on; score
    the extracted positions and remove them.
    """
    word = list(word)
    total = 0
    while word:
        biggest = max(word)
        taken = []
        pos = len(word) - 1
        for target in range(1, biggest + 1):
            steps = 0
            while steps <= len(word):
                if word[pos] == target and pos not in taken:
                    taken.append(pos)
                    break
                pos -= 1
                if pos < 0:
                    pos = len(word) - 1
                steps += 1
            else:
                raise ValueError(f"content of {word} is not a partition")
        total += charge_standard(taken)
        for p in sorted(taken, reverse=True):
            del word[p]
    return total


def reading_word(tab):
    """Rows read left to right, bottom row first."""
    out = []
    for row in reversed(tab):
        out.extend(row)
    return out


def kostka_foulkes(lam, mu):
    """K_(lam,mu)(t) as a TPoly: the charge generating function over the
    semistandard tableaux of shape lam and content mu; zero when the weights
    differ.  Each index must be a partition (trailing zeros allowed), else
    ValueError."""
    lam, mu = to_partition(lam), to_partition(mu)
    if sum(lam) != sum(mu):
        return TPoly()
    coeffs = {}
    n = max(len(mu), 1)
    for tab in iter_ssyt(lam, n, content=zero_pad(mu, n)):
        c = charge(reading_word(tab))
        coeffs[c] = coeffs.get(c, 0) + 1
    out = [0] * (max(coeffs, default=-1) + 1)
    for c, m in coeffs.items():
        out[c] = m
    return TPoly(out)


# The old name of the charge route; perfbench/pin.py still imports it.
kostka_foulkes_charge = kostka_foulkes


# ---------------------------------------------------------------------------
# specializations


def specialize_t(p, value):
    """Substitute an integer for t in a TPoly-coefficient polynomial."""

    def conv(c):
        return c.subs(value) if isinstance(c, TPoly) else c

    return p.map_coefficients(conv)


def monomial_symmetric_poly(mu, n):
    """Sum of x^alpha over the distinct permutations alpha of mu (padded)."""
    from itertools import permutations

    padded = zero_pad(mu, n)
    out = LaurentPoly(n)
    out.terms = {e: 1 for e in set(permutations(padded))}
    return out
