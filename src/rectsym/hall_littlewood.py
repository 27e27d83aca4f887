"""Kostka-Foulkes polynomials and Hall-Littlewood polynomials over Z[t].

The engine, kostka_foulkes, is the Lascoux-Schutzenberger charge generating
function: K_(lam,mu)(t) sums t^charge over the semistandard tableaux of shape
lam and content mu.  Its oracle, kostka_foulkes_oracle, expands s_lam in the
Hall-Littlewood basis by elimination on leading monomials.

P_mu(x; t) is the symmetrization of x^mu prod_{i<j} (x_i - t x_j)/(x_i - x_j),
normalized by v_mu(t) so the leading coefficient is 1.  Rather than summing
n! rational terms, multiply out T = x^mu prod (x_i - t x_j) once, antisymmetrize
monomial by monomial with schur.sort_with_sign (each exponent sorted
decreasingly with its sign, repeats dropped), and divide the resulting
alternant sum by the delta alternant, which turns each strictly decreasing
exponent beta into the Schur polynomial of beta - delta.
One exact division by v_mu(t) at the end and no fraction ever appears.

The normalization v_mu counts multiplicities in mu padded with zeros to the
full arity, zeros included; that convention is what makes P well behaved
under inverting the variables.
"""

from functools import lru_cache

from .partitions import complement, is_weakly_decreasing, iter_ssyt, to_partition, zero_pad
from .polyring import LaurentPoly, TPoly, t_factorial
from .schur import (
    NotSymmetric,
    delta,
    schur_poly,
    schur_poly_of_partition,
    sort_with_sign,
)


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


@lru_cache(maxsize=None)
def v_poly(mu, n):
    """Normalization v_(mu,n)(t): product of [m]_t! over the multiplicities
    of the values of mu padded with zeros to length n (zeros count)."""
    padded = zero_pad(mu, n)
    out = TPoly.const(1)
    for value in set(padded):
        out = out * t_factorial(padded.count(value))
    return out


@lru_cache(maxsize=None)
def hl_poly(mu, n):
    """Hall-Littlewood P_mu in n variables, coefficients in Z[t].

    mu may be any weakly decreasing integer sequence of length up to n;
    shorter ones are padded with zeros (so they must be nonnegative).
    """
    mu = tuple(mu)
    if not is_weakly_decreasing(mu):
        raise ValueError(f"{mu} is not weakly decreasing")
    if len(mu) < n and mu and mu[-1] < 0:
        raise ValueError(f"pad {mu} to length {n} explicitly")
    padded = zero_pad(mu, n)
    if n == 0:
        return LaurentPoly.constant(0, TPoly.const(1))
    T = t_vandermonde(n).shift(padded)
    acc = {}
    for e, c in T.terms.items():
        hit = sort_with_sign(e)
        if hit is None:
            continue
        beta, sign = hit
        signed = c if sign > 0 else -c
        prev = acc.get(beta)
        s = signed if prev is None else prev + signed
        if s:
            acc[beta] = s
        elif beta in acc:
            del acc[beta]
    d = delta(n)
    total = {}
    for beta, c in acc.items():
        shape = tuple(b - dd for b, dd in zip(beta, d))
        for e, w in schur_poly(shape, n).terms.items():
            v = total.get(e, 0) + c * w
            if v:
                total[e] = v
            elif e in total:
                del total[e]
    v_mu = v_poly(mu, n)
    out = LaurentPoly(n)
    out.terms = {e: c.exact_div(v_mu) for e, c in total.items()}
    return out


# ---------------------------------------------------------------------------
# expansion and Kostka-Foulkes


def expand_in_hl(p, n, check=True):
    """Write a symmetric polynomial as a Z[t] combination of P_mu by
    elimination on lex-leading monomials.  Returns (shift, entries) where
    entries maps length-n sequences (shift already folded in) to TPoly."""
    if p.arity != n:
        raise ValueError(f"arity {p.arity} vs {n}")
    if check and not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    if not p:
        return 0, {}
    shift = min(p.min_exponents()) if n else 0
    work = p.shift((-shift,) * n) if shift else p
    entries = {}
    while work:
        e = work.leading_monomial()
        if not is_weakly_decreasing(e):
            raise NotSymmetric(f"leading monomial {e} is not dominant")
        c = work.terms[e]
        if isinstance(c, int):
            c = TPoly.const(c)
        entries[tuple(x + shift for x in e)] = c
        work = work - hl_poly(to_partition(e), n).scale(c)
    return shift, entries


@lru_cache(maxsize=None)
def _schur_in_hl(lam, n):
    # shift is already folded back into the keys, which stay nonnegative here
    _, entries = expand_in_hl(schur_poly_of_partition(lam, n), n, check=False)
    return {to_partition(key): c for key, c in entries.items()}


def kostka_foulkes_oracle(lam, mu):
    """K_(lam,mu)(t) as a TPoly by expanding s_lam in the Hall-Littlewood
    basis; zero when the weights differ.  Each index must be a partition
    (trailing zeros allowed), else ValueError."""
    lam, mu = to_partition(lam), to_partition(mu)
    if sum(lam) != sum(mu):
        return TPoly()
    if not lam:
        return TPoly.const(1)
    n = max(len(lam), len(mu))
    return _schur_in_hl(lam, n).get(mu, TPoly())


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
# specializations and laws


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


def check_hl_translation_law(mu, n, k):
    """P_(mu+(k^n)) == (x1...xn)^k P_mu."""
    padded = zero_pad(tuple(mu), n)
    lhs = hl_poly(tuple(a + k for a in padded), n)
    rhs = hl_poly(padded, n).shift((k,) * n)
    return lhs == rhs


def check_hl_inversion_law(mu, n):
    """P_mu(1/x; t) == P_(complement of mu in the 0 x n box)."""
    padded = zero_pad(tuple(mu), n)
    lhs = hl_poly(padded, n).invert_variables()
    rhs = hl_poly(complement(padded, 0, n), n)
    return lhs == rhs
