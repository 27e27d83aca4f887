"""The coefficient engines: Littlewood-Richardson, Kronecker, plethysm.

Each family has a main path and a structurally different oracle so the two
can be played against each other:

  lr         lattice-word skew tableau count
  lr oracle  product of Schur polynomials, coefficient read off exactly
  kron       exact integer character sum over the classes of S_n
  kron oracle  two-alphabet expansion of s_nu(x_i y_j)
  pleth      plethysm on the power sum basis
  pleth oracle  Jacobi-Trudi determinant over h or e evaluated on the
               monomials of the inner Schur polynomial, then expansion

Kostka-Foulkes lives in hall_littlewood: charge, with Hall-Littlewood
elimination as its oracle.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .partitions import (
    conjugate,
    contains,
    partitions_of,
    to_partition,
    zero_pad,
)
from .polyring import LaurentPoly
from .powersum import (
    NonIntegralResult,
    char_row,
    class_sizes,
    plethysm_p,
    schur_coefficient_of_p,
    schur_to_p,
    to_int_poly,
    zee,
)
from .schur import (
    schur_coefficient_of,
    schur_coefficients,
    schur_coefficients_via_alternant,
    schur_poly_of_partition,
)


class ArityTooSmall(ValueError):
    pass


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def lr_coefficient(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu: the number of fillings of
    nu/lam with content mu whose reverse reading word is a lattice word.
    Each index must be a partition (trailing zeros allowed), else
    ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    inner = zero_pad(lam, len(nu))
    cells = []
    for i in range(len(nu)):
        # reverse reading order: right to left along each row, top down
        for j in range(nu[i] - 1, inner[i] - 1, -1):
            cells.append((i, j))
    if not cells:
        return 1
    rows = len(nu)
    filling = [[0] * nu[i] for i in range(rows)]
    counts = [0] * len(mu)

    def place(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, len(mu) + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            # lattice: after placing v, its count may not pass that of v-1
            if v > 1 and counts[v - 1] + 1 > counts[v - 2]:
                continue
            if j + 1 < nu[i] and filling[i][j + 1] < v:
                continue  # row weakly increasing, reading backwards
            if i > 0 and j >= inner[i - 1] and filling[i - 1][j] >= v:
                continue  # column strictly increasing against filled cells
            counts[v - 1] += 1
            filling[i][j] = v
            total += place(idx + 1)
            counts[v - 1] -= 1
            filling[i][j] = 0
        return total

    return place(0)


@lru_cache(maxsize=None)
def _schur_product(lam, mu, n):
    return schur_poly_of_partition(lam, n) * schur_poly_of_partition(mu, n)


def lr_coefficient_oracle(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu, read off the product of Schur
    polynomials at arity length(nu).  Each index must be a partition
    (trailing zeros allowed), else ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not nu:
        return 1
    n = len(nu)
    if len(lam) > n or len(mu) > n:
        return 0
    return schur_coefficient_of(_schur_product(lam, mu, n), nu, n)


def lr_table(lam, mu, n):
    """All Schur coefficients of s_lam * s_mu at arity n at once."""
    return schur_coefficients_via_alternant(_schur_product(tuple(lam), tuple(mu), n), n)


# ---------------------------------------------------------------------------
# Kronecker


def kronecker_coefficient(lam, mu, nu, cache=None):
    """Kronecker coefficient g(lam, mu, nu) = <chi^lam chi^mu chi^nu, 1>.

    Computed as the integer sum over cycle types rho of
    (n!/z_rho) chi^lam(rho) chi^mu(rho) chi^nu(rho), divided exactly by n!;
    a remainder raises NonIntegralResult.  Each index must be a partition
    (trailing zeros allowed), else ValueError.
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    n = sum(lam)
    if not (n == sum(mu) == sum(nu)):
        return 0
    rows = {p: char_row(p, cache) for p in {lam, mu, nu}}
    weighted = map(mul, class_sizes(n), rows[lam])
    total = sum(map(mul, weighted, map(mul, rows[mu], rows[nu])))
    g, rem = divmod(total, factorial(n))
    if rem:
        raise NonIntegralResult(f"g{(lam, mu, nu)} = {total}/{n}! is not an integer")
    return g


def _bialphabet_power(k, l, m):
    # p_k of the alphabet {x_i y_j}: (sum x_i^k)(sum y_j^k), arity l + m
    out = LaurentPoly(l + m)
    terms = {}
    for i in range(l):
        for j in range(m):
            e = [0] * (l + m)
            e[i] = k
            e[l + j] = k
            terms[tuple(e)] = 1
    out.terms = terms
    return out


def _bialphabet_schur(nu, l, m, cache=None):
    """s_nu evaluated on the product alphabet x_i y_j, arity l + m."""
    n = sum(nu)
    row = char_row(nu, cache)
    out = LaurentPoly.zero(l + m)
    powers = {}
    for rho, chi in zip(partitions_of(n), row):
        if not chi:
            continue
        prod = powers.get(rho)
        if prod is None:
            prod = LaurentPoly.constant(l + m, 1)
            for part in rho:
                prod = prod * _bialphabet_power(part, l, m)
            powers[rho] = prod
        out = out + prod.scale(Fraction(chi, zee(rho)))
    return to_int_poly(out)


def kronecker_oracle_table(nu, l, m, cache=None):
    """Coefficients of s_lam(x) s_mu(y) in s_nu(xy), keyed (lam, mu)."""
    nu = tuple(nu)
    if len(nu) > l * m:
        return {}
    poly = _bialphabet_schur(nu, l, m, cache)
    # peel off y-Schur polynomials by lex order on the y part
    ydict = {}
    for e, c in poly.terms.items():
        ydict.setdefault(e[l:], {})[e[:l]] = c
    table = {}
    while ydict:
        ey = max(ydict)
        xpoly = ydict.pop(ey)
        kappa = to_partition(ey)
        s_y = schur_poly_of_partition(kappa, m)
        for eys, cs in s_y.terms.items():
            if eys == ey:
                continue
            tgt = ydict.setdefault(eys, {})
            for ex, cx in xpoly.items():
                v = tgt.get(ex, 0) - cs * cx
                if v:
                    tgt[ex] = v
                elif ex in tgt:
                    del tgt[ex]
            if not tgt:
                del ydict[eys]
        xlp = LaurentPoly(l)
        xlp.terms = dict(xpoly)
        for xshape, c in schur_coefficients(xlp, l).items():
            table[(xshape, kappa)] = c
    return table


def kronecker_oracle(lam, mu, nu, l, m, cache=None, table=None):
    """Kronecker coefficient read from the two-alphabet expansion of s_nu."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if not (sum(lam) == sum(mu) == sum(nu)):
        return 0
    if len(lam) > l:
        raise ArityTooSmall(f"need l >= {len(lam)} for {lam}")
    if len(mu) > m:
        raise ArityTooSmall(f"need m >= {len(mu)} for {mu}")
    if table is None:
        table = kronecker_oracle_table(nu, l, m, cache)
    return table.get((lam, mu), 0)


# ---------------------------------------------------------------------------
# plethysm


def plethysm_coefficient(lam, mu, nu, cache=None):
    """Multiplicity of s_nu in s_lam[s_mu], via the p basis.  Each index
    must be a partition (trailing zeros allowed), else ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) * sum(mu) != sum(nu):
        return 0
    comp = plethysm_p(schur_to_p(lam, cache), schur_to_p(mu, cache))
    return schur_coefficient_of_p(comp, nu, cache)


def _alphabet_of(poly):
    """Monomials of a positive polynomial, with multiplicities."""
    alphabet = []
    for e in sorted(poly.terms):
        c = poly.terms[e]
        if c < 0:
            raise ValueError("alphabet needs a monomial-positive polynomial")
        alphabet.extend([e] * c)
    return alphabet


def _h_table(alphabet, kmax, n):
    """Complete homogeneous sums of the alphabet, h_0 .. h_kmax."""
    zero = (0,) * n
    table = [{zero: 1}] + [{} for _ in range(kmax)]
    for mono in alphabet:
        # allows repeats of mono: h picks multisets
        for k in range(1, kmax + 1):
            src = table[k - 1]
            tgt = table[k]
            for e, c in src.items():
                key = tuple(a + b for a, b in zip(e, mono))
                tgt[key] = tgt.get(key, 0) + c
    return table


def _e_table(alphabet, kmax, n):
    """Elementary sums of the alphabet, e_0 .. e_kmax."""
    zero = (0,) * n
    table = [{zero: 1}] + [{} for _ in range(kmax)]
    for mono in alphabet:
        # no repeats: update high k first so each monomial is used once
        for k in range(min(kmax, len(alphabet)), 0, -1):
            src = table[k - 1]
            tgt = table[k]
            for e, c in src.items():
                key = tuple(a + b for a, b in zip(e, mono))
                tgt[key] = tgt.get(key, 0) + c
    return table


def _poly_det(rows, n):
    """Determinant of a small matrix of sparse polynomial dicts."""
    size = len(rows)
    if size == 0:
        return {(0,) * n: 1}

    def minor(r, cols):
        if r == size:
            return {(0,) * n: 1}
        total = {}
        for idx, col in enumerate(cols):
            entry = rows[r][col]
            if not entry:
                continue
            sub = minor(r + 1, cols[:idx] + cols[idx + 1 :])
            sign = -1 if idx & 1 else 1
            for e1, c1 in entry.items():
                for e2, c2 in sub.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    v = total.get(key, 0) + sign * c1 * c2
                    if v:
                        total[key] = v
                    elif key in total:
                        del total[key]
        return total

    return minor(0, tuple(range(size)))


@lru_cache(maxsize=None)
def _pleth_oracle_poly(lam, mu, n):
    """s_lam evaluated at the monomials of s_mu in n variables, by the
    Jacobi-Trudi determinant with the cheaper of the h or e kernels."""
    g = schur_poly_of_partition(mu, n)
    if not g:
        return None  # inner vanishes at this arity
    alphabet = _alphabet_of(g)
    ell = len(lam)
    width = lam[0] if lam else 0
    conj = conjugate(lam)
    h_need = [[lam[i] - i + j for j in range(ell)] for i in range(ell)]
    e_need = [[conj[i] - i + j for j in range(width)] for i in range(width)]

    if ell <= width:
        kmax = max((max(r) for r in h_need), default=0)
        table = _h_table(alphabet, max(kmax, 0), n)
        rows = [[({} if k < 0 else table[k]) for k in r] for r in h_need]
    else:
        kmax = max((max(r) for r in e_need), default=0)
        kmax = max(min(kmax, len(alphabet)), 0)
        table = _e_table(alphabet, kmax, n)
        rows = [
            [({} if k < 0 or k > len(alphabet) else table[k]) for k in r]
            for r in e_need
        ]
    det = _poly_det(rows, n)
    out = LaurentPoly(n)
    out.terms = det
    return out


def plethysm_oracle(lam, mu, nu):
    """Multiplicity of s_nu in s_lam[s_mu] by polynomial evaluation at
    arity length(nu); shares no character machinery with the main path."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) * sum(mu) != sum(nu):
        return 0
    n = len(nu)
    poly = _pleth_oracle_poly(lam, mu, n)
    if poly is None:
        return 1 if not lam and not nu else 0
    return schur_coefficient_of(poly, nu, n)


def plethysm_schur_map(lam, mu, n, cache=None, powers=None):
    """All Schur coefficients of s_lam[s_mu] at arity n, keyed by partition.

    powers, if given, is a dict shared across calls with the same (mu, n)
    that caches the power products of the inner polynomial.
    """
    lam, mu = tuple(lam), tuple(mu)
    g = schur_poly_of_partition(mu, n)
    if not g:
        return {(): 1} if not lam else {}
    N = sum(lam)
    row = char_row(lam, cache)
    out = LaurentPoly.zero(n)
    for rho, chi in zip(partitions_of(N), row):
        if not chi:
            continue
        out = out + _frob_product(g, mu, n, rho, powers).scale(Fraction(chi, zee(rho)))
    return schur_coefficients_via_alternant(to_int_poly(out), n)


def _frob_product(g, mu, n, rho, powers):
    key = (mu, n, rho)
    if powers is not None and key in powers:
        return powers[key]
    if not rho:
        out = LaurentPoly.constant(n, 1)
    else:
        out = _frob_product(g, mu, n, rho[1:], powers) * g.frobenius(rho[0])
    if powers is not None:
        powers[key] = out
    return out
