"""The coefficient engines: Littlewood-Richardson, Kronecker, plethysm.

Each family has a main path and a structurally different oracle so the two
can be played against each other:

  lr         lattice-word skew tableau count
  lr oracle  Racah-Speiser sum over the monomials of s_mu, each sorted against
             nu + delta (no polynomial product)
  kron       exact integer character sum over the classes of S_n
  kron oracle  Garsia-Remmel sum: Jacobi-Trudi on s_lam in the h basis, each
               <h_alpha * s_mu, s_nu> a dynamic program over pairs of
               sub-partitions of (mu, nu) weighted by lattice-word LR counts
  pleth      length(nu) <= 3: integer character sum of s_lam[s_mu] in
             length(nu) variables, read with schur_coefficients; longer nu:
             integer class sum on the power sum basis over the common
             denominator |lam|! |mu|!^|lam| (each route is the faster one at
             its arities, see POLY_MAX_ARITY)
  pleth oracle  Jacobi-Trudi determinant over h or e evaluated on the
               monomials of the inner Schur polynomial, read with
               schur_coefficients

Every polynomial route ends in the one reader, schur.schur_coefficients, or
in its sort step, schur.sort_with_sign (the LR oracle one monomial of s_mu at
a time); the Kronecker oracle evaluates no polynomial at all.  No oracle
reads a character.

Kostka-Foulkes lives in hall_littlewood: charge, with the unitriangular
solve of s_lam = sum K_(lam,rho)(t) P_rho in the Schur basis as its oracle.
"""

from functools import lru_cache
from math import factorial
from operator import add, mul

from .partitions import (
    conjugate,
    contains,
    partitions_of,
    to_partition,
    zero_pad,
)
from .polyring import LaurentPoly
from .powersum import (
    CharCache,
    NonIntegralResult,
    char_row,
    char_value,
    class_sizes,
)
from .schur import (
    delta,
    schur_coefficients,
    schur_poly_of_partition,
    sort_with_sign,
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


def lr_coefficient_oracle(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu by the Racah-Speiser sum at
    arity n = length(nu): a_delta s_lam s_mu = sum_alpha K_(mu,alpha)
    a_(lam+delta+alpha) over the monomials x^alpha of s_mu, so each alpha
    adds sign * K_(mu,alpha) when lam + delta + alpha sorts to nu + delta.
    Each index must be a partition (trailing zeros allowed), else
    ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not nu:
        return 1
    n = len(nu)
    if len(lam) > n or len(mu) > n:
        return 0
    d = delta(n)
    base = tuple(map(add, zero_pad(lam, n), d))
    target = tuple(map(add, nu, d))
    total = 0
    for alpha, kostka in schur_poly_of_partition(mu, n).terms.items():
        hit = sort_with_sign(map(add, base, alpha))
        if hit is not None and hit[0] == target:
            total += hit[1] * kostka
    return total


# ---------------------------------------------------------------------------
# Schur functions evaluated at the monomials of a polynomial


def _schur_at(lam, g, products, cache=None):
    """s_lam evaluated at the monomials of g: the integer sum over cycle
    types rho of (N!/z_rho) chi^lam(rho) prod_i g(x^rho_i), divided exactly
    by N!; a remainder raises NonIntegralResult.  products caches the
    products of g, keyed by cycle type, for this g only."""
    N = sum(lam)
    acc = {}
    for rho, size, chi in zip(partitions_of(N), class_sizes(N), char_row(lam, cache)):
        if not chi:
            continue
        w = size * chi
        for e, c in _power_product(g, rho, products).terms.items():
            acc[e] = acc.get(e, 0) + w * c
    whole = factorial(N)
    out = LaurentPoly(g.arity)
    for e, c in acc.items():
        q, rem = divmod(c, whole)
        if rem:
            raise NonIntegralResult(f"s_{lam} at x^{e} is {c}/{N}!, not an integer")
        if q:
            out.terms[e] = q
    return out


def _power_product(g, rho, products):
    """prod_i g(x^rho_i), built from the product of rho[1:]."""
    out = products.get(rho)
    if out is None:
        if rho:
            out = _power_product(g, rho[1:], products) * g.frobenius(rho[0])
        else:
            out = LaurentPoly.constant(g.arity, 1)
        products[rho] = out
    return out


def _pleth_class_sum(lam, mu, nu, cache):
    """<s_lam[s_mu], s_nu> on the power sum basis, in integers.

    With a = |lam|, b = |mu| and G = sum_sigma (b!/z_sigma) chi^mu(sigma)
    p_sigma = b! s_mu, the sum over rho |- a of (a!/z_rho) chi^lam(rho)
    b!^(a - length(rho)) sum_tau [p_tau](prod_i G[p_rho_i]) chi^nu(tau) is
    a! b!^a times the coefficient, and is divided exactly; a remainder
    raises NonIntegralResult.  The products prod_i G[p_rho_i] are memoised
    by suffix of rho, for this call only."""
    a, b = sum(lam), sum(mu)
    g = [
        (sigma, size * chi)
        for sigma, size, chi in zip(partitions_of(b), class_sizes(b), char_row(mu, cache))
        if chi
    ]
    products = {(): {(): 1}}

    def product(rho):
        out = products.get(rho)
        if out is None:
            k = rho[0]
            out = {}
            for tau, c in product(rho[1:]).items():
                for sigma, d in g:
                    key = tuple(sorted(tau + tuple(k * s for s in sigma), reverse=True))
                    out[key] = out.get(key, 0) + c * d
            products[rho] = out
        return out

    whole_b = factorial(b)
    acc = {}
    for rho, size, chi in zip(partitions_of(a), class_sizes(a), char_row(lam, cache)):
        if chi:
            w = size * chi * whole_b ** (a - len(rho))
            for tau, c in product(rho).items():
                acc[tau] = acc.get(tau, 0) + w * c
    total = sum(c * char_value(nu, tau, cache) for tau, c in acc.items() if c)
    whole = factorial(a) * whole_b**a
    q, rem = divmod(total, whole)
    if rem:
        raise NonIntegralResult(
            f"<s_{lam}[s_{mu}], s_{nu}> = {total}/({a}! {b}!^{a}), not an integer"
        )
    return q


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
    if cache is None:
        cache = CharCache()
    rows = {p: char_row(p, cache) for p in {lam, mu, nu}}
    weighted = map(mul, class_sizes(n), rows[lam])
    total = sum(map(mul, weighted, map(mul, rows[mu], rows[nu])))
    g, rem = divmod(total, factorial(n))
    if rem:
        raise NonIntegralResult(f"g{(lam, mu, nu)} = {total}/{n}! is not an integer")
    return g


class _GarsiaRemmel:
    """Kronecker coefficients g(lam, mu, nu) at one nu, from LR counts only
    (A. Garsia, J. Remmel, Shuffles of permutations and the Kronecker
    product, Graphs Combin. 1 (1985)).

    Jacobi-Trudi gives s_lam = sum_w sgn(w) h_alpha(w) with alpha(w) =
    w(lam + delta) - delta, so g = sum_w sgn(w) <h_alpha(w) * s_mu, s_nu>.
    For alpha = (a_1, .., a_k), <h_alpha * s_mu, s_nu> is the sum over
    beta^i |- a_i of c^mu_(beta^1..beta^k) c^nu_(beta^1..beta^k).  That sum
    is built one part at a time over pairs (mu' <= mu, nu' <= nu): a part a
    moves (mu', nu') to (mu'', nu'') with weight sum_(beta |- a)
    c^mu''_(mu' beta) c^nu''_(nu' beta), each count from lr_coefficient.
    The memos live as long as the instance: one oracle call or one table
    fill.
    """

    def __init__(self, nu):
        self.nu = nu
        self.expansions = {}  # lam -> {alpha: signed count}
        self.skews = {}  # (inner, outer) -> {beta: c^outer_(inner, beta)}
        self.layers = {}  # (alpha prefix, mu) -> {(mu', nu'): weight}

    def __call__(self, lam, mu):
        # g(lam, mu, nu) = g(lam', mu', nu); expand the shorter of lam, lam'
        conj = conjugate(lam)
        if len(conj) < len(lam):
            lam, mu = conj, conjugate(mu)
        total = 0
        for alpha, c in self._expansion(lam).items():
            total += c * self._layer(alpha, mu).get((mu, self.nu), 0)
        return total

    def _expansion(self, lam):
        """s_lam = sum_alpha c_alpha h_alpha, keyed by the nonzero parts of
        alpha, sorted decreasingly."""
        out = self.expansions.get(lam)
        if out is not None:
            return out
        acc = {}

        def expand(i, cols, parts, sign):
            if i == len(lam):
                key = tuple(sorted(parts, reverse=True))
                acc[key] = acc.get(key, 0) + sign
                return
            for idx, j in enumerate(cols):
                a = lam[i] - i + j
                if a >= 0:
                    rest = cols[:idx] + cols[idx + 1 :]
                    more = parts + (a,) if a else parts
                    expand(i + 1, rest, more, -sign if idx & 1 else sign)

        expand(0, tuple(range(len(lam))), (), 1)
        out = self.expansions[lam] = {alpha: c for alpha, c in acc.items() if c}
        return out

    def _layer(self, prefix, mu):
        """Weights of the pairs (mu', nu') reached after the parts in prefix."""
        key = (prefix, mu)
        out = self.layers.get(key)
        if out is not None:
            return out
        if not prefix:
            out = {((), ()): 1}
        else:
            size = sum(prefix)
            a = prefix[-1]
            outs_mu = _subpartitions(mu, size)
            outs_nu = _subpartitions(self.nu, size)
            out = {}
            for (m1, n1), w in self._layer(prefix[:-1], mu).items():
                for m2 in outs_mu:
                    left = self._skew(m1, m2, a)
                    if not left:
                        continue
                    for n2 in outs_nu:
                        right = self._skew(n1, n2, a)
                        step = sum(c * right.get(beta, 0) for beta, c in left.items())
                        if step:
                            out[(m2, n2)] = out.get((m2, n2), 0) + w * step
        self.layers[key] = out
        return out

    def _skew(self, inner, outer, a):
        """{beta: c^outer_(inner, beta)} over the partitions beta of a."""
        key = (inner, outer)
        out = self.skews.get(key)
        if out is None:
            out = {}
            if contains(outer, inner):
                for beta in _subpartitions(outer, a):
                    c = lr_coefficient(inner, beta, outer)
                    if c:
                        out[beta] = c
            self.skews[key] = out
        return out


def _subpartitions(outer, size):
    """Partitions of size whose diagrams lie inside the nonempty outer."""
    return tuple(
        p for p in partitions_of(size, len(outer), outer[0]) if contains(outer, p)
    )


def kronecker_oracle_table(nu, l, m, cache=None):
    """Nonzero Kronecker coefficients g(lam, mu, nu) over lam with at most l
    rows and mu with at most m rows, keyed (lam, mu).

    Each value is the Garsia-Remmel sum of _GarsiaRemmel, from LR counts
    with memos shared by the whole table; l and m only bound the rows, and
    the table is empty when length(nu) > l*m.  No character is read, so
    cache (kept for callers that share one with the engine) goes unused.
    """
    nu = to_partition(nu)
    if len(nu) > l * m:
        return {}
    n = sum(nu)
    oracle = _GarsiaRemmel(nu)
    out = {}
    for lam in partitions_of(n, l):
        for mu in partitions_of(n, m):
            g = oracle(lam, mu)
            if g:
                out[(lam, mu)] = g
    return out


def kronecker_oracle(lam, mu, nu, l, m, cache=None, table=None):
    """Kronecker coefficient by the Garsia-Remmel sum from LR counts, or
    read from a kronecker_oracle_table of nu when table is given.  l and m
    only bound the rows of lam and mu (ArityTooSmall past them); cache is
    accepted and unused.  Each index must be a partition (trailing zeros
    allowed), else ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if not (sum(lam) == sum(mu) == sum(nu)):
        return 0
    if len(lam) > l:
        raise ArityTooSmall(f"need l >= {len(lam)} for {lam}")
    if len(mu) > m:
        raise ArityTooSmall(f"need m >= {len(mu)} for {mu}")
    if table is not None:
        return table.get((lam, mu), 0)
    return _GarsiaRemmel(nu)(lam, mu)


# ---------------------------------------------------------------------------
# plethysm


# Up to this many rows of nu, plethysm_coefficient evaluates s_lam[s_mu] as a
# polynomial in length(nu) variables; longer nu take the integer class sum
# _pleth_class_sum.  Neither route wins everywhere (cold caches, 2 vCPUs,
# Python 3.11.7).  The class sum alone slows the four plethysm rules at
# SweepBounds() 0.36 s -> 1.40 s and the five three-row pinned rungs of the
# benchmark ladder 0.049 s -> 0.086 s.  The polynomial alone slows a cold
# call at |nu| = 6 with five or six rows from 0.05-0.11 ms to 0.05-6.3 ms
# (median 0.08 -> 2.7 ms), and the rung (4)[(4,4)] at (16,8,4,4)
# 41 ms -> 146 ms.
POLY_MAX_ARITY = 3


def plethysm_coefficient(lam, mu, nu, cache=None, powers=None, maps=None):
    """Multiplicity of s_nu in s_lam[s_mu].  Each index must be a partition
    (trailing zeros allowed), else ValueError.

    When nu has at most POLY_MAX_ARITY rows, s_lam[s_mu] is evaluated in
    length(nu) variables and read with schur_coefficients; longer nu take
    the integer class sum on the power sum basis, divided exactly by
    |lam|! |mu|!^|lam|.  Either route raises NonIntegralResult on a
    remainder.  cache is a CharCache.  powers and maps are dicts that may be
    shared across calls and serve the polynomial route only: powers holds
    the products prod_i s_mu(x^rho_i) per (mu, n), maps the Schur
    coefficients of the evaluated plethysms keyed (lam, mu, n).
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) * sum(mu) != sum(nu):
        return 0
    n = len(nu)
    if len(mu) > n:
        # s_mu vanishes in length(nu) variables; only s_()[s_mu] = 1 survives
        return 0 if lam else 1
    if cache is None:
        cache = CharCache()
    if n > POLY_MAX_ARITY:
        return _pleth_class_sum(lam, mu, nu, cache)
    key = (lam, mu, n)
    coeffs = maps.get(key) if maps is not None else None
    if coeffs is None:
        products = {} if powers is None else powers.setdefault((mu, n), {})
        poly = _schur_at(lam, schur_poly_of_partition(mu, n), products, cache)
        coeffs = schur_coefficients(poly, n)
        if maps is not None:
            maps[key] = coeffs
    return coeffs.get(nu, 0)


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
                key = tuple(map(add, e, mono))
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
                key = tuple(map(add, e, mono))
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
                    key = tuple(map(add, e1, e2))
                    v = total.get(key, 0) + sign * c1 * c2
                    if v:
                        total[key] = v
                    elif key in total:
                        del total[key]
        return total

    return minor(0, tuple(range(size)))


def _jacobi_trudi_at(lam, g):
    """s_lam evaluated at the monomials of the monomial-positive polynomial
    g, by the Jacobi-Trudi determinant with the cheaper of the h or e
    kernels."""
    n = g.arity
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
    out = LaurentPoly(n)
    out.terms = _poly_det(rows, n)
    return out


@lru_cache(maxsize=None)
def _pleth_oracle_expansion(lam, mu, n):
    """Schur coefficients of s_lam evaluated at the monomials of s_mu in n
    variables; None when s_mu vanishes at this arity."""
    g = schur_poly_of_partition(mu, n)
    if not g:
        return None
    return schur_coefficients(_jacobi_trudi_at(lam, g), n)


def plethysm_oracle(lam, mu, nu):
    """Multiplicity of s_nu in s_lam[s_mu] by polynomial evaluation at
    arity length(nu); shares no character machinery with the main path.
    Each index must be a partition (trailing zeros allowed), else
    ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) * sum(mu) != sum(nu):
        return 0
    coeffs = _pleth_oracle_expansion(lam, mu, len(nu))
    if coeffs is None:
        return 1 if not lam and not nu else 0
    return coeffs.get(nu, 0)
