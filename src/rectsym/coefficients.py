"""The coefficient engines: Littlewood-Richardson, Kronecker, plethysm.

Each family has a main path and a structurally different oracle so the two
can be played against each other:

  lr         lattice-word skew tableau count
  lr oracle  Racah-Speiser sum over the monomials of s_mu, each sorted against
             nu + delta (no polynomial product)
  kron       exact integer character sum over the classes of S_n, rows
             and class sizes in powersum's one (lex-ascending) order; a
             batch of triples (a sweep's Kronecker misses, filled a block
             at a time) is grouped by the pair of shapes most of them
             share, and (n!/z_rho) chi^a chi^b is built once per pair and
             dotted with each third row
  kron oracle  Garsia-Remmel sum: Jacobi-Trudi on s_lam in the h basis, each
               <h_alpha * s_mu, s_nu> a dynamic program over pairs of
               sub-partitions of (mu, nu) weighted by lattice-word LR counts
  pleth      s_lam[s_mu] by one of two routes, chosen by _by_determinant
             from the key (lam, mu, length(nu)).  Every nu of up to
             POLY_MAX_ARITY rows, and longer nu past weight 48, or past 18
             over an alphabet of at most ten letters: the Jacobi-Trudi
             determinant over the alphabet of s_mu in length(nu) variables,
             on packed-integer monomials, read with schur_coefficients; the
             unit laws s_lam[s_1] = s_lam and s_1[s_mu] = s_mu expand
             nothing, and the e table is built only to its middle, the rest
             read off by the elementary complement.  Other nu, the class sum
             in the power sum basis paired with chi^nu over
             |lam|! |mu|!^|lam|.  Power sum products cached per mu,
             expansions of both routes per (lam, mu, n)
  pleth oracle  the route the engine does not take at that key, with no
               unit law: where the engine expands the determinant the power
               sums, with a fresh CharCache and no shared memo; elsewhere
               the Jacobi-Trudi determinant over h or e evaluated on the
               monomials of the inner Schur polynomial

The Kronecker oracle and both Jacobi-Trudi routes of plethysm expand their
determinant with the one routine _jacobi_trudi, on packed monomials, each
with its own entries.

Every polynomial route ends in the one reader, schur.schur_coefficients, or
in its sort step, schur.sort_with_sign (the LR oracle one monomial of s_mu at
a time); the Kronecker oracle evaluates no polynomial at all.  No oracle
runs a step of its engine's route: the plethysm oracle reads characters only
where the engine expands a determinant.

Kostka-Foulkes lives in hall_littlewood: charge, with the unitriangular
solve of s_lam = sum K_(lam,rho)(t) P_rho in the Schur basis as its oracle.
"""

from collections import Counter
from functools import lru_cache
from math import factorial
from operator import add, lshift, mul

from .partitions import (
    _tableau_count,
    conjugate,
    contains,
    partitions_of,
    to_count,
    to_partition,
    zero_pad,
)
from .polyring import LaurentPoly
from .powersum import (
    CharCache,
    NonIntegralResult,
    _ascending_sizes,
    _position,
    _row,
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
# Packed monomials


# Bits per exponent in a packed monomial: x^e becomes the int
# sum_i e_i << (PACK_BITS * i).  In a plethysm determinant every exponent is
# nonnegative and at most |nu|, so while |nu| < 2^PACK_BITS no field carries
# into the next and a product of monomials is one int add.  One fixed width
# serves the plethysm and the Kronecker determinants alike, so _unpack_key
# reads any packed key back with the arity alone.  Three fields fit in 60
# bits, where CPython still hashes an int to itself.
PACK_BITS = 20


def _pack(g, degree):
    """The terms of the polynomial g (no negative exponent) as
    {packed monomial: coefficient}, for products of total degree at most
    degree; ValueError when degree >= 2^PACK_BITS, where a field could
    carry."""
    if degree >> PACK_BITS:
        raise ValueError(
            f"degree {degree} needs exponent fields wider than {PACK_BITS} bits"
        )
    fields = range(0, PACK_BITS * g.arity, PACK_BITS)
    return {sum(map(lshift, e, fields)): c for e, c in g.terms.items()}


def _unpack_key(key, n):
    """The exponent tuple of a packed monomial in n variables."""
    mask = (1 << PACK_BITS) - 1
    return tuple([(key >> field) & mask for field in range(0, PACK_BITS * n, PACK_BITS)])


# ---------------------------------------------------------------------------
# Kronecker


def kronecker_coefficient(lam, mu, nu, cache=None):
    """Kronecker coefficient g(lam, mu, nu) = <chi^lam chi^mu chi^nu, 1>:
    0 when the weights differ, else the one-triple case of
    _kronecker_class_sums, which streams the three-way product over the
    classes for a lone triple.  cache is a CharCache.  Each index must be a
    partition (trailing zeros allowed), else ValueError; a remainder in the
    division by n! raises NonIntegralResult."""
    triple = (to_partition(lam), to_partition(mu), to_partition(nu))
    if not (sum(triple[0]) == sum(triple[1]) == sum(triple[2])):
        return 0
    return _kronecker_class_sums([triple], CharCache() if cache is None else cache)[triple]


def _kronecker_class_sums(triples, cache):
    """{triple: g(triple)} over triples of partitions (not validated), the
    three of each of one weight n.

    Each g is the integer sum over cycle types rho of
    (n!/z_rho) chi^a(rho) chi^b(rho) chi^c(rho), divided exactly by n!; a
    remainder raises NonIntegralResult.  The sum runs over the classes in
    lex-ascending order, the order in which the block recursion builds both
    the character rows (read with _row from cache) and the class sizes.  g
    is symmetric, so each triple is filed under the one of its three pairs
    of shapes that the most triples share, and the other shape is its
    third.  A pair with two or more triples builds (n!/z_rho) chi^a chi^b
    once and dots it with each third row; a pair with one triple streams
    the three-way product, multiplying each (large) class size once, by the
    product of the three characters.
    """
    if len(triples) == 1:
        # a lone triple shares no pair: file it under its first two shapes
        groups = {triples[0][:2]: [(triples[0], triples[0][2])]}
    else:
        shared = Counter()
        for a, b, c in triples:
            shared.update({(a, b), (a, c), (b, c)})
        groups = {}
        for triple in triples:
            a, b, c = triple
            pair, third = max(
                (((a, b), c), ((a, c), b), ((b, c), a)), key=lambda split: shared[split[0]]
            )
            groups.setdefault(pair, []).append((triple, third))
    out = {}
    for (a, b), members in groups.items():
        n = sum(a)
        sizes = _ascending_sizes(n, n)
        row_a, row_b = _row(a, cache), _row(b, cache)
        weighted = list(map(mul, sizes, map(mul, row_a, row_b))) if len(members) > 1 else None
        for triple, third in members:
            row_c = _row(third, cache)
            if weighted is None:
                total = sum(map(mul, sizes, map(mul, row_a, map(mul, row_b, row_c))))
            else:
                total = sum(map(mul, weighted, row_c))
            g, rem = divmod(total, factorial(n))
            if rem:
                raise NonIntegralResult(f"g{triple} = {total}/{n}! is not an integer")
            out[triple] = g
    return out


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
        alpha, sorted decreasingly: the Jacobi-Trudi determinant with h_k
        the packed variable x_k (h_0 = 1), so each exponent vector counts
        the parts of one alpha."""
        out = self.expansions.get(lam)
        if out is None:
            top = lam[0] + len(lam) - 1 if lam else 0

            def h(k):
                if k < 0:
                    return {}
                return {1 << (PACK_BITS * (k - 1)) if k else 0: 1}

            counts = ((_unpack_key(key, top), c) for key, c in _jacobi_trudi(lam, h).items())
            out = self.expansions[lam] = {
                tuple(k for k in range(top, 0, -1) for _ in range(e[k - 1])): c
                for e, c in counts
            }
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
    the table is empty when length(nu) > l*m.  l and m are counts
    (to_count), else ValueError.  No character is read, so cache (kept for
    callers that share one with the engine) goes unused.
    """
    nu = to_partition(nu)
    l, m = to_count(l, "l"), to_count(m, "m")
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
    only bound the rows of lam and mu (ArityTooSmall past them) and must be
    counts (to_count); cache is accepted and unused.  Each index must be a
    partition (trailing zeros allowed), else ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    l, m = to_count(l, "l"), to_count(m, "m")
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


# plethysm_coefficient expands s_lam[s_mu] in n = length(nu) variables by
# the Jacobi-Trudi determinant over the alphabet of s_mu, whose r =
# count_ssyt(mu, n) letters are the monomials of s_mu, or by the power sum
# expansion _p_expansion.  The determinant takes every nu of up to
# POLY_MAX_ARITY rows; past them it takes |nu| = |lam||mu| above
# POWER_SUM_MAX_WEIGHT, and above SHORT_POWER_SUM_MAX_WEIGHT once r is at most
# SHORT_ALPHABET; the power sums take the rest.  _by_determinant is the one
# reading of this choice, and plethysm_oracle takes the other route.
# Measured cold (2 vCPUs, Python 3.11.7), power sums against determinant:
# - up to three rows the determinant wins: with power sums alone the four
#   plethysm rules at SweepBounds() take 85-133 ms each instead of 45-85 ms,
#   and the five three-row rungs of the benchmark ladder 4.8-21 ms instead
#   of 0.2-5.7 ms;
# - past |nu| = 48 the power sums build chi^nu on p(|nu|) classes:
#   (5)[(3^4)] at (15^4), r = 1, 3.3 s and 352 MB against 0.2 ms;
# - below, a long alphabet favours the power sums: (4,4,4)[(2,2)] at (12^4),
#   r = 20, 255 against 1,497 ms; the ladder rung (4)[(4,4)] at (16,8,4,4),
#   r = 105, 44 against 34 ms, close either way; at |nu| <= 18 they take
#   under 3 ms;
# - and a short one the determinant: (1^4)[(3^4)] at (12^4), r = 1, 568
#   against 0.2 ms.  Of the 540 four-row expansions with 20 <= |nu| <= 48
#   that the four plethysm rules read at --max-weight 8 --boxes 4 (r <= 45),
#   the determinant is slower on one: (6,2^5)[(1,1)], r = 6, 39 against
#   29 ms.  README has the whole panel.
POLY_MAX_ARITY = 3
POWER_SUM_MAX_WEIGHT = 48
SHORT_POWER_SUM_MAX_WEIGHT = 18
SHORT_ALPHABET = 10


def _by_determinant(lam, mu, n):
    """True when the engine expands s_lam[s_mu] in n variables by the
    Jacobi-Trudi determinant, False when by the power sums; plethysm_oracle
    takes the other route.  A function of the maps key (lam, mu, n) alone,
    through n, |lam||mu| and r = count_ssyt(mu, n)."""
    if n <= POLY_MAX_ARITY:
        return True
    weight = sum(lam) * sum(mu)
    return weight > POWER_SUM_MAX_WEIGHT or (
        weight > SHORT_POWER_SUM_MAX_WEIGHT and _tableau_count(mu, n)[0] <= SHORT_ALPHABET
    )


def plethysm_coefficient(lam, mu, nu, cache=None, powers=None, maps=None):
    """Multiplicity of s_nu in s_lam[s_mu].  Each index must be a partition
    (trailing zeros allowed), else ValueError.

    The route depends on the maps key (lam, mu, length(nu)) alone
    (_by_determinant), and plethysm_oracle takes the other one.  On the
    determinant route the unit laws s_lam[s_1] = s_lam and s_1[s_mu] = s_mu
    give the expansion outright; any other s_lam[s_mu] is the Jacobi-Trudi
    determinant over the alphabet of s_mu in length(nu) variables, on packed
    monomials (ValueError when |nu| >= 2^PACK_BITS), read with
    schur_coefficients.
    The power sum route takes the expansion _p_expansion, paired with
    chi^nu and divided exactly by |lam|! |mu|!^|lam| (NonIntegralResult on
    a remainder).  cache is a CharCache.  powers and maps are dicts that
    may be shared across calls: powers maps mu to the power sum products
    keyed by rho, and maps (lam, mu, n) to the Schur coefficients of
    s_lam[s_mu] in n variables on the determinant route, unit laws
    included, or to the _p_expansion on the power sum route.
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
    by_determinant = _by_determinant(lam, mu, n)
    key = (lam, mu, n)
    coeffs = maps.get(key) if maps is not None else None
    if coeffs is None:
        if not by_determinant:
            products = {} if powers is None else powers.setdefault(mu, {})
            coeffs = _p_expansion(lam, mu, products, cache)
        elif mu == (1,):
            # s_lam[s_1] = s_lam, which vanishes in fewer than length(lam) variables
            coeffs = {lam: 1} if len(lam) <= n else {}
        elif lam == (1,):
            coeffs = {mu: 1}  # s_1[s_mu] = s_mu, and length(mu) <= n here
        else:
            coeffs = _jacobi_trudi_at(lam, schur_poly_of_partition(mu, n))
        if maps is not None:
            maps[key] = coeffs
    if by_determinant:
        return coeffs.get(nu, 0)
    return _paired_with_chi(coeffs, lam, mu, nu, cache)


def _weighted_classes(lam, cache):
    """(rho, (N!/z_rho) chi^lam(rho)) over the cycle types rho of N = |lam|
    where chi^lam is nonzero, lex-ascending."""
    N = sum(lam)
    classes = zip(reversed(partitions_of(N)), _ascending_sizes(N, N), _row(lam, cache))
    return [(rho, size * chi) for rho, size, chi in classes if chi]


def _p_expansion(lam, mu, products, cache):
    """a! b!^a s_lam[s_mu] as {_position(tau): coefficient of p_tau},
    with a = |lam| and b = |mu|: the class sum over the cycle types rho of
    a, sum_rho (a!/z_rho) chi^lam(rho) prod_i F(rho_i), with
    F(k) = b!^(k-1) G[p_k], where G = sum_sigma (b!/z_sigma) chi^mu(sigma)
    p_sigma = b! s_mu (the factors b!^(rho_i - 1) make up
    b!^(a - length(rho))).  products memoises the products prod_i F(rho_i)
    by suffix of rho; it serves one mu and may be shared by calls with any
    lam."""
    b = sum(mu)
    g = _weighted_classes(mu, cache)
    products.setdefault((), {(): 1})

    def product(rho):
        out = products.get(rho)
        if out is None:
            k, rest = rho[0], product(rho[1:])
            scale = factorial(b) ** (k - 1)
            out = {}
            get = out.get
            for sigma, d in g:
                d *= scale
                sigma = tuple(k * s for s in sigma)
                for tau, c in rest.items():
                    key = tuple(sorted(tau + sigma, reverse=True))
                    out[key] = get(key, 0) + c * d
            products[rho] = out
        return out

    acc = {}
    get = acc.get
    for rho, w in _weighted_classes(lam, cache):
        for tau, c in product(rho).items():
            acc[tau] = get(tau, 0) + w * c
    return {_position(tau): c for tau, c in acc.items() if c}


def _paired_with_chi(coeffs, lam, mu, nu, cache):
    """<s_lam[s_mu], s_nu> from coeffs = _p_expansion(lam, mu, ..): paired
    with chi^nu and divided exactly by |lam|! |mu|!^|lam|; a remainder
    raises NonIntegralResult."""
    row = _row(nu, cache)
    total = sum(c * row[i] for i, c in coeffs.items())
    a, b = sum(lam), sum(mu)
    q, rem = divmod(total, factorial(a) * factorial(b) ** a)
    if rem:
        raise NonIntegralResult(f"<s_{lam}[s_{mu}], s_{nu}> = {total}/({a}! {b}!^{a})")
    return q


def _h_table(alphabet, kmax):
    """Complete homogeneous sums of the alphabet of packed monomials,
    h_0 .. h_kmax, each {packed monomial: coefficient}."""
    table = [{0: 1}] + [{} for _ in range(kmax)]
    for mono in alphabet:
        # ascending k reads h_(k-1) with mono already in: h picks multisets
        for k in range(1, kmax + 1):
            tgt = table[k]
            get = tgt.get
            for e, c in table[k - 1].items():
                e += mono
                tgt[e] = get(e, 0) + c
    return table


def _e_table(alphabet, kmax):
    """Elementary sums of the alphabet of packed monomials, e_0 .. e_kmax,
    each {packed monomial: coefficient}."""
    table = [{0: 1}] + [{} for _ in range(kmax)]
    for mono in alphabet:
        # descending k reads e_(k-1) without mono: each letter used once
        for k in range(min(kmax, len(alphabet)), 0, -1):
            tgt = table[k]
            get = tgt.get
            for e, c in table[k - 1].items():
                e += mono
                tgt[e] = get(e, 0) + c
    return table


def _jacobi_trudi(lam, entry):
    """The Jacobi-Trudi determinant det(entry(lam_i - i + j)), i, j < len(lam),
    by Laplace expansion along the rows, on packed monomials: entry(k) is a
    {packed monomial: coefficient} dict, empty for a zero entry, and a
    product of monomials is one int add (the caller keeps every exponent
    below 2^PACK_BITS, as _pack does).  The minors of the rows below r are
    keyed by their columns and memoised for this call only."""
    size = len(lam)
    memo = {(): {0: 1}}

    def minor(cols):
        out = memo.get(cols)
        if out is not None:
            return out
        r = size - len(cols)
        total = {}
        get = total.get
        for idx, col in enumerate(cols):
            term = entry(lam[r] - r + col)
            if not term:
                continue
            sub = minor(cols[:idx] + cols[idx + 1 :])
            sign = -1 if idx & 1 else 1
            for e1, c1 in term.items():
                c1 *= sign
                for e2, c2 in sub.items():
                    e = e1 + e2
                    total[e] = get(e, 0) + c1 * c2
        out = memo[cols] = {e: c for e, c in total.items() if c}
        return out

    return minor(tuple(range(size)))


def _jacobi_trudi_at(lam, g):
    """Schur coefficients of s_lam evaluated at the monomials of the nonzero
    Schur polynomial g: the Jacobi-Trudi determinant over the h table of
    that alphabet on lam, or over its e table on lam' when lam' is shorter,
    on packed monomials (ValueError when |lam| deg(g) >= 2^PACK_BITS).

    An alphabet of r letters with packed product P has e_k = 0 past r and
    e_k = {P - e: c for e, c in e_(r-k)} (Macdonald, I §2: each k-subset is
    the complement of an (r-k)-subset), so the e table is built only up to
    the largest min(k, r - k) over the determinant's entries k, and each
    entry above that is read off its complement."""
    n = g.arity
    packed = _pack(g, sum(lam) * sum(next(iter(g.terms))))
    alphabet = [key for key, c in packed.items() for _ in range(c)]
    conj = conjugate(lam)
    if len(lam) <= len(conj):
        shape = lam
        top = shape[0] + len(shape) - 1 if shape else 0
        table = _h_table(alphabet, top)
        entries = dict(enumerate(table))
    else:
        shape = conj
        r = len(alphabet)
        used = {
            k
            for i, part in enumerate(shape)
            for k in range(part - i, part - i + len(shape))
            if 0 <= k <= r
        }
        m = max((min(k, r - k) for k in used), default=0)
        table = _e_table(alphabet, m)
        full = sum(alphabet)
        entries = {k: table[k] if k <= m else _complemented(table[r - k], full) for k in used}
    det = _jacobi_trudi(shape, lambda k: entries.get(k, {}))
    poly = LaurentPoly(n)
    poly.terms = {_unpack_key(e, n): c for e, c in det.items()}
    return schur_coefficients(poly, n)


def _complemented(entry, full):
    """e_k of an alphabet of r letters whose packed product is full, from
    entry = e_(r-k): each monomial e becomes full - e."""
    return {full - e: c for e, c in entry.items()}


@lru_cache(maxsize=1024)
def _pleth_oracle_expansion(lam, mu, n):
    """_jacobi_trudi_at(lam, s_mu in n variables); None when s_mu vanishes
    at this arity."""
    g = schur_poly_of_partition(mu, n)
    if not g:
        return None
    return _jacobi_trudi_at(lam, g)


def plethysm_oracle(lam, mu, nu):
    """Multiplicity of s_nu in s_lam[s_mu] by the route plethysm_coefficient
    does not take at the key (lam, mu, length(nu)), with no unit law.  Where
    the engine takes the determinant (_by_determinant), the power sum
    expansion _p_expansion with a fresh CharCache, paired with chi^nu
    (NonIntegralResult on a remainder); elsewhere, the Jacobi-Trudi
    determinant over the alphabet of s_mu in length(nu) variables, cached
    per (lam, mu, length(nu)).  Each index must be a partition (trailing
    zeros allowed), else ValueError."""
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    if sum(lam) * sum(mu) != sum(nu):
        return 0
    if _by_determinant(lam, mu, len(nu)):
        cache = CharCache()
        return _paired_with_chi(_p_expansion(lam, mu, {}, cache), lam, mu, nu, cache)
    coeffs = _pleth_oracle_expansion(lam, mu, len(nu))
    if coeffs is None:
        return 0  # s_mu vanishes in length(nu) variables and lam is not ()
    return coeffs.get(nu, 0)
