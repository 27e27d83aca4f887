"""Symmetric group characters and conjugacy class sizes.

Characters come from the Murnaghan-Nakayama border-strip recursion on bead
masks.  A partition lam with L rows is the int whose set bits are its beta
numbers lam_i + L - 1 - i.  Removing a k-strip slides one bead b down to an
empty position b - k, so the k-strips are the set bits of m & ~(m << k) at
positions >= k, the smaller shape is m ^ (1 << b) ^ (1 << (b - k)), and the
strip's sign is the parity of the beads strictly between b - k and b.  Beads
at positions 0, 1, ... stand for zero rows; shifting them off makes the mask
canonical, so shapes that differ only in zero rows share memo entries.

The recursion fills a row one block of classes at a time.  Read backwards,
partitions_of(n) is lex-ascending: the partitions of n with parts <= b are
its first p(n, <= b) entries, and those with first part k form one block,
(k,) + sigma for sigma over the first p(n - k, <= k) partitions of n - k.
So block k of a shape's ascending row is the signed sum, over the shape's
k-strips, of the first p(n - k, <= k) entries of the smaller shapes'
ascending rows: one map(add) or map(sub) per strip over the whole block.

Class sizes come by the same blocks: the classes with first part k are
(k^j) + tau, for each multiplicity j and tau over the partitions of n - jk
with parts < k, so no partition is ever listed (_ascending_sizes).

A CharCache keeps each shape's ascending row as far as some call needed it
(strip) and whole rows in partitions_of order (rows).  The Kronecker engine
reads strip, in ascending order beside _ascending_sizes; char_row,
char_value and both plethysm routes read rows.  A CharCache can be shared
across many computations (a whole verification sweep, say); every function
also works with a private one.
"""

from bisect import bisect_left
from functools import lru_cache
from math import factorial, perm
from operator import add, neg, sub

from .partitions import to_partition


class WeightMismatch(ValueError):
    pass


class NonIntegralResult(ArithmeticError):
    pass


def zee(rho):
    """Centralizer order: prod i^(m_i) m_i! over the multiplicities of rho.
    rho need not be sorted."""
    out = 1
    prev = m = 0
    for part in sorted(rho):
        # the t-th copy of a part i contributes the factor i * t
        m = m + 1 if part == prev else 1
        prev = part
        out *= part * m
    return out


@lru_cache(maxsize=None)
def _bounded_counts(n):
    """(p(n, <= 0), p(n, <= 1), ..., p(n, <= n)): for each bound b, the number
    of partitions of n with every part at most b."""
    counts = [1 if n == 0 else 0]
    for b in range(1, n + 1):
        counts.append(counts[-1] + _bounded_counts(n - b)[min(b, n - b)])
    return tuple(counts)


def class_index(rho):
    """Position of the cycle type rho in partitions_of(sum(rho)), counted
    from partitions with bounded parts.  rho must be a partition (weakly
    decreasing, positive parts); it is not validated."""
    n = rest = sum(rho)
    ascending = 0
    for part in rho:
        # the partitions of rest below part in the first place come before
        ascending += _bounded_counts(rest)[part - 1]
        rest -= part
    return _bounded_counts(n)[n] - 1 - ascending


# ---------------------------------------------------------------------------
# class sizes


@lru_cache(maxsize=None)
def _size_memo(n):
    """The one list of class sizes of weight n that _ascending_sizes
    extends, lex-ascending, in whole blocks of first parts."""
    return [1] if n == 0 else []


def _ascending_sizes(n, bound):
    """n!/z_rho on the partitions of n with parts <= bound, lex-ascending:
    the memo's list, extended block by block as far as bound; it may run on
    past bound.  The classes with first part k, repeated exactly j times,
    are (k^j) + tau for tau over the partitions of n - jk with parts < k,
    and their sizes are those of tau in S_(n - jk) times the number of ways
    to choose jk of n points and arrange them into j k-cycles."""
    row = _size_memo(n)
    counts = _bounded_counts(n)
    if len(row) >= counts[bound]:
        return row
    # the blocks 1 .. done are already in row
    done = bisect_left(counts, len(row))
    for k in range(done + 1, bound + 1):
        for j in range(1, n // k + 1):
            rest = n - j * k
            below = min(k - 1, rest)
            cycles = perm(n, j * k) // (k**j * factorial(j))
            sizes = _ascending_sizes(rest, below)
            row += map(cycles.__mul__, sizes[: _bounded_counts(rest)[below]])
    return row


@lru_cache(maxsize=None)
def class_sizes(n):
    """Conjugacy class sizes n!/z_rho of S_n, aligned with partitions_of(n):
    the block-built ascending list reversed.  n must be nonnegative, else
    ValueError."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    return tuple(reversed(_ascending_sizes(n, n)))


# ---------------------------------------------------------------------------
# characters


class CharCache:
    """Shared memo for the block recursion plus whole character rows.

    strip maps each canonical bead mask to the shape's character on the
    partitions of its weight in lex-ascending order, as far as the largest
    part bound any call asked of it: whole blocks, never part of one.  The
    empty shape holds the one value chi^() = 1.  The recursion and
    coefficients.kronecker_coefficient read it.  rows maps a partition to
    its whole character row in partitions_of order, as char_row returns
    it; char_value and the plethysm routes read it through char_row.
    """

    def __init__(self):
        self.strip = {0: [1]}
        self.rows = {}


def _mask(lam):
    """Beads of the partition lam: bit lam_i + len(lam) - 1 - i for each row."""
    top = len(lam) - 1
    m = 0
    for i, part in enumerate(lam):
        m |= 1 << (part + top - i)
    return m


def _ascending(m, n, bound, strip):
    """chi at the shape with canonical bead mask m and weight n on the
    partitions of n with parts <= bound, lex-ascending: the memo's list,
    extended block by block as far as bound; it may run on past bound."""
    row = strip.get(m)
    if row is None:
        row = strip[m] = []
    counts = _bounded_counts(n)
    if len(row) >= counts[bound]:
        return row
    # the blocks 1 .. done are already in row
    done = bisect_left(counts, len(row))
    for k in range(done + 1, bound + 1):
        size = counts[k] - counts[k - 1]
        below, below_bound = n - k, min(k, n - k)
        block = None
        # bit b - k of ends is set when bead b can slide down to the gap b - k
        ends = (m & ~(m << k)) >> k
        while ends:
            low = ends & -ends
            ends ^= low
            high = low << k
            shape = m ^ high ^ low
            # beads at 0, 1, ... are zero rows: drop them so the mask is canonical
            while shape & 1:
                shape >>= 1
            values = _ascending(shape, below, below_bound, strip)
            # the strip's height is the number of beads it jumps over
            odd = (m & (high - (low << 1))).bit_count() & 1
            if block is None:
                block = list(map(neg, values[:size])) if odd else values[:size]
            else:
                block = list(map(sub if odd else add, block, values))
        row += block if block is not None else [0] * size
    return row


def char_value(lam, rho, cache=None):
    """Character of the symmetric group: chi^lam evaluated on cycle type rho,
    read off the row of lam at class_index(rho).  lam must be a partition
    (trailing zeros allowed) and rho must have positive parts, else
    ValueError."""
    lam = to_partition(lam)
    rho = tuple(sorted(rho, reverse=True))
    if rho and rho[-1] <= 0:
        raise ValueError(f"cycle type with a non-positive part: {rho}")
    if sum(lam) != sum(rho):
        raise WeightMismatch(f"|{lam}| != |{rho}|")
    return char_row(lam, cache)[class_index(rho)]


def char_row(lam, cache=None):
    """chi^lam on every cycle type of its weight, aligned with partitions_of.
    lam must be a partition (trailing zeros allowed), else ValueError."""
    lam = tuple(lam)
    if cache is None:
        cache = CharCache()
    else:
        row = cache.rows.get(lam)
        if row is not None:
            return row
    lam = to_partition(lam)
    n = sum(lam)
    row = tuple(reversed(_ascending(_mask(lam), n, n, cache.strip)))
    cache.rows[lam] = row
    return row
