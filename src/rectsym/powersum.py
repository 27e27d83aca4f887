"""Symmetric group characters and conjugacy class sizes, in one class order.

Characters come from the Murnaghan-Nakayama border-strip recursion on bead
masks.  A partition lam with L rows is the int whose set bits are its beta
numbers lam_i + L - 1 - i.  Removing a k-strip slides one bead b down to an
empty position b - k, so the k-strips are the set bits of m & ~(m << k) at
positions >= k, the smaller shape is m ^ (1 << b) ^ (1 << (b - k)), and the
strip's sign is the parity of the beads strictly between b - k and b.  Beads
at positions 0, 1, ... stand for zero rows; shifting them off makes the mask
canonical, so shapes that differ only in zero rows share memo entries.

Rows and class sizes have one order, lex-ascending: partitions_of(n) read
backwards, where cycle type rho sits at _position(rho).  There the
partitions of n with parts <= b come first, p(n, <= b) of them, and those
with first part k form one block, (k,) + sigma for sigma over the first
p(n - k, <= k) partitions of n - k.  So block k of a shape's row is the
signed sum, over its k-strips, of the smaller shapes' rows on that range,
one map(add) or map(sub) per strip.  Class sizes come by the same blocks:
the classes with first part k are (k^j) + tau, tau over the partitions of
n - jk with parts < k, so no partition is ever listed (_ascending_sizes).

A CharCache holds each shape's row by bead mask (strip) and indexes whole
rows by partition (rows), with no copies.  _row is every engine's reader;
char_row and class_sizes adapt it to partitions_of order.  A CharCache may
serve a whole verification sweep, or one call.
"""

from bisect import bisect_left
from functools import lru_cache
from math import factorial, perm
from operator import add, neg, sub

from .partitions import to_count, to_partition


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


def _position(rho):
    """Place of the partition rho (not validated) in the lex-ascending order
    of its weight, counted from partitions with bounded parts."""
    rest = sum(rho)
    place = 0
    for part in rho:
        # the partitions of rest below part in the first place come before
        place += _bounded_counts(rest)[part - 1]
        rest -= part
    return place


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


def class_sizes(n):
    """Conjugacy class sizes n!/z_rho of S_n, aligned with partitions_of(n):
    the block-built ascending list reversed.  n must be a nonnegative
    integer, else ValueError."""
    n = to_count(n, "weight")
    return tuple(reversed(_ascending_sizes(n, n)))


# ---------------------------------------------------------------------------
# characters


class CharCache:
    """Shared memo of the block recursion, with a partition index into it.

    strip maps each canonical bead mask to the shape's character on the
    partitions of its weight in lex-ascending order, as far as the largest
    part bound any call asked of it: whole blocks, never part of one.  The
    empty shape holds the one value chi^() = 1.  rows[lam] is
    strip[_mask(lam)] itself, built whole by _row: a warm read is one dict
    hit, and the index holds no copy.
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


def _row(lam, cache):
    """chi^lam on every partition of |lam|, lex-ascending: cache.rows[lam].
    lam must be a partition; it is not validated."""
    row = cache.rows.get(lam)
    if row is None:
        n = sum(lam)
        row = cache.rows[lam] = _ascending(_mask(lam), n, n, cache.strip)
    return row


def char_row(lam, cache=None):
    """chi^lam on every cycle type of its weight, aligned with partitions_of.
    lam must be a partition (trailing zeros allowed), else ValueError."""
    lam = to_partition(lam)
    return tuple(reversed(_row(lam, CharCache() if cache is None else cache)))
