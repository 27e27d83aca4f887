"""Symmetric group characters and conjugacy class sizes.

Characters come from the Murnaghan-Nakayama border-strip recursion on bead
masks.  A partition lam with L rows is the int whose set bits are its beta
numbers lam_i + L - 1 - i.  Removing a k-strip slides one bead b down to an
empty position b - k, so the k-strips are the set bits of m & ~(m << k) at
positions >= k, the smaller shape is m ^ (1 << b) ^ (1 << (b - k)), and the
strip's sign is the parity of the beads strictly between b - k and b.  Beads
at positions 0, 1, ... stand for zero rows; shifting them off makes the mask
canonical, so shapes that differ only in zero rows share memo entries.

The memo is one dict per suffix of a cycle type, keyed by canonical masks.
A CharCache holds these dicts, whole character rows, and per weight the list
of cycle types with their suffix dicts.  It can be shared across many
computations (a whole verification sweep, say); every function also works
with a private one.
"""

from functools import lru_cache
from math import factorial

from .partitions import partitions_of, to_partition


class WeightMismatch(ValueError):
    pass


class NonIntegralResult(ArithmeticError):
    pass


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


# ---------------------------------------------------------------------------
# characters


class CharCache:
    """Shared memo for border-strip recursions plus whole character rows.

    strip maps each cycle type suffix sigma to a dict from canonical bead
    masks to chi(sigma); the empty suffix holds the one value chi^() = 1.
    rows maps a partition to its whole character row.  plans holds, per
    weight n, every cycle type of n with the memo dicts of its suffixes.
    """

    def __init__(self):
        self.strip = {(): {0: 1}}
        self.rows = {}
        self.plans = {}

    def memos(self, rho):
        """The memo dicts of rho[0:], rho[1:], ..., rho[len(rho):] = ()."""
        strip = self.strip
        return [strip.setdefault(rho[i:], {}) for i in range(len(rho) + 1)]

    def plan(self, n):
        """(rho, memos(rho)) for every rho in partitions_of(n), in order."""
        plan = self.plans.get(n)
        if plan is None:
            plan = self.plans[n] = [(rho, self.memos(rho)) for rho in partitions_of(n)]
        return plan


def _mask(lam):
    """Beads of the partition lam: bit lam_i + len(lam) - 1 - i for each row."""
    top = len(lam) - 1
    m = 0
    for i, part in enumerate(lam):
        m |= 1 << (part + top - i)
    return m


def _chi(m, idx, rho, memos):
    """chi at the shape with bead mask m on the cycle type rho[idx:]."""
    memo = memos[idx]
    got = memo.get(m)
    if got is not None:
        return got
    k = rho[idx]
    idx += 1
    below = memos[idx]
    total = 0
    # bit b - k of ends is set when bead b can slide down to the gap b - k
    ends = (m & ~(m << k)) >> k
    while ends:
        low = ends & -ends
        ends ^= low
        high = low << k
        sub = m ^ high ^ low
        # beads at 0, 1, ... are zero rows: drop them so the mask is canonical
        while sub & 1:
            sub >>= 1
        val = below.get(sub)
        if val is None:
            val = _chi(sub, idx, rho, memos)
        if val:
            # the strip's height is the number of beads it jumps over
            if (m & (high - (low << 1))).bit_count() & 1:
                total -= val
            else:
                total += val
    memo[m] = total
    return total


def char_value(lam, rho, cache=None):
    """Character of the symmetric group: chi^lam evaluated on cycle type rho.
    lam must be a partition (trailing zeros allowed) and rho must have
    positive parts, else ValueError."""
    lam = to_partition(lam)
    rho = tuple(sorted(rho, reverse=True))
    if rho and rho[-1] <= 0:
        raise ValueError(f"cycle type with a non-positive part: {rho}")
    if sum(lam) != sum(rho):
        raise WeightMismatch(f"|{lam}| != |{rho}|")
    if cache is None:
        cache = CharCache()
    return _chi(_mask(lam), 0, rho, cache.memos(rho))


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
    m = _mask(lam)
    row = tuple([_chi(m, 0, rho, memos) for rho, memos in cache.plan(sum(lam))])
    cache.rows[lam] = row
    return row
