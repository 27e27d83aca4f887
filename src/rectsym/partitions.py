"""Integer partitions, signed sequences and rectangle (box) operations.

Partitions are plain tuples of weakly decreasing positive ints, no trailing
zeros, so equality and hashing come for free.  A "signed sequence" is a weakly
decreasing tuple of ints with a fixed, significant length; it is what a box
complement produces before any trailing zeros are stripped.
"""

from functools import lru_cache
from operator import ge


class LengthExceedsBox(ValueError):
    """Sequence has more rows than the box allows."""


# ---------------------------------------------------------------------------
# parsing / validation


def is_weakly_decreasing(seq):
    return all(map(ge, seq, seq[1:]))


def to_partition(seq):
    """Canonicalize seq: strip trailing zeros, check partition conditions."""
    seq = tuple(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    if not is_weakly_decreasing(seq):
        raise ValueError(f"not weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise ValueError(f"negative part: {seq}")
    return seq


def is_partition(seq):
    seq = tuple(seq)
    return is_weakly_decreasing(seq) and (not seq or seq[-1] >= 0)


def parse_partition(text):
    """Parse '3,1,1' into (3, 1, 1).  Empty string or '0' is the empty one."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition syntax: {text!r}") from None
    return to_partition(parts)


def format_partition(p):
    return ",".join(str(a) for a in p) if p else "0"


# ---------------------------------------------------------------------------
# basic operations


def conjugate(p):
    """Transpose the diagram.  p must be a partition; it is not validated."""
    if not p:
        return ()
    return tuple(sum(1 for a in p if a > j) for j in range(p[0]))


def contains(outer, inner):
    """Diagram containment inner <= outer of partitions, not validated."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def fits_in_box(p, k, n):
    """Does partition p (not validated) sit in the k-wide, n-tall box?"""
    return len(p) <= n and (not p or p[0] <= k)


def zero_pad(seq, n):
    if len(seq) > n:
        raise LengthExceedsBox(f"{seq} has more than {n} rows")
    return tuple(seq) + (0,) * (n - len(seq))


def complement(seq, k, n):
    """Box complement in the k x n rectangle, as a signed sequence.

    The rows of the complement are k - s_n >= ... >= k - s_1.  Entries may be
    negative when seq sticks out of the box; only the row count is enforced.
    """
    padded = zero_pad(seq, n)
    return tuple(k - a for a in reversed(padded))


def complement_partition(p, k, n):
    """Box complement of a partition that fits in the box."""
    p = to_partition(p)
    if not fits_in_box(p, k, n):
        raise LengthExceedsBox(f"{p} does not fit in {k}x{n}")
    # the complement of a partition in the box is one, up to trailing zeros
    out = complement(p, k, n)
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    return out[:end]


def translated_partition(p, k, n):
    """p + (k^n) when that is a partition, else None.  p must be a
    partition; it is not validated."""
    raw = tuple(a + k for a in p[:n]) + (k,) * (n - len(p)) + p[n:]
    if not is_weakly_decreasing(raw) or (raw and raw[-1] < 0):
        return None
    end = len(raw)
    while end and raw[end - 1] == 0:
        end -= 1
    return raw[:end]


# ---------------------------------------------------------------------------
# enumeration


def _gen_parts(w, max_length, max_part):
    # lex-descending within fixed weight
    if w == 0:
        yield ()
        return
    if max_length == 0 or max_part == 0:
        return
    for first in range(min(w, max_part), 0, -1):
        for rest in _gen_parts(w - first, max_length - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions_of(w, max_length=None, max_part=None):
    """Tuple of all partitions of w (lex-descending), optionally bounded."""
    ml = w if max_length is None else max_length
    mp = w if max_part is None else max_part
    return tuple(_gen_parts(w, ml, mp))


# ---------------------------------------------------------------------------
# tableaux


def hooks(p):
    """Hook lengths, as a list of rows."""
    conj = conjugate(p)
    return [[p[i] - j + conj[j] - i - 1 for j in range(p[i])] for i in range(len(p))]


def count_ssyt(p, n):
    """Number of semistandard tableaux of shape p with entries in 1..n.

    Hook content formula: prod over cells of (n + j - i) / hook(i, j), as
    one exact division; a remainder raises ArithmeticError.  p must be a
    partition (trailing zeros allowed), else ValueError.
    """
    p = to_partition(p)
    top = bottom = 1
    for i, row in enumerate(hooks(p)):
        for j, h in enumerate(row):
            top *= n + j - i
            bottom *= h
    total, rem = divmod(top, bottom)
    if rem:
        raise ArithmeticError(f"hook content product for {p} in {n} is {top}/{bottom}")
    return total


def iter_ssyt(shape, n, content=None):
    """Yield semistandard tableaux of the given shape, entries in 1..n.

    Tableaux come out as tuples of row tuples.  If content is given, only
    tableaux with exactly content[v-1] copies of v are produced.
    """
    if not shape:
        yield ()
        return
    rows = len(shape)
    remaining = list(content) + [0] * (n - len(content)) if content is not None else None
    tab = [[0] * shape[i] for i in range(rows)]

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    # column-first fill keeps both constraints local to the previous cell
    cells.sort(key=lambda c: (c[1], c[0]))

    def fill(idx):
        if idx == len(cells):
            yield tuple(tuple(r) for r in tab)
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, tab[i][j - 1])
        if i > 0:
            lo = max(lo, tab[i - 1][j] + 1)
        for v in range(lo, n + 1):
            if remaining is not None:
                if remaining[v - 1] == 0:
                    continue
                remaining[v - 1] -= 1
            tab[i][j] = v
            yield from fill(idx + 1)
            if remaining is not None:
                remaining[v - 1] += 1
        tab[i][j] = 0

    yield from fill(0)


def ssyt_weight(tab, n):
    """Content vector of a tableau, as a length-n tuple."""
    w = [0] * n
    for row in tab:
        for v in row:
            w[v - 1] += 1
    return tuple(w)
