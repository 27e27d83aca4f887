"""Integer partitions, signed sequences and rectangle (box) operations.

Partitions are plain tuples of weakly decreasing positive ints, no trailing
zeros, so equality and hashing come for free.  A "signed sequence" is a weakly
decreasing tuple of ints with a fixed, significant length; it is what a box
complement produces before any trailing zeros are stripped.
"""

from functools import lru_cache
from operator import ge, index


class LengthExceedsBox(ValueError):
    """Sequence has more rows than the box allows."""


# ---------------------------------------------------------------------------
# parsing / validation


def is_weakly_decreasing(seq):
    return all(map(ge, seq, seq[1:]))


def to_partition(seq):
    """Canonicalize seq: int parts (by operator.index, so a float raises
    ValueError), trailing zeros stripped, partition conditions checked."""
    seq = tuple(seq)
    try:
        # an int sum means int parts: a float or Fraction part makes it one
        if type(sum(seq)) is not int:
            seq = tuple(map(index, seq))
    except TypeError:
        raise ValueError(f"parts must be integers: {seq}") from None
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    if not is_weakly_decreasing(seq):
        raise ValueError(f"not weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise ValueError(f"negative part: {seq}")
    return seq


def to_count(n, name):
    """A count n (of variables, tableau entries, workers, repeats, ...) as an
    int, by operator.index.  A float, even an integral one, or a negative n
    raises one ValueError, which name heads."""
    try:
        count = index(n)
    except TypeError:
        count = -1  # refused below, as a negative count is
    if count < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return count


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
    """Transpose the diagram.  p must be a partition; it is not validated.

    One walk up the rows: the columns that row i (counting from 1) has and
    the rows below it lack are i rows tall.  So conjugate(p)[0] == len(p) and
    len(conjugate(p)) == p[0]; a caller that needs only a first part or a
    length of a conjugate reads it off p without calling this."""
    out = []
    rows = len(p)
    for a in reversed(p):
        out += [rows] * (a - len(out))
        rows -= 1
    return tuple(out)


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


def box_complements(*boxes):
    """The complement of each (p, k, n) in boxes, p a partition (not
    validated), in its k x n box, when every p fits in its box; else None.
    Every fit is tested before any complement is built."""
    for p, k, n in boxes:
        if not fits_in_box(p, k, n):
            return None
    # the parts equal to k are the complement's trailing zeros
    return tuple(
        tuple(k - a for a in reversed(p + (0,) * (n - len(p))) if a != k)
        for p, k, n in boxes
    )


def complement_partition(p, k, n):
    """Box complement of a partition that fits in the k x n box, else
    LengthExceedsBox."""
    p = to_partition(p)
    out = box_complements((p, k, n))
    if out is None:
        raise LengthExceedsBox(f"{p} does not fit in {k}x{n}")
    return out[0]


def translated_partition(p, k, n):
    """p + (k^n) when that is a partition, else None.  p must be a
    partition; it is not validated.

    The first n rows move together and stay weakly decreasing, so only two
    places can fail: the seam p_n + k >= p_{n+1} when n < len(p), and the
    sign of the last part, which is k itself when n > len(p)."""
    if n < len(p):
        if n and p[n - 1] + k < p[n]:
            return None
        return tuple(a + k for a in p[:n]) + p[n:]
    out = tuple(a + k for a in p) + (k,) * (n - len(p))
    if not out or out[-1] > 0:
        return out
    # the rows that reach 0 are the trailing ones; drop them
    return None if out[-1] < 0 else tuple(a for a in out if a)


# ---------------------------------------------------------------------------
# enumeration


def _gen_parts(w, max_length, max_part):
    """Partitions of w with at most max_length parts, each at most max_part,
    lex-descending.  The next partition lowers by 1 the rightmost part whose
    lowering leaves room for the rest, then refills the rest greedily."""
    if w == 0:
        yield ()
        return
    top = min(w, max_part)
    if top <= 0 or max_length * top < w:
        return
    q, r = divmod(w, top)
    parts = [top] * q + ([r] if r else [])
    while True:
        yield tuple(parts)
        rest = 0  # the sum of the parts right of i
        for i in range(len(parts) - 1, -1, -1):
            part = parts[i] - 1
            if part and part * (max_length - i - 1) > rest:
                break
            rest += parts[i]
        else:
            return
        del parts[i:]
        q, r = divmod(rest + 1, part)
        parts += [part] * (q + 1)
        if r:
            parts.append(r)


@lru_cache(maxsize=None, typed=True)
def partitions_of(w, max_length=None, max_part=None):
    """Tuple of all partitions of w (lex-descending), optionally bounded.
    w and each bound given are counts (to_count): a float or a negative one
    raises ValueError.  The memo is typed, so a float never reads the entry
    of an equal int."""
    w = to_count(w, "weight")
    ml = w if max_length is None else to_count(max_length, "max_length")
    mp = w if max_part is None else to_count(max_part, "max_part")
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
    partition (trailing zeros allowed) and n a nonnegative integer, else
    ValueError.
    """
    p = to_partition(p)
    n = to_count(n, "number of entries")
    top = bottom = 1
    for i, row in enumerate(hooks(p)):
        for j, h in enumerate(row):
            top *= n + j - i
            bottom *= h
    total, rem = divmod(top, bottom)
    if rem:
        raise ArithmeticError(f"hook content product for {p} in {n} is {top}/{bottom}")
    return total


@lru_cache(maxsize=1024)
def _tableau_count(mu, n):
    """(r, q) for a partition mu and n >= 1: r = count_ssyt(mu, n) and
    q = r|mu|/n, as one exact division (a remainder raises ArithmeticError)."""
    r = count_ssyt(mu, n)
    total = r * sum(mu)
    if total % n:
        raise ArithmeticError(f"q = {total}/{n} is not integral for mu={mu}")
    return r, total // n


def iter_ssyt(shape, n, content=None):
    """Yield semistandard tableaux of the given shape, entries in 1..n.

    Tableaux come out as tuples of row tuples.  If content is given, only
    tableaux with exactly content[v-1] copies of v are produced.  n must be
    a nonnegative integer, else ValueError (raised when iteration starts).
    """
    n = to_count(n, "number of entries")
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
