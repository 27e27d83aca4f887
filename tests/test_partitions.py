from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from rectsym.partitions import (
    LengthExceedsBox,
    box_complement,
    box_complements,
    complement,
    complement_partition,
    conjugate,
    contains,
    count_ssyt,
    fits_in_box,
    format_partition,
    hooks,
    iter_ssyt,
    parse_partition,
    partitions_of,
    ssyt_weight,
    to_partition,
    translated_partition,
    zero_pad,
)


@st.composite
def partitions(draw, max_weight=10):
    w = draw(st.integers(min_value=0, max_value=max_weight))
    opts = partitions_of(w)
    return draw(st.sampled_from(opts))


def test_to_partition_strips_zeros():
    assert to_partition((3, 1, 0, 0)) == (3, 1)
    assert to_partition(()) == ()
    assert to_partition((0, 0)) == ()


def test_to_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        to_partition((1, 2))
    with pytest.raises(ValueError):
        to_partition((2, -1))


def test_to_partition_keeps_partitions():
    assert to_partition((3, 3, 1)) == (3, 3, 1)
    assert to_partition([]) == ()
    for bad in ((1, 3), (2, -1)):
        with pytest.raises(ValueError):
            to_partition(bad)


def test_parse_format():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("0") == ()
    assert parse_partition("") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == "0"
    with pytest.raises(ValueError):
        parse_partition("3,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")


@given(partitions())
def test_parse_format_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_conjugate_pins():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


def test_conjugate_counts_the_parts_past_each_column():
    for w in range(17):
        for p in partitions_of(w):
            want = tuple(sum(1 for a in p if a > j) for j in range(p[0] if p else 0))
            assert conjugate(p) == want, p


@given(partitions())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((3, 2), (4,))


def test_fits_in_box():
    assert fits_in_box((2, 2), 2, 2)
    assert fits_in_box((), 0, 0)
    assert not fits_in_box((3,), 2, 5)
    assert not fits_in_box((1, 1, 1), 5, 2)


def test_zero_pad():
    assert zero_pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(LengthExceedsBox):
        zero_pad((1, 1, 1), 2)


def test_complement_pins():
    # reversed rows of the box minus the padded partition
    assert complement_partition((2, 2, 2), 2, 4) == (2,)
    assert complement_partition((1,), 1, 3) == (1, 1)
    assert complement_partition((1, 1), 2, 3) == (2, 1, 1)
    assert complement_partition((), 3, 2) == (3, 3)
    assert complement_partition((2,), 2, 1) == ()


def test_complement_rejects_overflow():
    with pytest.raises(LengthExceedsBox):
        complement_partition((1, 1, 1), 2, 2)
    with pytest.raises(LengthExceedsBox):
        complement_partition((3,), 2, 2)


@pytest.mark.parametrize(
    "bad, message",
    [((2, -1), "negative part"), ((1, 2), "not weakly decreasing")],
    ids=["negative", "unsorted"],
)
def test_complement_partition_rejects_malformed_input(bad, message):
    with pytest.raises(ValueError, match=message):
        complement_partition(bad, 3, 2)


def test_box_complements_match_the_definition():
    # every partition of weight <= 8 in every box up to 4 x 4, the empty
    # ones included, alone and in pairs and triples: the tuple of validated
    # complements when every partition fits, else None
    boxes = [
        (p, k, n) for w in range(9) for p in partitions_of(w) for k in range(5) for n in range(5)
    ]

    def want(*group):
        if not all(fits_in_box(*box) for box in group):
            return None
        return tuple(to_partition(complement(*box)) for box in group)

    for box in boxes:
        assert box_complements(box) == want(box), box
        assert box_complement(*box) == (None if want(box) is None else want(box)[0]), box
    # strides coprime to the 25 boxes per partition, so each sample meets
    # every box shape, fitting and not
    pairs = [(a, b) for a in boxes[::7] for b in boxes[::11]]
    triples = [(a, b, c) for a in boxes[::41] for b in boxes[::43] for c in boxes[::47]]
    outcomes = set()
    for group in pairs + triples:
        got = box_complements(*group)
        assert got == want(*group), group
        outcomes.add((len(group), got is None))
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_complement_signed_sequence_allows_overflow():
    # the raw operation only enforces the row count
    assert complement((3,), 2, 2) == (2, -1)


@given(partitions(max_weight=8), st.integers(0, 4), st.integers(0, 8))
def test_complement_involution(p, extra_width, extra_rows):
    k = (p[0] if p else 0) + extra_width
    n = len(p) + extra_rows
    q = complement_partition(p, k, n)
    assert fits_in_box(q, k, n)
    assert sum(q) == k * n - sum(p)
    assert complement_partition(q, k, n) == p


def test_translated_partition():
    assert translated_partition((1,), 1, 2) == (2, 1)
    assert translated_partition((3, 2), -2, 2) == (1,)
    assert translated_partition((1, 1), -1, 2) == ()
    # dropping below zero or breaking monotonicity gives None
    assert translated_partition((1,), -1, 2) is None
    assert translated_partition((3, 3, 3), -1, 2) is None
    assert translated_partition((3, 3, 1), 1, 2) == (4, 4, 1)
    assert translated_partition((3, 3, 3), 1, 2) == (4, 4, 3)


def test_translated_partition_matches_validated_sum():
    # every p with at most 4 rows and parts <= 4, every n <= 5, every |k| <= 3
    for w in range(17):
        for p in partitions_of(w, 4, 4):
            for n in range(6):
                for k in range(-3, 4):
                    padded = p + (0,) * max(0, n - len(p))
                    raw = tuple(a + k if i < n else a for i, a in enumerate(padded))
                    try:
                        want = to_partition(raw)
                    except ValueError:
                        want = None
                    assert translated_partition(p, k, n) == want, (p, k, n)


@given(partitions(), st.integers(0, 3), st.integers(0, 3))
def test_translation_inverts(p, k, extra):
    n = len(p) + extra
    q = translated_partition(p, k, n)
    assert q is not None
    assert sum(q) == sum(p) + k * n
    assert translated_partition(q, -k, n) == p


def test_partition_counts():
    # p(0..9) = 1 1 2 3 5 7 11 15 22 30
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for w, count in enumerate(expected):
        assert len(partitions_of(w)) == count


def test_partitions_of_bounds():
    assert partitions_of(4, max_length=2) == ((4,), (3, 1), (2, 2))
    assert partitions_of(4, max_part=2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    # bounding length is conjugate to bounding part size
    for w in range(7):
        for cap in range(1, w + 1):
            by_len = set(partitions_of(w, max_length=cap))
            by_part = {conjugate(p) for p in partitions_of(w, max_part=cap)}
            assert by_len == by_part


def test_partitions_of_bounded_is_filtered_unbounded():
    for w in range(15):
        full = partitions_of(w)
        assert list(full) == sorted(set(full), reverse=True)
        for length in [None, *range(w + 2)]:
            for part in [None, *range(w + 2)]:
                want = tuple(
                    p
                    for p in full
                    if (length is None or len(p) <= length)
                    and (part is None or not p or p[0] <= part)
                )
                assert partitions_of(w, length, part) == want, (w, length, part)


def test_hooks():
    assert hooks((2, 1)) == [[3, 1], [1]]
    assert hooks((2, 2)) == [[3, 2], [2, 1]]


def test_hook_lengths_count_standard_tableaux():
    # n! / prod hooks, spot checks against known SYT counts
    def syt(p):
        total = factorial(sum(p))
        denominator = 1
        for row in hooks(p):
            for h in row:
                denominator *= h
        return total // denominator

    assert syt((2, 1)) == 2
    assert syt((2, 2)) == 2
    assert syt((3, 2)) == 5
    assert syt((2, 2, 1, 1)) == 9


def test_count_ssyt_pins():
    assert count_ssyt((), 3) == 1
    assert count_ssyt((1,), 4) == 4
    assert count_ssyt((2,), 2) == 3
    assert count_ssyt((1, 1), 2) == 1
    assert count_ssyt((2, 1), 3) == 8


def test_count_ssyt_rejects_malformed_partitions():
    with pytest.raises(ValueError):
        count_ssyt((1, 2), 3)
    with pytest.raises(ValueError):
        count_ssyt((2, -1), 3)


def test_count_ssyt_counts_tableaux_down_to_no_entries():
    # the hook content product turns negative factors into nonsense below
    # n = 0, where there is no tableau to count
    for w in range(6):
        for p in partitions_of(w):
            for n in range(5):
                assert count_ssyt(p, n) == sum(1 for _ in iter_ssyt(p, n)), (p, n)
            with pytest.raises(ValueError):
                count_ssyt(p, -1)


def test_iter_ssyt_rejects_negative_entry_count():
    # as count_ssyt does: below n = 0 there is no tableau to enumerate, not
    # even the empty one
    for shape in ((), (2, 1)):
        with pytest.raises(ValueError):
            list(iter_ssyt(shape, -1))
    assert list(iter_ssyt((), 0)) == [()]


@given(partitions(max_weight=6), st.integers(1, 4))
def test_count_ssyt_matches_enumeration(p, n):
    assert count_ssyt(p, n) == sum(1 for _ in iter_ssyt(p, n))


def test_iter_ssyt_rows_and_columns():
    for tab in iter_ssyt((3, 2), 3):
        for row in tab:
            assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
        for j in range(2):
            assert tab[0][j] < tab[1][j]


def test_iter_ssyt_content_filter():
    tabs = list(iter_ssyt((2, 1), 3, content=(1, 1, 1)))
    assert len(tabs) == 2  # the standard tableaux of shape (2,1)
    for tab in tabs:
        assert ssyt_weight(tab, 3) == (1, 1, 1)
    none = list(iter_ssyt((2, 1), 2, content=(0, 3)))
    assert none == []


def test_iter_ssyt_content_is_exact():
    # a content restricts the enumeration to exactly the tableaux of that
    # content: none when it sums to another weight or names an entry past n
    for w in range(6):
        for shape in partitions_of(w):
            for n in range(5):
                tableaux = list(iter_ssyt(shape, n))
                for length in range(n + 2):
                    for content in product(range(4), repeat=length):
                        width = max(n, length)
                        padded = content + (0,) * (width - length)
                        want = [t for t in tableaux if ssyt_weight(t, width) == padded]
                        got = list(iter_ssyt(shape, n, content=content))
                        assert got == want, (shape, n, content)


def test_ssyt_weight():
    assert ssyt_weight(((1, 1), (2,)), 3) == (2, 1, 0)
