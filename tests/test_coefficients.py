"""Littlewood-Richardson, Kronecker, and plethysm coefficients."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rectsym import coefficients, partitions, powersum
from rectsym.coefficients import (
    PACK_BITS,
    POLY_MAX_ARITY,
    _pack,
    _unpack_key,
    kronecker_coefficient,
    kronecker_oracle,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from rectsym.partitions import conjugate, contains, partitions_of
from rectsym.polyring import LaurentPoly
from rectsym.powersum import CharCache, NonIntegralResult, _ascending, _mask, char_row
from rectsym.symmetries import SweepBounds, SweepContext, verify_rule


def test_lr_pieri_row():
    # s_lam * s_(1) adds one box in all distinct ways
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (3, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2, 2)) == 1
    assert lr_coefficient((2, 1), (1,), (2, 1, 1)) == 1


def test_lr_classic_square():
    # s_(2,1)^2 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    expect = {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    for nu in partitions_of(6):
        assert lr_coefficient((2, 1), (2, 1), nu) == expect.get(nu, 0)


def test_lr_degenerate_cases():
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((3,), (), (3,)) == 1
    assert lr_coefficient((2, 1), (1,), (3,)) == 0  # length over arity
    assert lr_coefficient((2,), (1,), (2,)) == 0  # weight mismatch
    assert lr_coefficient((3,), (1,), (2, 2)) == 0  # lam not inside nu
    assert lr_coefficient((2, 1, 0), (1,), (3, 1)) == 1  # trailing zero
    assert lr_coefficient_oracle((1, 0, 0), (1,), (2,)) == 1


def test_lr_rejects_malformed_partition():
    with pytest.raises(ValueError):
        lr_coefficient((1,), (1,), (1, 2))


def test_lr_symmetry_and_containment():
    for w in range(6):
        for a in range(w + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(w - a):
                    for nu in partitions_of(w):
                        c = lr_coefficient(lam, mu, nu)
                        assert c == lr_coefficient(mu, lam, nu)
                        if c:
                            assert contains(nu, lam) and contains(nu, mu)


def test_lr_lattice_words_against_schur_product():
    for w in range(7):
        for a in range(w + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(w - a):
                    for nu in partitions_of(w):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)


def _inside(nu, w):
    return [p for p in partitions_of(w) if contains(nu, p)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lr_lattice_words_match_schur_product_past_criterion_2(data):
    # |nu| <= 14 with at most six rows; lam and mu drawn inside nu
    w = data.draw(st.integers(0, 14))
    nu = data.draw(st.sampled_from(partitions_of(w, 6)))
    a = data.draw(st.integers(0, w))
    lam = data.draw(st.sampled_from(_inside(nu, a)))
    mu = data.draw(st.sampled_from(_inside(nu, w - a)))
    assert lr_coefficient(lam, mu, nu) == lr_coefficient_oracle(lam, mu, nu)


def test_kronecker_trivial_row():
    # pairing against the trivial character picks out equal arguments
    for mu in partitions_of(3):
        for nu in partitions_of(3):
            assert kronecker_coefficient((3,), mu, nu) == (1 if mu == nu else 0)
            assert kronecker_coefficient(mu, nu, (3,)) == (1 if mu == nu else 0)


def test_kronecker_sign_twist():
    # tensoring with the sign character conjugates
    cache = CharCache()
    for mu in partitions_of(4):
        for nu in partitions_of(4):
            expect = 1 if conjugate(mu) == nu else 0
            assert kronecker_coefficient((1, 1, 1, 1), mu, nu, cache) == expect


def test_kronecker_symmetries():
    cache = CharCache()
    for w in (3, 4):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                for nu in partitions_of(w):
                    g = kronecker_coefficient(lam, mu, nu, cache)
                    for a, b, c in itertools.permutations((lam, mu, nu)):
                        assert kronecker_coefficient(a, b, c, cache) == g
                    assert (
                        kronecker_coefficient(conjugate(lam), conjugate(mu), nu, cache)
                        == g
                    )


def test_kronecker_weight_mismatch():
    assert kronecker_coefficient((2,), (1,), (2,)) == 0
    assert kronecker_coefficient((), (), ()) == 1


def test_kronecker_non_integral_sum_raises():
    # the engine reads the lex-ascending rows of the strip memo: doctor
    # chi^(2,1) at the class (3), the last of (1,1,1), (2,1), (3)
    cache = CharCache()
    row = _ascending(_mask((2, 1)), 3, 3, cache.strip)
    row[-1] += 1
    with pytest.raises(NonIntegralResult):
        kronecker_coefficient((2, 1), (2, 1), (2, 1), cache)


def test_grouped_kronecker_non_integral_sum_raises():
    # (2,1),(2,1) is the pair both triples share, so their class sums are
    # one weighted row dotted with each third row; doctor chi^(3) at the
    # class (3), which only the first triple's third row reads
    cache = CharCache()
    row = _ascending(_mask((3,)), 3, 3, cache.strip)
    row[-1] += 1
    triples = [((2, 1), (2, 1), (3,)), ((1, 1, 1), (2, 1), (2, 1))]
    with pytest.raises(NonIntegralResult, match=r"g\(\(2, 1\), \(2, 1\), \(3,\)\)"):
        coefficients._kronecker_class_sums(triples, cache)
    assert coefficients._kronecker_class_sums(triples[1:], cache) == {triples[1]: 1}


def test_grouped_kronecker_matches_single_calls():
    # triples of weight 5, sorted or not, in one batch, against one call per
    # triple on a cache of its own
    triples = [t for t in itertools.product(partitions_of(5), repeat=3) if t[0] <= t[2]]
    grouped = coefficients._kronecker_class_sums(triples, CharCache())
    assert set(grouped) == set(triples)
    cache = CharCache()
    for t in triples:
        assert grouped[t] == kronecker_coefficient(*t, cache), t


@pytest.mark.parametrize("rule", ["kron-translate", "kron-box"])
def test_sweep_kronecker_memo_matches_single_calls(rule):
    # the sweep fills its Kronecker memo a block at a time through the
    # grouped class sums; each value must equal the one-triple call on a
    # cache the sweep never saw
    ctx = SweepContext()
    assert verify_rule(rule, SweepBounds(), ctx=ctx).ok
    assert ctx.kron
    cache = CharCache()
    for key, g in ctx.kron.items():
        assert g == kronecker_coefficient(*key, cache), key


def test_warm_kronecker_call_computes_no_bead_mask(monkeypatch):
    # the second call reads its three rows from cache.rows by partition
    cache = CharCache()
    triple = ((3, 2), (2, 2, 1), (4, 1))
    g = kronecker_coefficient(*triple, cache)

    def no_mask(lam):
        raise AssertionError("bead mask computed on a warm call")

    for module in (powersum, coefficients):
        monkeypatch.setattr(module, "_mask", no_mask, raising=False)
    assert kronecker_coefficient(*triple, cache) == g == 1


def test_rows_index_the_strip_memo_without_copies():
    # every row an engine read is the strip memo's own list, in one order
    cache = CharCache()
    kronecker_coefficient((3, 2), (2, 2, 1), (4, 1), cache)
    assert plethysm_coefficient((2,), (1, 1), (1, 1, 1, 1), cache) == 1
    read = {(3, 2), (2, 2, 1), (4, 1), (2,), (1, 1), (1, 1, 1, 1)}
    assert set(cache.rows) == read
    for lam, row in cache.rows.items():
        assert row is cache.strip[_mask(lam)], lam


def test_kronecker_rejects_malformed_indices():
    with pytest.raises(ValueError):
        kronecker_coefficient((2, 1), (2, 1), (1, 2))
    with pytest.raises(ValueError):
        kronecker_coefficient((2, -1, 1), (2,), (2,))
    # trailing zeros are canonicalised away, not rejected
    assert kronecker_coefficient((2, 1, 0), (2, 1), (3, 0)) == 1


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_kronecker_matches_garsia_remmel_oracle_past_criterion_2(data):
    # weight up to 12, one triple at a time
    w = data.draw(st.integers(0, 12))
    lam, mu, nu = (data.draw(st.sampled_from(partitions_of(w))) for _ in range(3))
    got = kronecker_oracle(lam, mu, nu)
    assert got == kronecker_coefficient(lam, mu, nu)


@pytest.mark.parametrize("w", [12, 14])
def test_kronecker_matches_oracle_table_in_overlap_band(w):
    # every triple with lam of at most 2 rows and mu, nu of at most 3, at
    # weights above criterion 2's 7 where the oracle is still fast; nu walks
    # outermost, so the oracle's memos serve each (lam, mu) at it
    cache = CharCache()
    for nu in partitions_of(w, 3):
        for lam in partitions_of(w, 2):
            for mu in partitions_of(w, 3):
                got = kronecker_coefficient(lam, mu, nu, cache)
                assert got == kronecker_oracle(lam, mu, nu), (lam, mu, nu)


def test_kronecker_enumerates_no_partitions(monkeypatch):
    # the character rows and the class sizes both come from first-part
    # blocks, so no list of partitions is built, at weights 20 and 30; g is
    # symmetric in its arguments, and the oracle is fastest on (10^3) first
    def enumerate_partitions(*args):
        raise AssertionError("partitions_of called")

    cases = [((4,) * 5, (4,) * 5, (4,) * 5, 6), ((6,) * 5, (10,) * 3, (5,) * 6, 5)]
    for lam, mu, nu, g in cases:
        assert kronecker_oracle(mu, lam, nu) == g
    for module in (partitions, powersum, coefficients):
        monkeypatch.setattr(module, "partitions_of", enumerate_partitions, raising=False)
    powersum._size_memo.cache_clear()
    for lam, mu, nu, g in cases:
        assert kronecker_coefficient(lam, mu, nu) == g


def test_kronecker_oracle_strips_trailing_zeros():
    # the oracle's memos are keyed by stripped partitions; g((2),(2),(2)) = 1
    assert kronecker_oracle((2, 0), (2,), (2,)) == 1


def test_kronecker_oracle_rejects_malformed_indices():
    with pytest.raises(ValueError):
        kronecker_oracle((2, 1), (2, 1), (1, 2))


def test_kronecker_oracle_builds_one_garsia_remmel_per_nu(monkeypatch):
    # a loop that walks nu outermost builds the sum's memos once per nu and
    # shares them across every (lam, mu) at it
    built = []

    class Counted(coefficients._GarsiaRemmel):
        def __init__(self, nu):
            built.append(nu)
            super().__init__(nu)

    monkeypatch.setattr(coefficients, "_GarsiaRemmel", Counted)
    coefficients._garsia_remmel.cache_clear()
    walked = []
    for w in range(6):
        for nu in partitions_of(w):
            walked.append(nu)
            for lam in partitions_of(w):
                for mu in partitions_of(w):
                    kronecker_oracle(lam, mu, nu)
    assert built == walked
    coefficients._garsia_remmel.cache_clear()


def test_kronecker_oracle_counts_afresh_once_its_memos_are_cleared(monkeypatch):
    # the memos kept for nu answer a repeated call without an LR count, so a
    # test that breaks a step of the sum clears _garsia_remmel before calling
    def broken(*args):
        raise AssertionError("lr_coefficient called")

    coefficients._garsia_remmel.cache_clear()
    assert kronecker_oracle((2, 1), (2, 1), (2, 1)) == 1
    monkeypatch.setattr(coefficients, "lr_coefficient", broken)
    assert kronecker_oracle((2, 1), (2, 1), (2, 1)) == 1
    coefficients._garsia_remmel.cache_clear()
    with pytest.raises(AssertionError, match="lr_coefficient called"):
        kronecker_oracle((2, 1), (2, 1), (2, 1))
    coefficients._garsia_remmel.cache_clear()


def test_plethysm_symmetric_square_of_vector_forms():
    # Sym^2(Sym^2 V) = S_(4) + S_(2,2)
    assert plethysm_coefficient((2,), (2,), (4,)) == 1
    assert plethysm_coefficient((2,), (2,), (2, 2)) == 1
    assert plethysm_coefficient((2,), (2,), (3, 1)) == 0
    # Sym^2(Wedge^2 V) = S_(2,2) + S_(1,1,1,1)
    assert plethysm_coefficient((2,), (1, 1), (2, 2)) == 1
    assert plethysm_coefficient((2,), (1, 1), (1, 1, 1, 1)) == 1
    assert plethysm_coefficient((2,), (1, 1), (2, 1, 1)) == 0
    # Wedge^2(Wedge^2 V) = S_(2,1,1)
    assert plethysm_coefficient((1, 1), (1, 1), (2, 1, 1)) == 1
    assert plethysm_coefficient((1, 1), (1, 1), (2, 2)) == 0
    # Wedge^2(Sym^2 V) = S_(3,1)
    assert plethysm_coefficient((1, 1), (2,), (3, 1)) == 1


def test_plethysm_degenerate_cases():
    assert plethysm_coefficient((), (), ()) == 1
    assert plethysm_coefficient((), (2,), ()) == 1
    assert plethysm_coefficient((2,), (2,), (5,)) == 0  # weight mismatch
    assert plethysm_coefficient((1,), (2, 1), (2, 1)) == 1


def test_plethysm_rejects_malformed_partition():
    with pytest.raises(ValueError):
        plethysm_coefficient((2,), (1,), (1, 2))


def test_plethysm_oracle_rejects_malformed_partition():
    with pytest.raises(ValueError):
        plethysm_oracle((2,), (1,), (1, 2))


def test_plethysm_full_expansions_weight_4():
    # every nu of weight 4, so both arity branches and the zeros are read
    expect = {
        ((2,), (2,)): {(4,): 1, (2, 2): 1},
        ((1, 1), (1, 1)): {(2, 1, 1): 1},
        ((2,), (1, 1)): {(2, 2): 1, (1, 1, 1, 1): 1},
    }
    for (lam, mu), table in expect.items():
        for nu in partitions_of(4):
            assert plethysm_coefficient(lam, mu, nu) == table.get(nu, 0), (lam, mu, nu)


@pytest.mark.parametrize(
    "mu, nu",
    [((1, 1), (1, 1, 1, 1))],
    ids=["four-rows"],
)
def test_plethysm_non_integral_sum_raises(mu, nu):
    # a doctored outer character row leaves a remainder in the exact
    # division of the power sum route
    cache = CharCache()
    row = char_row((2,), cache)
    cache.rows[(2,)] = (row[0] + 1,) + row[1:]
    with pytest.raises(NonIntegralResult):
        plethysm_coefficient((2,), mu, nu, cache)


def test_plethysm_against_evaluation_oracle():
    for a in range(1, 7):
        for b in range(1, 7):
            if a * b > 6:
                continue
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    for nu in partitions_of(a * b):
                        assert plethysm_coefficient(lam, mu, nu) == plethysm_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)


def test_plethysm_shared_caches_across_outer_weights():
    # one powers/maps pair serves calls whose lam grow in weight at the same
    # mu: the power sum products cached by the first, lightest call past
    # three rows must stay exact for the heavier ones; up to three rows the
    # determinant fills maps and no products
    cache, powers, maps = CharCache(), {}, {}
    for n in (1, 2, 3, 4):
        for mu in ((1,), (2,), (1, 1), (2, 1)):
            if len(mu) > n:
                continue
            for a in range(1, 5):
                if a * sum(mu) > 9:
                    break
                for lam in partitions_of(a):
                    for nu in partitions_of(a * sum(mu), n):
                        if len(nu) != n:
                            continue
                        shared = plethysm_coefficient(lam, mu, nu, cache, powers, maps)
                        assert shared == plethysm_coefficient(lam, mu, nu), (lam, mu, nu)
                        assert shared == plethysm_oracle(lam, mu, nu), (lam, mu, nu)
                        assert (lam, mu, n) in maps, (lam, mu, nu)
                        assert (mu in powers) == (n > POLY_MAX_ARITY), (lam, mu, nu)
    # the products of each mu are read at every arity past three rows
    assert set(powers) == {(1,), (2,), (1, 1), (2, 1)}
    for mu, products in powers.items():
        assert len({sum(rho) for rho in products}) > 2, mu


@pytest.mark.parametrize(
    "lam, mu, nu, value",
    [
        ((2, 2, 2), (4,), (12, 8, 4), 21),
        ((4,), (7,), (16, 8, 4), 6),
        ((6,), (5,), (18, 8, 4), 16),
    ],
)
def test_plethysm_three_row_ladder_values(lam, mu, nu, value):
    # exponent fields reach |nu| = 18 on the packed route
    assert plethysm_coefficient(lam, mu, nu) == value


def test_packed_monomials_round_trip_and_refuse_carries():
    top = (1 << PACK_BITS) - 1
    g = LaurentPoly(3, {(top, 0, 5): 2, (0, top, 0): 1})
    packed = _pack(g, top)
    assert {_unpack_key(key, 3): c for key, c in packed.items()} == g.terms
    with pytest.raises(ValueError):
        _pack(LaurentPoly.constant(3, 1), 1 << PACK_BITS)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_plethysm_matches_oracle_past_criterion_2(data):
    # |nu| up to 12 with one to five rows: both arity branches of the engine
    a = data.draw(st.integers(1, 6))
    b = data.draw(st.integers(1, 12 // a))
    lam = data.draw(st.sampled_from(partitions_of(a)))
    mu = data.draw(st.sampled_from(partitions_of(b)))
    nu = data.draw(st.sampled_from([p for p in partitions_of(a * b) if len(p) <= 5]))
    assert plethysm_coefficient(lam, mu, nu) == plethysm_oracle(lam, mu, nu)


@pytest.mark.parametrize(
    "lam, mu, n, by_determinant",
    [
        ((2,), (2,), 4, False),  # |nu| <= 18
        ((3,), (6,), 4, False),  # |nu| = 18, r = 84
        ((4,), (4, 4), 4, False),  # the ladder rung at (16,8,4,4), r = 105
        ((4, 4), (3, 2), 4, False),  # r = 60
        ((4, 4, 4), (2, 2), 4, False),  # |nu| = 48, r = 20
        ((3,), (2, 2, 2, 1), 4, True),  # |nu| = 21, r = 4
        ((1, 1, 1, 1), (3, 3, 3, 3), 4, True),  # |nu| = 48, r = 1
        ((4,), (4, 4, 3, 3), 4, True),  # |nu| = 56
        ((5,), (3, 3, 3, 3), 4, True),  # |nu| = 60
        ((2,) * 6, (2,), 3, True),  # three rows
    ],
)
def test_plethysm_route_reads_the_maps_key(lam, mu, n, by_determinant):
    # past three rows the determinant takes |nu| > 48, and |nu| > 18 over an
    # alphabet of at most ten letters; plethysm_oracle takes the other route
    assert coefficients._by_determinant(lam, mu, n) is by_determinant


def _unit_law_cases(max_weight, max_rows):
    """(lam, mu, nu, s_lam[s_mu] at nu) over lam |- w, mu = (1), and
    lam = (1), mu |- w, for w <= max_weight, every nu |- w of at most
    max_rows rows."""
    for w in range(1, max_weight + 1):
        for p in partitions_of(w):
            for nu in partitions_of(w, max_rows):
                yield p, (1,), nu, int(nu == p)
                yield (1,), p, nu, int(nu == p)


def _engine_values(monkeypatch, cases):
    """The engine's values with both expansions broken: the unit laws must
    answer every case."""
    with monkeypatch.context() as patched:
        for name in ("_jacobi_trudi_at", "_p_expansion"):
            patched.setattr(coefficients, name, _no_expansion)
        return [plethysm_coefficient(lam, mu, nu) for lam, mu, nu, _ in cases]


def _no_expansion(*args):
    raise AssertionError("a unit law expanded s_lam[s_mu]")


def test_plethysm_unit_laws_up_to_three_rows(monkeypatch):
    # s_lam[s_1] = s_lam and s_1[s_mu] = s_mu for every lam, mu of weight
    # up to 10 and every nu of at most three rows, against the oracle's
    # power sums
    cases = list(_unit_law_cases(10, POLY_MAX_ARITY))
    assert len(cases) == 2 * 1434
    values = _engine_values(monkeypatch, cases)
    for (lam, mu, nu, value), got in zip(cases, values):
        assert got == plethysm_oracle(lam, mu, nu) == value, (lam, mu, nu)


@pytest.mark.parametrize("shape", [(5, 5, 5, 4), (4, 4, 4, 4, 3)], ids=["n4", "n5"])
def test_plethysm_unit_laws_past_three_rows(monkeypatch, shape):
    # at |nu| = 19 in n = length(shape) variables, where the alphabet of
    # s_1 and that of s_shape each have n letters, the engine takes the
    # determinant and the unit laws; every nu of n rows, against the power
    # sums
    n = len(shape)
    cases = [
        case
        for nu in partitions_of(19, n)
        if len(nu) == n
        for case in ((shape, (1,), nu, int(nu == shape)), ((1,), shape, nu, int(nu == shape)))
    ]
    assert all(coefficients._by_determinant(lam, mu, n) for lam, mu, _, _ in cases)
    values = _engine_values(monkeypatch, cases)
    for (lam, mu, nu, value), got in zip(cases, values):
        assert got == plethysm_oracle(lam, mu, nu) == value, (lam, mu, nu)


def test_dropping_the_alphabet_product_from_the_complement_is_caught(monkeypatch):
    # the determinant reads e_k past the middle of the e table as e_(r-k)
    # turned over by the product P of the alphabet.  Without P, playing the
    # engine against the oracle's power sums must flag an instance, with
    # neither lam nor mu equal to (1): the unit laws never reach the e table
    real = coefficients._complemented
    monkeypatch.setattr(coefficients, "_complemented", lambda entry, full: real(entry, 0))
    flagged = []
    for a in range(2, 5):
        for b in range(2, 8 // a + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    for nu in partitions_of(a * b, POLY_MAX_ARITY):
                        try:
                            got = plethysm_coefficient(lam, mu, nu)
                        except ValueError:  # the mutant's polynomial is not symmetric
                            got = None
                        if got != plethysm_oracle(lam, mu, nu):
                            flagged.append((lam, mu, nu))
    assert ((1, 1), (2, 1), (3, 3)) in flagged


# ---------------------------------------------------------------------------
# the determinant against the power sums


PLETHYSM_RULES = (
    "pleth-box-inner",
    "pleth-translate-inner",
    "pleth-box-outer",
    "pleth-translate-outer",
)


@pytest.fixture(scope="module")
def power_sums():
    """<s_lam[s_mu], s_nu> by the power sum route of plethysm_oracle,
    with one CharCache and one product memo per mu shared by every call of
    the module, and each expansion kept per (lam, mu)."""
    cache, products, expansions = CharCache(), {}, {}

    def value(lam, mu, nu):
        coeffs = expansions.get((lam, mu))
        if coeffs is None:
            coeffs = expansions[(lam, mu)] = coefficients._p_expansion(
                lam, mu, products.setdefault(mu, {}), cache
            )
        return coefficients._paired_with_chi(coeffs, lam, mu, nu, cache)

    return value


def test_plethysm_routes_agree_on_the_sweeps_jacobi_trudi_expansions(power_sums):
    # every value, zeros included, of every expansion the four plethysm
    # rules read from the determinant at default bounds, against the power
    # sums: each nu of weight |lam| |mu| with at most n rows
    ctx = SweepContext()
    for rule in PLETHYSM_RULES:
        assert not verify_rule(rule, SweepBounds(), ctx=ctx).counterexamples, rule
    routed = [key for key in ctx.maps if key[2] <= POLY_MAX_ARITY]
    assert ((2,) * 6, (2,), 3) in routed and ((1,) * 8, (3,), 3) in routed
    checked = 0
    for lam, mu, n in routed:
        expansion = ctx.maps[(lam, mu, n)]
        for nu in partitions_of(sum(lam) * sum(mu), n):
            assert power_sums(lam, mu, nu) == expansion.get(nu, 0), (lam, mu, nu)
            checked += 1
    assert (len(routed), checked) == (658, 8423)
