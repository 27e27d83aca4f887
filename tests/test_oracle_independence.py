"""Each oracle computes its values without the engine it checks.

The engine's kernel is replaced by a function that raises, the oracle's
own caches are emptied, and the oracle must still return the pinned values.
"""

from rectsym import coefficients, hall_littlewood, powersum
from rectsym.polyring import TPoly


def _broken(*args, **kwargs):
    raise AssertionError("the oracle called the engine")


def _break(monkeypatch, targets):
    for module, name in targets:
        monkeypatch.setattr(module, name, _broken)


def test_kronecker_oracle_reads_no_characters(monkeypatch):
    _break(
        monkeypatch,
        [
            (powersum, "char_row"),
            (powersum, "_row"),
            (coefficients, "_row"),
            (coefficients, "kronecker_coefficient"),
        ],
    )
    cache = powersum.CharCache()
    pins = [
        ((2, 1), (2, 1), (2, 1), 1),
        ((2, 2), (2, 1, 1), (3, 1), 1),
        ((3, 1), (2, 2), (2, 1, 1), 1),
        ((3, 2, 1), (3, 2, 1), (3, 2, 1), 5),
    ]
    for lam, mu, nu, g in pins:
        got = coefficients.kronecker_oracle(lam, mu, nu, len(lam), len(mu), cache)
        assert got == g, (lam, mu, nu)
    assert not cache.rows
    assert cache.strip == {0: [1]}


def test_lr_oracle_counts_no_lattice_words(monkeypatch):
    _break(monkeypatch, [(coefficients, "lr_coefficient")])
    pins = [
        ((2, 1), (2, 1), (3, 2, 1), 2),
        ((3, 2, 1), (2, 1), (4, 3, 2), 2),
        ((2, 2), (2, 1), (3, 2, 2), 1),
    ]
    for lam, mu, nu, c in pins:
        assert coefficients.lr_coefficient_oracle(lam, mu, nu) == c, (lam, mu, nu)


# where coefficients._by_determinant holds the engine expands the Jacobi-Trudi
# determinant (every nu of up to three rows; longer nu past weight 48, or past
# weight 18 over a short alphabet), so the oracle may expand none; elsewhere
# the engine pairs power sums with characters, so the oracle may read none
PLETHYSM_PINS = [
    ((2,), (2,), (4,), 1),
    ((2,), (2,), (2, 2), 1),
    ((2,), (2,), (2, 1, 1), 0),
    ((1, 1), (2,), (3, 1), 1),
    ((3,), (2,), (4, 2), 1),
    ((2,), (2, 1), (3, 2, 1), 1),
    ((2,) * 6, (2,), (8, 8, 8), 1),
    ((3,), (2, 2, 2, 1), (6, 6, 6, 3), 1),
    ((5, 5, 5, 4), (1,), (5, 5, 5, 4), 1),
    ((2,), (1, 1), (1, 1, 1, 1), 1),
    ((2,), (2,), (1, 1, 1, 1), 0),
    ((1, 1), (1, 1), (2, 1, 1), 1),
    ((2,), (2, 1), (3, 1, 1, 1), 1),
    ((3,), (1, 1), (2, 2, 1, 1), 1),
    ((4,), (4, 4), (16, 8, 4, 4), 2),
]


def _pins(by_determinant):
    """The pins on which the engine takes the determinant, or the power sums."""
    return [
        pin
        for pin in PLETHYSM_PINS
        if coefficients._by_determinant(pin[0], pin[1], len(pin[2])) is by_determinant
    ]


def test_plethysm_power_sum_computes_no_determinant(monkeypatch):
    # where the engine takes the determinant the oracle takes the power sums
    _break(
        monkeypatch,
        [
            (coefficients, "_jacobi_trudi"),
            (coefficients, "_jacobi_trudi_at"),
            (coefficients, "_pleth_oracle_expansion"),
            (coefficients, "plethysm_coefficient"),
        ],
    )
    for lam, mu, nu, c in _pins(True):
        assert coefficients.plethysm_oracle(lam, mu, nu) == c, (lam, mu, nu)


def test_plethysm_oracle_reads_no_characters(monkeypatch):
    # where the engine takes the power sums the oracle expands the determinant
    _break(
        monkeypatch,
        [
            (powersum, "char_row"),
            (powersum, "_row"),
            (coefficients, "_row"),
            (coefficients, "plethysm_coefficient"),
        ],
    )
    coefficients._pleth_oracle_expansion.cache_clear()
    for lam, mu, nu, c in _pins(False):
        assert coefficients.plethysm_oracle(lam, mu, nu) == c, (lam, mu, nu)


def test_kostka_foulkes_oracle_takes_no_charge(monkeypatch):
    # no charge and no tableaux: the oracle never enumerates a filling
    _break(
        monkeypatch,
        [
            (hall_littlewood, "charge"),
            (hall_littlewood, "kostka_foulkes"),
            (hall_littlewood, "iter_ssyt"),
        ],
    )
    hall_littlewood.hl_schur.cache_clear()
    pins = [
        ((2, 1), (1, 1, 1), (0, 1, 1)),
        ((3, 1), (2, 2), (0, 1)),
        ((3, 2, 1), (2, 2, 1, 1), (0, 1, 2, 1)),
    ]
    for lam, mu, coeffs in pins:
        assert hall_littlewood.kostka_foulkes_oracle(lam, mu) == TPoly(coeffs), (lam, mu)
