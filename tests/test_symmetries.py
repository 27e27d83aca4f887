"""Rule appliers, exhaustive verification sweeps, and weight reduction."""

import dataclasses
import json
import re

import pytest

from rectsym import symmetries
from rectsym.coefficients import (
    kronecker_coefficient,
    kronecker_oracle,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from rectsym.hall_littlewood import kostka_foulkes, kostka_foulkes_oracle
from rectsym.partitions import (
    conjugate,
    count_ssyt,
    iter_ssyt,
    partitions_of,
    to_partition,
    translated_partition,
)
from rectsym.powersum import WeightMismatch, char_row, class_sizes
from rectsym.schur import schur_poly_of_partition
from rectsym.symmetries import (
    FAMILY_OF,
    RULE_NAMES,
    Outcome,
    PreconditionViolated,
    SweepBounds,
    SweepContext,
    apply_rule,
    bench_reduction,
    check_reduction,
    coefficient_of,
    reduce_indices,
    reduce_kronecker,
    reduce_plethysm,
    reduced_value,
    tableau_ratio,
    verify_all,
    verify_rule,
)

SMALL = SweepBounds(max_weight=3, max_box=2, max_k=1, max_image_weight=12)


def test_rule_registry():
    assert len(RULE_NAMES) == 10
    assert set(FAMILY_OF) == set(RULE_NAMES)
    assert sorted(set(FAMILY_OF.values())) == ["kf", "kron", "lr", "pleth"]


def test_apply_worked_examples():
    o = apply_rule("kron-box", ((2, 2, 2), (2, 2, 2), (2, 2, 2)), l=2, m=2, n=2)
    assert isinstance(o, Outcome)
    assert o.transformed == ((2,), (2,), (2,))
    assert not o.vanishes

    o = apply_rule("lr-box", ((1,), (1,), (1, 1)), l=1, m=1, n=3)
    assert o.transformed == ((1, 1), (1, 1), (2, 1, 1))

    o = apply_rule("pleth-box-inner", ((2,), (1,), (2,)), m=1, n=3)
    assert o.transformed == ((2,), (1, 1), (2, 2))

    o = apply_rule("kf-box", ((2,), (1, 1)), k=3, n=2)
    assert o.transformed == ((3, 1), (2, 2))

    # (2,1) + ((km)^l) = (2,1) + (2,2) and (2,1) + (k^(lm)) = (2,1) + (1^4)
    o = apply_rule("kron-translate", ((2, 1), (2, 1), (2, 1)), l=2, m=2, k=1)
    assert o.transformed == ((4, 3), (4, 3), (3, 2, 1, 1))

    # mu + (k^n) = (1) + (1,1); nu + ((k|lam|)^n) = (2) + (2,2)
    o = apply_rule("pleth-translate-inner", ((2,), (1,), (2,)), n=2, k=1)
    assert o.transformed == ((2,), (2, 1), (4, 2))

    # r = count_ssyt((1,), 2) = 2 and q = 2*1/2 = 1: lam complemented in
    # 2 x 2, nu in ql x n = 2 x 2
    o = apply_rule("pleth-box-outer", ((1,), (1,), (1,)), l=2, n=2)
    assert o.transformed == ((2, 1), (1,), (2, 1))

    # r = count_ssyt((2,), 2) = 3 and q = 3*2/2 = 3: lam + (1^3), nu + (3,3)
    o = apply_rule("pleth-translate-outer", ((1,), (2,), (2,)), n=2, k=1)
    assert o.transformed == ((2, 1, 1), (2,), (5, 3))

    # both translated by (1^3)
    o = apply_rule("kf-translate", ((2, 1), (1, 1, 1)), n=3, k=1)
    assert o.transformed == ((3, 2, 1), (2, 2, 2))


def test_apply_records_params():
    o = apply_rule("lr-translate", ((1,), (1,), (1, 1)), n=2, k=1)
    assert o.rule == "lr-translate"
    assert dict(o.params) == {"n": 2, "k": 1}


def test_apply_vanishing_branch():
    # (2^5) cannot fit inside the 2 x 4 rectangle
    o = apply_rule("kron-box", ((2,) * 5, (2,) * 5, (2,) * 5), l=2, m=2, n=2)
    assert o.vanishes
    assert o.transformed is None


def test_apply_precondition_errors():
    with pytest.raises(PreconditionViolated) as info:
        apply_rule("lr-box", ((3,), (1,), (3, 1)), l=2, m=1, n=2)
    assert info.value.rule == "lr-box"

    with pytest.raises(PreconditionViolated):
        apply_rule("kf-translate", ((1,), (1,)), n=2, k=-1)

    with pytest.raises(PreconditionViolated):
        apply_rule("lr-box", ((1,), (1,), (1, 1)), l=1, m=1)  # missing n

    with pytest.raises(ValueError):
        apply_rule("no-such-rule", ((), (), ()))


def test_apply_arity_check():
    with pytest.raises(ValueError):
        apply_rule("kf-box", ((1,), (1,), (1, 1)), k=1, n=2)
    with pytest.raises(ValueError):
        apply_rule("lr-box", ((1,), (1,)), l=1, m=1, n=2)


def test_box_rules_are_involutions():
    for rule, idx, params in (
        ("lr-box", ((2, 1), (1,), (2, 1, 1)), dict(l=2, m=1, n=3)),
        ("kron-box", ((2, 1), (2, 1), (3,)), dict(l=2, m=2, n=3)),
        ("kf-box", ((2, 1), (1, 1, 1)), dict(k=2, n=3)),
    ):
        first = apply_rule(rule, idx, **params)
        assert not first.vanishes
        back = apply_rule(rule, first.transformed, **params)
        assert back.transformed == idx


def test_translations_compose_and_invert():
    start = ((1,), (1,), (1, 1))
    a = apply_rule("lr-translate", start, n=2, k=1).transformed
    b = apply_rule("lr-translate", a, n=2, k=1).transformed
    c = apply_rule("lr-translate", start, n=2, k=2).transformed
    assert b == c == ((3, 2), (1,), (3, 3))
    assert apply_rule("lr-translate", c, n=2, k=-2).transformed == start


@pytest.mark.parametrize(
    "rule, indices, floors",
    [
        ("lr-box", ((2, 1), (3,), (3, 2, 1)), {"l": 2, "m": 3, "n": 3}),
        ("lr-translate", ((3, 2, 1), (1,), (3, 2, 2)), {"n": 3, "k": -1}),
        ("kron-box", ((3, 1), (2, 2), (2, 1, 1)), {"l": 3, "m": 2, "n": 2}),
        ("kron-translate", ((2, 1), (2, 2), (2, 2, 1, 1)), {"l": 2, "m": 2, "k": -1}),
        ("pleth-box-inner", ((2,), (2, 1), (3, 2, 1)), {"m": 2, "n": 3}),
        ("pleth-translate-inner", ((2,), (2, 1, 1), (3, 3, 2)), {"n": 3, "k": -1}),
        ("pleth-box-outer", ((2, 1), (1,), (2, 1)), {"l": 2, "n": 2}),
        ("pleth-box-outer", ((1,), (2,), ()), {"l": 1, "n": 1}),
        # r = count_ssyt((1,), 2) = 2 rows of lam are translated
        ("pleth-translate-outer", ((1, 1), (1,), (1, 1)), {"n": 2, "k": -1}),
        ("kf-box", ((3, 1), (2, 1, 1)), {"k": 3, "n": 3}),
        ("kf-translate", ((2, 2, 1), (2, 2, 1)), {"n": 3, "k": -1}),
    ],
)
def test_apply_rule_hypotheses_are_parameter_floors(rule, indices, floors):
    # every parameter at its floor is accepted; each one alone a step below
    # is refused with a message naming the parameter and the floor
    apply_rule(rule, indices, **floors)
    for name, floor in floors.items():
        with pytest.raises(
            PreconditionViolated, match=f"^{rule}: parameter {name} must be at least {floor}$"
        ):
            apply_rule(rule, indices, **{**floors, name: floor - 1})


def test_shift_floor_matches_translated_partition():
    # p + (k^rows) is a partition exactly when k >= p_{rows+1} - p_rows
    cases = 0
    for w in range(11):
        for p in partitions_of(w):
            for rows in range(8):
                floor = symmetries._shift_floor(p, rows)
                for k in range(-8, 9):
                    assert (translated_partition(p, k, rows) is not None) == (k >= floor), (
                        p, rows, k,
                    )
                    cases += 1
    assert cases == 18904


def _outer_counts(mu, n):
    """(r, q) of the outer plethysm rules: r = count_ssyt(mu, n), q = r|mu|/n."""
    r = count_ssyt(mu, n)
    q, rem = divmod(r * sum(mu), n)
    assert rem == 0, (mu, n)
    return r, q


def _pleth_box_outer_image(lam, mu, nu, l, n):
    r, q = _outer_counts(mu, n)
    return (l * r - sum(lam), sum(mu), q * l * n - sum(nu)), ((l, r), None, (q * l, n))


def _pleth_translate_outer_image(lam, mu, nu, n, k):
    r, q = _outer_counts(mu, n)
    return (sum(lam) + k * r, sum(mu), sum(nu) + q * k * n), r


# What the paper says each rule's image is, from the indices and parameters
# alone: (weights, extent).  weights: the weight of each image index.
# extent: for a box rule, the (width, height) box each complemented index fits
# in, or None for an index the rule keeps; for a translation, a row count of
# its rectangles that is 0 only when they are all empty, so that k != 0 must
# change the weight unless it is 0.
PAPER_IMAGES = {
    "lr-box": lambda lam, mu, nu, l, m, n: (
        (l * n - sum(lam), m * n - sum(mu), (l + m) * n - sum(nu)),
        ((l, n), (m, n), (l + m, n)),
    ),
    "lr-translate": lambda lam, mu, nu, n, k: (
        (sum(lam) + k * n, sum(mu), sum(nu) + k * n), n,
    ),
    "kron-box": lambda lam, mu, nu, l, m, n: (
        (l * m * n - sum(lam),) * 3, ((l, m * n), (m, l * n), (n, l * m)),
    ),
    "kron-translate": lambda lam, mu, nu, l, m, k: ((sum(lam) + k * l * m,) * 3, l * m),
    "pleth-box-inner": lambda lam, mu, nu, m, n: (
        (sum(lam), m * n - sum(mu), m * sum(lam) * n - sum(nu)),
        (None, (m, n), (m * sum(lam), n)),
    ),
    "pleth-translate-inner": lambda lam, mu, nu, n, k: (
        (sum(lam), sum(mu) + k * n, sum(nu) + k * sum(lam) * n), n,
    ),
    "pleth-box-outer": _pleth_box_outer_image,
    "pleth-translate-outer": _pleth_translate_outer_image,
    "kf-box": lambda lam, mu, k, n: ((k * n - sum(lam), k * n - sum(mu)), ((k, n), (k, n))),
    "kf-translate": lambda lam, mu, n, k: ((sum(lam) + k * n, sum(mu) + k * n), n),
}


def _paper_image_misfits(rule, bounds):
    """(instances, misfits): how many instances the sweep at bounds walks for
    the rule, and those whose transformed image differs from PAPER_IMAGES in
    an index weight, a box fit, or a weight change under k != 0; no
    coefficient is computed."""
    instances = 0
    misfits = []
    for indices, params in symmetries._instances(rule, bounds):
        instances += 1
        image = symmetries._apply(rule, indices, params)
        if image is None:
            continue
        weights, extent = PAPER_IMAGES[rule](*indices, **params)
        fits = tuple(sum(p) for p in image) == weights
        if rule in symmetries.BOX_PARAMS:
            for p, box in zip(image, extent):
                if box is not None:
                    width, height = box
                    fits = fits and (p[0] if p else 0) <= width and len(p) <= height
        elif params["k"] and extent:
            fits = fits and sum(map(sum, image)) != sum(map(sum, indices))
        if not fits:
            misfits.append((indices, params, image))
    return instances, misfits


def test_rule_images_match_the_paper_without_coefficients():
    # every instance the default sweep walks, and no coefficient computed
    instances = 0
    for rule in RULE_NAMES:
        walked, misfits = _paper_image_misfits(rule, SweepBounds())
        assert not misfits, (rule, misfits[:3])
        instances += walked
    assert instances == 34508


def _floors():
    """(rule, parameter) for every box dimension and row count with a floor."""
    return [
        pytest.param(rule, name, id=f"{rule}-{name}")
        for rule in RULE_NAMES
        for name in symmetries.RULES[rule].floors(
            *((),) * symmetries.FAMILIES[FAMILY_OF[rule]].arity
        )
    ]


@pytest.mark.parametrize("rule, name", _floors())
def test_every_box_and_row_floor_is_needed(monkeypatch, rule, name):
    # one floor lowered by one, never below the parameter's least legal value
    # (the outer plethysm rules divide by n), and a small sweep must find a
    # counterexample
    real = symmetries.RULES[rule]
    least = 1 if rule.endswith("-outer") and name == "n" else 0

    def lowered(*indices):
        floors = real.floors(*indices)
        return {**floors, name: max(least, floors[name] - 1)}

    monkeypatch.setitem(symmetries.RULES, rule, dataclasses.replace(real, floors=lowered))
    report = verify_rule(rule, SweepBounds(max_weight=4, max_box=3))
    assert report.counterexamples, (rule, name, report.checked)


# Wrong images a rule could be written with, each mutate(indices, image) of a
# transformed image: the indices themselves (which no coefficient tells
# apart), the first index conjugated, "vanishes" in place of any image heavier
# than its instance, and, on three-index rules, the last two indices swapped
IMAGE_MUTATIONS = {
    "identity": lambda indices, image: indices,
    "conjugated-first": lambda indices, image: (conjugate(image[0]),) + image[1:],
    "vanish-if-heavier": lambda indices, image: (
        None if sum(map(sum, image)) > sum(map(sum, indices)) else image
    ),
    "swapped-last-two": lambda indices, image: (image[0], image[2], image[1]),
}


def _image_mutations():
    return [
        pytest.param(rule, mutation, id=f"{rule}-{mutation}")
        for rule in RULE_NAMES
        for mutation in IMAGE_MUTATIONS
        if mutation != "swapped-last-two" or symmetries.FAMILIES[FAMILY_OF[rule]].arity == 3
    ]


@pytest.mark.parametrize("rule, mutation", _image_mutations())
def test_every_image_mutation_is_caught(monkeypatch, rule, mutation):
    # the mutated image must misfit the paper's weights and boxes, or a small
    # sweep must find a counterexample; g is symmetric in its three indices,
    # so no Kronecker value tells a swapped image apart, and the sweep of a
    # Kronecker rule must stay silent on it
    real = symmetries.RULES[rule]
    mutate = IMAGE_MUTATIONS[mutation]

    def wrong(indices, **params):
        image = real.image(indices, **params)
        return None if image is None else mutate(indices, image)

    monkeypatch.setitem(symmetries.RULES, rule, dataclasses.replace(real, image=wrong))
    bounds = SweepBounds(max_weight=4, max_box=3)
    _, misfits = _paper_image_misfits(rule, bounds)
    report = verify_rule(rule, bounds)
    if mutation == "swapped-last-two" and FAMILY_OF[rule] == "kron":
        assert not report.counterexamples, (rule, report.counterexamples[:3])
    else:
        assert misfits or report.counterexamples, (rule, mutation, report.checked)


# (checked, transformed, vanished, skipped) per rule at SweepBounds(), the
# counts perfbench/workloads.py pins as PINNED_RULES
PINNED_SWEEP = {
    "lr-box": (6661, 2855, 3806, 0),
    "lr-translate": (4464, 3551, 913, 0),
    "kron-box": (3401, 2499, 902, 0),
    "kron-translate": (8309, 7349, 960, 0),
    "pleth-box-inner": (1442, 1338, 104, 371),
    "pleth-translate-inner": (2994, 2916, 78, 215),
    "pleth-box-outer": (1577, 701, 876, 464),
    "pleth-translate-outer": (2949, 1503, 1446, 345),
    "kf-box": (375, 105, 270, 0),
    "kf-translate": (941, 525, 416, 0),
}

# the plethysm rules with k down to -3 and an image cap below max_weight;
# the cap skips transformed instances only, so vanishing ones are all checked
CAPPED = SweepBounds(max_k=3, max_image_weight=4)
PINNED_CAPPED = {
    "pleth-box-inner": (573, 469, 104, 1240),
    "pleth-translate-inner": (1351, 1270, 81, 2879),
    "pleth-box-outer": (1252, 376, 876, 789),
    "pleth-translate-outer": (2653, 725, 1928, 1734),
}


@pytest.mark.parametrize(
    "rule, bounds, counts",
    [pytest.param(rule, SweepBounds(), c, id=rule) for rule, c in PINNED_SWEEP.items()]
    + [pytest.param(rule, CAPPED, c, id=f"{rule}-capped") for rule, c in PINNED_CAPPED.items()],
)
def test_sweep_counts_pinned(rule, bounds, counts):
    rep = verify_rule(rule, bounds)
    assert rep.ok, rep.counterexamples[:3]
    assert (rep.checked, rep.transformed, rep.vanished, rep.skipped) == counts


def test_tableau_ratio():
    assert tableau_ratio((1,), 2) == 1
    assert tableau_ratio((2, 1), 3) == 8
    assert tableau_ratio((), 3) == 0
    with pytest.raises(ValueError):
        tableau_ratio((1,), 0)


def test_tableau_count_matches_count_ssyt_and_ratio():
    for w in range(7):
        for mu in partitions_of(w):
            for n in range(1, 5):
                want = (count_ssyt(mu, n), tableau_ratio(mu, n))
                assert symmetries._tableau_count(mu, n) == want, (mu, n)


def test_value_calls_each_engine_once_per_key(monkeypatch):
    # one rule per family through one context: every engine call is a memo
    # miss, and the memo's keys are exactly the values the sweep read
    # (a Kronecker sweep fills its misses a block at a time, each block in
    # one call to _kronecker_class_sums, so keys lists every key a call computes)
    calls = {}

    def counted(family, name, keys):
        engine = getattr(symmetries, name)
        seen = calls[family] = []

        def wrapper(*args):
            seen.extend(keys(args))
            return engine(*args)

        monkeypatch.setattr(symmetries, name, wrapper)

    counted("lr", "lr_coefficient", lambda args: [args])
    counted("kron", "_kronecker_class_sums", lambda args: args[0])
    counted("pleth", "plethysm_coefficient", lambda args: [args[:3]])
    counted("kf", "kostka_foulkes", lambda args: [args])
    ctx = SweepContext()
    for rule in ("lr-box", "kron-translate", "pleth-box-outer", "kf-translate"):
        assert verify_rule(rule, SMALL, ctx).ok
    for family, seen in calls.items():
        assert seen, family
        assert len(seen) == len(set(seen)), family
        assert set(seen) == set(getattr(ctx, family)), family


def test_pleth_value_pins():
    ctx = SweepContext()

    def pleth(lam, mu, nu, ctx=None):
        return coefficient_of("pleth", (lam, mu, nu), ctx)

    assert pleth((2,), (2,), (4,), ctx) == 1
    assert pleth((2,), (2,), (2, 2), ctx) == 1
    assert pleth((2,), (2,), (3, 1), ctx) == 0
    assert pleth((1, 1), (1, 1), (2, 1, 1), ctx) == 1
    assert pleth((1, 1), (1, 1), (2, 2), ctx) == 0
    # empty-target conventions: s_lam[s_mu] has constant term only when the
    # evaluation collapses to a scalar
    assert pleth((), (), ()) == 1
    assert pleth((), (3, 1), ()) == 1
    assert pleth((2,), (), ()) == 1
    assert pleth((1, 1), (), ()) == 0


def test_coefficient_of_dispatch():
    ctx = SweepContext()
    assert coefficient_of("lr", ((1,), (1,), (2,)), ctx) == 1
    assert coefficient_of("kron", ((2,), (2,), (2,)), ctx) == 1
    assert coefficient_of("pleth", ((2,), (2,), (4,)), ctx) == 1
    kf = coefficient_of("kf", ((2, 1), (1, 1, 1)), ctx)
    assert kf.subs(1) == 2
    with pytest.raises(ValueError):
        coefficient_of("nope", ((), (), ()), ctx)


def test_verify_each_rule_small():
    ctx = SweepContext()
    for rule in RULE_NAMES:
        rep = verify_rule(rule, SMALL, ctx)
        assert rep.ok, (rule, rep.counterexamples[:3])
        assert rep.checked > 0
        assert rep.checked == rep.transformed + rep.vanished


def test_verify_vanishing_branches_covered():
    rep = verify_rule("kron-box", SMALL)
    assert rep.vanished > 0


def test_verify_parallel_matches_serial():
    serial = verify_rule("kron-box", SMALL)
    parallel = verify_rule("kron-box", SMALL, jobs=2)
    for field in ("checked", "transformed", "vanished", "skipped"):
        assert getattr(serial, field) == getattr(parallel, field)
    assert serial.counterexamples == parallel.counterexamples


@pytest.mark.parametrize("rule", ["kron-box", "kron-translate"])
def test_verify_parallel_counterexamples_in_serial_order(monkeypatch, rule):
    # a faulty Kronecker value for one-row lam breaks the rule on instances
    # that both workers of the forked pool see; each worker forms its own
    # blocks of the instances it checks
    real = symmetries._value

    def faulty(family, indices, ctx):
        value = real(family, indices, ctx)
        return value + 1 if len(indices[0]) == 1 else value

    monkeypatch.setattr(symmetries, "_value", faulty)
    serial = verify_rule(rule, SMALL).as_dict(with_timing=False)
    parallel = verify_rule(rule, SMALL, jobs=2).as_dict(with_timing=False)
    assert len(serial["counterexamples"]) >= 2
    assert json.dumps(parallel) == json.dumps(serial)


def _doctored_sweep(monkeypatch, rule, engine, permute):
    """verify_rule on SMALL with the rule's image permuted, and the
    counterexamples the engine finds directly, with no memo in between."""
    real = symmetries.RULES[rule]

    def wrong(indices, **params):
        image = real.image(indices, **params)
        return None if image is None else permute(image)

    monkeypatch.setitem(symmetries.RULES, rule, dataclasses.replace(real, image=wrong))
    expected = []
    for indices, params in symmetries._instances(rule, SMALL):
        image = wrong(indices, **params)
        right = 0 if image is None else engine(*image)
        if engine(*indices) != right:
            expected.append(([list(p) for p in indices], params))
    report = verify_rule(rule, SMALL)
    return [(ce["indices"], ce["params"]) for ce in report.counterexamples], expected


def test_wrong_lr_image_is_a_counterexample(monkeypatch):
    # c(nu', mu; lam') in place of c(lam', mu; nu'): a memo keyed by anything
    # looser than the ordered triple would hide some of these
    found, expected = _doctored_sweep(
        monkeypatch, "lr-translate", lr_coefficient, lambda t: (t[2], t[1], t[0])
    )
    assert expected
    assert found == expected


def test_wrong_kf_image_is_a_counterexample(monkeypatch):
    # K(mu', lam') in place of K(lam', mu'), wrong unless lam == mu
    found, expected = _doctored_sweep(
        monkeypatch, "kf-translate", kostka_foulkes, lambda t: (t[1], t[0])
    )
    assert expected
    assert found == expected


def test_counterexample_params_keep_the_rules_order(monkeypatch):
    # the sweep nests lr-box's n outermost; a counterexample still lists
    # l, m, n, the order of --box
    found, expected = _doctored_sweep(
        monkeypatch, "lr-box", lr_coefficient, lambda t: (t[2], t[1], t[0])
    )
    assert found and found == expected
    assert {tuple(params) for _, params in found} == {("l", "m", "n")}


def test_verify_all_shape():
    reports = verify_all(SMALL, rules=("lr-box", "kf-translate"))
    assert [rep.rule for rep in reports] == ["lr-box", "kf-translate"]
    for rep in reports:
        assert rep.ok
        d = rep.as_dict()
        assert set(d) == {
            "rule",
            "checked",
            "transformed",
            "vanished",
            "skipped",
            "counterexamples",
            "elapsed_s",
        }
        assert "elapsed_s" not in rep.as_dict(with_timing=False)


def test_reduce_kronecker_rectangles():
    r = reduce_kronecker((3,) * 8, (3,) * 8, (3,) * 8)
    assert r.reduced == ((3,), (3,), (3,))
    assert r.weight_before == 24 and r.weight_after == 3
    assert [s["op"] for s in r.chain] == ["complement"]
    assert check_reduction(r)


def test_reduce_kronecker_to_empty():
    r = reduce_kronecker((1,), (1,), (1,))
    assert r.reduced == ((), (), ())
    assert r.weight_after == 0
    assert check_reduction(r)


def test_reduce_kronecker_identity():
    r = reduce_kronecker((4, 4), (4, 4), (4, 4))
    assert r.reduced == ((4, 4), (4, 4), (4, 4))
    assert not r.chain
    assert r.weight_after == 8
    assert len(r.candidates) == 4


def test_reduce_kronecker_conjugation_pattern():
    # id boxes give 2*2*6-6 = 18; conjugating (mu, nu) gives 2*3*1-6 = 0
    r = reduce_kronecker((2, 2, 2), (2, 2, 2), (6,))
    assert r.weight_after == 0
    assert r.chain[0]["op"] == "conjugate"
    assert check_reduction(r)


def test_reduce_kronecker_mixed():
    r = reduce_kronecker((3, 1), (3, 1), (4,))
    assert r.weight_after == 2
    assert [s["op"] for s in r.chain] == ["conjugate", "complement"]
    assert r.reduced == ((2,), (1, 1), (1, 1))
    assert check_reduction(r)
    assert reduced_value(r) == 1


def test_reduce_kronecker_weight_guard():
    with pytest.raises(WeightMismatch):
        reduce_kronecker((2,), (1,), (2,))


def test_reduce_plethysm_conjugate():
    r = reduce_plethysm((2,), (2,), (3, 1))
    assert r.weight_after == 2
    assert r.chain[0] == {"op": "conjugate", "arguments": ["mu", "nu"]}
    assert r.reduced == ((2,), (1,), (1, 1))
    assert check_reduction(r)
    assert reduced_value(r) == 0


def test_reduce_plethysm_odd_inner_flips_lam():
    r = reduce_plethysm((1, 1), (1,), (1, 1))
    assert r.chain and r.chain[0]["arguments"] == ["lambda", "mu", "nu"]
    assert r.weight_after == 0
    assert check_reduction(r)


def test_reduce_plethysm_length_precheck():
    r = reduce_plethysm((1,), (1, 1), (2,))
    assert r.vanishes
    assert r.reduced is None
    assert r.chain[0]["op"] == "vanishes"
    assert coefficient_of("pleth", ((1,), (1, 1), (2,))) == 0


def test_reduce_plethysm_identity():
    # id candidate weighs 3*3*2-6 = 12, conjugate 2*4*2-6 = 10, both >= 6
    r = reduce_plethysm((2,), (2, 1), (4, 1, 1))
    assert not r.chain
    assert r.weight_after == 6
    assert check_reduction(r)


def test_reduce_plethysm_weight_guard():
    with pytest.raises(WeightMismatch):
        reduce_plethysm((2,), (2,), (3,))


def test_reduce_indices_dispatch():
    r = reduce_indices("kronecker", ((1,), (1,), (1,)))
    assert r.family == "kronecker"
    r = reduce_indices("plethysm", ((1,), (1, 1), (2,)))
    assert r.vanishes
    with pytest.raises(ValueError, match="^no reduction planner for family 'lr'$"):
        reduce_indices("lr", ((1,), (1,), (2,)))
    with pytest.raises(ValueError, match="^no reduction planner for family 'kf'$"):
        reduce_indices("kf", ((1,), (1,)))


def test_reduction_report_schema():
    d = reduce_kronecker((1,), (1,), (1,)).as_dict()
    assert set(d) == {
        "family",
        "original",
        "chain",
        "reduced",
        "weight_before",
        "weight_after",
        "candidates",
        "vanishes",
    }
    assert d["original"] == [[1], [1], [1]]
    assert d["reduced"] == [[], [], []]


def _kronecker_triples():
    # every triple of weight <= 4
    for w in range(5):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                for nu in partitions_of(w):
                    yield lam, mu, nu


def _plethysm_triples():
    # every triple with 1 <= |nu| <= 5 and |lam| * |mu| = |nu|
    for total in range(1, 6):
        for outer in range(1, total + 1):
            if total % outer == 0:
                for lam in partitions_of(outer):
                    for mu in partitions_of(total // outer):
                        for nu in partitions_of(total):
                            yield lam, mu, nu


@pytest.mark.parametrize(
    "planner, triples, count, strict",
    [
        pytest.param(reduce_kronecker, _kronecker_triples, 162, 133, id="kronecker"),
        pytest.param(reduce_plethysm, _plethysm_triples, 195, 112, id="plethysm"),
    ],
)
def test_check_reduction_exhaustive_small(planner, triples, count, strict):
    # strict: the plan vanishes or lands strictly below the original weight
    ctx = SweepContext()
    reports = [planner(*t) for t in triples()]
    for r in reports:
        assert check_reduction(r, ctx), r.original
    assert len(reports) == count
    lighter = [r for r in reports if r.vanishes or r.weight_after < r.weight_before]
    assert len(lighter) == strict


def test_kronecker_candidates_match_the_conjugated_triple():
    # the planner reads each box side off a first part or a length; the first
    # parts of the explicitly conjugated triple must give the same boxes
    for triple in symmetries._same_weight_triples(7):
        for c in reduce_kronecker(*triple).candidates:
            l, m, n = (p[0] if p else 0 for p in symmetries._conjugated(triple, c["conjugate"]))
            assert c["boxes"] == [l, m, n], triple
            assert c["weight"] == l * m * n - sum(triple[0]), triple


def test_plethysm_candidates_match_the_conjugated_triple():
    for lam, mu, nu in symmetries._pleth_triples(6):
        for c in reduce_plethysm(lam, mu, nu).candidates:
            _, inner, outer = symmetries._conjugated((lam, mu, nu), c["conjugate"])
            m, n = inner[0] if inner else 0, len(outer)
            assert (c["m"], c["n"]) == (m, n), (lam, mu, nu)
            assert c["applicable"] == (len(inner) <= n), (lam, mu, nu)
            assert c["weight"] == m * n * sum(lam) - sum(nu), (lam, mu, nu)


def test_rectangle_family_values():
    ctx = SweepContext()
    vals = {}
    for k in range(7):
        lam = (2,) * k
        vals[k] = coefficient_of("kron", (lam, lam, lam), ctx)
    assert [vals[k] for k in range(7)] == [1, 1, 1, 1, 1, 0, 0]


def test_bench_reduction():
    b = bench_reduction("kronecker", ((3,) * 8, (3,) * 8, (3,) * 8), repeats=1)
    assert b["value"] == 1
    assert b["reduced_s"] < b["naive_s"]
    assert b["weight_before"] == 24 and b["weight_after"] == 3
    for family in ("lr", "nope"):
        with pytest.raises(ValueError):
            bench_reduction(family, ((1,), (1,), (2,)), repeats=1)


@pytest.mark.parametrize("repeats", [0, -1])
def test_bench_reduction_rejects_repeats_below_one(repeats):
    with pytest.raises(ValueError, match="repeats"):
        bench_reduction("kronecker", ((2, 1), (2, 1), (2, 1)), repeats=repeats)


@pytest.mark.parametrize("field", ["max_weight", "max_box", "max_k", "max_image_weight"])
def test_sweep_bounds_reject_negative_fields(field):
    with pytest.raises(ValueError, match=field):
        SweepBounds(**{field: -1})
    assert getattr(SweepBounds(**{field: 0}), field) == 0


def _rejecting_calls():
    """One param per public entry point: its arity and call(indices, ctx),
    which passes ctx where the entry point takes one."""
    calls = []
    for family, arity in (("lr", 3), ("kron", 3), ("pleth", 3), ("kf", 2)):
        for shared in (False, True):

            def call(idx, ctx, family=family, shared=shared):
                return coefficient_of(family, idx, ctx if shared else None)

            name = f"coefficient_of-{family}" + ("-shared" if shared else "")
            calls.append((name, arity, call))
    calls += [
        ("apply_rule", 3, lambda idx, ctx: apply_rule("lr-box", idx, l=3, m=3, n=3)),
        ("reduce_kronecker", 3, lambda idx, ctx: reduce_kronecker(*idx)),
        ("reduce_plethysm", 3, lambda idx, ctx: reduce_plethysm(*idx)),
        ("bench_reduction", 3, lambda idx, ctx: bench_reduction("kronecker", idx, repeats=1)),
        ("lr_coefficient", 3, lambda idx, ctx: lr_coefficient(*idx)),
        ("kronecker_coefficient", 3, lambda idx, ctx: kronecker_coefficient(*idx)),
        ("plethysm_coefficient", 3, lambda idx, ctx: plethysm_coefficient(*idx)),
        ("kostka_foulkes", 2, lambda idx, ctx: kostka_foulkes(*idx)),
    ]
    return [pytest.param(arity, call, id=name) for name, arity, call in calls]


def _wrong_count_calls():
    """One param per entry point that takes an index tuple, and per family
    or rule: the name its message starts with, the count it wants, a wrong
    count, and call(indices, ctx)."""
    calls = []
    for family, want, got in (("lr", 3, 2), ("kron", 3, 2), ("pleth", 3, 2), ("kf", 2, 3)):

        def call(idx, ctx, family=family):
            return coefficient_of(family, idx, ctx)

        calls.append((f"{family}-{got}", family, want, got, call))
    calls += [
        (
            "apply_rule-lr-box-2",
            "lr-box", 3, 2,
            lambda idx, ctx: apply_rule("lr-box", idx, l=2, m=2, n=2),
        ),
        ("apply_rule-kf-box-3", "kf-box", 2, 3, lambda idx, ctx: apply_rule("kf-box", idx, k=2, n=2)),
    ]
    for family in ("kronecker", "plethysm"):
        for got in (2, 4):
            calls += [
                (
                    f"reduce_indices-{family}-{got}",
                    family, 3, got,
                    lambda idx, ctx, family=family: reduce_indices(family, idx),
                ),
                (
                    f"bench_reduction-{family}-{got}",
                    family, 3, got,
                    lambda idx, ctx, family=family: bench_reduction(family, idx, repeats=1),
                ),
            ]
    return [
        pytest.param(name, want, got, call, id=param_id)
        for param_id, name, want, got, call in calls
    ]


@pytest.mark.parametrize("name, want, got, call", _wrong_count_calls())
def test_coefficient_of_rejects_wrong_index_count(name, want, got, call):
    # every entry point that takes an index tuple reads the count from the
    # family's arity in FAMILIES
    # and words the error alike, before a memo is touched
    ctx = SweepContext()
    with pytest.raises(ValueError, match=f"^{name} acts on {want} partitions, got {got}$"):
        call(((1,),) * got, ctx)
    assert not any((ctx.lr, ctx.kf, ctx.kron, ctx.pleth, ctx.maps, ctx.powers))


def test_coefficient_of_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        coefficient_of("nope", ((1,), (1,), (2,)))


# each family with two spellings, by its FAMILIES key and by its name, and an
# index tuple of it that the planned families reduce to a lighter one
TWO_SPELLINGS = [
    pytest.param("kron", "kronecker", ((2, 2), (2, 2), (4,)), id="kron"),
    pytest.param("pleth", "plethysm", ((2,), (2, 2), (4, 4)), id="pleth"),
    pytest.param("kf", "kostka-foulkes", ((2, 1), (1, 1, 1)), id="kf"),
]
PLANNED_SPELLINGS = TWO_SPELLINGS[:2]


@pytest.mark.parametrize("key, name, indices", TWO_SPELLINGS)
def test_coefficient_of_reads_either_spelling(key, name, indices):
    assert coefficient_of(name, indices) == coefficient_of(key, indices)


@pytest.mark.parametrize("key, name, indices", PLANNED_SPELLINGS)
def test_reduce_indices_reads_either_spelling(key, name, indices):
    by_key = reduce_indices(key, indices)
    assert by_key.chain
    assert by_key == reduce_indices(name, indices)
    # the report keeps the command-line name, whichever spelling planned it
    assert by_key.family == name
    assert reduced_value(by_key) == coefficient_of(key, indices)
    assert check_reduction(by_key)


@pytest.mark.parametrize("key, name, indices", PLANNED_SPELLINGS)
def test_bench_reduction_reads_either_spelling(key, name, indices):
    timings = ("naive_s", "reduced_s")
    by_key, by_name = (
        {k: v for k, v in bench_reduction(f, indices, repeats=1).items() if k not in timings}
        for f in (key, name)
    )
    assert by_key == by_name
    assert by_key["family"] == name


@pytest.mark.parametrize(
    "call",
    [reduce_indices, lambda family, idx: bench_reduction(family, idx, repeats=1)],
    ids=["reduce_indices", "bench_reduction"],
)
def test_planned_entry_points_reject_unknown_family(call):
    # worded as coefficient_of words it
    with pytest.raises(ValueError, match="^unknown family 'nope'$"):
        call("nope", ((1,), (1,), (2,)))


def test_verify_rejects_unknown_rule_before_any_work(monkeypatch):
    swept = []
    monkeypatch.setattr(symmetries, "_sweep_stride", lambda *a, **k: swept.append(a))
    with pytest.raises(ValueError, match="unknown rule 'nope'"):
        verify_rule("nope", SMALL)
    with pytest.raises(ValueError, match="unknown rule 'nope'"):
        verify_all(SMALL, rules=("kf-box", "nope"))
    assert swept == []


@pytest.mark.parametrize("name", [["kron"], {}], ids=["list", "dict"])
@pytest.mark.parametrize(
    "kind, call",
    [
        ("family", lambda name: coefficient_of(name, ((1,), (1,), (2,)))),
        ("family", lambda name: reduce_indices(name, ((1,), (1,), (2,)))),
        ("family", lambda name: bench_reduction(name, ((1,), (1,), (2,)), repeats=1)),
        ("rule", lambda name: verify_rule(name, SMALL)),
        ("rule", lambda name: verify_all(SMALL, rules=("kf-box", name))),
        ("rule", lambda name: apply_rule(name, ((1,), (1,), (2,)), l=1, m=1, n=2)),
    ],
    ids=[
        "coefficient_of", "reduce_indices", "bench_reduction",
        "verify_rule", "verify_all", "apply_rule",
    ],
)
def test_entry_points_reject_unhashable_names(monkeypatch, kind, call, name):
    # an unhashable name is an unknown one, worded as for any other name
    swept = []
    monkeypatch.setattr(symmetries, "_sweep_stride", lambda *a, **k: swept.append(a))
    with pytest.raises(ValueError, match=f"^{re.escape(f'unknown {kind} {name!r}')}$"):
        call(name)
    assert swept == []


@pytest.mark.parametrize(
    "bad, message",
    [((1, 2), "not weakly decreasing"), ((2, -1), "negative part")],
    ids=["unsorted", "negative"],
)
@pytest.mark.parametrize("arity, call", _rejecting_calls())
def test_entry_points_reject_malformed_partitions_alike(arity, call, bad, message):
    # the malformed partition in each slot in turn, the other slots valid:
    # the check comes before any weight test, and before a memo is written
    ctx = SweepContext()
    for slot in range(arity):
        indices = tuple(bad if i == slot else (1,) for i in range(arity))
        with pytest.raises(ValueError, match=message):
            call(indices, ctx)
    assert not any((ctx.lr, ctx.kf, ctx.kron, ctx.pleth, ctx.maps, ctx.powers))


class _Int(int):
    """An int subclass, which operator.index passes through."""


def _integer_reading_calls():
    """One param per public entry point that reads an integer: call(x), with
    x a part of a partition, a rule parameter, a sweep bound or a count of
    variables or tableau entries."""
    calls = [
        ("to_partition", lambda x: to_partition((x, 1))),
        ("lr_coefficient", lambda x: lr_coefficient((x,), (1,), (3,))),
        ("lr_coefficient_oracle", lambda x: lr_coefficient_oracle((x,), (1,), (3,))),
        ("kronecker_coefficient", lambda x: kronecker_coefficient((x,), (2,), (2,))),
        ("kronecker_oracle", lambda x: kronecker_oracle((x,), (2,), (2,))),
        ("plethysm_coefficient", lambda x: plethysm_coefficient((x,), (1,), (2,))),
        ("plethysm_oracle", lambda x: plethysm_oracle((x,), (1,), (2,))),
        ("kostka_foulkes", lambda x: kostka_foulkes((x,), (2,))),
        ("kostka_foulkes_oracle", lambda x: kostka_foulkes_oracle((x,), (2,))),
        ("coefficient_of", lambda x: coefficient_of("kron", ((x,), (2,), (2,)))),
        ("apply_rule-index", lambda x: apply_rule("kf-translate", ((x,), (x,)), n=1, k=1)),
        ("apply_rule-parameter", lambda x: apply_rule("kf-translate", ((2,), (2,)), n=1, k=x)),
        ("SweepBounds", lambda x: SweepBounds(max_weight=x)),
        ("char_row", lambda x: char_row((x,))),
        ("count_ssyt", lambda x: count_ssyt((x,), 2)),
        ("schur_poly_of_partition", lambda x: schur_poly_of_partition((x,), 2)),
        ("count_ssyt-entries", lambda x: count_ssyt((2, 1), x)),
        ("tableau_ratio-entries", lambda x: tableau_ratio((2,), x)),
        ("schur_poly_of_partition-variables", lambda x: schur_poly_of_partition((1,), x)),
        ("iter_ssyt-entries", lambda x: list(iter_ssyt((2, 1), x))),
        ("class_sizes", class_sizes),
        ("partitions_of-weight", partitions_of),
        ("partitions_of-max_length", lambda x: partitions_of(3, x)),
        ("partitions_of-max_part", lambda x: partitions_of(3, 2, x)),
        (
            "bench_reduction-repeats",
            lambda x: bench_reduction("kronecker", ((2, 1), (2, 1), (2, 1)), repeats=x),
        ),
    ]
    return [pytest.param(call, id=name) for name, call in calls]


@pytest.mark.parametrize("bad", [2.0, 2.5], ids=["integral-float", "fraction"])
@pytest.mark.parametrize("call", _integer_reading_calls())
def test_entry_points_reject_non_integers_alike(call, bad):
    # an int and an int subclass pass, and warm any memo the call keeps, so
    # a float equal to 2 is refused before a memo could answer for it
    call(2)
    call(_Int(2))
    with pytest.raises(ValueError, match="integer"):
        call(bad)


def _count_reading_calls():
    """One param per entry point that reads a count: call(x), with x the
    count, and the word its ValueError names the count by."""
    calls = [
        ("count_ssyt", lambda x: count_ssyt((2, 1), x), "number of entries"),
        ("iter_ssyt", lambda x: list(iter_ssyt((2, 1), x)), "number of entries"),
        ("schur_poly_of_partition", lambda x: schur_poly_of_partition((1,), x), "variables"),
        ("schur_poly_of_partition-empty", lambda x: schur_poly_of_partition((), x), "variables"),
        ("class_sizes", class_sizes, "weight"),
        ("partitions_of-weight", partitions_of, "weight"),
        ("partitions_of-max_length", lambda x: partitions_of(3, x), "max_length"),
        ("partitions_of-max_part", lambda x: partitions_of(3, 2, x), "max_part"),
        ("tableau_ratio", lambda x: tableau_ratio((2,), x), "n must"),
        ("SweepBounds", lambda x: SweepBounds(max_k=x), "max_k"),
        ("verify_rule-jobs", lambda x: verify_rule("kf-box", SMALL, jobs=x), "jobs"),
        (
            "bench_reduction-repeats",
            lambda x: bench_reduction("kronecker", ((2, 1), (2, 1), (2, 1)), repeats=x),
            "repeats",
        ),
    ]
    return [pytest.param(call, word, id=name) for name, call, word in calls]


@pytest.mark.parametrize("call, word", _count_reading_calls())
def test_count_readers_reject_negative_counts_alike(call, word):
    # a negative count is malformed input, not an empty range: without the
    # check, s_() in -1 variables read as the zero polynomial
    with pytest.raises(ValueError, match=word):
        call(-1)


def test_verify_rule_rejects_float_jobs_before_any_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(symmetries.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="jobs"):
        verify_rule("kf-box", SMALL, jobs=2.0)
