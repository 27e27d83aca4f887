"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ACCEPTANCE line so a log scrape shows the verdicts
at a glance.  The suites here are exhaustive over their stated ranges and
compare independent computations; none of the expected values are hardcoded
from the implementation under test.
"""

import itertools
import json
import time

from rectsym.cli import main as cli_main
from rectsym.coefficients import (
    kronecker_coefficient,
    kronecker_oracle,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from rectsym.hall_littlewood import (
    hl_poly,
    kostka_foulkes,
    kostka_foulkes_oracle,
    monomial_symmetric_poly,
    specialize_t,
)
from rectsym.partitions import iter_ssyt, partitions_of, zero_pad
from rectsym.powersum import CharCache
from rectsym.schur import (
    check_inversion_law,
    check_translation_law,
    schur_poly_of_partition,
)
from rectsym.symmetries import (
    RULE_NAMES,
    SweepBounds,
    SweepContext,
    bench_reduction,
    check_reduction,
    coefficient_of,
    reduce_kronecker,
    tableau_ratio,
    verify_all,
)


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} {detail}")
    assert ok, detail


def test_criterion_1_polynomial_laws():
    # translation and inversion laws for all weakly decreasing sequences with
    # entries in [-3, 3], at most 3 variables, shifts |k| <= 2
    start = time.time()
    checked = 0
    bad = []
    for n in range(1, 4):
        for seq in itertools.combinations_with_replacement(range(3, -4, -1), n):
            if not check_inversion_law(seq, n):
                bad.append(("inversion", seq, n))
            checked += 1
            for k in range(-2, 3):
                if not check_translation_law(seq, n, k):
                    bad.append(("translation", seq, n, k))
                checked += 1
    elapsed = time.time() - start
    ok = not bad and checked >= 500 and elapsed < 30
    report(1, ok, f"{checked} law instances, {len(bad)} failures, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    mismatches = []

    # Littlewood-Richardson: lattice words against the Schur product, |nu| <= 8
    lr_checked = 0
    for w in range(9):
        for nu in partitions_of(w):
            for a in range(w + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(w - a):
                        if lr_coefficient(lam, mu, nu) != lr_coefficient_oracle(
                            lam, mu, nu
                        ):
                            mismatches.append(("lr", lam, mu, nu))
                        lr_checked += 1

    # Kronecker against the Garsia-Remmel sum, every triple of weight <= 7;
    # nu walks outermost, so the oracle's memos serve each (lam, mu) at it
    cache = CharCache()
    kron_checked = 0
    for w in range(8):
        for nu in partitions_of(w):
            for lam in partitions_of(w):
                for mu in partitions_of(w):
                    if kronecker_oracle(lam, mu, nu) != kronecker_coefficient(
                        lam, mu, nu, cache
                    ):
                        mismatches.append(("kron", lam, mu, nu))
                    kron_checked += 1

    # plethysm against direct polynomial evaluation, |lam| * |mu| <= 8
    pleth_checked = 0
    for a in range(1, 9):
        for b in range(1, 9):
            if a * b > 8:
                continue
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    for nu in partitions_of(a * b):
                        if plethysm_coefficient(lam, mu, nu) != plethysm_oracle(
                            lam, mu, nu
                        ):
                            mismatches.append(("pleth", lam, mu, nu))
                        pleth_checked += 1

    # Kostka-Foulkes: the charge statistic against triangular elimination
    kf_checked = 0
    for w in range(7):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                if kostka_foulkes(lam, mu) != kostka_foulkes_oracle(lam, mu):
                    mismatches.append(("kf", lam, mu))
                kf_checked += 1

    elapsed = time.time() - start
    counts = (lr_checked, kron_checked, pleth_checked, kf_checked)
    ok = (
        not mismatches
        and counts == (6830, 5211, 2427, 210)
        and elapsed < 600
    )
    report(
        2,
        ok,
        f"lr/kron/pleth/kf = {counts}, {len(mismatches)} disagreements, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_exhaustive_rule_sweeps():
    start = time.time()
    reports = verify_all(SweepBounds())
    elapsed = time.time() - start
    bad = [rep.rule for rep in reports if not rep.ok]
    thin = [rep.rule for rep in reports if not (rep.transformed and rep.vanished)]
    total = sum(rep.checked for rep in reports)
    counterexamples = sum(len(rep.counterexamples) for rep in reports)
    ok = (
        not bad
        and not thin
        and len(reports) == len(RULE_NAMES)
        and elapsed < 900
    )
    report(
        3,
        ok,
        f"{total} instances across {len(reports)} rules, "
        f"{counterexamples} counterexamples, both branches hit, {elapsed:.1f}s",
    )


def test_criterion_4_rectangle_family():
    start = time.time()
    ctx = SweepContext()
    vals = []
    for k in range(7):
        lam = (2,) * k
        vals.append(coefficient_of("kron", (lam, lam, lam), ctx))
    symmetric = all(vals[k] == vals[4 - k] for k in range(5))
    vanishing = vals[5] == 0 and vals[6] == 0
    elapsed = time.time() - start
    ok = symmetric and vanishing and elapsed < 60
    report(4, ok, f"g((2^k)^3) for k=0..6 is {vals}, {elapsed:.1f}s")


def test_criterion_5_tableau_ratio_integrality():
    start = time.time()
    checked = 0
    bad = []
    for w in range(7):
        for mu in partitions_of(w):
            for n in range(1, 5):
                try:
                    q = tableau_ratio(mu, n)
                except ArithmeticError:
                    bad.append((mu, n))
                    continue
                if not isinstance(q, int) or q < 0:
                    bad.append((mu, n))
                checked += 1
    elapsed = time.time() - start
    ok = not bad and elapsed < 60
    report(5, ok, f"{checked} ratios all integral, {len(bad)} failures, {elapsed:.1f}s")


def test_criterion_6_hall_littlewood_specializations():
    start = time.time()
    hl_checked = 0
    bad = []
    for n in range(1, 4):
        for w in range(7):
            for mu in partitions_of(w):
                if len(mu) > n:
                    continue
                p = hl_poly(mu, n)
                if specialize_t(p, 0) != schur_poly_of_partition(mu, n):
                    bad.append(("t=0", mu, n))
                if specialize_t(p, 1) != monomial_symmetric_poly(mu, n):
                    bad.append(("t=1", mu, n))
                hl_checked += 1
    kf_checked = 0
    for w in range(7):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                depth = max(len(mu), 1)
                count = sum(
                    1 for _ in iter_ssyt(lam, depth, content=zero_pad(mu, depth))
                )
                # the elimination route: the charge engine's K(1) is this
                # very count
                if kostka_foulkes_oracle(lam, mu).subs(1) != count:
                    bad.append(("K(1)", lam, mu))
                kf_checked += 1
    elapsed = time.time() - start
    ok = not bad and elapsed < 120
    report(
        6,
        ok,
        f"{hl_checked} specializations, {kf_checked} tableau counts, "
        f"{len(bad)} failures, {elapsed:.1f}s",
    )


def test_criterion_7_reduction_soundness_and_payoff():
    start = time.time()
    ctx = SweepContext()
    checked = 0
    reduced_count = 0
    bad = []
    for w in range(8):
        for lam in partitions_of(w):
            for mu in partitions_of(w):
                for nu in partitions_of(w):
                    rep = reduce_kronecker(lam, mu, nu)
                    if not check_reduction(rep, ctx):
                        bad.append((lam, mu, nu))
                    if rep.vanishes or rep.weight_after < rep.weight_before:
                        reduced_count += 1
                    checked += 1

    # the square-in-a-rectangle family always reduces below its own weight
    family_ok = True
    for d, ks in ((2, (3, 4)), (3, (5, 6, 7, 8, 9))):
        for k in ks:
            lam = (d,) * k
            rep = reduce_kronecker(lam, lam, lam)
            expect = d * (d * d - k)
            if rep.weight_after != expect or not expect < d * k:
                family_ok = False
                bad.append(("family", d, k, rep.weight_after))

    bench = bench_reduction("kronecker", ((3,) * 8,) * 3, repeats=3)
    payoff = bench["reduced_s"] < bench["naive_s"]
    elapsed = time.time() - start
    ok = not bad and family_ok and payoff and checked == 5211 and reduced_count > 0
    report(
        7,
        ok,
        f"{checked} reductions sound ({reduced_count} strict), family widths "
        f"match, bench {bench['naive_s']:.4f}s -> {bench['reduced_s']:.6f}s, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_deterministic_verification_output(capsys):
    runs = []
    for _ in range(2):
        code = cli_main(["verify", "all", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        for rep in payload["rules"]:
            rep.pop("elapsed_s", None)
        runs.append(payload)
    ok = runs[0] == runs[1] and runs[0]["ok"] is True
    report(8, ok, "two verify-all runs agree after dropping timings")
