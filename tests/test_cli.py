"""Command-line interface: output formats and exit codes."""

import concurrent.futures
import io
import json
import os
import sys

import pytest

from rectsym import cli, coefficients, symmetries
from rectsym.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER_DIED,
    main,
)
from rectsym.symmetries import RULE_NAMES, RuleReport, SweepWorkerDied, coefficient_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_lr(capsys):
    code, out, _ = run(capsys, "compute", "lr", "--lambda", "1", "--mu", "1", "--nu", "2")
    assert code == EXIT_OK
    assert out == "1\n"


def test_compute_kostka_foulkes(capsys):
    code, out, _ = run(
        capsys, "compute", "kostka-foulkes", "--lambda", "2,1", "--mu", "1,1,1"
    )
    assert code == EXIT_OK
    assert out == "t + t^2\n"


def test_compute_plethysm(capsys):
    code, out, _ = run(
        capsys, "compute", "plethysm", "--lambda", "2", "--mu", "2", "--nu", "2,2"
    )
    assert code == EXIT_OK
    assert out == "1\n"


@pytest.mark.parametrize(
    "lam, mu, nu",
    [((2, 2), (3,), (6, 4, 2)), ((4,), (2, 2), (6, 4, 4, 2))],
    ids=["three-rows", "four-rows"],
)
def test_compute_plethysm_matches_coefficient_of(capsys, lam, mu, nu):
    argv = ["compute", "plethysm"]
    for flag, part in (("--lambda", lam), ("--mu", mu), ("--nu", nu)):
        argv += [flag, ",".join(map(str, part))]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    value = coefficient_of("pleth", (lam, mu, nu))
    assert value > 0
    assert json.loads(out)["value"] == value


def test_compute_empty_partition_spelled_zero(capsys):
    code, out, _ = run(capsys, "compute", "lr", "--lambda", "0", "--mu", "0", "--nu", "0")
    assert code == EXIT_OK
    assert out == "1\n"


def test_compute_weight_mismatch_is_zero_not_error(capsys):
    code, out, _ = run(capsys, "compute", "lr", "--lambda", "1", "--mu", "1", "--nu", "3")
    assert code == EXIT_OK
    assert out == "0\n"


def test_compute_cross_check(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "kronecker",
        "--lambda", "2,1",
        "--mu", "2,1",
        "--nu", "2,1",
        "--check",
    )
    assert code == EXIT_OK
    assert out == "1\n"


@pytest.mark.parametrize(
    "family, indices, method, value",
    [
        ("lr", ("2,1", "2,1", "3,2,1"), "main", 2),
        ("kronecker", ("2,1", "2,1", "2,1"), "main", 1),
        ("plethysm", ("2", "2", "2,2"), "main", 1),
        ("plethysm", ("3,2,1", "2", "5,4,3"), "oracle", 2),
        ("kostka-foulkes", ("2,1", "1,1,1"), "main", "t + t^2"),
    ],
    ids=["lr", "kronecker", "plethysm", "plethysm-oracle", "kostka-foulkes"],
)
def test_compute_check_agrees_for_every_family(capsys, family, indices, method, value):
    flags = [f for pair in zip(("--lambda", "--mu", "--nu"), indices) for f in pair]
    code, out, _ = run(
        capsys, "compute", family, *flags, "--method", method, "--check", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    # one key set for every family, nu where the family reads it
    assert set(payload) - {"nu"} == {
        "command", "family", "lambda", "mu", "method",
        "value", "check_method", "check_value", "agrees",
    }
    assert ("nu" in payload) == (len(indices) == 3)
    assert payload["method"] == method
    assert payload["check_method"] == ("main" if method == "oracle" else "oracle")
    assert payload["value"] == payload["check_value"] == value
    assert payload["agrees"] is True


def test_compute_check_plays_a_jacobi_trudi_value_against_the_power_sums(
    capsys, monkeypatch
):
    # s_(2^6)[s_2] at (8,8,8) is 1.  The engine takes the determinant, so
    # the check, the oracle, takes the power sums: a second determinant
    # raises.
    determinants = []
    real_determinant = coefficients._jacobi_trudi_at

    def determinant_once(*args):
        if determinants:
            raise AssertionError("the check ran the Jacobi-Trudi route")
        determinants.append(args)
        return real_determinant(*args)

    power_sums = []
    real_power_sum = coefficients._p_expansion
    monkeypatch.setattr(coefficients, "_jacobi_trudi_at", determinant_once)
    monkeypatch.setattr(
        coefficients, "_p_expansion", lambda *args: power_sums.append(args) or real_power_sum(*args)
    )
    code, out, _ = run(
        capsys,
        "compute", "plethysm",
        "--lambda", "2,2,2,2,2,2", "--mu", "2", "--nu", "8,8,8",
        "--check", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == payload["check_value"] == 1
    assert payload["check_method"] == "oracle"
    assert payload["agrees"] is True
    assert len(determinants) == 1 and len(power_sums) == 1


@pytest.mark.parametrize("method", ["main", "oracle"])
@pytest.mark.parametrize(
    "nu, value", [("2,2", 1), ("1,1,1,1", 0)], ids=["three-rows", "four-rows"]
)
def test_compute_check_plays_the_other_plethysm_route(capsys, monkeypatch, nu, value, method):
    # (2)[(2)] at three and at four rows: whichever method gives the value,
    # the check takes the other route, so one determinant and one power sum
    # expansion run
    runs = []
    for name in ("_jacobi_trudi_at", "_p_expansion"):
        real = getattr(coefficients, name)
        monkeypatch.setattr(
            coefficients, name, lambda *args, name=name, real=real: runs.append(name) or real(*args)
        )
    coefficients._pleth_oracle_expansion.cache_clear()
    code, out, _ = run(
        capsys,
        "compute", "plethysm", "--lambda", "2", "--mu", "2", "--nu", nu,
        "--method", method, "--check", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["check_method"] == ("main" if method == "oracle" else "oracle")
    assert payload["value"] == payload["check_value"] == value
    assert sorted(runs) == ["_jacobi_trudi_at", "_p_expansion"]


def _skew(monkeypatch, engine):
    """Patch a family's engine, symmetries.<engine>, by name to add the
    weight of its first index: it then disagrees with the oracle and with
    every rule or reduction that changes the weight."""
    real = getattr(symmetries, engine)
    monkeypatch.setattr(symmetries, engine, lambda *args: real(*args) + sum(args[0]))


@pytest.fixture
def weight_skewed_kronecker(monkeypatch):
    """The sweep's Kronecker values, symmetries._kronecker_class_sums by
    name, each off by the weight of its instance."""
    real = symmetries._kronecker_class_sums
    monkeypatch.setattr(
        symmetries,
        "_kronecker_class_sums",
        lambda triples, cache: {t: g + sum(t[0]) for t, g in real(triples, cache).items()},
    )


_REDUCIBLE = ["--lambda", "2,2,2", "--mu", "2,2,2", "--nu", "6"]


@pytest.mark.parametrize(
    "engine, argv, said",
    [
        # g((2,2,2), (2,2,2), (6)) = 1, which the oracle and the reduced
        # instance (weight 0) both give; the skewed engine gives 1 + 6
        (
            "kronecker_coefficient",
            ["compute", "kronecker", *_REDUCIBLE, "--check"],
            "mismatch: main gives 7, oracle gives 1\n",
        ),
        (
            "lr_coefficient",
            ["compute", "lr", "--lambda", "1", "--mu", "1", "--nu", "2", "--check"],
            "mismatch: main gives 2, oracle gives 1\n",
        ),
        (
            "plethysm_coefficient",
            ["compute", "plethysm", "--lambda", "2", "--mu", "2", "--nu", "2,2", "--check"],
            "mismatch: main gives 3, oracle gives 1\n",
        ),
        (
            "kostka_foulkes",
            ["compute", "kostka-foulkes", "--lambda", "2,1", "--mu", "1,1,1", "--check"],
            "mismatch: main gives 3 + t + t^2, oracle gives t + t^2\n",
        ),
        (
            "kronecker_coefficient",
            ["reduce", "kronecker", *_REDUCIBLE, "--execute"],
            "reduced value: 1\nMISMATCH\n",
        ),
        (
            "kronecker_coefficient",
            ["bench", "kronecker", *_REDUCIBLE, "--repeats", "1"],
            "value: 7 != 1\n",
        ),
    ],
    ids=[
        "compute-check",
        "compute-check-lr",
        "compute-check-plethysm",
        "compute-check-kostka-foulkes",
        "reduce-execute",
        "bench",
    ],
)
def test_disagreement_exits_3(capsys, monkeypatch, engine, argv, said):
    # only the engine is skewed, so --check must reach the family's oracle
    # to disagree, and a reduction must reach a second instance
    _skew(monkeypatch, engine)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_MISMATCH
    assert (out + err).endswith(said)


def test_verify_counterexample_exits_1(capsys, weight_skewed_kronecker):
    code, out, _ = run(capsys, "verify", "kron-box", "--max-weight", "3", "--boxes", "2")
    assert code == EXIT_COUNTEREXAMPLE
    lines = out.splitlines()
    found = [line for line in lines if line.startswith("COUNTEREXAMPLE ")]
    assert found
    for line in found:
        assert json.loads(line[len("COUNTEREXAMPLE ") :])["rule"] == "kron-box"
    assert lines[-1].startswith("FAILED: ")
    assert lines[-1].endswith(f" {len(found)} counterexamples")


def test_compute_json(capsys):
    code, out, _ = run(
        capsys, "compute", "lr", "--lambda", "1", "--mu", "1", "--nu", "2", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "compute"
    assert payload["family"] == "lr"
    assert payload["value"] == 1
    assert payload["lambda"] == [1] and payload["mu"] == [1] and payload["nu"] == [2]


def test_compute_malformed_partition(capsys):
    code, _, err = run(capsys, "compute", "lr", "--lambda", "2,3", "--mu", "1", "--nu", "3")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_compute_kostka_foulkes_rejects_nu(capsys):
    code, _, err = run(
        capsys,
        "compute", "kostka-foulkes",
        "--lambda", "2", "--mu", "1,1", "--nu", "2",
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_text(capsys):
    code, out, _ = run(
        capsys, "verify", "kf-box", "--max-weight", "3", "--boxes", "2,2,2"
    )
    assert code == EXIT_OK
    assert "kf-box" in out
    assert "ok:" in out
    assert "0 counterexamples" in out


@pytest.mark.parametrize("boxes", ["", "1,,2"], ids=["empty", "empty-entry"])
def test_verify_rejects_a_bad_box_list(capsys, boxes):
    # the empty list is refused like any other malformed one, not read as
    # the default box bound; a refused run prints no header
    code, out, err = run(capsys, "verify", "kf-box", "--max-weight", "2", "--boxes", boxes)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"bad box list: {boxes!r}" in err


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys,
        "verify", "all",
        "--max-weight", "2",
        "--boxes", "2,2,2",
        "--max-k", "1",
        "--max-image-weight", "12",
    )
    assert code == EXIT_OK
    assert out.count("\n") >= 11  # header + ten rules + summary


def test_verify_text_streams_each_rule(monkeypatch):
    # each rule's line is printed and flushed before the next rule starts
    class Flushed(io.StringIO):
        flushed = ""

        def flush(self):
            self.flushed = self.getvalue()

    out = Flushed()
    seen = []

    def fake_verify_rule(rule, bounds, jobs=1):
        seen.append(out.flushed)
        return RuleReport(rule, checked=1)

    monkeypatch.setattr(cli, "verify_rule", fake_verify_rule)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "all"]) == EXIT_OK
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) == len(RULE_NAMES) + 2  # header, ten rules, summary
    for i, flushed in enumerate(seen):
        assert flushed == "".join(lines[: i + 1]), RULE_NAMES[i]
    assert lines[-1] == f"ok: {len(RULE_NAMES)} instances, 0 counterexamples\n"


def test_verify_unknown_rule(capsys):
    # argparse checks the rule name, as it checks compute's family
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-rule"])
    assert info.value.code == EXIT_USAGE
    assert "invalid choice: 'no-such-rule'" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "verify", "kf-box", "--max-weight", "2", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert out == ""
    assert "jobs" in err


@pytest.mark.parametrize("flag", ["--max-weight", "--max-k", "--max-image-weight"])
def test_verify_rejects_negative_bounds(capsys, flag):
    code, out, err = run(capsys, "verify", "all", flag, "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert flag[2:].replace("-", "_") in err


def test_verify_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, _ = run(
        capsys, "verify", "kf-box", "--max-weight", "3", "--boxes", "2,2,2", "--jobs", "4"
    )
    assert code == EXIT_OK
    assert "0 counterexamples" in out


_TEST_PID = os.getpid()
_REAL_STRIDE = symmetries._sweep_stride


def _dying_stride(*args, **kwargs):
    """_sweep_stride, except that in a worker process it exits at once; in
    the test's own process it sweeps as usual."""
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _REAL_STRIDE(*args, **kwargs)


def test_verify_dead_worker_exits_4(capsys, monkeypatch):
    # two CPUs as far as verify_rule can tell, so --jobs 2 forks two workers
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(symmetries, "_sweep_stride", _dying_stride)
    with pytest.raises(SweepWorkerDied, match="^kf-box: "):
        symmetries.verify_rule("kf-box", symmetries.SweepBounds(max_weight=2), jobs=2)
    code, _, err = run(capsys, "verify", "kf-box", "--max-weight", "2", "--jobs", "2", "--json")
    assert code == EXIT_WORKER_DIED
    assert "error: kf-box: " in err


def test_verify_json_deterministic(capsys):
    argv = (
        "verify", "kf-box",
        "--max-weight", "3",
        "--boxes", "2,2,2",
        "--json",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)

    def strip(text):
        payload = json.loads(text)
        for rep in payload["rules"]:
            rep.pop("elapsed_s", None)
        return payload

    assert strip(first) == strip(second)
    assert strip(first)["ok"] is True


def test_reduce_identity_text(capsys):
    code, out, _ = run(
        capsys, "reduce", "kronecker", "--lambda", "4,4", "--mu", "4,4", "--nu", "4,4"
    )
    assert code == EXIT_OK
    assert "chain: identity (no profitable reduction)" in out
    assert "weight 8" in out


def test_reduce_plethysm_text(capsys):
    code, out, _ = run(
        capsys, "reduce", "plethysm", "--lambda", "1", "--mu", "3,3", "--nu", "3,3"
    )
    assert code == EXIT_OK
    assert "original: 1 / 3,3 / 3,3 (weight 6)" in out
    assert "reduced: 1 / 0 / 0 (weight 0)" in out


def test_reduce_vanishing_text(capsys):
    code, out, _ = run(
        capsys, "reduce", "plethysm", "--lambda", "1", "--mu", "1,1", "--nu", "2"
    )
    assert code == EXIT_OK
    assert "reduced: coefficient is 0" in out


def test_reduce_execute(capsys):
    code, out, _ = run(
        capsys,
        "reduce", "kronecker",
        "--lambda", "2,2,2", "--mu", "2,2,2", "--nu", "6",
        "--execute",
    )
    assert code == EXIT_OK


def test_reduce_json(capsys):
    code, out, _ = run(
        capsys,
        "reduce", "kronecker",
        "--lambda", "1", "--mu", "1", "--nu", "1",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["family"] == "kronecker"
    assert payload["reduced"] == [[], [], []]
    assert payload["weight_after"] == 0


def test_reduce_weight_mismatch(capsys):
    code, _, err = run(
        capsys, "reduce", "kronecker", "--lambda", "2", "--mu", "1", "--nu", "2"
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_bench(capsys):
    code, out, _ = run(
        capsys,
        "bench", "kronecker",
        "--lambda", "2,2,2,2,2", "--mu", "2,2,2,2,2", "--nu", "2,2,2,2,2",
        "--repeats", "1",
    )
    assert code == EXIT_OK
    assert "value:" in out
    assert "naive median:" in out


@pytest.mark.parametrize("command", ["reduce", "bench"])
def test_reduce_and_bench_need_nu(capsys, command):
    code, out, err = run(capsys, command, "kronecker", "--lambda", "2", "--mu", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{command} kronecker needs --nu" in err


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_rejects_repeats_below_one(capsys, repeats):
    code, out, err = run(
        capsys,
        "bench", "kronecker",
        "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1",
        "--repeats", repeats,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "repeats" in err


def test_apply_text(capsys):
    code, out, _ = run(
        capsys,
        "apply", "kron-box",
        "--lambda", "2,2,2", "--mu", "2,2,2", "--nu", "2,2,2",
        "--box", "2,2,2",
    )
    assert code == EXIT_OK
    assert out == "2 / 2 / 2\n"


def test_apply_kf_two_index(capsys):
    code, out, _ = run(
        capsys, "apply", "kf-box", "--lambda", "2", "--mu", "1,1", "--k", "3", "--n", "2"
    )
    assert code == EXIT_OK
    assert out == "3,1 / 2,2\n"


def test_apply_vanishing(capsys):
    code, out, _ = run(
        capsys,
        "apply", "kron-box",
        "--lambda", "2,2,2,2,2", "--mu", "2,2,2,2,2", "--nu", "2,2,2,2,2",
        "--box", "2,2,2",
    )
    assert code == EXIT_OK
    assert "vanishes: coefficient is 0" in out


def test_apply_precondition_violation(capsys):
    code, _, err = run(
        capsys,
        "apply", "lr-box",
        "--lambda", "3", "--mu", "1", "--nu", "3,1",
        "--box", "2,1,2",
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_apply_box_conflicts_with_parts(capsys):
    code, _, err = run(
        capsys,
        "apply", "kron-box",
        "--lambda", "1", "--mu", "1", "--nu", "1",
        "--box", "1,1,1",
        "--l", "1",
    )
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize(
    "rule,indices,box,named",
    [
        ("pleth-box-inner", ("2", "1", "2"), "1,2", ["--m", "1", "--n", "2"]),
        ("pleth-box-outer", ("2", "1", "2"), "2,1", ["--l", "2", "--n", "1"]),
        ("kf-box", ("2", "1,1"), "3,2", ["--k", "3", "--n", "2"]),
        ("lr-box", ("2", "1,1", "3,1"), "2,2,3", ["--l", "2", "--m", "2", "--n", "3"]),
        ("kron-box", ("2", "1,1", "2"), "2,3,2", ["--l", "2", "--m", "3", "--n", "2"]),
    ],
)
def test_apply_box_fills_the_rules_own_parameters(capsys, rule, indices, box, named):
    # --box lists the rule's parameters in order: m,n / l,n / k,n / l,m,n
    flags = [f for pair in zip(("--lambda", "--mu", "--nu"), indices) for f in pair]
    by_box = run(capsys, "apply", rule, *flags, "--box", box, "--json")
    by_name = run(capsys, "apply", rule, *flags, *named, "--json")
    assert by_box == by_name
    assert by_box[0] == EXIT_OK


@pytest.mark.parametrize(
    "rule,box",
    [
        ("kron-box", "1,1,1,7"),
        ("kron-box", "1,1"),
        ("pleth-box-inner", "1,1,1"),
        ("kf-box", "1"),
    ],
)
def test_apply_box_needs_exactly_the_rules_parameters(capsys, rule, box):
    indices = ["--lambda", "1", "--mu", "1"] + ([] if rule == "kf-box" else ["--nu", "1"])
    code, out, err = run(capsys, "apply", rule, *indices, "--box", box)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--box" in err


@pytest.mark.parametrize(
    "rule,indices,params,extra",
    [
        ("lr-box", ("2", "1,1", "3,1"), ["--l", "2", "--m", "2", "--n", "3"], "k"),
        ("pleth-box-inner", ("2", "1", "2"), ["--m", "1", "--n", "2"], "l"),
        ("pleth-box-outer", ("2", "1", "2"), ["--l", "2", "--n", "1"], "m"),
        ("kf-box", ("2", "1,1"), ["--k", "3", "--n", "2"], "l"),
        ("lr-translate", ("1", "1", "1,1"), ["--n", "2", "--k", "1"], "m"),
        ("kron-translate", ("1", "1", "1"), ["--l", "1", "--m", "1", "--k", "1"], "n"),
    ],
    ids=[
        "lr-box-k",
        "pleth-box-inner-l",
        "pleth-box-outer-m",
        "kf-box-l",
        "lr-translate-m",
        "kron-translate-n",
    ],
)
def test_apply_rejects_a_parameter_the_rule_does_not_take(
    capsys, rule, indices, params, extra
):
    flags = [f for pair in zip(("--lambda", "--mu", "--nu"), indices) for f in pair]
    assert run(capsys, "apply", rule, *flags, *params)[0] == EXIT_OK
    code, out, err = run(capsys, "apply", rule, *flags, *params, f"--{extra}", "9")
    assert (code, out) == (EXIT_USAGE, "")
    assert f"takes no parameter {extra}" in err


@pytest.mark.parametrize("rule", ["lr-translate", "kron-translate", "kf-translate"])
def test_apply_box_rejects_translation_rules(capsys, rule):
    indices = ["--lambda", "1", "--mu", "1"] + ([] if rule == "kf-translate" else ["--nu", "1"])
    code, out, err = run(capsys, "apply", rule, *indices, "--box", "1,1")
    assert code == EXIT_USAGE
    assert "translation rule" in err


def test_compute_has_no_box_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(
            [
                "compute", "kronecker",
                "--lambda", "1,1", "--mu", "2", "--nu", "1,1",
                "--method", "oracle", "--box", "2,1",
            ]
        )
    assert info.value.code == 2
    assert "--box" in capsys.readouterr().err


def test_apply_unknown_rule(capsys):
    with pytest.raises(SystemExit) as info:
        main(["apply", "no-such-rule", "--lambda", "1", "--mu", "1", "--nu", "2"])
    assert info.value.code == EXIT_USAGE
    assert "invalid choice: 'no-such-rule'" in capsys.readouterr().err


def test_argparse_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "nope", "--lambda", "1", "--mu", "1", "--nu", "1"])
    assert info.value.code == 2
    capsys.readouterr()


def test_exit_code_values():
    assert (EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_USAGE, EXIT_MISMATCH, EXIT_WORKER_DIED) == (
        0, 1, 2, 3, 4,
    )
