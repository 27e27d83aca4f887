"""Command-line interface: output formats and exit codes."""

import concurrent.futures
import io
import json
import os
import sys

import pytest

from rectsym import cli, symmetries
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
    code, _, err = run(capsys, "verify", "no-such-rule")
    assert code == EXIT_USAGE
    assert "error:" in err


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


def test_argparse_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "nope", "--lambda", "1", "--mu", "1", "--nu", "1"])
    assert info.value.code == 2
    capsys.readouterr()


def test_exit_code_values():
    assert (EXIT_OK, EXIT_COUNTEREXAMPLE, EXIT_USAGE, EXIT_MISMATCH, EXIT_WORKER_DIED) == (
        0, 1, 2, 3, 4,
    )
