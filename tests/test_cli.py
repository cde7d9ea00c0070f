"""Black-box CLI behavior: exit codes, formats, determinism."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from opball.cli import _cmd_symcheck, _fmt12, build_parser, main
from opball.errors import BadDims, ShapeMismatch
from opball.identities import run_identities
from opball.matio import MatrixFileError, read_matrix, read_pair, write_matrix, write_pair
from opball.symmetry import canonical_pair


def save(tmp_path, name, mat):
    path = tmp_path / name
    write_matrix(path, np.asarray(mat, dtype=complex))
    return str(path)


def test_matrix_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    mat = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    mat *= 10.0 ** rng.uniform(-8, 8)
    path = tmp_path / "m.json"
    write_matrix(path, mat)
    assert np.array_equal(read_matrix(path), mat)


def test_matrix_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(MatrixFileError):
        read_matrix(bad)
    bad.write_text("not json")
    with pytest.raises(MatrixFileError):
        read_matrix(bad)


def test_pair_file_round_trip(tmp_path):
    pair = canonical_pair(2, 3)
    path = tmp_path / "pair.json"
    write_pair(path, pair)
    again = read_pair(path)
    assert np.array_equal(again.j_fwd, pair.j_fwd)
    assert np.array_equal(again.j_bwd, again.j_fwd.T)
    assert again.side is pair.side


def test_identities_zero_trials(capsys):
    assert main(["identities", "--trials", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identities"] == []


@pytest.mark.parametrize(
    "seed, trials, dims, tol, message",
    [
        (0, -3, (8, 3), 1e-8, "need trials >= 0 and tol > 0"),
        (0, 1, (8, 3), 0.0, "need trials >= 0 and tol > 0"),
        (0, 1, (8, 3), float("nan"), "need trials >= 0 and tol > 0"),
        (0, 1, (8, 3), float("inf"), "need trials >= 0 and tol > 0"),
        (-1, 1, (8, 3), 1e-8, "need seed >= 0"),
        (-1, 0, (8, 3), 1e-8, "need seed >= 0"),
        (0, 1, (0, 3), 1e-8, "need dim_h >= 1 and dim_k >= 1"),
        (0, 1, (3, 0), 1e-8, "need dim_h >= 1 and dim_k >= 1"),
    ],
    ids=["negative-trials", "zero-tol", "nan-tol", "inf-tol", "negative-seed", "no-trials",
         "zero-dim-h", "zero-dim-k"],
)
def test_run_identities_refuses_its_domain(seed, trials, dims, tol, message):
    # the library's refusal is the CLI's error line, or its own where the
    # CLI's range check refuses first
    with pytest.raises(BadDims) as info:
        run_identities(seed, trials, *dims, tol)
    assert str(info.value) == message


def test_parser_is_built_once_per_process(capsys):
    assert build_parser() is build_parser()
    outputs = []
    for _ in range(2):
        assert main(["identities", "--trials", "1", "--seed", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_identities_deterministic(capsys):
    assert main(["identities", "--trials", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["identities", "--trials", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert all(item["passed"] for item in report["identities"])


def test_identities_flag_validation(capsys):
    assert main(["identities", "--dim-k", "9"]) == 2
    assert main(["identities", "--dim-h", "64"]) == 2
    assert main(["identities", "--trials", "-1"]) == 2


@pytest.mark.parametrize(
    "args, line",
    [
        (["identities", "--dim-k", "9"],
         "identities: need 1 <= dim-k <= 8 and dim-k <= dim-h <= 32"),
        (["identities", "--tol", "0"], "identities: need trials >= 0 and tol > 0"),
        (["approx", "--dim-h", "2", "--dim-k", "3"], "approx: need 1 <= dim-k <= dim-h <= 32"),
        (["approx", "--jobs", "0"], "approx: need trials >= 1 and jobs >= 1"),
        (["metric"], "metric: shape mismatch: {a} is 1x2, {b} is 2x1"),
        (["identities", "--tol", "nan"], "identities: need trials >= 0 and tol > 0"),
        (["identities", "--tol", "inf"], "identities: need trials >= 0 and tol > 0"),
        (["identities", "--tol", "-1"], "identities: need trials >= 0 and tol > 0"),
        (["symcheck", "--tol", "nan"], "symcheck: need tol > 0"),
        (["symcheck", "--tol", "inf"], "symcheck: need tol > 0"),
        (["symcheck", "--tol", "-1"], "symcheck: need tol > 0"),
        (["symcheck", "--tol", "0"], "symcheck: need tol > 0"),
        (["identities", "--seed", "-1", "--trials", "1"], "identities: need seed >= 0"),
        (["approx", "--seed", "-1", "--trials", "1"], "approx: need seed >= 0"),
    ],
)
def test_rejected_input_prints_one_line(tmp_path, capsys, args, line):
    a = save(tmp_path, "a.json", [[0.0, 1.0]])
    b = save(tmp_path, "b.json", [[0.0], [1.0]])
    if args[0] == "metric":
        args = [*args, a, b]
    elif args[0] == "symcheck":
        args = [*args, b]  # a readable 2x1 operand, so only --tol is wrong
    elif args[0] == "approx":
        args = [*args, "--out", str(tmp_path / "x")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(a=a, b=b) + "\n"
    assert not list(tmp_path.glob("x*"))


def test_approx_unwritable_prefix_exits_two(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        pytest.fail("the experiment ran before the output directory was made")

    monkeypatch.setattr("opball.cli.ensemble_experiment", no_trials)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["approx", "--trials", "1", "--out", str(blocker / "sub" / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"approx: cannot write {blocker / 'sub'}: ")
    assert captured.err.count("\n") == 1


def test_identities_failure_exit_code(capsys, monkeypatch):
    import opball.identities as ids

    broken = dict(ids.CHECKS)
    broken["always_off"] = lambda rng, dim_h, dim_k: 1.0
    monkeypatch.setattr(ids, "CHECKS", broken)
    assert main(["identities", "--trials", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    by_name = {item["name"]: item for item in report["identities"]}
    assert by_name["always_off"]["passed"] is False


def test_metric_equal_operators(tmp_path, capsys):
    path = save(tmp_path, "t.json", [[1.0, 2.0], [0.5, 0.25]])
    assert main(["metric", path, path]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) <= 1e-10


def test_metric_scalar_oracle(tmp_path, capsys):
    zero = save(tmp_path, "zero.json", [[0.0]])
    one = save(tmp_path, "one.json", [[1.0]])
    assert main(["metric", zero, one]) == 0
    assert capsys.readouterr().out.strip() == "0.881373587020"


@pytest.mark.parametrize(
    "x, printed",
    [
        (0.881373587020, "0.881373587020"),
        # rounding carries into the next power of ten
        (9.9999999999995, "10.0000000000"),
        (0.99999999999996, "1.00000000000"),
        (99.9999999999996, "100.000000000"),
    ],
)
def test_twelve_significant_digits(x, printed):
    assert _fmt12(x) == printed


def test_metric_of_zero_operators_prints_zero(tmp_path, capsys):
    zero = save(tmp_path, "zero.json", np.zeros((2, 3)))
    assert main(["metric", zero, zero]) == 0
    assert capsys.readouterr().out == "0.000000000000\n"


def test_metric_shape_mismatch(tmp_path, capsys):
    a = save(tmp_path, "a.json", [[0.0, 1.0]])
    b = save(tmp_path, "b.json", [[0.0], [1.0]])
    assert main(["metric", a, b]) == 2
    err = capsys.readouterr().err
    assert "1x2" in err and "2x1" in err


def test_metric_far_apart_scalars(tmp_path, capsys):
    # d(1e8, -1e8) = 2 asinh(1e8): the lift does not saturate where atanh would
    big = save(tmp_path, "big.json", [[1e8]])
    neg = save(tmp_path, "neg.json", [[-1e8]])
    assert main(["metric", big, neg]) == 0
    captured = capsys.readouterr()
    assert captured.out == "38.2276558490\n"
    assert captured.err == ""


def test_metric_beyond_the_float_range_exits_two(tmp_path, capsys):
    big = save(tmp_path, "big.json", np.full((2, 2), 1e308))
    assert main(["metric", big, big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("metric: result exceeds the float range")
    assert captured.err.count("\n") == 1


# case -> finite files whose left defect (metric), whose held Gram spectrum
# (metric-factor: the norm 1e160 fits, its square does not; a factor's
# ceiling is sqrt(float max) = 1.34e154) or whose coordinates' antisymmetric
# part (symcheck, canonical pair) leave the float range
OVERFLOWING = {
    "metric": [np.full((2, 3), 1e150), np.full((2, 3), 2e150)],
    "metric-factor": [[[1e160]], [[1.0]]],
    "symcheck": [[[0.0, 1.5e308], [-1.5e308, 0.0]]],
}


@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_overflowing_intermediate_exits_two(tmp_path, capsys, case):
    command = case.split("-")[0]
    args = [save(tmp_path, f"{i}.json", mat) for i, mat in enumerate(OVERFLOWING[case])]
    assert main([command, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: result exceeds the float range (max 1.798e+308)\n"


def test_pair_file_whose_gap_leaves_the_float_range_exits_two(tmp_path, capsys):
    # j_fwd = [[1e200]] is finite, its isometry gap 1e400 - 1 is not
    bad = tmp_path / "pair.json"
    bad.write_text('{"side": "bwd_fwd", "j_fwd": {"rows": 1, "cols": 1, "data": [[1e200, 0]]}}')
    mat = save(tmp_path, "m.json", [[1.0]])
    assert main(["symcheck", mat, "--pair", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "symcheck: pair invariants fail: result exceeds the float range (max 1.798e+308)\n"
    )


def test_metric_unreadable_file(tmp_path, capsys):
    a = save(tmp_path, "a.json", [[0.0]])
    assert main(["metric", a, str(tmp_path / "missing.json")]) == 2


HUGE = "1" + "0" * 400  # a JSON integer past the float range
HUGE_ENTRY = f'{{"rows": 1, "cols": 1, "data": [[{HUGE}, 0]]}}'
INF_ROWS = '{"rows": 1e400, "cols": 1, "data": [[0, 0]]}'


@pytest.mark.parametrize(
    "command, text",
    [
        ("metric", HUGE_ENTRY),
        ("metric", INF_ROWS),
        ("symcheck", HUGE_ENTRY),
        ("symcheck", INF_ROWS),
        ("symcheck --pair", f'{{"side": "bwd_fwd", "j_fwd": {HUGE_ENTRY}}}'),
    ],
    ids=["metric-huge-entry", "metric-inf-rows", "symcheck-huge-entry",
         "symcheck-inf-rows", "symcheck-pair-huge-entry"],
)
def test_overflowing_file_is_an_input_error(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = save(tmp_path, "good.json", [[1.0]])
    args = {
        "metric": ["metric", str(bad), good],
        "symcheck": ["symcheck", str(bad)],
        "symcheck --pair": ["symcheck", good, "--pair", str(bad)],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{args[0]}: ")


MALFORMED = {
    "string-entry": '{"rows": 1, "cols": 1, "data": ["12"]}',
    "string-parts": '{"rows": 1, "cols": 1, "data": [["1e5", "2"]]}',
    "string-rows": '{"rows": "2", "cols": 1, "data": [[0, 0], [0, 0]]}',
    "fractional-rows": '{"rows": 2.7, "cols": 1, "data": [[0, 0], [0, 0]]}',
    "bool-part": '{"rows": 1, "cols": 1, "data": [[true, 0]]}',
    "integer-past-digit-limit": f'{{"rows": 1, "cols": 1, "data": [[1{"0" * 5000}, 0]]}}',
    "dimensions-past-digit-limit": f'{{"rows": 1{"0" * 4000}, "cols": 1{"0" * 4000}, "data": []}}',
    "top-level-list": "[1, 2]",
    "missing-data": '{"rows": 1, "cols": 1}',
    "zero-rows": '{"rows": 0, "cols": 1, "data": []}',
    "infinite-entry": '{"rows": 1, "cols": 1, "data": [[Infinity, 0]]}',
    "nan-entry": '{"rows": 1, "cols": 1, "data": [[0, NaN]]}',
}

# pair files whose matrix parses but which are no conjugation pair
MALFORMED_PAIRS = {
    "no-side": '{"j_fwd": {"rows": 1, "cols": 1, "data": [[1, 0]]}}',
    "unknown-side": '{"side": "up", "j_fwd": {"rows": 1, "cols": 1, "data": [[1, 0]]}}',
    "not-isometric": '{"side": "bwd_fwd", "j_fwd": {"rows": 1, "cols": 1, "data": [[2, 0]]}}',
}


@pytest.mark.parametrize("command", ["metric", "symcheck"])
@pytest.mark.parametrize("text", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_file_is_an_input_error(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = save(tmp_path, "good.json", [[0.0]])
    args = [command, str(bad), good] if command == "metric" else [command, str(bad)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"{command}: ")


@pytest.mark.parametrize("text", list(MALFORMED_PAIRS.values()), ids=list(MALFORMED_PAIRS))
def test_malformed_pair_file_is_an_input_error(tmp_path, capsys, text):
    bad = tmp_path / "pair.json"
    bad.write_text(text)
    mat = save(tmp_path, "m.json", [[1.0]])
    assert main(["symcheck", mat, "--pair", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("symcheck: ")


def test_symcheck_symmetric_identity_pair(tmp_path, capsys):
    path = save(tmp_path, "sym.json", [[1.0, 2.0j], [2.0j, 3.0]])
    assert main(["symcheck", path, "--pair", "identity"]) == 0
    out = capsys.readouterr().out
    assert "SYMMETRIC" in out and "NOT-SYMMETRIC" not in out


def test_symcheck_asymmetric_block_canonical(tmp_path, capsys):
    path = save(tmp_path, "asym.json", [[1.0, 2.0], [3.0, 4.0], [0.0, 0.5]])
    assert main(["symcheck", path]) == 1
    assert "NOT-SYMMETRIC" in capsys.readouterr().out


def test_symcheck_zero_matrix(tmp_path, capsys):
    path = save(tmp_path, "zero.json", np.zeros((3, 2)))
    assert main(["symcheck", path]) == 0
    assert "SYMMETRIC" in capsys.readouterr().out


@pytest.mark.parametrize(
    "pair, message",
    [("identity", "identity pair needs a square matrix, got 3x5"),
     ("canonical", "canonical pair needs rows >= cols, got 3x5")],
)
def test_symcheck_pair_that_cannot_fit_is_a_shape_mismatch(tmp_path, capsys, pair, message):
    args = ["symcheck", save(tmp_path, "wide.json", np.ones((3, 5))), "--pair", pair]
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        _cmd_symcheck(build_parser().parse_args(args))
    assert main(args) == 2
    assert capsys.readouterr().err == f"symcheck: {message}\n"


def test_symcheck_incompatible(tmp_path, capsys):
    wide = save(tmp_path, "wide.json", [[1.0, 2.0, 3.0]])
    assert main(["symcheck", wide, "--pair", "canonical"]) == 2
    square_needed = save(tmp_path, "rect.json", [[1.0], [2.0]])
    assert main(["symcheck", square_needed, "--pair", "identity"]) == 2


def test_symcheck_pair_file(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    write_pair(pair_path, canonical_pair(2, 3))
    mat = save(tmp_path, "m.json", [[1.0, 2.0], [2.0, 5.0], [0.1, 0.2]])
    assert main(["symcheck", mat, "--pair", str(pair_path)]) == 0
    assert main(["symcheck", mat, "--pair", str(tmp_path / "nope.json")]) == 2


def test_approx_small_run(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main([
        "approx", "--dim-h", "4", "--dim-k", "1", "--trials", "1",
        "--seed", "7", "--out", str(prefix),
    ]) == 0
    csv_path = tmp_path / "run_trial000.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "n,dist,sym_residual,margin"
    assert len(lines) == 5
    assert float(lines[-1].split(",")[1]) <= 1e-8
    report = json.loads((tmp_path / "run_ensemble.json").read_text())
    assert report["all_valid"] is True
    assert report["trials"] == 1


def test_output_keys_are_the_record_fields(tmp_path, capsys):
    # the CSV columns and JSON keys are written from the record fields, so a
    # renamed field or an added cached attribute would change a file format
    assert main([
        "approx", "--dim-h", "3", "--dim-k", "2", "--trials", "1",
        "--out", str(tmp_path / "run"),
    ]) == 0
    header = (tmp_path / "run_trial000.csv").read_text().split("\n")[0]
    assert header == "n,dist,sym_residual,margin"
    report = json.loads((tmp_path / "run_ensemble.json").read_text())
    assert set(report) == {
        "all_valid", "dim_h", "dim_k", "max_sym_residual", "median_dist",
        "profiles", "seed", "trials",
    }
    (profile,) = report["profiles"]
    assert set(profile) == {"recovery_residual", "rows"}
    assert all(set(row) == {"n", "dist", "sym_residual", "margin"} for row in profile["rows"])

    assert main(["identities", "--trials", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"dim_h", "dim_k", "identities", "seed", "tol", "trials"}
    assert report["identities"]
    for entry in report["identities"]:
        assert set(entry) == {"name", "max_residual", "passed"}


@pytest.mark.parametrize(
    "prefix, written",
    [("", ["_ensemble.json", "_trial000.csv"]),
     ("runs/", ["runs/_ensemble.json", "runs/_trial000.csv"])],
)
def test_approx_uses_its_prefix_as_given(tmp_path, monkeypatch, prefix, written):
    # an empty prefix names files in the working directory, and one ending
    # in a separator names files inside that directory, made if missing
    monkeypatch.chdir(tmp_path)
    assert main(["approx", "--dim-h", "3", "--dim-k", "1", "--trials", "1", "--out", prefix]) == 0
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert files == written


def test_approx_deterministic_across_runs_and_jobs(tmp_path):
    args = ["approx", "--dim-h", "5", "--dim-k", "2", "--trials", "3", "--seed", "3"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    assert main([*args, "--jobs", "4", "--out", str(tmp_path / "c")]) == 0
    for name in ("_trial000.csv", "_trial001.csv", "_trial002.csv", "_ensemble.json"):
        a = (tmp_path / f"a{name}").read_bytes()
        assert a == (tmp_path / f"b{name}").read_bytes()
        assert a == (tmp_path / f"c{name}").read_bytes()


def test_approx_flag_validation(tmp_path, capsys):
    assert main(["approx", "--dim-h", "2", "--dim-k", "3", "--out", str(tmp_path / "x")]) == 2
    assert main(["approx", "--trials", "0", "--out", str(tmp_path / "x")]) == 2


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["unknown-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_module(tmp_path, *args):
    """``python -m opball ARGS`` in a fresh interpreter, the package taken
    from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "opball", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


def test_module_run_prints_a_distance_and_exits_zero(tmp_path):
    zero = save(tmp_path, "zero.json", [[0.0]])
    one = save(tmp_path, "one.json", [[1.0]])
    done = run_module(tmp_path, "metric", zero, one)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.881373587020\n", "")


def test_module_run_flags_an_asymmetric_matrix_and_exits_one(tmp_path):
    path = save(tmp_path, "asym.json", [[1.0, 2.0], [3.0, 4.0], [0.0, 0.5]])
    done = run_module(tmp_path, "symcheck", path)
    assert done.returncode == 1
    assert "NOT-SYMMETRIC" in done.stdout
    assert done.stderr == ""


def test_module_run_writes_inside_a_prefix_directory(tmp_path):
    done = run_module(tmp_path, "approx", "--dim-h", "3", "--dim-k", "1", "--trials", "1",
                      "--out", "runs/")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
        "_ensemble.json", "_trial000.csv",
    ]
    assert not list(tmp_path.glob("runs_*"))


def test_module_run_refuses_a_malformed_file_and_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED["top-level-list"])
    done = run_module(tmp_path, "symcheck", str(bad))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("symcheck: ")


def test_readme_synopsis_lists_each_command_options():
    # README's "opball <command>" synopsis lines against the parser
    readme = (SRC.parent / "README.md").read_text().splitlines()
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for name, sub in commands.items():
        lines = [line for line in readme if line.startswith(f"opball {name} ")]
        assert len(lines) == 1, name
        documented = set(re.findall(r"--[a-z][a-z-]*", lines[0]))
        parsed = {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        assert documented == parsed - {"--help"}, name
