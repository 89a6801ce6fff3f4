"""Tests for report plumbing, suite dispatch, and the CLI surface."""

import itertools
import json
import os
import time

import numpy as np
import pytest

from magiclab import glue, prep, symplectic as sp, zxcat
from magiclab.cli import SUBCOMMANDS, flags_read, main
from magiclab.modular import double_fibonacci
from magiclab.reports import CheckReport, dump_state, load_state, sanitize, write_reports
from magiclab.statevec import StateVector
from magiclab.suites import SUITES, agsp_sweep, run_suite
from magiclab.zxcat import build


def test_sanitize_converts_numpy_and_complex():
    raw = {
        "scalar": np.float64(0.5),
        "int": np.int64(3),
        "flag": np.bool_(True),
        "vec": np.arange(3),
        "z": 1 + 2j,
        "nested": [(np.float32(1.0), {"k": np.complex128(1j)})],
    }
    clean = sanitize(raw)
    assert clean == {
        "scalar": 0.5,
        "int": 3,
        "flag": True,
        "vec": [0, 1, 2],
        "z": [1.0, 2.0],
        "nested": [[1.0, {"k": [0.0, 1.0]}]],
    }
    json.dumps(clean)  # round-trippable


def test_check_report_verdict_consistency():
    # the verdict is computed from observed <= bound, never given
    good = CheckReport("x", {}, 0.5, 1.0, 3)
    assert good.passed and good.to_dict()["pass"] is True
    assert good.to_dict()["runtime_ms"] == 3
    assert CheckReport("x", {}, 1.0, 1.0).passed
    assert not CheckReport("x", {}, 2.0, 1.0, 0).passed
    assert CheckReport("x", {}, 2.0, 1.0).to_dict()["pass"] is False
    # a NaN observed fails, wherever it came from
    assert not CheckReport("x", {}, float("nan"), 1.0).passed
    assert not CheckReport("x", {}, np.float64("nan"), 0).passed
    # without a bound there is no verdict to fail
    free = CheckReport("x", {"why": "construction"}, 1.0, None, 0)
    assert free.passed and free.to_dict()["bound"] is None
    with pytest.raises(TypeError):
        CheckReport("x", {}, 0.5, 1.0, True, 3)


def test_write_reports_atomic_json_and_jsonl(tmp_path):
    reports = [
        CheckReport("a", {"n": 2}, 0.0, 1e-9, 1),
        CheckReport("b", {}, 2.0, 1.0, 2),
    ]
    path = tmp_path / "out.json"
    write_reports(str(path), reports)
    parsed = json.loads(path.read_text())
    assert [r["check"] for r in parsed] == ["a", "b"]
    assert parsed[1]["pass"] is False
    lines_path = tmp_path / "out.jsonl"
    write_reports(str(lines_path), reports, jsonl=True)
    lines = lines_path.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["check"] == "a"
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_dump_state_interleaves_amplitudes(tmp_path):
    state = build(3, "i")
    path = tmp_path / "state.json"
    dump_state(str(path), state)
    snap = json.loads(path.read_text())
    assert snap["n"] == 3
    flat = np.asarray(snap["amps"])
    amps = flat[0::2] + 1j * flat[1::2]
    assert np.abs(amps - state.amps).max() <= 1e-15


def test_run_suite_exit_codes(tmp_path):
    assert run_suite("no-such-suite") == 2
    out = tmp_path / "glue.json"
    assert run_suite("glue", seed=3, trials=4, out=str(out)) == 0
    parsed = json.loads(out.read_text())
    assert all(r["pass"] for r in parsed)
    assert {"check", "params", "observed", "bound", "pass", "runtime_ms"} <= set(
        parsed[0]
    )


def test_run_suite_deterministic_modulo_runtime(tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in range(2)]
    for path in paths:
        assert run_suite("modular", seed=11, out=str(path)) == 0
    loaded = [json.loads(p.read_text()) for p in paths]
    stripped = [
        [{k: v for k, v in r.items() if k != "runtime_ms"} for r in run]
        for run in loaded
    ]
    assert stripped[0] == stripped[1]


def test_every_suite_is_registered():
    assert set(SUITES) == {"symplectic", "zxcat", "agsp", "prep", "modular", "glue"}


def test_agsp_sweep_rows():
    rows = agsp_sweep([16, 64], [2, 4, 70])
    # the m >= n entry is skipped
    assert [(r["n"], r["m"]) for r in rows] == [(16, 2), (16, 4), (64, 2), (64, 4)]
    for row in rows:
        assert row["sup_error"] <= row["bound"]
        assert row["coeff_sum"] == pytest.approx(row["p_minus_n"], rel=1e-9)


@pytest.mark.parametrize("n_list, m_list, lists", [
    ("16", "16,32", "n_list [16] and m_list [16, 32]"),
    ("1", "1,2,4,8", "n_list [1] and m_list [1, 2, 4, 8]"),
    ("", "2", "n_list [] and m_list [2]"),
])
def test_agsp_sweep_without_a_valid_cell_exits_two(n_list, m_list, lists, capsys):
    # only the CSV header, and exit 0, used to stand for "nothing to sweep"
    assert main(["agsp", "sweep", "--n-list", n_list, "--m-list", m_list]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: agsp sweep: {lists} give no cell with 1 <= m < n\n"


def test_cli_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_cli_invalid_params_exit_two(capsys):
    assert main(["prep", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: prep seed 0: need at least one qubit\n"
    assert main(["prep", "adaptive", "--n", "0", "--seed", "4"]) == 2
    assert capsys.readouterr().err == "error: prep adaptive seed 4: n=0 outside [1, 14]\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_cli_suite_rejects_trials_below_one(suite, trials, capsys):
    # a sampled check over no samples would pass vacuously
    assert main([suite, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert f"need at least one trial, got {trials}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("suite", ["symplectic", "prep", "all"])
def test_cli_suite_rejects_a_negative_or_infinite_tol(suite, tol, capsys):
    # no observed value meets a negative or nan bound, and every one meets inf
    assert main([suite, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert f"need a finite tolerance >= 0, got {float(tol)}" in captured.err
    assert captured.out == ""


def test_suite_error_lines_name_the_suite_and_seed(monkeypatch, capsys):
    assert run_suite("prep", seed=4, tol=-1.0) == 2
    assert "error: prep seed 4: need a finite tolerance" in capsys.readouterr().err

    def broken(*args, **kwargs):
        raise AssertionError("kernel element mismatch")

    monkeypatch.setattr(sp, "stabilizer_overlap", broken)
    assert run_suite("symplectic", seed=6) == 1
    err = capsys.readouterr().err
    assert "check failed: symplectic seed 6: kernel element mismatch" in err
    # under `all` the line names the suite that stopped
    assert run_suite("all", seed=6) == 1
    assert capsys.readouterr().err == "check failed: symplectic seed 6: kernel element mismatch\n"


def test_all_keeps_the_reports_of_the_suites_before_a_raise(monkeypatch, capsys, tmp_path):
    # an MI offset past check_premises' raise stops glue, the last suite;
    # the five suites before it finished, and their 29 reports are kept
    real = glue.mutual_information
    monkeypatch.setattr(glue, "mutual_information", lambda *a: real(*a) + 1e-7)
    path = os.path.join(os.path.dirname(__file__), "data", "all_seed0.json")
    with open(path) as fh:
        want = json.load(fh)[:29]
    line = "check failed: glue seed 0: first state correlates A with CD: I = 1.000e-07 bits\n"
    assert main(["all", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == line
    reports = json.loads(captured.out)
    assert all(r["pass"] for r in reports) and _without_runtime(reports) == want
    out = tmp_path / "all.json"
    assert run_suite("all", seed=0, out=str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == f"29 checks, 0 failed -> {out}\n" and captured.err == line
    assert _without_runtime(json.loads(out.read_text())) == want


def test_a_suite_that_raises_keeps_the_reports_it_yielded(monkeypatch, capsys):
    # crossterm-bound is zxcat's third check: the two before it are printed
    def broken(**kwargs):
        raise AssertionError("crossterm-bound trial 0: planted")

    monkeypatch.setattr(zxcat, "crossterm_bound_check", broken)
    path = os.path.join(os.path.dirname(__file__), "data", "all_seed0.json")
    with open(path) as fh:
        want = [r for r in json.load(fh) if r["check"] in ("mi-asymptote", "mi-near-asymptote")]
    assert main(["zxcat", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: zxcat seed 0: crossterm-bound trial 0: planted\n"
    reports = json.loads(captured.out)
    assert [r["check"] for r in reports] == ["mi-asymptote", "mi-near-asymptote"]
    assert all(r["pass"] for r in reports) and _without_runtime(reports) == want


@pytest.mark.parametrize("n", ["2", "3"])
def test_cli_zxcat_suite_runs_below_four_qubits(n, capsys):
    assert main(["zxcat", "--n", n, "--trials", "20"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 5 and all(r["pass"] for r in reports)


def test_mi_near_asymptote_under_a_cap_below_twelve_exits_two(capsys):
    # the check's 0.02 bound is for n = 12; at n = 8 a correct build drifts
    # 0.0332, so running it at the cap would fail a correct build
    assert main(["zxcat", "--n", "8", "--max-n", "8", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: zxcat seed 0: n=12 outside [2, 8]\n"
    reports = json.loads(captured.out)
    assert [r["check"] for r in reports] == ["mi-asymptote"] and reports[0]["pass"]


def test_cli_zxcat_suite_at_one_qubit_has_no_cone_pair(capsys):
    assert main(["zxcat", "--n", "1", "--trials", "20"]) == 2
    assert "no seed pair whose forward cones have disjoint backward cones" in capsys.readouterr().err


def test_cli_glue_run_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        assert main(["glue", "run", "--trials", trials]) == 2
        assert "need at least one trial" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_max_n_env_exits_two(monkeypatch, capsys, value):
    monkeypatch.setenv("MAGICLAB_MAX_N", value)
    assert main(["zxcat", "build", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "MAGICLAB_MAX_N" in err and repr(value) in err, err


@pytest.mark.parametrize("argv, env, named", [
    (["all", "--max-n", "0"], None, "--max-n"),
    (["agsp", "--max-n", "0"], None, "--max-n"),
    (["all"], "abc", "MAGICLAB_MAX_N"),
])
def test_cli_bad_dense_cap_exits_two_before_any_check(monkeypatch, capsys, argv, env, named):
    if env is None:
        monkeypatch.delenv("MAGICLAB_MAX_N", raising=False)
    else:
        monkeypatch.setenv("MAGICLAB_MAX_N", env)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err, (out, err)


@pytest.mark.parametrize("argv, flag", [
    (["agsp", "sweep", "--n-list", "16,abc"], "--n-list"),
    (["agsp", "sweep", "--m-list", "1,2.5"], "--m-list"),
    (["glue", "run", "--dims", "1,1,1,1,1,x"], "--dims"),
])
def test_cli_bad_int_list_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err and "invalid literal" not in err, err


def test_cli_suite_and_subcommands(tmp_path, capsys):
    assert main(["glue", "--trials", "3", "--seed", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 4 and all(r["pass"] for r in reports)

    assert main(["glue", "run", "--dims", "1,1,1,1,1,1", "--trials", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] and len(record["instances"]) == 2
    assert "premises" in record["instances"][0]

    assert main(["modular", "verlinde", "--genus", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["params"]["value"] == pytest.approx(225.0)


def test_cli_dump_state_snapshot(tmp_path, capsys):
    snap = tmp_path / "cat.json"
    assert main(["zxcat", "build", "--n", "4", "--variant", "plus",
                 "--dump-state", str(snap)]) == 0
    capsys.readouterr()
    data = json.loads(snap.read_text())
    flat = np.asarray(data["amps"])
    amps = flat[0::2] + 1j * flat[1::2]
    reference = build(4, "plus")
    assert data["n"] == 4
    assert np.abs(amps - reference.amps).max() <= 1e-15


def test_cli_lpu_search_with_data_file(tmp_path, capsys):
    payload = tmp_path / "fib.json"
    payload.write_text(double_fibonacci().to_json())
    assert main(["modular", "lpu-search", "--data", str(payload)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["pass"] is True
    assert record["check"] == "lpu-search-identity-only" and record["observed"] == 0.0
    assert record["params"]["survivors"] == 1
    assert record["survivors"] == [
        {"permutation": [0, 1, 2, 3], "phases": [1.0, 1.0, 1.0, 1.0]}
    ]
    assert main(["modular", "lpu-search", "--data", str(tmp_path / "no.json")]) == 2


def test_cli_data_file_names_a_missing_field(tmp_path, capsys):
    raw = json.loads(double_fibonacci().to_json())
    del raw["labels"]
    payload = tmp_path / "partial.json"
    payload.write_text(json.dumps(raw))
    assert main(["modular", "lpu-search", "--data", str(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: modular lpu-search: modular data lacks the field(s) labels\n"


@pytest.mark.parametrize("field, value, reason", [
    ("dims", 5, "5 is not a list"),
    ("s_body", [1, 2, 3, 4], "1 is not a list"),
    ("t_exponents", "0460", "'0460' is not a list"),
    ("labels", "4", "'4' is not an integer"),
    ("labels", True, "True is not an integer"),
    ("labels", 4.5, "4.5 is not an integer"),
    ("t_root_order", 10.5, "10.5 is not an integer"),
    ("t_exponents", [0, 4.9, 6, 0], "4.9 is not an integer"),
    ("s_prefactor", ["1"], "['1'] is not an [a, b] pair"),
    ("s_prefactor", "1", "'1' is not an [a, b] pair"),
    ("dims", [["1", "0"], ["0", "1", "0"], ["0", "1"], ["1", "1"]],
     "['0', '1', '0'] is not an [a, b] pair"),
    ("s_prefactor", [0.5, 0], "[0.5, 0]: golden components must be exact (int/Fraction/str)"),
])
def test_cli_data_file_names_a_field_of_the_wrong_form(field, value, reason, tmp_path, capsys):
    raw = json.loads(double_fibonacci().to_json())
    raw[field] = value
    payload = tmp_path / "bad.json"
    payload.write_text(json.dumps(raw))
    assert main(["modular", "lpu-search", "--data", str(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: modular lpu-search: modular data field {field}: {reason}\n"
    assert captured.out == ""


def test_cli_data_file_takes_integral_floats(tmp_path, capsys):
    raw = json.loads(double_fibonacci().to_json())
    raw["labels"], raw["t_exponents"], raw["t_root_order"] = 4.0, [0, 4.0, 6, 0], 10.0
    payload = tmp_path / "floats.json"
    payload.write_text(json.dumps(raw))
    assert main(["modular", "lpu-search", "--data", str(payload)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    raw["t_root_order"] = 0
    payload.write_text(json.dumps(raw))
    assert main(["modular", "lpu-search", "--data", str(payload)]) == 2
    assert capsys.readouterr().err == "error: modular lpu-search: t_root_order must be positive\n"


@pytest.mark.parametrize("argv", [
    ["zxcat", "--out"], ["zxcat", "build", "--out"], ["zxcat", "build", "--dump-state"],
    ["agsp", "sweep", "--csv"],
])
def test_write_errors_name_the_target_path(argv, tmp_path, capsys):
    # the temp file beside the target used to be the name in the message
    target = tmp_path / "missing" / "x.json"
    assert main([*argv, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"No such file or directory: '{target}'\n")
    assert ".tmp" not in err and not (tmp_path / "missing").exists()


def test_cli_agsp_sweep_csv(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    assert main(["agsp", "sweep", "--n-list", "16", "--m-list", "1,3",
                 "--csv", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert lines[0] == "n,m,sup_error,bound,coeff_sum,p_minus_n"
    assert len(lines) == 3


@pytest.mark.parametrize("flag", [
    ["--out", "sweep.csv"], ["--jsonl"], ["--seed", "3"], ["--n", "4"],
    ["--trials", "2"], ["--tol", "0.1"], ["--max-n", "5"],
])
def test_cli_agsp_sweep_rejects_suite_flags(flag, tmp_path, capsys, monkeypatch):
    # the sweep writes CSV through --csv and uses none of the suite flags,
    # before or after "sweep"; none may exit 0 and do nothing (or write nothing)
    monkeypatch.chdir(tmp_path)
    for argv in (["agsp", "sweep", *flag], ["agsp", *flag, "sweep"]):
        assert main([*argv, "--n-list", "16", "--m-list", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag[0] in captured.err
        assert "--csv" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_writes_suite_file(tmp_path, capsys):
    out = tmp_path / "agsp.json"
    assert main(["agsp", "--out", str(out), "--seed", "5"]) == 0
    assert "0 failed" in capsys.readouterr().out
    parsed = json.loads(out.read_text())
    assert all(r["pass"] for r in parsed)


def test_check_report_optional_runtime_and_construction_record():
    # a construction has no bound: its record passes, keeps any observed
    # value and, outside a suite, carries no runtime_ms
    record = CheckReport("build", {"n": 2}, {"norm": 1.0}, None).to_dict()
    assert record == {
        "check": "build", "params": {"n": 2}, "observed": {"norm": 1.0},
        "bound": None, "pass": True,
    }
    assert list(record) == ["check", "params", "observed", "bound", "pass"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["zxcat", "build", "--n", "5", "--variant", "i"], lambda: build(5, "i")),
        (["zxcat", "build", "--n", "4"], lambda: build(4, "plus")),
        (["zxcat", "build", "--n", "6", "--variant", "minus"], lambda: build(6, "minus")),
        (["prep", "adaptive", "--n", "3", "--trials", "4", "--seed", "2"],
         lambda: prep.adaptive_shots(3, 1, 5)[0][0].post_state),
        (["prep", "bell", "--n", "2", "--trials", "3", "--seed", "1"],
         lambda: prep.bell_shots(2, 1, 3)[0][1]),
    ],
)
def test_dump_state_loads_back(tmp_path, capsys, argv, expected):
    path = tmp_path / "state.json"
    assert main([*argv, "--dump-state", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dumped"] == str(path)
    assert "runtime_ms" not in record
    loaded = load_state(str(path))
    reference = expected()
    assert loaded.n == reference.n
    assert np.abs(loaded.amps - reference.amps).max() <= 1e-15


def test_suite_runtimes_add_up_to_at_most_wall_time(tmp_path):
    out = tmp_path / "all.json"
    start = time.perf_counter()
    assert run_suite("all", seed=0, out=str(out)) == 0
    wall_ms = (time.perf_counter() - start) * 1000
    reports = json.loads(out.read_text())
    assert len(reports) == 33
    assert sum(r["runtime_ms"] for r in reports) <= wall_ms


def test_max_n_flag_leaves_environment_as_it_was(monkeypatch, capsys):
    monkeypatch.delenv("MAGICLAB_MAX_N", raising=False)
    assert main(["zxcat", "build", "--n", "4", "--max-n", "5"]) == 0
    assert "MAGICLAB_MAX_N" not in os.environ
    monkeypatch.setenv("MAGICLAB_MAX_N", "9")
    assert main(["zxcat", "build", "--n", "4", "--max-n", "5"]) == 0
    assert os.environ["MAGICLAB_MAX_N"] == "9"
    # an invalid size still restores the caller's value
    assert main(["zxcat", "build", "--n", "7", "--max-n", "5"]) == 2
    assert os.environ["MAGICLAB_MAX_N"] == "9"


def test_premise_violation_in_a_check_exits_one(monkeypatch, capsys):
    def violated(inst, *args, **kwargs):
        raise glue.PremiseViolation("BC marginals differ by 1.000e-03")

    monkeypatch.setattr(glue, "check_premises", violated)
    assert run_suite("glue", seed=3) == 1
    err = capsys.readouterr().err
    assert "check failed: glue seed 3: BC marginals differ" in err
    assert main(["glue", "run", "--trials", "1", "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert "check failed: glue run seed 5: BC marginals differ" in err


def test_cli_verlinde_beyond_float_range(capsys):
    assert main(["modular", "verlinde", "--genus", "377"]) == 0
    record = json.loads(capsys.readouterr().out)
    golden = record["params"]["golden"]
    assert record["params"]["value"] is None and record["pass"] is True
    # dims 1, phi, phi, phi^2 give 5^(g-1) L_(g-1)^2 at odd g (L = Lucas numbers)
    lucas = [2, 1]
    while len(lucas) <= 376:
        lucas.append(lucas[-1] + lucas[-2])
    assert (int(golden["a"]), int(golden["b"])) == (5**376 * lucas[376] ** 2, 0)
    assert len(golden["a"]) == 420


def _without_runtime(node):
    if isinstance(node, dict):
        return {k: _without_runtime(v) for k, v in node.items() if k != "runtime_ms"}
    if isinstance(node, list):
        return [_without_runtime(v) for v in node]
    return node


def test_all_seed0_matches_committed_reports(capsys):
    # A change that moves any report value on purpose (say, a new RNG
    # stream) regenerates tests/data/all_seed<seed>.json and says why. The
    # second seed checks a bit-identity claim beyond seed 0's draws.
    for seed in (0, 3):
        path = os.path.join(os.path.dirname(__file__), "data", f"all_seed{seed}.json")
        with open(path) as fh:
            want = json.load(fh)
        assert main(["all", "--seed", str(seed)]) == 0
        assert _without_runtime(json.loads(capsys.readouterr().out)) == want, seed


def test_readme_flags_table_matches_the_signatures():
    # each row's last cell is what flags_read derives for its command
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| command | reports | flags it reads |") + 2
    rows = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells[-1]
    commands = ["all", *SUITES]
    commands += [f"{suite} {action}" for suite, table in SUBCOMMANDS.items() for action in table]
    assert sorted(rows) == sorted(commands)
    for command, documented in rows.items():
        reads = flags_read(*command.split())
        derived = " ".join(flag if d is None else f"{flag} {d}" for flag, d in reads.items())
        assert documented == derived, command


def _help_flags(argv, capsys) -> dict:
    """Each flag in the command's help, mapped to its lines of help."""
    with pytest.raises(SystemExit) as done:
        main([*argv, "--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    options = text[text.index("options:"):].splitlines()[1:]
    flags = {}
    for line in options:
        if line.startswith("  -"):
            last = line.split()[0].rstrip(",")
            flags[last] = line.strip()
        elif line.strip():  # help text on its own line, under a long flag
            flags[last] += " " + line.strip()
    return flags


ACTIONS = [f"{suite} {action}" for suite, table in SUBCOMMANDS.items() for action in table]


@pytest.mark.parametrize("command", ["all", *SUITES, *ACTIONS])
def test_help_lists_exactly_the_flags_read(command, capsys):
    reads = flags_read(*command.split())
    shown = _help_flags(command.split(), capsys)
    assert sorted(shown) == sorted(["-h", *reads])
    for flag, default in reads.items():
        if default is not None:
            assert shown[flag].endswith(f" (default {default})"), shown[flag]
