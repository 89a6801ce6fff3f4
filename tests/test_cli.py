"""Tests for report plumbing, suite dispatch, and the CLI surface."""

import itertools
import json
import os
import time

import numpy as np
import pytest

from magiclab import glue, prep, symplectic as sp
from magiclab.cli import SUBCOMMANDS, flags_read, main
from magiclab.modular import double_fibonacci
from magiclab.reports import CheckReport, dump_state, load_state, sanitize, write_reports
from magiclab.statevec import StateVector
from magiclab.suites import SUITES, agsp_sweep, run_suite
from magiclab.zxcat import build


def test_package_exports_each_public_name_once():
    import types

    import magiclab

    public = {
        name for name, value in vars(magiclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(magiclab.__all__) == len(set(magiclab.__all__))
    assert set(magiclab.__all__) == public


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


def test_cli_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


def test_cli_invalid_params_exit_two(capsys):
    assert main(["prep", "sandwich", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: prep sandwich: need at least one qubit\n"
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


@pytest.mark.parametrize("n", ["2", "3"])
def test_cli_zxcat_suite_runs_below_four_qubits(n, capsys):
    assert main(["zxcat", "--n", n, "--trials", "20"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 5 and all(r["pass"] for r in reports)


def test_cli_zxcat_suite_at_one_qubit_has_no_cone_pair(capsys):
    assert main(["zxcat", "--n", "1", "--trials", "20"]) == 2
    assert "no seed pair with disjoint forward cones" in capsys.readouterr().err


def test_cli_glue_run_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        assert main(["glue", "run", "--trials", trials]) == 2
        assert "need at least one trial" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_max_n_env_exits_two(monkeypatch, capsys, value):
    monkeypatch.setenv("MAGICLAB_MAX_N", value)
    assert main(["zxcat", "mi", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "MAGICLAB_MAX_N" in err and repr(value) in err, err


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
    assert record["observed"]["value"] == pytest.approx(225.0)

    assert main(["prep", "mps", "--n", "5", "--boundary", "periodic"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["check"] == "mps-overlap" and record["bound"] == 1e-12
    assert record["observed"] <= 1e-12


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


def test_load_state_reads_legacy_amplitudes_key(tmp_path):
    state = build(3, "plus")
    flat = np.empty(16)
    flat[0::2], flat[1::2] = state.amps.real, state.amps.imag
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"n": 3, "amplitudes": flat.tolist()}))
    assert np.abs(load_state(str(path)).amps - state.amps).max() <= 1e-15


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["zxcat", "build", "--n", "5", "--variant", "i"], lambda: build(5, "i")),
        (["prep", "sandwich", "--n", "6"], lambda: prep.prepare_sandwich(6)),
        (["prep", "mps", "--n", "5", "--boundary", "periodic"],
         lambda: prep.mps_contract(5, boundary="periodic")),
        (["prep", "adaptive", "--n", "3", "--trials", "4", "--seed", "2"],
         lambda: prep.adaptive_run(3, seed=5).post_state),
        (["prep", "bell", "--n", "2", "--trials", "3", "--seed", "1"],
         lambda: prep.bell_protocol_run(2, seed=3)[1]),
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
    assert main(["zxcat", "mi", "--n", "4", "--max-n", "5"]) == 0
    assert "MAGICLAB_MAX_N" not in os.environ
    monkeypatch.setenv("MAGICLAB_MAX_N", "9")
    assert main(["zxcat", "mi", "--n", "4", "--max-n", "5"]) == 0
    assert os.environ["MAGICLAB_MAX_N"] == "9"
    # an invalid size still restores the caller's value
    assert main(["zxcat", "mi", "--n", "7", "--max-n", "5"]) == 2
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
    golden = record["observed"]["golden"]
    assert record["observed"]["value"] is None and record["pass"] is True
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
    # stream) regenerates tests/data/all_seed0.json and says why.
    path = os.path.join(os.path.dirname(__file__), "data", "all_seed0.json")
    with open(path) as fh:
        want = json.load(fh)
    assert main(["all", "--seed", "0"]) == 0
    assert _without_runtime(json.loads(capsys.readouterr().out)) == want


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
