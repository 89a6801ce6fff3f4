"""Every rewritten rule can fail, in its suite and in its subcommand twin.

Each planted defect below is a monkeypatched library function.  It must
make the suite's report read `pass: false` and `magiclab <suite>` exit 1,
and make the subcommand that reports the same check exit 1 too: both go
through one rule.  The unread-flag tests cover every suite and subcommand.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from magiclab import agsp, glue, modular, prep, statevec as sv, suites, symplectic as sp, zxcat
from magiclab.cli import SUBCOMMANDS, flags_read, main


def _worse_shots(real):
    return lambda *a, **k: [(record, o - 1e-6) for record, o in real(*a, **k)]


def _worse_bell(real):
    return lambda *a, **k: [
        (ok, state, o - 1e-6 if ok else o) for ok, state, o in real(*a, **k)
    ]


def _stray_survivor(real):
    swap = modular.MonomialCandidate((0, 2, 1, 3), (1.0, 1.0, 1.0, 1.0))
    return lambda data: [*real(data), swap]


def _missed_conclusion(real):
    def merge(inst):
        glued, residuals = real(inst)
        return glued, {**residuals, "abc_marginal": 1e-3}

    return merge


def _phase_slip(real):
    def product(p, q):
        pq = real(p, q)
        return sp.PauliString(pq.n, pq.x, pq.z, pq.phase + 2) if q.phase == 2 else pq

    return product


def _flipped(p):
    return sp.PauliString(p.n, p.x, p.z, p.phase ^ 2)


def _sign_slip(real):
    # products of two or more generators come out with the wrong sign
    return lambda s, mask: _flipped(real(s, mask)) if mask.bit_count() >= 2 else real(s, mask)


def _adjoint_sign_slip(real):
    def adjoint(c):
        adj = real(c)
        return sp.CliffordMap(adj.n, (_flipped(adj.x_images[0]), *adj.x_images[1:]), adj.z_images)

    return adjoint


# (suite, check, module, attribute, defect built from the original, twin argv)
DEFECTS = {
    "crossterm-bound": (
        "zxcat", "crossterm-bound", sv, "matrix_action",
        lambda real: lambda amps, *a: np.full_like(amps, np.nan), None,
    ),
    "cu-correlation-witness": (
        "zxcat", "cu-correlation-witness", sv, "pauli_expectation",
        lambda real: lambda v, p: 0.0, ["zxcat", "witness-cu", "--n", "8"],
    ),
    "uc-sign-witness": (
        "zxcat", "uc-sign-witness", sv, "fidelity",
        lambda real: lambda a, b: 0.5, ["zxcat", "witness-uc", "--n", "8"],
    ),
    "sandwich-overlap": (
        "prep", "sandwich-overlap", prep, "prepare_sandwich",
        lambda real: lambda n: zxcat.build(n, "plus"), ["prep", "sandwich", "--n", "6"],
    ),
    "mps-overlap": (
        "prep", "mps-overlap", prep, "mps_contract",
        lambda real: lambda n, boundary="open": zxcat.build(n, "minus"),
        ["prep", "mps", "--n", "6"],
    ),
    "adaptive-collapse-fidelity": (
        "prep", "adaptive-collapse-fidelity", prep, "adaptive_shots", _worse_shots,
        ["prep", "adaptive", "--n", "4", "--trials", "5"],
    ),
    "bell-accepted-fidelity": (
        "prep", "bell-accepted-fidelity", prep, "bell_shots", _worse_bell,
        ["prep", "bell", "--n", "2", "--trials", "20"],
    ),
    "conclusions": (
        "glue", "conclusions", glue, "merge", _missed_conclusion,
        ["glue", "run", "--trials", "2"],
    ),
    "lpu-search-identity-only": (
        "modular", "lpu-search-identity-only", modular, "lpu_search", _stray_survivor,
        ["modular", "lpu-search"],
    ),
    "mi-numeric": (
        "zxcat", "mi-near-asymptote", zxcat, "mi_numeric",
        lambda real: lambda n: -0.1, ["zxcat", "mi", "--n", "6"],
    ),
    "overlap-vs-dense": (
        "symplectic", "overlap-vs-dense", sp.StabilizerState, "element", _sign_slip, None,
    ),
    "sandwich-vs-dense": (
        "symplectic", "sandwich-vs-dense", sp, "pauli_sandwich",
        lambda real: lambda s2, p, s1: real(s2, sp.PauliString.identity(p.n), s1), None,
    ),
    "clifford-roundtrip": (
        "symplectic", "clifford-roundtrip", sp.CliffordMap, "adjoint", _adjoint_sign_slip, None,
    ),
    "product-associativity": (
        "symplectic", "product-associativity", sp, "pauli_product", _phase_slip, None,
    ),
    "depth-threshold-growth": (
        "agsp", "depth-threshold-growth", agsp, "complexity_bound",
        lambda real: lambda *a: dataclasses.replace(real(*a), depth_threshold=0), None,
    ),
    "scalar-rigidity": (
        "modular", "scalar-rigidity", modular, "scalar_rigidity_trial",
        lambda real: lambda *a, **k: None, None,
    ),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("rule", sorted(DEFECTS))
def test_planted_defect_fails_suite_and_subcommand(rule, monkeypatch):
    suite, check, module, attr, defect, twin = DEFECTS[rule]
    if twin is not None:
        code, out = _run(twin)
        assert code == 0 and json.loads(out)["pass"] is True
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    code, out = _run([suite, "--seed", "0"])
    assert code == 1
    verdicts = {r["check"]: r["pass"] for r in json.loads(out)}
    assert verdicts[check] is False
    if twin is not None:
        code, out = _run(twin)
        record = json.loads(out)
        assert code == 1 and record["pass"] is False
        if rule != "mi-numeric":
            assert record["check"] == check


def test_planted_defect_fails_under_optimize_flag():
    code = (
        "import contextlib, io\n"
        "from magiclab import statevec as sv\n"
        "from magiclab.cli import main\n"
        "sv.fidelity = lambda a, b: 0.5\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = main(['zxcat']), main(['zxcat', 'witness-uc', '--n', '6'])\n"
        "print(__debug__, *codes)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False", "1", "1"]


@pytest.mark.parametrize("poisoned_call", [1, 2, 5])
def test_crossterm_nan_fails_wherever_it_sits(poisoned_call, monkeypatch):
    # Python's max(0.0, nan) keeps 0.0; the worst ratio must not drop a NaN
    real, calls = sv.matrix_action, []

    def action(amps, *args):
        calls.append(1)
        out = real(amps, *args)
        return np.full_like(out, np.nan) if len(calls) == poisoned_call else out

    monkeypatch.setattr(sv, "matrix_action", action)
    rep = zxcat.crossterm_bound_check(n=6, trials=5)
    assert np.isnan(rep.observed) and not rep.passed
    assert rep.params["violations"] == 1


def test_witnesses_fail_on_nan(monkeypatch):
    monkeypatch.setattr(sv, "fidelity", lambda a, b: np.nan)
    assert not zxcat.uc_sign_witness(6).passed
    monkeypatch.setattr(sv, "pauli_expectation", lambda v, p: np.nan)
    assert not zxcat.cu_correlation_witness(6).passed


def test_crossterm_slack_is_never_looser_than_either_old_rule():
    # old rules: ratio <= 1 + 1e-9, and cross term <= 2^{a - n/2} + 1e-9;
    # the 1e-6 forgives the rounding of 1 + slack, not the slack itself
    for n in range(1, 15):
        for max_support in range(1, 7):
            top = min(max_support, n)
            bound = zxcat.crossterm_bound_check(n, trials=1, max_support=max_support).bound
            assert bound <= 1.0 + 1e-9
            for a in range(1, top + 1):
                assert (bound - 1.0) * 2.0 ** (a - n / 2.0) <= 1e-9 * (1 + 1e-6)
    assert zxcat.crossterm_bound_check(10, trials=1).bound == 1.0 + 1e-9


def test_indist_random_hermitian_bound_is_derived(monkeypatch):
    reports = {r.check: r for r in suites.suite_agsp(seed=0, trials=2)}
    assert reports["indist-random-hermitian"].bound == pytest.approx(2.41657, abs=1e-5)
    monkeypatch.setattr(agsp, "indist_random", lambda *args: 2.5)
    reports = {r.check: r for r in suites.suite_agsp(seed=0, trials=2)}
    assert not reports["indist-random-hermitian"].passed


def _nan_on_call(k):
    """A defect whose k-th call returns NaN; the other calls run as they were."""

    def defect(real):
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(1)
            return np.nan if len(calls) == k else real(*args, **kwargs)

        return poisoned

    return defect


# (suite, module, attribute, defect): one sampled value of the check turns NaN
NAN_SITES = {
    "overlap-vs-dense": ("symplectic", sp, "stabilizer_overlap", _nan_on_call(3)),
    "sandwich-vs-dense": ("symplectic", sp, "pauli_sandwich", _nan_on_call(2)),
    "clifford-roundtrip": ("symplectic", sv, "pure_overlap", _nan_on_call(2)),
    "indist-random-hermitian": ("agsp", agsp, "indist_random", _nan_on_call(1)),
    "off-pattern-moduli": ("modular", modular, "offdiag_modulus_scan", _nan_on_call(2)),
}


@pytest.mark.parametrize("check", sorted(NAN_SITES))
def test_a_nan_sample_fails_its_check(check, monkeypatch):
    # Python's max(0.0, nan) keeps 0.0; each worst value must keep the NaN
    suite, module, attr, defect = NAN_SITES[check]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    report = {r.check: r for r in suites.SUITES[suite](seed=0, trials=3)}[check]
    assert np.isnan(report.observed) and not report.passed


def _word_scan(patch):
    patch.setattr(sv, "_word_expectations", lambda word, pair: (np.nan, np.nan))
    return agsp.indist_words(4, 2)


def _random_scan(patch):
    patch.setattr(sv, "matrix_action", lambda amps, *args: np.full_like(amps, np.nan))
    return agsp.indist_random(4, 2, 3, 0)


def _combined_scan(patch):
    patch.setattr(agsp, "indist_random", lambda *args: np.nan)
    return agsp.local_indist_scan(4, 2, random_trials=2)


def _modulus_blocks(patch):
    data = modular.double_fibonacci()
    real_rng = np.random.default_rng

    class SecondBlockNan:  # 300 samples make two blocks of phase draws
        def __init__(self, seed):
            self.rng, self.draws = real_rng(seed), 0

        def random(self, shape):
            self.draws += 1
            return self.rng.random(shape) * (np.nan if self.draws == 2 else 1.0)

    patch.setattr(np.random, "default_rng", SecondBlockNan)
    perm = modular.dim_preserving_perms(data.dims)[-1]
    return modular.offdiag_modulus_scan(data, perm, samples=300)


@pytest.mark.parametrize("scan", [_word_scan, _random_scan, _combined_scan, _modulus_blocks])
def test_scans_keep_a_nan(scan, monkeypatch):
    assert np.isnan(scan(monkeypatch))


_VALUES = {"--n": "4", "--seed": "3", "--tol": "0.1", "--trials": "2",
           "--out": "x.json", "--jsonl": None, "--max-n": "5"}


@pytest.mark.parametrize(
    "suite, action",
    [(suite, None) for suite in suites.SUITES]
    + [(suite, action) for suite, table in SUBCOMMANDS.items() for action in table],
)
def test_subcommands_reject_every_unread_flag(suite, action, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    reads = flags_read(suite, action)
    label = suite if action is None else f"{suite} {action}"
    seed = f" seed {reads['--seed']}" if "--seed" in reads else ""
    unread = [flag for flag in _VALUES if flag not in reads]
    assert unread or action is None
    for flag in unread:
        given = [flag] if _VALUES[flag] is None else [flag, _VALUES[flag]]
        argvs = [[suite, *given]] if action is None else [
            [suite, action, *given], [suite, *given, action]
        ]
        for argv in argvs:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: {label}{seed}: takes no {flag}; it reads {', '.join(reads)}\n"
            )
            assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reads", [
    (["glue", "--n", "5"], "--seed, --trials, --out, --jsonl, --max-n"),
    (["modular", "--n", "3"], "--seed, --trials, --out, --jsonl, --max-n"),
    (["zxcat", "--tol", "1e-3"], "--n, --seed, --trials, --out, --jsonl, --max-n"),
    (["agsp", "--tol", "1e-3"], "--n, --seed, --trials, --out, --jsonl, --max-n"),
])
def test_suites_reject_the_flags_they_do_not_read(argv, reads, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {argv[0]} seed 0: takes no {argv[1]}; it reads {reads}\n"
    assert captured.out == ""


def test_all_passes_each_flag_to_the_suites_that_read_it(capsys):
    assert main(["all", "--n", "4", "--tol", "1e-3"]) == 0
    reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports["zero-plus-overlap"]["params"]["n"] == 4
    assert reports["overlap-vs-dense"]["bound"] == 1e-3
    assert reports["sandwich-overlap"]["params"]["n"] == 4
    assert reports["sandwich-overlap"]["bound"] == 1e-3
    assert reports["step-error"]["params"]["n"] == 4
    assert reports["premises"]["params"]["trials"] == 20


def test_overlap_subcommands_read_tol(capsys):
    for suite, action, *rest in (["prep", "sandwich", "--n", "8"],
                                 ["prep", "mps", "--n", "6"]):
        assert main([suite, action, *rest]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == suites.PREP_TOL
        # a deviation of 3e-16 misses 1e-300, given before or after the name
        for argv in ([suite, "--tol", "1e-300", action, *rest],
                     [suite, action, *rest, "--tol", "1e-300"]):
            assert main(argv) == 1
            assert json.loads(capsys.readouterr().out)["bound"] == 1e-300
        for tol in ("-1", "nan", "inf"):
            assert main([suite, action, *rest, "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert f"need a finite tolerance >= 0, got {float(tol)}" in captured.err
            assert captured.out == ""
