"""Every rewritten rule can fail, in its suite and in its subcommand twin.

Each planted defect below is a monkeypatched library function.  It must
make the suite's report read `pass: false` and `magiclab <suite>` exit 1.
Where a subcommand reports the same check (prep adaptive and bell, glue
run, modular lpu-search), it must exit 1 too: both go through one rule.
A gate test keeps every check that `magiclab all` emits in DEFECTS.  The
unread-flag tests cover every suite and subcommand.
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


def _always_accepts(real):
    def shots(*args, **kwargs):
        return [
            (prep.AdaptiveRunRecord((0,) * len(record.outcomes), record.post_state), o)
            for record, o in real(*args, **kwargs)
        ]

    return shots


def _rate_without_half(real):
    # |<V>+ - <V>-| measured against the rate 2^{a - n}, not 2^{a - n/2}
    return lambda n, *rest: real(n, *rest) * 2.0 ** (n / 2.0)


def _stray_survivor(real):
    swap = modular.MonomialCandidate((0, 2, 1, 3), (1.0, 1.0, 1.0, 1.0))
    return lambda data: [*real(data), swap]


def _threshold_plus_one(real):
    # [2, 3, 4, 5] -> [3, 4, 5, 6] still grows and stays positive
    def bound(*args):
        cb = real(*args)
        return dataclasses.replace(cb, depth_threshold=cb.depth_threshold + 1)

    return bound


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


def _sign_slip(real):
    # products of two or more generators come out with the wrong sign
    def element(s, mask):
        x, z, phase = real(s, mask)
        return x, z, (phase ^ 2 if mask.bit_count() >= 2 else phase)

    return element


def _adjoint_sign_slip(real):
    # the inverse's image of X_0 comes out negated
    def adjoint(c):
        adj = real(c)
        return dataclasses.replace(adj, signs=adj.signs ^ 1)

    return adjoint


def _skewed_right_side(real):
    def identity(poly):
        total, p_minus_n = real(poly)
        return total, p_minus_n * (1 + 1e-6)

    return identity


def _unitary_times_i(real):
    # i S (or i T) is still unitary, so the data builds; S^2 and (ST)^3 move
    return lambda data: 1j * real(data)


def _premise_residual(real):
    # a residual below check_premises' own 1e-8 raise, above the 1e-10 bound
    return lambda inst, *a, **k: {**real(inst, *a, **k), "mi_a_cd": 1e-9}


# (suite, check, module, attribute, defect built from the original, twin argv)
DEFECTS = {
    "crossterm-bound": (
        "zxcat", "crossterm-bound", sv, "matrix_action",
        lambda real: lambda amps, *a: np.full_like(amps, np.nan), None,
    ),
    "cu-correlation-witness": (
        "zxcat", "cu-correlation-witness", sv, "pauli_expectation",
        lambda real: lambda v, p: 0.0, None,
    ),
    "uc-sign-witness": (
        "zxcat", "uc-sign-witness", sv, "fidelity",
        lambda real: lambda a, b: 0.5, None,
    ),
    "sandwich-overlap": (
        "prep", "sandwich-overlap", prep, "prepare_sandwich",
        lambda real: lambda n: zxcat.build(n, "plus"), None,
    ),
    "mps-overlap": (
        "prep", "mps-overlap", prep, "mps_contract",
        lambda real: lambda n, boundary="open": zxcat.build(n, "minus"), None,
    ),
    "adaptive-collapse-fidelity": (
        "prep", "adaptive-collapse-fidelity", prep, "adaptive_shots", _worse_shots,
        ["prep", "adaptive", "--n", "4", "--trials", "5"],
    ),
    "adaptive-sampled-rate": (
        "prep", "adaptive-sampled-rate", prep, "adaptive_shots", _always_accepts, None,
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
    "mi-near-asymptote": (
        "zxcat", "mi-near-asymptote", zxcat, "mi_numeric", lambda real: lambda n: -0.1, None,
    ),
    "zero-plus-overlap": (
        "symplectic", "zero-plus-overlap", sp, "stabilizer_overlap",
        lambda real: lambda s1, s2: real(s1, s2) * (1 + 1e-6), None,
    ),
    "overlap-vs-dense": (
        "symplectic", "overlap-vs-dense", sp.StabilizerState, "element", _sign_slip, None,
    ),
    "sandwich-vs-dense": (
        "symplectic", "sandwich-vs-dense", sp, "pauli_sandwich",
        lambda real: lambda s2, p, s1: real(s2, sp.PauliString(p.n, 0, 0), s1), None,
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
    "depth-threshold-off-by-one": (
        "agsp", "depth-threshold-growth", agsp, "complexity_bound", _threshold_plus_one, None,
    ),
    "indist-word-ratio": (
        "agsp", "indist-word-ratio", agsp, "indist_words", _rate_without_half, None,
    ),
    "indist-random-hermitian": (
        "agsp", "indist-random-hermitian", agsp, "indist_random", _rate_without_half, None,
    ),
    "scalar-rigidity": (
        "modular", "scalar-rigidity", modular, "scalar_rigidity_trial",
        lambda real: lambda *a, **k: None, None,
    ),
    "step-error": (
        "agsp", "step-error", agsp, "step_error_sup",
        lambda real: lambda poly: real(poly) + poly.error_bound(), None,
    ),
    "coefficient-mass-identity": (
        "agsp", "coefficient-mass-identity", agsp, "coeff_sum_identity", _skewed_right_side, None,
    ),
    "operator-vs-step": (
        "agsp", "operator-vs-step", agsp, "agsp_operator_check",
        lambda real: lambda n, m: real(n, m) + 1.0, None,
    ),
    "global-clifford-certificate": (
        "prep", "global-clifford-certificate", prep, "verify_global_clifford",
        lambda real: lambda n: False, None,
    ),
    "adaptive-success-probability": (
        "prep", "adaptive-success-probability", prep, "adaptive_success_probability",
        lambda real: lambda n: real(n) + 1e-9, None,
    ),
    "s-squared-identity": (
        "modular", "s-squared-identity", modular.ModularData, "s_numeric", _unitary_times_i, None,
    ),
    "st-cubed-relation": (
        "modular", "st-cubed-relation", modular.ModularData, "t_numeric", _unitary_times_i, None,
    ),
    "genus-two-dimension": (
        "modular", "genus-two-dimension", modular, "verlinde_dim",
        lambda real: lambda dims, genus: real(dims, genus) + 1, None,
    ),
    "off-pattern-moduli": (
        "modular", "off-pattern-moduli", modular, "off_pattern_supremum",
        lambda real: lambda data: modular.GoldenNumber(1), None,
    ),
    "premises": ("glue", "premises", glue, "check_premises", _premise_residual, None),
    "middle-factor-purity": (
        "glue", "middle-factor-purity", glue, "shared_factor_entropy",
        lambda real: lambda inst: real(inst) + 1e-6, None,
    ),
    "petz-matches-unitary": (
        "glue", "petz-matches-unitary", glue, "petz_glue",
        lambda real: lambda inst, *a, **k: real(inst, *a, **k) + 1e-6, None,
    ),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _record(out):
    """The one report a subcommand prints, in its JSON array."""
    (record,) = json.loads(out)
    return record


@pytest.mark.parametrize("rule", sorted(DEFECTS))
def test_planted_defect_fails_suite_and_subcommand(rule, monkeypatch):
    suite, check, module, attr, defect, twin = DEFECTS[rule]
    if twin is not None:
        code, out = _run(twin)
        assert code == 0 and _record(out)["pass"] is True
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    code, out = _run([suite, "--seed", "0"])
    assert code == 1
    verdicts = {r["check"]: r["pass"] for r in json.loads(out)}
    assert verdicts[check] is False
    if twin is not None:
        code, out = _run(twin)
        record = _record(out)
        assert code == 1 and record["pass"] is False and record["check"] == check


# mi-asymptote checks one literal against another: its planted defect
# waits until the value is computed (ROADMAP item 9)
WAITING = {"mi-asymptote"}


def test_every_emitted_check_has_a_planted_defect():
    code, out = _run(["all", "--seed", "0"])
    assert code == 0
    emitted = {r["check"] for r in json.loads(out)}
    covered = {check for _, check, *_ in DEFECTS.values()}
    assert emitted == covered | WAITING
    assert not covered & WAITING


def test_verlinde_off_by_one_fails(monkeypatch):
    assert _run(["modular", "verlinde", "--genus", "3"])[0] == 0
    real = modular.verlinde_dim
    monkeypatch.setattr(modular, "verlinde_dim", lambda dims, genus: real(dims, genus) + 1)
    code, out = _run(["modular", "verlinde", "--genus", "3"])
    record = _record(out)
    assert code == 1 and record["pass"] is False
    # 226 is a positive integer, but not the square of 15 + 1
    assert record["observed"] == 1 and record["params"]["golden"] == {"a": "226", "b": "0"}


def test_planted_defect_fails_under_optimize_flag():
    code = (
        "import contextlib, io\n"
        "from magiclab import statevec as sv\n"
        "from magiclab.cli import main\n"
        "sv.fidelity = lambda a, b: 0.5\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['zxcat'])\n"
        "print(__debug__, code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False", "1"]


# Defects planted inside the library functions whose values a report judges.
# Each function must return its value under the defect, not raise, so that
# the report is printed and is the one verdict.

def _phase_ramp(real):
    # a 1e-4 phase ramp over the basis states on the sandwich's middle layer
    return lambda n: real(n) * np.exp(1e-4j * np.arange(1 << n))


def _heavier_block(real):
    blocks = real.copy()
    blocks[1, 1, 1] *= 1 + 1e-3
    return blocks


def _longer_minus_bra(real):
    return (real[0], real[1] * (1 + 1e-6))


def _tilted_bell_bra(real):
    return {**real, "I": np.array([1, 0, 0, np.exp(1e-3j)]) / np.sqrt(2)}


def _squares_to_minus_one(real):
    def product(p, q):
        pq = real(p, q)
        return sp.PauliString(pq.n, pq.x, pq.z, (pq.phase + 2) % 4)

    return product


def _tripled_a2_at_degree_3(real):
    # still a valid polynomial (signs alternate, P(0) = 1); degree 3 only,
    # so the step-error check's degree-4 polynomial is left as it is
    def build(n, m):
        poly = real(n, m)
        if m != 3:
            return poly
        nums = list(poly.numerators)
        nums[2] *= 3
        return agsp.AgspPolynomial(n, m, tuple(nums), poly.denominator)

    return build


def _miss(variant, *states):
    """Worst 1 - |<state|cat>| / (|state| |cat|) over `states`, as the overlap checks compute it."""
    target = zxcat.build(states[0].n, variant)
    t = np.linalg.norm(target.amps)
    return max(1.0 - sv.pure_overlap(s, target) / (np.linalg.norm(s.amps) * t) for s in states)


def _bell_miss(n, trials):
    return max(1.0 - o for ok, _, o in prep.bell_shots(n, trials, 0) if ok)


# check: (suite, module, attribute, defect, the suite's residual, twin argv,
# the twin's residual); a residual calls the library under the defect
INNER_DEFECTS = {
    "sandwich-overlap": (
        "prep", prep, "_phase_layer_diag", _phase_ramp,
        lambda: _miss("i", prep.prepare_sandwich(8)), None, None,
    ),
    "mps-overlap": (
        "prep", prep, "MPS_BLOCKS", _heavier_block,
        lambda: _miss("plus", *(prep.mps_contract(10, b) for b in ("open", "periodic"))),
        None, None,
    ),
    "adaptive-success-probability": (
        "prep", prep, "_X_BRAS", _longer_minus_bra,
        lambda: abs(prep.adaptive_success_probability(7) - (1.0 + 2.0**-3.5) / 2.0),
        None, None,
    ),
    "bell-accepted-fidelity": (
        "prep", prep, "_BELL_BRAS", _tilted_bell_bra, lambda: _bell_miss(4, 120),
        ["prep", "bell"], lambda: _bell_miss(4, 50),
    ),
    "global-clifford-certificate": (
        "prep", prep, "pauli_product", _squares_to_minus_one,
        lambda: 0.0 if prep.verify_global_clifford(64) else 1.0, None, None,
    ),
    "operator-vs-step": (
        "agsp", agsp, "build_polynomial", _tripled_a2_at_degree_3,
        lambda: agsp.agsp_operator_check(10, 3), None, None,
    ),
}


@pytest.mark.parametrize("check", sorted(INNER_DEFECTS))
def test_a_defect_inside_the_library_fails_its_report(check, monkeypatch):
    suite, module, attr, defect, residual, twin, twin_residual = INNER_DEFECTS[check]
    # the Bell site state is cached: build it from the real MPS_BLOCKS first
    prep._site_state.cache_clear()
    prep._site_state()
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    code, out = _run([suite, "--seed", "0"])
    report = {r["check"]: r for r in json.loads(out)}[check]
    assert code == 1 and report["pass"] is False
    assert report["observed"] == residual() > report["bound"]
    if twin is not None:
        code, out = _run(twin)
        record = _record(out)
        assert code == 1 and record["pass"] is False and record["check"] == check
        assert record["observed"] == twin_residual() > record["bound"]


def test_verify_global_clifford_returns_false_on_a_bad_image(monkeypatch):
    assert prep.verify_global_clifford(3) is True
    monkeypatch.setattr(prep, "pauli_product", _squares_to_minus_one(prep.pauli_product))
    assert prep.verify_global_clifford(3) is False
    assert prep.verify_global_clifford(64) is False
    # a dense-only defect: the symbolic images hold, their dense form does not
    monkeypatch.undo()
    monkeypatch.setattr(prep, "_phase_layer_diag", _phase_ramp(prep._phase_layer_diag))
    assert prep.verify_global_clifford(3) is False
    assert prep.verify_global_clifford(64) is True


def test_sandwich_defect_leaves_every_other_report(monkeypatch):
    monkeypatch.setattr(prep, "_phase_layer_diag", _phase_ramp(prep._phase_layer_diag))
    code, out = _run(["all", "--seed", "0"])
    reports = json.loads(out)
    assert code == 1 and len(reports) == 33
    assert [r["check"] for r in reports if not r["pass"]] == ["sandwich-overlap"]
    # the prep suite's --tol is the one tolerance of its overlap checks
    assert _run(["prep"])[0] == 1
    code, out = _run(["prep", "--tol", "1e-4"])
    assert code == 0 and all(r["pass"] for r in json.loads(out))


def test_sandwich_defect_fails_by_report_under_optimize_flag():
    code = (
        "import contextlib, io, json\n"
        "import numpy as np\n"
        "from magiclab import prep\n"
        "from magiclab.cli import main\n"
        "real = prep._phase_layer_diag\n"
        "prep._phase_layer_diag = lambda n: real(n) * np.exp(1e-4j * np.arange(1 << n))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['all', '--seed', '0'])\n"
        "reports = json.loads(out.getvalue())\n"
        "print(__debug__, code, len(reports), *(r['check'] for r in reports if not r['pass']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["False", "1", "33", "sandwich-overlap"]


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


def test_crossterm_fails_on_a_branch_off_the_identity_overlap(monkeypatch, capsys):
    # C|1^n> planted as each trial's X-image branch: the Z-image rows with
    # every sign flipped, orthogonal to C|0^n>, so the overlap misses 2^{-n/2}
    real = sp.CliffordMap.zero_and_plus

    def zero_and_one(c):
        zero, _ = real(c)
        return zero, sp.StabilizerState(c.n, zero.rows, zero.signs ^ (1 << c.n) - 1)

    monkeypatch.setattr(sp.CliffordMap, "zero_and_plus", zero_and_one)
    assert main(["zxcat", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    # n = 10: the residual is |0 - 2^-5|
    assert captured.err == (
        f"check failed: zxcat seed 0: crossterm-bound trial 0: "
        f"||<phi1|phi2>| - 2^(-n/2)| = {2.0 ** -5:.3g} > 1e-12\n"
    )
    # the two checks before crossterm-bound still report
    reports = json.loads(captured.out)
    assert [r["check"] for r in reports] == ["mi-asymptote", "mi-near-asymptote"]
    assert all(r["pass"] for r in reports)


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


# (suite, module, attribute, defect): one value the check reads turns NaN
NAN_SITES = {
    "overlap-vs-dense": ("symplectic", sp, "stabilizer_overlap", _nan_on_call(3)),
    "sandwich-vs-dense": ("symplectic", sp, "pauli_sandwich", _nan_on_call(2)),
    "clifford-roundtrip": ("symplectic", sv, "pure_overlap", _nan_on_call(2)),
    "indist-random-hermitian": ("agsp", agsp, "indist_random", _nan_on_call(1)),
    "off-pattern-moduli": ("modular", modular, "off_pattern_supremum", _nan_on_call(1)),
}


@pytest.mark.parametrize("check", sorted(NAN_SITES))
def test_a_nan_sample_fails_its_check(check, monkeypatch):
    # Python's max(0.0, nan) keeps 0.0; each worst value must keep the NaN
    suite, module, attr, defect = NAN_SITES[check]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    report = {r.check: r for r in suites.SUITES[suite](seed=0, trials=3)}[check]
    assert np.isnan(report.observed) and not report.passed


def _word_scan(patch):
    patch.setattr(sv, "word_expectations", lambda word, pair: (np.nan, np.nan))
    return agsp.indist_words(4, 2)


def _random_scan(patch):
    patch.setattr(sv, "matrix_action", lambda amps, *args: np.full_like(amps, np.nan))
    return agsp.indist_random(4, 2, 3, 0)


def _combined_scan(patch):
    # the random check reports max(words, random V), and must keep its NaN
    patch.setattr(agsp, "indist_random", lambda *args: np.nan)
    reports = {r.check: r for r in suites.suite_agsp(seed=0, trials=2)}
    return reports["indist-random-hermitian"].observed


@pytest.mark.parametrize("scan", [_word_scan, _random_scan, _combined_scan])
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


def _rotated_cat(n, boundary="open"):
    # the plus cat turned towards its orthogonal partner by 1e-6 rad:
    # a deficit 1 - cos(1e-6) = 5e-13, far above any rounding of the overlap
    plus, minus = zxcat.build(n, "plus"), zxcat.build(n, "minus")
    return sv.StateVector(n, np.cos(1e-6) * plus.amps + np.sin(1e-6) * minus.amps)


def test_prep_suite_tol_bounds_both_overlaps(monkeypatch, capsys):
    # a planted deficit, not the rounding of a correct build, which changes
    # sign with the BLAS kernel: the same states pass 1e-12 and fail 1e-300
    monkeypatch.setattr(prep, "mps_contract", _rotated_cat)
    overlaps = ("sandwich-overlap", "mps-overlap")
    assert main(["prep", "--n", "8"]) == 0
    reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
    assert [reports[check]["bound"] for check in overlaps] == [1e-12, 1e-12]
    assert reports["mps-overlap"]["observed"] == pytest.approx(5e-13, abs=2e-14)
    assert main(["prep", "--n", "8", "--tol", "1e-300"]) == 1
    reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
    assert [reports[check]["bound"] for check in overlaps] == [1e-300, 1e-300]
    assert reports["mps-overlap"]["pass"] is False


def test_overlap_check_judges_the_normalized_overlap():
    # s = (1 + 4e-9)(cos θ t + sin θ u) with u ⟂ t and 1 - cos θ = 1e-9:
    # StateVector accepts |s|^2 - 1 ≈ 8e-9, and the norm excess lifts |<s|t>|
    # above 1, so the unnormalized 1 - |<s|t>| reads about -3e-9
    t, u = zxcat.build(4, "plus"), zxcat.build(4, "minus")
    assert abs(np.vdot(t.amps, u.amps)) < 1e-15
    cos = 1.0 - 1e-9
    s = sv.StateVector(4, (1 + 4e-9) * (cos * t.amps + np.sqrt(1.0 - cos * cos) * u.amps))
    assert 1.0 - sv.pure_overlap(s, t) == pytest.approx(-3e-9, rel=1e-3)
    report = suites.overlap_check("mps-overlap", {"n": 4}, [t, s], t, 1e-12)
    assert report.observed == pytest.approx(1e-9, rel=1e-3)
    assert report.passed is False
