"""Tests of the benchmark itself: tracer arithmetic, the percentile rule, the checks.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import Tracer, install  # noqa: E402


# -- tracer -------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf_w()
        clock.advance(0.5)
        leaf_w()

    def top():
        clock.advance(3.0)
        middle_w()
        clock.advance(4.0)

    leaf_w = tracer.wrap("a.leaf", leaf)
    middle_w = tracer.wrap("a.middle", middle)
    top_w = tracer.wrap("b.top", top)
    top_w()
    clock.advance(10.0)  # outside every span
    leaf_w()

    assert dict(tracer.calls) == {"a.leaf": 3, "a.middle": 1, "b.top": 1}
    assert tracer.self_s["a.leaf"] == pytest.approx(6.0)
    assert tracer.self_s["a.middle"] == pytest.approx(1.5)
    assert tracer.self_s["b.top"] == pytest.approx(7.0)
    layers = tracer.layer_metrics()
    assert layers["a.self_s"] == pytest.approx(7.5)
    assert layers["b.self_s"] == pytest.approx(7.0)
    # self times partition the time covered by top-level spans
    assert sum(tracer.self_s.values()) == pytest.approx(clock.now - 10.0)
    by_id = {s[0]: s for s in tracer.spans}
    parents = {s[2]: by_id[s[1]][2] if s[1] is not None else None for s in tracer.spans}
    assert parents == {"a.leaf": None, "a.middle": "b.top", "b.top": None}


def test_self_time_survives_exceptions_and_recursion():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(k):
        clock.advance(1.0)
        if k == 0:
            raise ValueError("bottom")
        return wrapped(k - 1)

    wrapped = tracer.wrap("m.countdown", countdown)
    with pytest.raises(ValueError):
        wrapped(3)
    assert tracer.calls["m.countdown"] == 4
    assert tracer.self_s["m.countdown"] == pytest.approx(4.0)
    assert not tracer._stack


def test_install_binds_every_namespace_and_restores():
    from magiclab import glue, statevec, suites

    original_reduced = statevec.reduced_density
    original_suite = suites.SUITES["glue"]
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert glue.reduced_density is statevec.reduced_density is not original_reduced
        assert suites.SUITES["glue"] is not original_suite
        glue.generate_gluable_instance((1, 1, 1, 1, 1, 1), seed=0)
    finally:
        restore()
    assert glue.reduced_density is statevec.reduced_density is original_reduced
    assert suites.SUITES["glue"] is original_suite
    assert tracer.calls["glue.generate_gluable_instance"] == 1
    assert tracer.calls["glue.check_premises"] == 1
    assert tracer.calls["statevec.reduced_density"] > 0
    assert tracer.max_qubits_seen == 6


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (39, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(count)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert sum(s > value for s in samples) >= 10


# -- checks reject wrong results ----------------------------------------------

def _report(check, observed, bound, passed=None):
    return {"check": check, "params": {}, "observed": observed, "bound": bound,
            "pass": observed <= bound if passed is None else passed, "runtime_ms": 3}


def _good_reports(suite):
    return [_report(name, 0.0, 1e-9) for name in checks.SUITE_CHECKS[suite]]


def _good_glue():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    return (1, 1, 1, 1, 1, 1), psi, psi, psi, np.outer(psi, psi.conj())


def _good_cell():
    from magiclab import agsp

    poly = agsp.build_polynomial(16, 4)
    sup = float(abs(checks.horner(poly.coeffs, Fraction(1))))
    total = float(sum(abs(a) * 16**k for k, a in enumerate(poly.coeffs)))
    return 16, 4, poly.coeffs, sup, total, total, (1, 7, 16)


def _tampered(values, index, value):
    out = list(values)
    out[index] = value
    return tuple(out)


def negative_cases():
    """(name, call) pairs; each call must raise CheckFailed."""
    reports = _good_reports("glue")
    sizes, psi, psi_p, glued, rho = _good_glue()
    n, m, coeffs, sup, total, pmn, points = _good_cell()
    other = np.roll(psi, 1)
    orth = other - np.vdot(psi, other) * psi
    orth /= np.linalg.norm(orth)
    skewed = rho.copy()
    skewed[0, 1] += 1e-8
    negative = rho + 1e-8 * (np.outer(psi, psi.conj()) - np.outer(orth, orth.conj()))
    return [
        ("suite report failed", lambda: checks.check_suite_reports(
            "glue", [_report("premises", 2.0, 1.0)] + reports[1:])),
        ("suite verdict disagrees", lambda: checks.check_suite_reports(
            "glue", [_report("premises", 2.0, 1.0, passed=True)] + reports[1:])),
        ("suite check missing", lambda: checks.check_suite_reports("glue", reports[:-1])),
        ("suite rerun differs", lambda: checks.check_rerun(
            "glue", 0, reports, [_report("premises", 1e-12, 1e-9)] + reports[1:])),
        ("glue ABC marginal", lambda: checks.check_glue(sizes, other, psi_p, glued, rho)),
        ("glue BCD marginal", lambda: checks.check_glue(sizes, psi, other, glued, rho)),
        ("petz misses glued", lambda: checks.check_glue(
            sizes, psi, psi_p, glued, np.outer(other, other.conj()))),
        ("petz trace", lambda: checks.check_glue(sizes, psi, psi_p, glued, rho * (1 + 1e-6))),
        ("petz not hermitian", lambda: checks.check_glue(sizes, psi, psi_p, glued, skewed)),
        ("petz negative eigenvalue", lambda: checks.check_glue(sizes, psi, psi_p, glued, negative)),
        ("P(0) not 1", lambda: checks.check_agsp_cell(
            n, m, _tampered(coeffs, 0, Fraction(2)), sup, total, pmn, points)),
        ("P(0) a float", lambda: checks.check_agsp_cell(
            n, m, _tampered(coeffs, 0, 1.0), sup, total, pmn, points)),
        ("sup above bound", lambda: checks.check_agsp_cell(
            n, m, coeffs, 4.47, total, pmn, points)),
        ("sup not |P(1)|", lambda: checks.check_agsp_cell(
            n, m, coeffs, sup * (1 - 1e-6), total, pmn, points)),
        ("tampered coefficient", lambda: checks.check_agsp_cell(
            n, m, _tampered(coeffs, 2, coeffs[2] * (1 + Fraction(1, 10**6))), sup, total, pmn, points)),
        ("coefficient mass", lambda: checks.check_agsp_cell(
            n, m, coeffs, sup, total * (1 + 1e-6), pmn, points)),
        ("P(-n)", lambda: checks.check_agsp_cell(n, m, coeffs, sup, total, pmn * 1.01, points)),
        ("verlinde genus 2", lambda: checks.check_verlinde(2, Fraction(24), Fraction(0))),
        ("verlinde not integer", lambda: checks.check_verlinde(3, Fraction(4), Fraction(1))),
        ("verlinde genus 5", lambda: checks.check_verlinde(5, Fraction(30624), Fraction(0))),
        ("lpu extra gate", lambda: checks.check_lpu(
            [((0, 1, 2, 3), (1.0,) * 4), ((0, 2, 1, 3), (1.0,) * 4)])),
        ("lpu permutation", lambda: checks.check_lpu([((0, 2, 1, 3), (1.0,) * 4)])),
        ("lpu phase", lambda: checks.check_lpu([((0, 1, 2, 3), (1.0, -1.0, 1.0, 1.0))])),
        ("lpu empty", lambda: checks.check_lpu([])),
    ]


def test_good_results_pass():
    for suite in checks.SUITE_CHECKS:
        checks.check_suite_reports(suite, _good_reports(suite))
    reports = _good_reports("glue")
    checks.check_rerun("glue", 0, reports, [dict(r, runtime_ms=99) for r in reports])
    checks.check_glue(*_good_glue())
    checks.check_agsp_cell(*_good_cell())
    for genus, dim in ((1, 4), (2, 25), (5, 30625)):
        checks.check_verlinde(genus, Fraction(dim), Fraction(0))
    checks.check_lpu([((0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0))])


@pytest.mark.parametrize("name, call", negative_cases(), ids=[c[0] for c in negative_cases()])
def test_check_rejects_wrong_result(name, call):
    with pytest.raises(CheckFailed):
        call()


def test_checks_reject_wrong_results_under_python_O():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import json, test_bench as t\n"
        "from checks import CheckFailed\n"
        "missed = []\n"
        "for name, call in t.negative_cases():\n"
        "    try:\n"
        "        call()\n"
        "    except CheckFailed:\n"
        "        continue\n"
        "    missed.append(name)\n"
        "print(json.dumps({'optimize': sys.flags.optimize, 'missed': missed}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code, os.path.dirname(__file__), BENCH_DIR,
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result == {"optimize": 1, "missed": []}
