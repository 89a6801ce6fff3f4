"""Deterministic check suites behind the command-line interface.

Each suite is a generator of CheckReports, timed by `_timed` into a
function that returns their list; its parameters declare the flags it
reads.  run_suite dispatches by name, serializes, and maps the outcome onto
the exit-code contract (0 all pass, 1 a check failed, 2 bad suite name or
parameters) through `exit_code`, which the CLI shares.  A check that a CLI
subcommand also reports is built by one function here or in the library
(the zxcat witnesses), which both call, so the two cannot differ in rule or
bound.  Every randomized check derives its randomness from the `seed`
argument, so a rerun with the same parameters reproduces the same numbers.
"""

import dataclasses
import functools
import inspect
import math
import sys
import time

import numpy as np

from . import agsp, glue, modular, prep, symplectic as sp, statevec as sv, zxcat
from .reports import CheckReport, render_reports, write_reports


def check_params(params) -> None:
    """Reject a `trials` below 1 or a `tol` that is negative or not finite.

    A sampled check over no samples would pass, and no observed value could
    meet a negative or NaN tolerance while every one would meet inf.
    """
    trials, tol = params.get("trials"), params.get("tol")
    if trials is not None and trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"need a finite tolerance >= 0, got {tol}")


def flag_defaults(command) -> dict:
    """{"--name": default} for each parameter of `command` that has a default.

    A suite's or a CLI subcommand handler's signature is the one declaration
    of the computation flags (--n --seed --tol --trials) it reads.
    """
    params = inspect.signature(command).parameters.values()
    return {"--" + p.name: p.default for p in params if p.default is not p.empty}


def exit_code(label: str, seed, run):
    """Return `run()`, or the exit code of the failure it raises.

    It prints `<kind>: <label>[ seed <seed>]: <reason>` to stderr: "check
    failed", exit 1, for an AssertionError or a PremiseViolation; "error",
    exit 2, for any other ValueError, a KeyError or an OSError (invalid
    parameters or input).  Other exceptions propagate.
    """
    try:
        return run()
    except (AssertionError, ValueError, KeyError, OSError) as exc:
        failed = isinstance(exc, (AssertionError, glue.PremiseViolation))
        where = label if seed is None else f"{label} seed {seed}"
        print(f"{'check failed' if failed else 'error'}: {where}: {exc}", file=sys.stderr)
        return 1 if failed else 2


def _timed(checks):
    """Suite function that stamps `runtime_ms` on the CheckReports `checks` yields.

    Each check is timed from the previous yield (the first from the suite's
    start); the clock is read once per check and runtime_ms is the
    difference of whole elapsed milliseconds, so the reports of one suite
    add up to no more than its wall time.  Parameters go through
    check_params first, so bad ones raise ValueError before any check runs.
    """

    @functools.wraps(checks)
    def suite(**params):
        check_params(params)
        clock = time.perf_counter
        start, billed, reports = clock(), 0, []
        for report in checks(**params):
            elapsed = int((clock() - start) * 1000)
            reports.append(dataclasses.replace(report, runtime_ms=elapsed - billed))
            billed = elapsed
        return reports

    return suite


# The checks below are shared by a suite and a CLI subcommand, so that both
# report one rule.  np.max, not max, throughout: a NaN must reach the verdict.

PREP_TOL = 1e-12  # default --tol of the prep suite and its subcommands


def overlap_check(check, params, states, target, tol) -> CheckReport:
    """Worst 1 - |<state|target>| over `states`, against `tol`."""
    dev = np.max([1.0 - sv.pure_overlap(state, target) for state in states])
    return CheckReport(check, params, dev, tol)


def kept_fidelity_check(check, params, overlaps) -> CheckReport:
    """Worst 1 - overlap of the kept shots (0 when none is kept), against 1e-10."""
    worst = np.max([0.0, *(1.0 - overlap for overlap in overlaps)])
    return CheckReport(check, params, worst, 1e-10)


def conclusions_check(params, residual_dicts) -> CheckReport:
    """Worst gluing-conclusion residual of the merged instances, against CONCLUSION_TOL."""
    worst = np.max([v for residuals in residual_dicts for v in residuals.values()])
    return CheckReport("conclusions", params, worst, glue.CONCLUSION_TOL)


def identity_only_check(params, survivors) -> CheckReport:
    """Survivors of the monomial search other than the identity alone, against 0."""
    misses = modular.identity_only_misses(survivors)
    return CheckReport("lpu-search-identity-only", params, float(misses), 0)


def _random_pauli_text(n, rng) -> str:
    sign = "-" if rng.integers(2) else "+"
    return sign + "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))


@_timed
def suite_symplectic(n=6, seed=0, tol=1e-10, trials=40):
    rng = np.random.default_rng(seed)
    sampled = {"n": n, "trials": trials, "seed": seed}

    zero = sp.StabilizerState.zero_state(n)
    plus = sp.StabilizerState.plus_state(n)
    dev = abs(sp.stabilizer_overlap(zero, plus) - 2.0 ** (-n / 2.0))
    yield CheckReport("zero-plus-overlap", {"n": n}, dev, 1e-12)

    devs = [0.0]
    for _ in range(trials):
        c1, c2 = sp.random_clifford(n, rng), sp.random_clifford(n, rng)
        s1, s2 = sp.apply_clifford(c1, zero), sp.apply_clifford(c2, zero)
        dense = abs(np.vdot(sv.to_statevector(s1).amps, sv.to_statevector(s2).amps))
        devs.append(abs(sp.stabilizer_overlap(s1, s2) - dense))
    yield CheckReport("overlap-vs-dense", sampled, np.max(devs), tol)

    # s2's Clifford comes from its own stream: with one C for both states,
    # |<s2|P|s1>| = 2^{-n/2} for every P, and no sign error could show
    own = np.random.default_rng([seed, 2])
    devs = [0.0]
    for _ in range(trials):
        c = sp.random_clifford(n, rng)
        s1, s2 = sp.apply_clifford(c, zero), sp.apply_clifford(sp.random_clifford(n, own), plus)
        p = sp.PauliString.from_text(_random_pauli_text(n, rng))
        v1, v2 = sv.to_statevector(s1), sv.to_statevector(s2)
        dense = abs(np.vdot(v2.amps, sv.apply_pauli(v1, p).amps))
        devs.append(abs(sp.pauli_sandwich(s2, p, s1) - dense))
    yield CheckReport("sandwich-vs-dense", sampled, np.max(devs), tol)

    devs = [0.0]
    ref = sv.to_statevector(zero)
    for _ in range(trials):
        c = sp.random_clifford(n, rng)
        back = sp.apply_clifford(c.adjoint(), sp.apply_clifford(c, zero))
        devs.append(1.0 - sv.pure_overlap(sv.to_statevector(back), ref))
    yield CheckReport("clifford-roundtrip", sampled, np.max(devs), tol)

    mismatches = 0
    for _ in range(trials):
        a = sp.PauliString.from_text(_random_pauli_text(n, rng))
        b = sp.PauliString.from_text(_random_pauli_text(n, rng))
        c = sp.PauliString.from_text(_random_pauli_text(n, rng))
        left = sp.pauli_product(sp.pauli_product(a, b), c)
        right = sp.pauli_product(a, sp.pauli_product(b, c))
        mismatches += left != right
    yield CheckReport("product-associativity", sampled, float(mismatches), 0)


@_timed
def suite_zxcat(n=10, seed=0, trials=150):
    dev = abs(zxcat.mi_asymptote() - 0.390473948926579)
    yield CheckReport("mi-asymptote", {}, dev, 1e-12)

    n_mi = min(12, sv.max_qubits())
    drift = abs(zxcat.mi_numeric(n_mi) - zxcat.mi_asymptote())
    yield CheckReport("mi-near-asymptote", {"n": n_mi}, drift, 0.02)

    yield zxcat.crossterm_bound_check(n=n, seed=seed, trials=trials)
    yield zxcat.cu_correlation_witness(n)
    yield zxcat.uc_sign_witness(n)


@_timed
def suite_agsp(n=16, seed=0, trials=60):
    poly = agsp.build_polynomial(n, max(1, round(n**0.5)))
    sup = agsp.step_error_sup(poly)
    yield CheckReport("step-error", {"n": n, "m": poly.m}, sup, poly.error_bound())

    total, p_minus_n = agsp.coeff_sum_identity(poly)
    rel = abs(total - p_minus_n) / max(abs(total), 1.0)
    params = {"n": n, "m": poly.m, "coeff_sum": total}
    yield CheckReport("coefficient-mass-identity", params, rel, 1e-9)

    n_op = min(10, sv.max_qubits())
    dev = agsp.agsp_operator_check(n_op, 3)
    bound = agsp.build_polynomial(n_op, 3).error_bound()
    yield CheckReport("operator-vs-step", {"n": n_op, "m": 3}, dev, bound)

    table = [
        agsp.complexity_bound(size, size // 3, 0.0, 0.01).depth_threshold
        for size in (64, 256, 1024, 4096)
    ]
    violations = sum(b < a for a, b in zip(table, table[1:])) + sum(
        t <= 0 for t in table
    )
    params = {"n_list": [64, 256, 1024, 4096], "thresholds": table}
    yield CheckReport("depth-threshold-growth", params, float(violations), 0)

    n_scan = min(10, sv.max_qubits())
    # the word scan runs once; the random check reports what
    # local_indist_scan with random trials would, max(words, random V)
    word_max = agsp.indist_words(n_scan, 2)
    word_limit = 1.0 / (2.0 * (1.0 - 2.0**-n_scan)) + 1e-9
    params = {"n": n_scan, "max_support": 2}
    yield CheckReport("indist-word-ratio", params, word_max, word_limit)

    # |<V>+ - <V>-| (1 - 2^-n) = |2 Re<0|V|+> - 2^{-n/2}(<0|V|0> + <+|V|+>)|
    # with |<0|V|+>| <= 2^{(a-n)/2}: the ratio to 2^{a-n/2} is at most
    # 2 (2^{-a/2} + 2^{-a}) / (1 - 2^-n), largest at a = 1
    worst = np.max([word_max, agsp.indist_random(n_scan, 2, trials, seed)])
    params = {"n": n_scan, "max_support": 2, "random_trials": trials, "seed": seed}
    bound = (1.0 + 2.0**0.5) / (1.0 - 2.0**-n_scan)
    yield CheckReport("indist-random-hermitian", params, worst, bound)


@_timed
def suite_prep(n=8, seed=0, tol=PREP_TOL, trials=120):
    state = prep.prepare_sandwich(n)
    yield overlap_check("sandwich-overlap", {"n": n}, [state], zxcat.build(n, "i"), tol)

    ok = prep.verify_global_clifford(64)
    yield CheckReport("global-clifford-certificate", {"n": 64}, 0.0 if ok else 1.0, 0.0)

    n_run = min(n, sv.max_qubits() // 2, 12)
    p_exact = prep.adaptive_success_probability(n_run)
    closed = (1.0 + 2.0 ** (-n_run / 2.0)) / 2.0
    dev = abs(p_exact - closed)
    yield CheckReport("adaptive-success-probability", {"n": n_run}, dev, tol)

    shots = prep.adaptive_shots(n_run, trials, seed)
    accepted = sum(record.accepted for record, _ in shots)
    rate_dev = abs(accepted / trials - p_exact)
    sigma = (p_exact * (1.0 - p_exact) / trials) ** 0.5
    params = {"n": n_run, "trials": trials, "seed": seed, "accepted": accepted}
    yield CheckReport("adaptive-sampled-rate", params, rate_dev, 5.0 * sigma)

    params = {"n": n_run, "trials": trials, "seed": seed}
    overlaps = [overlap for _, overlap in shots]
    yield kept_fidelity_check("adaptive-collapse-fidelity", params, overlaps)

    n_mps = min(10, sv.max_qubits())
    states = [prep.mps_contract(n_mps, boundary=b) for b in ("open", "periodic")]
    target = zxcat.build(n_mps, "plus")
    yield overlap_check("mps-overlap", {"n": n_mps}, states, target, tol)

    n_bell = min(4, sv.max_qubits() // 3)
    shots = prep.bell_shots(n_bell, trials, seed)
    overlaps = [overlap for accepted, _, overlap in shots if accepted]
    params = {"n": n_bell, "trials": trials, "seed": seed, "accepted": len(overlaps)}
    yield kept_fidelity_check("bell-accepted-fidelity", params, overlaps)


@_timed
def suite_modular(seed=0, trials=1500):
    data = modular.double_fibonacci()

    s = data.s_numeric()
    dev = np.abs(s @ s - np.eye(data.k)).max()
    yield CheckReport("s-squared-identity", {}, dev, 1e-12)

    st = s @ data.t_numeric()
    dev = np.abs(np.linalg.matrix_power(st, 3) - s @ s).max()
    yield CheckReport("st-cubed-relation", {}, dev, 1e-9)

    genus2 = float(modular.verlinde_dim(data.dims, 2))
    yield CheckReport("genus-two-dimension", {"genus": 2}, abs(genus2 - 25.0), 1e-12)

    survivors = modular.lpu_search(data)
    yield identity_only_check({"survivors": len(survivors)}, survivors)

    worst = np.max([
        modular.offdiag_modulus_scan(data, perm, samples=trials, seed=seed)
        for perm in modular.dim_preserving_perms(data.dims)
    ])
    params = {"samples": trials, "seed": seed}
    yield CheckReport("off-pattern-moduli", params, worst, 1.0 - 1e-6)

    scalar_hit = modular.scalar_rigidity_trial(3, 2.0 * np.eye(9), attempts=40, seed=seed)
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[3 * i + j, 3 * j + i] = 1.0
    swap_hit = modular.scalar_rigidity_trial(3, swap, attempts=40, seed=seed)
    failures = (scalar_hit is not None) + (swap_hit is None)
    params = {"attempts": 40, "seed": seed, "swap_witnessed": swap_hit is not None}
    yield CheckReport("scalar-rigidity", params, float(failures), 0)


@_timed
def suite_glue(seed=0, trials=20):
    sizes = (1, 1, 1, 1, 1, 1)
    params = {"sizes": sizes, "trials": trials, "seed": seed}

    instances = [
        glue.generate_gluable_instance(sizes, seed=seed + t) for t in range(trials)
    ]
    worst = np.max([abs(v) for inst in instances for v in inst.residuals.values()])
    yield CheckReport("premises", params, worst, 1e-10)

    merged = [glue.merge(inst) for inst in instances]
    yield conclusions_check(params, [residuals for _, residuals in merged])

    worst = np.max([abs(glue.shared_factor_entropy(inst)) for inst in instances])
    params = {"sizes": sizes, "trials": trials}
    yield CheckReport("middle-factor-purity", params, worst, 1e-8)

    worst = np.max([
        np.abs(glue.petz_glue(inst) - np.outer(state.amps, state.amps.conj())).max()
        for inst, (state, _) in zip(instances[:8], merged)
    ])
    params = {"sizes": sizes, "instances": min(8, trials), "seed": seed}
    yield CheckReport("petz-matches-unitary", params, worst, 1e-7)


SUITES = {
    "symplectic": suite_symplectic,
    "zxcat": suite_zxcat,
    "agsp": suite_agsp,
    "prep": suite_prep,
    "modular": suite_modular,
    "glue": suite_glue,
}


def agsp_sweep(n_list, m_list):
    """Rows of the degree sweep: sup error, bound, and coefficient mass."""
    rows = []
    for n in n_list:
        for m in m_list:
            if not 1 <= m < n:
                continue
            poly = agsp.build_polynomial(n, m)
            total, p_minus_n = agsp.coeff_sum_identity(poly)
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "sup_error": agsp.step_error_sup(poly),
                    "bound": poly.error_bound(),
                    "coeff_sum": total,
                    "p_minus_n": p_minus_n,
                }
            )
    return rows


def run_suite(suite: str, out=None, jsonl: bool = False, **params) -> int:
    """Run one named suite (or `all`) and serialize its reports.

    `params` are the computation parameters given (n, seed, tol, trials).  A
    named suite takes them as they are, so one it does not read raises
    TypeError; `all` passes each only to the suites that read it, and the
    others keep their defaults.  Returns 0 when every check passes, 1 when
    any fails (a gluing premise violated inside a check counts as a
    failure), 2 for an unknown suite or invalid parameters; a failure's line
    names the suite it stopped in (`exit_code`).  Reports go to `out` as
    JSON (or JSON lines with `jsonl`), atomically; without `out` they print
    to stdout.
    """
    if suite != "all" and suite not in SUITES:
        print(f"error: {suite}: unknown suite", file=sys.stderr)
        return 2
    reports = []
    for name in SUITES if suite == "all" else [suite]:
        reads = flag_defaults(SUITES[name])
        given = {k: v for k, v in params.items() if suite != "all" or "--" + k in reads}
        seed = given.get("seed", reads["--seed"])
        code = exit_code(name, seed, lambda: reports.extend(SUITES[name](**given)))
        if code:
            return code
    if out:
        write_reports(out, reports, jsonl=jsonl)
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports)} checks, {failed} failed -> {out}")
    else:
        print(render_reports(reports, jsonl=jsonl), end="")
    return 0 if all(r.passed for r in reports) else 1
