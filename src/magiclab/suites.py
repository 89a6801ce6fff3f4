"""Deterministic check suites and subcommands behind the command-line interface.

Each suite, and each CLI subcommand, is a generator of CheckReports, timed
by `_timed` into a function that returns their list; its parameters declare
the flags it reads.  run_suite runs one of them (or every suite, for `all`),
serializes the reports, and maps the outcome onto the exit-code contract
(0 all pass, 1 a check failed, 2 bad suite name or parameters) through
`exit_code`, which the CLI shares.  A check that a subcommand also reports
is built by one function here, which both call, so the two cannot differ
in rule or bound.  Every randomized check derives its randomness from the
`seed` argument, so a rerun with the same parameters reproduces the same
numbers.
"""

import dataclasses
import functools
import inspect
import math
import sys
import time

import numpy as np

from . import agsp, glue, modular, prep, symplectic as sp, statevec as sv, zxcat
from .reports import CheckReport, dump_state, render_reports, write_reports


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

    A suite's or a subcommand's signature is the one declaration of the
    computation flags (--n --seed --tol --trials) it reads.
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
    An exception raised inside a check propagates with the reports of the
    checks before it as its `reports` attribute, for run_suite to keep.
    """

    @functools.wraps(checks)
    def suite(**params):
        check_params(params)
        clock = time.perf_counter
        start, billed, reports = clock(), 0, []
        try:
            for report in checks(**params):
                elapsed = int((clock() - start) * 1000)
                reports.append(dataclasses.replace(report, runtime_ms=elapsed - billed))
                billed = elapsed
        except Exception as exc:
            exc.reports = reports
            raise
        return reports

    return suite


# overlap_check serves the prep suite alone; the three after it are shared by a suite
# and a subcommand, one rule for both.  np.max, not max: a NaN must reach the verdict.


def overlap_check(check, params, states, target, tol) -> CheckReport:
    """Worst 1 - |<s|t>| / (|s| |t|) over `states` s and the target t, against `tol`.

    Unnormalized, a norm excess that StateVector accepts (up to 1e-8) would hide a deficit.
    """
    t = np.linalg.norm(target.amps)
    dev = np.max([1.0 - sv.pure_overlap(s, target) / (np.linalg.norm(s.amps) * t) for s in states])
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


def _agsp_cell(n, m):
    """The step-error and coefficient-mass-identity reports of the degree-m polynomial on n sites.

    The agsp suite yields them at its (n, round(sqrt n)), `agsp sweep` at each cell of its grid.
    """
    poly = agsp.build_polynomial(n, m)
    yield CheckReport("step-error", {"n": n, "m": m}, agsp.step_error_sup(poly), poly.error_bound())

    total, p_minus_n = agsp.coeff_sum_identity(poly)
    rel = abs(total - p_minus_n) / max(abs(total), 1.0)
    params = {"n": n, "m": m, "coeff_sum": total, "p_minus_n": p_minus_n}
    yield CheckReport("coefficient-mass-identity", params, rel, 1e-9)


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

    def overlap_pair():
        pair = tuple(sp.apply_clifford(sp.random_clifford(n, rng), zero) for _ in range(2))
        return pair, pair

    devs = [0.0]
    for (s1, s2), (v1, v2) in sv.densified(trials, 2 << n, overlap_pair):
        overlap = abs(np.vdot(v1.amps, v2.amps))
        devs.append(abs(sp.stabilizer_overlap(s1, s2) - overlap))
    yield CheckReport("overlap-vs-dense", sampled, np.max(devs), tol)

    # s2's Clifford comes from its own stream: with one C for both states,
    # |<s2|P|s1>| = 2^{-n/2} for every P, and no sign error could show
    own = np.random.default_rng([seed, 2])

    def sandwich_draw():
        c = sp.random_clifford(n, rng)
        s1, s2 = sp.apply_clifford(c, zero), sp.apply_clifford(sp.random_clifford(n, own), plus)
        return (s1, s2), (s1, s2, sp.PauliString.from_text(_random_pauli_text(n, rng)))

    devs = [0.0]
    for (s1, s2, p), (v1, v2) in sv.densified(trials, 2 << n, sandwich_draw):
        overlap = abs(np.vdot(v2.amps, sv.apply_pauli(v1, p).amps))
        devs.append(abs(sp.pauli_sandwich(s2, p, s1) - overlap))
    yield CheckReport("sandwich-vs-dense", sampled, np.max(devs), tol)

    def roundtrip():
        c = sp.random_clifford(n, rng)
        return (sp.apply_clifford(c.adjoint(), sp.apply_clifford(c, zero)),), None

    devs = [0.0]
    ref = sv.to_statevector(zero)
    for _, (back,) in sv.densified(trials, 1 << n, roundtrip):
        devs.append(1.0 - sv.pure_overlap(back, ref))
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

    # the bound is for n = 12 (drift 0.0092; 0.0245 at n = 9): a cap below 12 exits 2
    drift = abs(zxcat.mi_numeric(12) - zxcat.mi_asymptote())
    yield CheckReport("mi-near-asymptote", {"n": 12}, drift, 0.02)

    yield zxcat.crossterm_bound_check(n=n, seed=seed, trials=trials)
    yield zxcat.cu_correlation_witness(n)
    yield zxcat.uc_sign_witness(n)


@_timed
def suite_agsp(n=16, seed=0, trials=60):
    yield from _agsp_cell(n, max(1, round(n**0.5)))

    n_op = min(10, sv.max_qubits())
    dev = agsp.agsp_operator_check(n_op, 3)
    bound = agsp.build_polynomial(n_op, 3).error_bound()
    yield CheckReport("operator-vs-step", {"n": n_op, "m": 3}, dev, bound)

    sizes = [64, 256, 1024, 4096]
    bounds = [agsp.complexity_bound(size, size // 3, 0.0, 0.01) for size in sizes]
    table = [cb.depth_threshold for cb in bounds]
    violations = (
        sum(b < a for a, b in zip(table, table[1:]))
        + sum(t <= 0 for t in table)
        + sum(agsp.threshold_faults(cb) for cb in bounds)
    )
    params = {"n_list": sizes, "thresholds": table}
    yield CheckReport("depth-threshold-growth", params, float(violations), 0)

    n_scan = min(10, sv.max_qubits())
    # the word scan runs once; the random check reports the max over both
    # scans, words and random V
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
def suite_prep(n=8, seed=0, tol=1e-12, trials=120):
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
def suite_modular(seed=0, trials=40):
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

    sup = float(modular.off_pattern_supremum(data))
    params = {"permutations": len(modular.dim_preserving_perms(data.dims))}
    yield CheckReport("off-pattern-moduli", params, sup, 1.0 - 1e-6)

    scalar_hit = modular.scalar_rigidity_trial(3, 2.0 * np.eye(9), attempts=trials, seed=seed)
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[3 * i + j, 3 * j + i] = 1.0
    swap_hit = modular.scalar_rigidity_trial(3, swap, attempts=trials, seed=seed)
    failures = (scalar_hit is not None) + (swap_hit is None)
    params = {"attempts": trials, "seed": seed, "swap_witnessed": swap_hit is not None}
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


# The subcommands: what no suite report holds, as reports of the same kind.
# A keyword parameter without a default is the subcommand's own argument,
# which the CLI always passes; those with a default are the computation flags
# it reads, as for a suite.  Per-item records go into the report's params.


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _dumped(path, state) -> dict:
    """{"dumped": path} once `state` is written there; {} when no path is given."""
    if not path:
        return {}
    dump_state(path, state)
    return {"dumped": path}


@_timed
def zxcat_build(*, variant, dump, n=8):
    state = zxcat.build(n, variant)
    params = {"n": n, "variant": variant, **_dumped(dump, state)}
    yield CheckReport("build", params, {"norm": float(np.linalg.norm(state.amps))}, None)


@_timed
def agsp_sweep(*, n_list, m_list):
    """The agsp suite's two polynomial checks at each cell of the grid with 1 <= m < n.

    A grid with no such cell raises ValueError naming both lists.
    """
    ns, ms = _int_list(n_list, "--n-list"), _int_list(m_list, "--m-list")
    cells = [(n, m) for n in ns for m in ms if 1 <= m < n]
    if not cells:
        raise ValueError(f"n_list {ns} and m_list {ms} give no cell with 1 <= m < n")
    for n, m in cells:
        yield from _agsp_cell(n, m)


@_timed
def prep_adaptive(*, dump, n=6, seed=0, trials=50):
    params = {"n": n, "trials": trials, "seed": seed}
    shots = prep.adaptive_shots(**params)
    params["accepted"] = sum(record.accepted for record, _ in shots)
    params["runs"] = [
        {
            "outcomes": list(record.outcomes),
            "parity": record.parity,
            "accepted": record.accepted,
            "target_overlap": overlap,
        }
        for record, overlap in shots
    ]
    params.update(_dumped(dump, shots[-1][0].post_state))
    overlaps = [overlap for _, overlap in shots]
    yield kept_fidelity_check("adaptive-collapse-fidelity", params, overlaps)


@_timed
def prep_bell(*, dump, n=4, seed=0, trials=50):
    params = {"n": n, "trials": trials, "seed": seed}
    shots = prep.bell_shots(**params)
    overlaps = [overlap for accepted, _, overlap in shots if accepted]
    params["accepted"] = len(overlaps)
    params["runs"] = [
        {"accepted": True, "target_overlap": overlap} if accepted else {"accepted": False}
        for accepted, _, overlap in shots
    ]
    params.update(_dumped(dump, shots[-1][1]))
    yield kept_fidelity_check("bell-accepted-fidelity", params, overlaps)


@_timed
def modular_lpu_search(*, data):
    """The suite's identity-only check on the `data` file (double Fibonacci without one).

    Its params list the survivors; the suite's report gives their count.
    """
    if data:
        with open(data) as handle:
            modular_data = modular.ModularData.from_json(handle.read())
    else:
        modular_data = modular.double_fibonacci()
    survivors = modular.lpu_search(modular_data)
    params = {
        "labels": modular_data.k,
        "source": data or "double-fibonacci",
        "survivors": [
            {"permutation": list(c.permutation), "phases": list(c.phases)} for c in survivors
        ],
    }
    yield identity_only_check(params, survivors)


@_timed
def modular_verlinde(*, genus):
    """Genus-g dimension of double Fibonacci, against its exact conditions.

    Double Fibonacci is Fibonacci times its mirror, so its dimension is the
    square of Fibonacci's (dims 1, phi): 4, 25, 225, ... are 2^2, 5^2,
    15^2, ....  The report observes how many of three conditions fail,
    against 0: b = 0, a is a positive integer, and a equals that square.
    The value (None beyond float range) and its exact pair go into params.
    """
    data = modular.double_fibonacci()
    value = modular.verlinde_dim(data.dims, genus)
    single = modular.verlinde_dim((1, modular.GoldenNumber.phi()), genus)
    failed = (
        value.b != 0,
        not (value.a.denominator == 1 and value.a > 0),
        value != single * single,
    )
    try:
        approx = float(value)
    except OverflowError:  # beyond float range only the exact pair is reported
        approx = None
    params = {"genus": genus, "value": approx, "golden": {"a": str(value.a), "b": str(value.b)}}
    yield CheckReport("verlinde-dimension", params, float(sum(failed)), 0)


@_timed
def glue_run(*, dims, seed=0, trials=10):
    sizes = tuple(_int_list(dims, "--dims"))
    records = []
    for t in range(trials):
        inst = glue.generate_gluable_instance(sizes, seed=seed + t)
        _, residuals = glue.merge(inst)
        records.append({"seed": seed + t, "premises": inst.residuals, "conclusions": residuals})
    params = {"dims": list(sizes), "trials": trials, "seed": seed, "instances": records}
    yield conclusions_check(params, [r["conclusions"] for r in records])


def run_suite(suite: str, out=None, jsonl: bool = False, command=None, **params) -> int:
    """Run one named suite, `all` or a subcommand, and serialize its reports.

    `command` is a subcommand's report function, and `suite` its label
    ("prep adaptive"); without one, `suite` names a suite or `all`.
    `params` are the parameters given: the computation flags (n, seed, tol,
    trials) and a subcommand's own arguments.  A single command takes them
    as they are, so one it does not read raises TypeError; `all` passes each
    only to the suites that read it, and the others keep their defaults.
    Returns 0 when every check passes, 1 when any fails (a gluing premise
    violated inside a check counts as a failure), 2 for an unknown suite or
    invalid parameters; a failure's line names the command it stopped in
    (`exit_code`), and the reports of the suites that finished before it,
    and of the checks that finished before it in its own command, are
    still written.  Reports go to `out` as JSON (or JSON lines with
    `jsonl`), atomically; without `out` they print to stdout.
    """
    if command is not None:
        commands = {suite: command}
    elif suite == "all":
        commands = SUITES
    elif suite in SUITES:
        commands = {suite: SUITES[suite]}
    else:
        print(f"error: {suite}: unknown suite", file=sys.stderr)
        return 2
    reports = []

    def run(checks, given):
        try:
            reports.extend(checks(**given))
        except Exception as exc:
            reports.extend(getattr(exc, "reports", ()))
            raise

    for name, checks in commands.items():
        reads = flag_defaults(checks)
        given = {k: v for k, v in params.items() if suite != "all" or "--" + k in reads}
        seed = given.get("seed", reads.get("--seed"))
        code = exit_code(name, seed, lambda: run(checks, given))
        if code:
            break
    if code and not reports:
        return code
    if out:
        write_reports(out, reports, jsonl=jsonl)
        failed = sum(not r.passed for r in reports)
        print(f"{len(reports)} checks, {failed} failed -> {out}")
    else:
        print(render_reports(reports, jsonl=jsonl), end="")
    return code or (0 if all(r.passed for r in reports) else 1)
