"""End-to-end acceptance checks for the package.

Each test exercises one headline guarantee at fixed parameters and
tolerances and prints a single pass/fail verdict line; together they are
the release gate.  Randomized checks use hard-coded seeds so the numbers
are reproducible run to run.
"""

import json
import math
from fractions import Fraction

import numpy as np

from magiclab import agsp, glue, modular, prep, zxcat
from magiclab import symplectic as sp
from magiclab import statevec as sv
from magiclab.suites import run_suite


def _verdict(num, label, ok, detail=""):
    line = f"[check {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_stabilizer_overlap_magnitudes():
    """Tableau overlap equals the dense overlap and lands on the 2^{-k/2} grid."""
    rng = np.random.default_rng(11)
    worst = 0.0
    off_grid = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        c1, c2 = sp.random_clifford(n, rng), sp.random_clifford(n, rng)
        s1 = sp.apply_clifford(c1, sp.StabilizerState.zero_state(n))
        s2 = sp.apply_clifford(c2, sp.StabilizerState.zero_state(n))
        val = sp.stabilizer_overlap(s1, s2)
        dense = abs(np.vdot(sv.to_statevector(s2).amps, sv.to_statevector(s1).amps))
        worst = max(worst, abs(val - dense))
        if val > 0.0:
            half_steps = 2.0 * math.log2(val)
            off_grid += abs(half_steps - round(half_steps)) > 1e-9
    _verdict(
        1,
        "stabilizer overlap magnitudes",
        worst <= 1e-10 and off_grid == 0,
        f"1000 pairs, max |tableau - dense| = {worst:.2e}, off-grid = {off_grid}",
    )


def test_02_pauli_sandwich_magnitude():
    """A nonzero Pauli sandwich has exactly the bare-overlap magnitude."""
    rng = np.random.default_rng(23)
    kept = draws = 0
    worst_eq = worst_tbl = 0.0
    while kept < 1000 and draws < 20000:
        draws += 1
        n = int(rng.integers(1, 9))
        c1, c2 = sp.random_clifford(n, rng), sp.random_clifford(n, rng)
        s1 = sp.apply_clifford(c1, sp.StabilizerState.zero_state(n))
        s2 = sp.apply_clifford(c2, sp.StabilizerState.zero_state(n))
        sign = "-" if rng.integers(2) else "+"
        word = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))
        p = sp.PauliString.from_text(sign + word)
        v1, v2 = sv.to_statevector(s1), sv.to_statevector(s2)
        overlap = abs(np.vdot(v2.amps, v1.amps))
        sandwich = abs(np.vdot(v2.amps, sv.apply_pauli(v1, p).amps))
        if overlap > 1e-8 and sandwich > 1e-8:
            kept += 1
            worst_eq = max(worst_eq, abs(sandwich - overlap))
            worst_tbl = max(worst_tbl, abs(sp.pauli_sandwich(s2, p, s1) - sandwich))
    _verdict(
        2,
        "pauli sandwich magnitude",
        kept >= 1000 and worst_eq <= 1e-10 and worst_tbl <= 1e-10,
        f"{kept} nonzero trials, max |sandwich - overlap| = {worst_eq:.2e}",
    )


def test_03_crossterm_support_bound():
    """Local operators of unit norm cannot lift the branch cross term."""
    report = zxcat.crossterm_bound_check(n=10, seed=37, trials=500, max_support=4)
    obs = report.params
    ok = (
        obs["violations"] == 0
        and report.observed <= 1.0 + 1e-9
        and obs["identity_overlap_dev"] <= 1e-10
        and report.passed
    )
    _verdict(
        3,
        "branch cross-term support bound",
        ok,
        f"500 trials at n=10, worst ratio = {report.observed:.6f}",
    )


def test_04_mutual_information_plateau():
    """Half-chain mutual information sits near its size-free limit, positive throughout."""
    limit = zxcat.mi_asymptote()
    anchor_dev = abs(limit - 0.390473948926579)
    drift = abs(zxcat.mi_numeric(12) - limit)
    minimum = min(zxcat.mi_numeric(n) for n in range(2, 13))
    _verdict(
        4,
        "mutual-information plateau",
        anchor_dev <= 1e-12 and drift <= 0.02 and minimum > 0.0,
        f"mi(12) within {drift:.4f} of {limit:.4f}, min over n=2..12 = {minimum:.4f}",
    )


def test_05_correlation_witness():
    """Stabilizer pair expectations hug 1/2 while their product stays far off."""
    report = zxcat.cu_correlation_witness(12)
    obs = report.params
    half_limit = 2.0 ** (1 - 12 / 2.0)
    ok = obs["max_half_dev"] <= half_limit and obs["gap"] > 0.2
    _verdict(
        5,
        "correlation factorization witness",
        ok,
        f"n=12, gap = {obs['gap']:.6f}, max |<.>-1/2| = {obs['max_half_dev']:.2e}",
    )


def test_06_cone_fidelity_bound():
    """Reduced branch fidelity respects the forward-cone lower bound."""
    rng = np.random.default_rng(41)
    violations = 0
    worst_margin = np.inf
    for _ in range(200):
        circuit = sv.random_brickwork(10, 1, rng)
        report = zxcat.uc_sign_witness(10, circuit=circuit)
        violations += not report.passed
        for label in ("i", "j"):
            worst_margin = min(
                worst_margin,
                report.params[f"fidelity_{label}"] - report.params[f"dpi_{label}"],
            )
    trivial = zxcat.uc_sign_witness(10)
    equality_dev = abs(trivial.params["fidelity_i"] - 2.0**-0.5)
    _verdict(
        6,
        "cone fidelity lower bound",
        violations == 0 and worst_margin >= -1e-9 and equality_dev <= 1e-10,
        f"200 depth-1 circuits at n=10, min margin = {worst_margin:.2e}, "
        f"identity case off 1/sqrt(2) by {equality_dev:.2e}",
    )


def test_07_step_polynomial_grid():
    """Step-polynomial errors, exact coefficient identity, and operator form."""
    worst_excess = -np.inf
    exact_failures = 0
    sign_failures = 0
    cells = 0
    for n in (16, 64, 256):
        root = math.sqrt(n)
        grid = sorted({1, 2, 3, int(root), int(2 * root), int(3 * root)})
        for m in grid:
            cells += 1
            poly = agsp.build_polynomial(n, m)
            sup = agsp.step_error_sup(poly)
            worst_excess = max(worst_excess, sup - poly.error_bound())
            mass = sum(abs(a) * Fraction(n) ** k for k, a in enumerate(poly.coeffs))
            exact_failures += mass != abs(poly.evaluate(-n))
            sign_failures += any(
                (a > 0) != (k % 2 == 0) for k, a in enumerate(poly.coeffs)
            )
    operator_dev = agsp.agsp_operator_check(9, 3)
    scalar_dev = agsp.step_error_sup(agsp.build_polynomial(9, 3))
    ok = (
        worst_excess <= 0.0
        and exact_failures == 0
        and sign_failures == 0
        and operator_dev == scalar_dev
    )
    _verdict(
        7,
        "step-polynomial grid",
        ok,
        f"{cells} (n,m) cells, worst sup-bound excess = {worst_excess:.2e}, "
        f"operator check == scalar check: {operator_dev == scalar_dev}",
    )


def test_08_preparation_protocols():
    """Every preparation route reproduces its target state."""
    sandwich_dev = max(
        1.0 - sv.pure_overlap(prep.prepare_sandwich(n), zxcat.build(n, "i"))
        for n in range(1, 13)
    )
    clifford_ok = all(prep.verify_global_clifford(n) for n in range(1, 65))

    prob_dev = 0.0
    prob_min = 1.0
    for n in range(1, 13):
        p = prep.adaptive_success_probability(n)
        prob_dev = max(prob_dev, abs(p - (1.0 + 2.0 ** (-n / 2.0)) / 2.0))
        prob_min = min(prob_min, p)

    n_run = 7
    plus, minus = zxcat.build(n_run, "plus"), zxcat.build(n_run, "minus")
    collapse_dev = 0.0
    for seed in range(60):
        ((record, _),) = prep.adaptive_shots(n_run, 1, seed)
        target = plus if record.accepted else minus
        collapse_dev = max(
            collapse_dev, 1.0 - sv.pure_overlap(record.post_state, target)
        )

    mps_dev = max(
        1.0 - sv.pure_overlap(prep.mps_contract(n, boundary=b), zxcat.build(n, "plus"))
        for n in range(1, 11)
        for b in ("open", "periodic")
    )

    # the site tensor's push relations: Z A^a Z = A^a, sum_b H_ab A^b = X A^a X
    push_ok = all(
        np.allclose(sv.Z2 @ block @ sv.Z2, block, atol=1e-12)
        and np.allclose(
            sum(sv.H2[a, b] * prep.MPS_BLOCKS[b] for b in range(2)),
            sv.X2 @ block @ sv.X2,
            atol=1e-12,
        )
        for a, block in enumerate(prep.MPS_BLOCKS)
    )
    bell_dev = 0.0
    bell_accepted = 0
    target4 = zxcat.build(4, "plus")
    for seed in range(40):
        ((accepted, state, _),) = prep.bell_shots(4, 1, seed)
        if accepted:
            bell_accepted += 1
            bell_dev = max(bell_dev, 1.0 - sv.pure_overlap(state, target4))

    ok = (
        sandwich_dev <= 1e-12
        and clifford_ok
        and prob_dev <= 1e-12
        and prob_min > 0.5
        and collapse_dev <= 1e-10
        and mps_dev <= 1e-12
        and push_ok
        and bell_accepted > 0
        and bell_dev <= 1e-10
    )
    _verdict(
        8,
        "preparation protocols",
        ok,
        f"sandwich dev {sandwich_dev:.1e} (n<=12), clifford n<=64 {clifford_ok}, "
        f"adaptive prob dev {prob_dev:.1e}, collapse dev {collapse_dev:.1e}, "
        f"mps dev {mps_dev:.1e}, push {push_ok}, bell dev {bell_dev:.1e}",
    )


def test_09_modular_gate_enumeration():
    """The only locality-compatible monomial gate is the identity."""
    data = modular.double_fibonacci()
    s = data.s_numeric()
    st = s @ data.t_numeric()

    survivors = modular.lpu_search(data)
    identity_only = (
        len(survivors) == 1
        and survivors[0].permutation == (0, 1, 2, 3)
        and survivors[0].is_identity()
    )

    ident_solution = modular.monomial_phase_solution(data, (0, 1, 2, 3))
    ident_ok = ident_solution is not None and all(z == 1 for z in ident_solution)

    swap_solution = modular.monomial_phase_solution(data, (0, 2, 1, 3))
    swap_ok = False
    swap_dist = 0.0
    if swap_solution is not None:
        cand = modular.MonomialCandidate(
            (0, 2, 1, 3), (1.0,) + tuple(float(z) for z in swap_solution)
        )
        mat = cand.matrix()
        s_dist = modular.monomial_distance(s @ mat @ s.conj().T)
        swap_dist = modular.monomial_distance(st @ mat @ st.conj().T)
        swap_ok = s_dist <= 1e-9 and swap_dist > 0.1

    modulus_sup = modular.off_pattern_supremum(data)

    s_sq_dev = np.abs(s @ s - np.eye(data.k)).max()
    st_dev = np.abs(np.linalg.matrix_power(st, 3) - s @ s).max()
    verlinde_ok = modular.verlinde_dim(data.dims, 2) == 25

    ok = (
        identity_only
        and ident_ok
        and swap_ok
        and modulus_sup == modular.GoldenNumber(Fraction(-2, 5), Fraction(4, 5))
        and s_sq_dev <= 1e-9
        and st_dev <= 1e-9
        and verlinde_ok
    )
    _verdict(
        9,
        "modular gate enumeration",
        ok,
        f"survivors = identity only: {identity_only}, swap-case distance = "
        f"{swap_dist:.3f}, off-pattern supremum = {float(modulus_sup):.4f}, "
        f"genus-2 dimension 25 exact: {verlinde_ok}",
    )


def test_10_monomial_rigidity():
    """Scalars survive every conjugation; nothing else survives for long."""
    scalar_hit = modular.scalar_rigidity_trial(
        3, (0.7 + 0.4j) * np.eye(9), attempts=10000, seed=13
    )

    rng = np.random.default_rng(17)
    missed = 0
    for trial in range(100):
        n = 3 if trial % 2 == 0 else 4
        dim = n * n
        perm = rng.permutation(dim)
        phases = np.exp(2j * np.pi * rng.random(dim))
        k_matrix = np.zeros((dim, dim), dtype=complex)
        k_matrix[np.arange(dim), perm] = phases
        if np.abs(k_matrix - k_matrix[0, 0] * np.eye(dim)).max() < 1e-6:
            continue  # scalar draws have probability zero, skip defensively
        witness = modular.scalar_rigidity_trial(
            n, k_matrix, attempts=1000, seed=1000 + trial
        )
        missed += witness is None
    _verdict(
        10,
        "monomial rigidity",
        scalar_hit is None and missed == 0,
        f"scalar clean over 10^4 conjugations: {scalar_hit is None}, "
        f"witnesses missed out of 100 monomials: {missed}",
    )


def test_11_state_gluing():
    """Generated overlapping pairs glue with one local unitary; the recovery map agrees."""
    rng = np.random.default_rng(53)
    worst_premise = 0.0
    worst_conclusion = 0.0
    worst_purity = 0.0
    petz_dev = 0.0
    petz_runs = 0
    for t in range(100):
        sizes = tuple(int(x) for x in rng.integers(1, 3, size=6))
        inst = glue.generate_gluable_instance(sizes, seed=500 + t)
        worst_premise = max(
            worst_premise, max(abs(v) for v in inst.residuals.values())
        )
        worst_purity = max(worst_purity, abs(glue.shared_factor_entropy(inst)))

        glued = glue.glue_states(inst)
        part = inst.partition
        abc = part.qubits("A", "B", "C")
        bcd = part.qubits("B", "C", "D")
        worst_conclusion = max(
            worst_conclusion,
            np.abs(sv.reduced_density(glued, abc) - sv.reduced_density(inst.psi, abc)).max(),
            np.abs(
                sv.reduced_density(glued, bcd) - sv.reduced_density(inst.psi_prime, bcd)
            ).max(),
            sv.mutual_information(glued, part.qubits("A"), part.qubits("C", "D")),
            sv.mutual_information(glued, part.qubits("A", "B"), part.qubits("D")),
        )

        if petz_runs < 20 and part.n <= 10:
            petz_runs += 1
            rho = glue.petz_glue(inst)
            proj = np.outer(glued.amps, glued.amps.conj())
            petz_dev = max(petz_dev, np.abs(rho - proj).max())
    ok = (
        worst_premise <= 1e-10
        and worst_conclusion <= 1e-8
        and worst_purity < 1e-8
        and petz_runs == 20
        and petz_dev <= 1e-7
    )
    _verdict(
        11,
        "state gluing",
        ok,
        f"100 instances: premises {worst_premise:.1e}, conclusions "
        f"{worst_conclusion:.1e}, purity {worst_purity:.1e}, recovery map "
        f"dev {petz_dev:.1e} over {petz_runs} runs",
    )


def test_12_suite_determinism(tmp_path):
    """The full check suite passes and reruns to identical reports."""
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    codes = [run_suite("all", seed=29, out=str(p)) for p in paths]
    runs = [json.loads(p.read_text()) for p in paths]
    stripped = [
        [{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports]
        for reports in runs
    ]
    ok = (
        codes == [0, 0]
        and stripped[0] == stripped[1]
        and len(runs[0]) >= 30
        and all(r["pass"] for r in runs[0])
    )
    _verdict(
        12,
        "full-suite determinism",
        ok,
        f"exit codes {codes}, {len(runs[0])} reports, reruns identical "
        f"modulo timing: {stripped[0] == stripped[1]}",
    )
