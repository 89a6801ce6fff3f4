"""Tests for state gluing: premises, the matching unitary, the recovery map."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from magiclab import glue, statevec, suites
from magiclab.cli import main
from magiclab.glue import (
    GluableInstance,
    Partition,
    PremiseViolation,
    check_premises,
    conclusions,
    generate_gluable_instance,
    glue_states,
    matching_unitary,
    petz_glue,
    shared_factor_entropy,
)
from magiclab.statevec import (
    CX4,
    Gate,
    StateVector,
    apply_gate,
    entanglement_entropy,
    mutual_information,
    pure_overlap,
    reduced_density,
)

ONES = (1, 1, 1, 1, 1, 1)


def test_partition_blocks():
    part = Partition((2, 1, 2, 1, 1, 2))
    assert part.n == 9
    assert part.qubits("A") == (0, 1)
    assert part.qubits("B1") == (2,)
    assert part.qubits("B") == (2, 3, 4)
    assert part.qubits("C") == (5, 6)
    assert part.qubits("D") == (7, 8)
    assert part.qubits("B", "C") == (2, 3, 4, 5, 6)
    assert part.qubits("A", "D") == (0, 1, 7, 8)
    with pytest.raises(KeyError):
        part.qubits("E")
    with pytest.raises(ValueError):
        Partition((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        Partition((1, 0, 1, 1, 1, 1))


def test_generated_premises_hold():
    for seed in range(100):
        inst = generate_gluable_instance(ONES, seed=seed)
        assert set(inst.residuals) == {"bc_marginal", "d_entropy", "mi_a_cd", "mi_ab_d"}
        for name, value in inst.residuals.items():
            assert abs(value) <= 1e-10, f"seed {seed}: {name} = {value:.3e}"
        assert abs(shared_factor_entropy(inst)) <= 1e-8


def test_product_instance_premises_exact():
    inst = generate_gluable_instance(ONES, seed=5, product=True)
    assert abs(inst.residuals["bc_marginal"]) <= 1e-14
    assert abs(inst.residuals["d_entropy"]) <= 1e-14
    assert abs(inst.residuals["mi_a_cd"]) <= 1e-13
    assert abs(inst.residuals["mi_ab_d"]) <= 1e-13
    # every block is pure, so the merge is trivially consistent
    glue_states(inst)


def test_tampered_instance_rejected():
    inst = generate_gluable_instance(ONES, seed=11)
    part = inst.partition
    # entangling A with D leaves the BC marginal alone but shifts S(D)
    a_q, d_q = part.qubits("A")[0], part.qubits("D")[0]
    warped = apply_gate(inst.psi_prime, Gate((a_q, d_q), CX4))
    with pytest.raises(PremiseViolation, match="D entropies"):
        check_premises(replace(inst, psi_prime=warped))
    # touching C2 and D together disturbs the BC marginal itself
    c2_q = part.qubits("C2")[0]
    warped = apply_gate(inst.psi_prime, Gate((c2_q, d_q), CX4))
    with pytest.raises(PremiseViolation, match="BC marginals"):
        check_premises(replace(inst, psi_prime=warped))
    # swapping in a state from an unrelated instance breaks the overlap
    other = generate_gluable_instance(ONES, seed=12)
    with pytest.raises(PremiseViolation):
        check_premises(replace(inst, psi_prime=other.psi_prime))


def test_glue_errors_on_bad_premises():
    inst = generate_gluable_instance(ONES, seed=11)
    part = inst.partition
    a_q, d_q = part.qubits("A")[0], part.qubits("D")[0]
    warped = apply_gate(inst.psi_prime, Gate((a_q, d_q), CX4))
    with pytest.raises(PremiseViolation):
        glue_states(replace(inst, psi_prime=warped))


def test_identity_pair_glues_to_itself():
    inst = generate_gluable_instance(ONES, seed=2)
    same = replace(inst, psi_prime=inst.psi, planted_a=None, planted_d=None)
    u_a = matching_unitary(same)
    phase = u_a[0, 0] / abs(u_a[0, 0])
    assert np.abs(u_a - phase * np.eye(2)).max() <= 1e-10
    glued = glue_states(same)
    assert pure_overlap(glued, inst.psi) >= 1.0 - 1e-12


def test_planted_rotation_recovered():
    for sizes, seeds in ((ONES, range(5)), ((2, 2, 1, 1, 1, 2), range(2))):
        dim_a = 2 ** sizes[0]
        for seed in seeds:
            inst = generate_gluable_instance(sizes, seed=seed)
            aligned = matching_unitary(inst) @ inst.planted_a
            phase = aligned[0, 0] / abs(aligned[0, 0])
            dev = np.abs(aligned - phase * np.eye(dim_a)).max()
            assert dev <= 1e-8, f"sizes {sizes} seed {seed}: dev {dev:.3e}"


def test_glue_conclusions_hold():
    for seed in range(100):
        inst = generate_gluable_instance(ONES, seed=seed)
        glued = glue_states(inst)  # asserts all four conclusions internally
        part = inst.partition
        bcd = part.qubits("B", "C", "D")
        dev = np.abs(reduced_density(glued, bcd) - reduced_density(inst.psi_prime, bcd)).max()
        assert dev <= 1e-12  # the unitary never touches BCD
        assert mutual_information(glued, part.qubits("A"), part.qubits("C", "D")) <= 1e-8
        assert mutual_information(glued, part.qubits("A", "B"), part.qubits("D")) <= 1e-8


def test_glue_bigger_blocks():
    for sizes in ((2, 1, 2, 1, 1, 2), (1, 2, 1, 2, 2, 1)):
        for seed in range(3):
            inst = generate_gluable_instance(sizes, seed=seed)
            assert all(abs(v) <= 1e-10 for v in inst.residuals.values())
            glue_states(inst)
            assert abs(shared_factor_entropy(inst)) <= 1e-8


def test_petz_reproduces_merge():
    for seed in range(50):
        inst = generate_gluable_instance(ONES, seed=seed)
        rho = petz_glue(inst)
        glued = glue_states(inst)
        fid = float(np.real(glued.amps.conj() @ rho @ glued.amps))
        assert fid >= 1.0 - 1e-7, f"seed {seed}: fidelity {fid}"
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        if seed < 10:
            proj = np.outer(glued.amps, glued.amps.conj())
            assert np.abs(rho - proj).max() <= 1e-7


def test_petz_product_ab_factorizes():
    # with psi_AB a product, the recovery map just re-attaches psi_A
    inst = generate_gluable_instance(ONES, seed=9, product=True)
    part = inst.partition
    rho = petz_glue(inst)
    rho_a = reduced_density(inst.psi, part.qubits("A"))
    rho_bcd = reduced_density(inst.psi_prime, part.qubits("B", "C", "D"))
    assert np.abs(rho - np.kron(rho_bcd, rho_a)).max() <= 1e-8


def test_instance_validation():
    with pytest.raises(ValueError, match="dense cap"):
        generate_gluable_instance((3, 3, 3, 3, 3, 3), seed=0)
    part = Partition(ONES)
    wrong = StateVector.basis_state(5, 0)
    good = StateVector.basis_state(6, 0)
    with pytest.raises(ValueError, match="partition"):
        GluableInstance(part, wrong, good)
    # residuals come from the premise check alone, never from the caller
    with pytest.raises(TypeError, match="residuals"):
        GluableInstance(part, good, good, residuals={})


def test_conclusions_residuals():
    inst = generate_gluable_instance((2, 1, 1, 1, 1, 1), seed=4)
    residuals = conclusions(inst, glue_states(inst))
    assert set(residuals) == {"abc_marginal", "bcd_marginal", "mi_a_cd", "mi_ab_d"}
    assert max(residuals.values()) <= 1e-8
    # psi' itself carries the wrong A rotation, so its ABC marginal is off
    assert conclusions(inst, inst.psi_prime)["abc_marginal"] > 1e-3


def _petz_kron_oracle(inst, cutoff=1e-10):
    """The recovery map as dense Kronecker products on all n qubits."""
    part = inst.partition
    dim_a = 2 ** part.sizes[0]
    dim_cd = 2 ** len(part.qubits("C", "D"))

    def sqrt(mat):
        w, u = np.linalg.eigh(mat)
        return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T

    def invsqrt(mat):
        w, u = np.linalg.eigh(mat)
        scaled = np.zeros_like(w)
        scaled[w > cutoff] = w[w > cutoff] ** -0.5
        return (u * scaled) @ u.conj().T

    rho_ab = reduced_density(inst.psi, part.qubits("A", "B"))
    rho_b = reduced_density(inst.psi, part.qubits("B"))
    lift = sqrt(rho_ab) @ np.kron(invsqrt(rho_b), np.eye(dim_a))
    sandwich = np.kron(np.eye(dim_cd), lift)
    rho_bcd = reduced_density(inst.psi_prime, part.qubits("B", "C", "D"))
    return sandwich @ np.kron(rho_bcd, np.eye(dim_a)) @ sandwich.conj().T


@pytest.mark.parametrize(
    "sizes, product",
    [
        (ONES, True),
        ((2, 1, 1, 1, 1, 2), False),
        ((3, 1, 1, 1, 1, 1), False),
        ((1, 2, 1, 2, 1, 2), False),
        ((2, 1, 1, 1, 1, 3), False),
    ],
)
def test_petz_matches_kronecker_oracle(sizes, product):
    for seed in range(2):
        inst = generate_gluable_instance(sizes, seed=seed, product=product)
        rho = petz_glue(inst)
        assert rho.shape == (2**inst.partition.n,) * 2
        dev = np.abs(rho - _petz_kron_oracle(inst)).max()
        assert dev <= 1e-12, f"{sizes} seed {seed}: {dev:.3e}"


def test_petz_source_check_catches_perturbed_map(monkeypatch):
    inst = generate_gluable_instance((2, 1, 1, 1, 1, 2), seed=3)
    exact = glue._invsqrt_psd
    monkeypatch.setattr(glue, "_invsqrt_psd", lambda mat, cutoff: 1.01 * exact(mat, cutoff))
    with pytest.raises(AssertionError, match="misses the source state"):
        petz_glue(inst)


def test_petz_source_check_survives_optimize_flag():
    code = (
        "from magiclab import glue\n"
        "inst = glue.generate_gluable_instance((2, 1, 1, 1, 1, 2), seed=3)\n"
        "exact = glue._invsqrt_psd\n"
        "glue._invsqrt_psd = lambda mat, cutoff: 1.01 * exact(mat, cutoff)\n"
        "try:\n"
        "    glue.petz_glue(inst)\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
        "else:\n"
        "    print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.startswith("False raised recovery map misses"), out.stdout


def test_hermitian_defect_over_blocks_matches_full_formula(monkeypatch):
    rng = np.random.default_rng(4)
    monkeypatch.setattr(statevec, "_TILE", 3)  # dims 8 and 13 end in a partial tile
    for dim in (1, 8, 13):
        herm = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = herm + herm.conj().T
        for i, j in ((0, dim - 1), (dim - 1, dim // 2), (dim // 2, 0)):
            mat = herm.copy()
            mat[i, j] += 1e-6 * (1 + 1j)
            want = np.abs(mat - mat.conj().T).max()
            assert glue._hermitian_defect(mat) == want
        mat = herm.copy()
        mat[dim - 1, 0] = np.nan
        assert np.isnan(glue._hermitian_defect(mat))


def test_petz_hermitian_check_catches_skewed_output(monkeypatch):
    inst = glue.generate_gluable_instance((2, 1, 1, 1, 1, 2), seed=3)
    real = glue._hermitian_defect

    def skewed(mat):
        mat[0, -1] += 1e-6  # in place, so the returned output is skewed too
        return real(mat)

    monkeypatch.setattr(glue, "_hermitian_defect", skewed)
    with pytest.raises(AssertionError, match="must be Hermitian"):
        petz_glue(inst)


def test_petz_hermitian_check_survives_optimize_flag():
    code = (
        "from magiclab import glue\n"
        "inst = glue.generate_gluable_instance((2, 1, 1, 1, 1, 2), seed=3)\n"
        "real = glue._hermitian_defect\n"
        "def skewed(mat):\n"
        "    mat[0, -1] += 1e-6\n"
        "    return real(mat)\n"
        "glue._hermitian_defect = skewed\n"
        "try:\n"
        "    glue.petz_glue(inst)\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
        "else:\n"
        "    print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.startswith("False raised recovered state must be Hermitian"), out.stdout


def test_premises_checked_once_per_instance(monkeypatch, capsys):
    calls = []
    real = glue.check_premises

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(glue, "check_premises", counted)
    inst = generate_gluable_instance((2, 1, 1, 1, 1, 2), seed=3)
    glue_states(inst)
    petz_glue(inst)
    assert len(calls) == 1 and calls[0] is inst
    calls.clear()
    suites.suite_glue(seed=0)
    assert len(calls) == 20
    calls.clear()
    assert main(["glue", "run", "--trials", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 3


# the nine partitions of bench/'s glue-petz workload
GLUE_PETZ_SHAPES = (
    (2, 1, 1, 1, 1, 2), (1, 2, 1, 1, 2, 1), (2, 2, 1, 1, 1, 1),
    (1, 1, 2, 2, 1, 1), (1, 1, 1, 1, 2, 2), (3, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 3), (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1),
)


def _row_block_defect(mat, block_entries=1 << 20):
    """petz_glue's former Hermitian check: |mat - mat*| over blocks of rows."""
    dim = mat.shape[0]
    rows = max(1, block_entries // dim)
    return float(np.max([
        np.abs(mat[i : i + rows] - mat[:, i : i + rows].conj().T).max()
        for i in range(0, dim, rows)
    ]))


@pytest.mark.parametrize("sizes", GLUE_PETZ_SHAPES)
def test_glue_outputs_bytes_equal_the_separate_check_oracle(sizes):
    # the instance's residuals, the merge without its own premise check, and
    # the row-block Hermitian defect of the Petz output, compared bit for bit
    for seed in range(2):
        inst = generate_gluable_instance(sizes, seed=seed)
        assert inst.residuals == check_premises(inst)
        glued = glue_states(inst)
        u_a = matching_unitary(inst)
        want = apply_gate(inst.psi_prime, Gate(inst.partition.qubits("A"), u_a))
        assert glued.amps.tobytes() == want.amps.tobytes()
        rho = petz_glue(inst)
        assert glue._hermitian_defect(rho) == _row_block_defect(rho) <= 1e-9


def _gram_marginal(v, qubits):
    """Plain-numpy reduced state: moveaxis the sorted qubits to the rows, then Phi Phi*."""
    keep = sorted(set(qubits))
    axes = [v.n - 1 - q for q in reversed(keep)]
    phi = np.moveaxis(v.amps.reshape((2,) * v.n), axes, range(len(keep)))
    phi = phi.reshape(2 ** len(keep), -1)
    return phi @ phi.conj().T


def _dm_entanglement_entropy(v, qubits):
    """S(qubits) in bits from the smaller side's plain-numpy marginal."""
    region = set(qubits)
    if 2 * len(region) > v.n:
        region = set(range(v.n)) - region
    w = np.linalg.eigvalsh(_gram_marginal(v, region))
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def _dm_mutual_information(v, a, b):
    return (
        _dm_entanglement_entropy(v, a)
        + _dm_entanglement_entropy(v, b)
        - _dm_entanglement_entropy(v, set(a) | set(b))
    )


def _dm_deviation(v, w, qubits):
    return float(np.abs(_gram_marginal(v, qubits) - _gram_marginal(w, qubits)).max())


def _dm_premises(inst):
    """check_premises' residuals, each from plain-numpy marginals."""
    part, psi, prime = inst.partition, inst.psi, inst.psi_prime
    d = part.qubits("D")
    return {
        "bc_marginal": _dm_deviation(psi, prime, part.qubits("B", "C")),
        "d_entropy": abs(_dm_entanglement_entropy(psi, d) - _dm_entanglement_entropy(prime, d)),
        "mi_a_cd": float(_dm_mutual_information(psi, part.qubits("A"), part.qubits("C", "D"))),
        "mi_ab_d": float(_dm_mutual_information(prime, part.qubits("A", "B"), d)),
    }


def _dm_conclusions(inst, glued):
    part = inst.partition
    return {
        "abc_marginal": _dm_deviation(glued, inst.psi, part.qubits("A", "B", "C")),
        "bcd_marginal": _dm_deviation(glued, inst.psi_prime, part.qubits("B", "C", "D")),
        "mi_a_cd": _dm_mutual_information(glued, part.qubits("A"), part.qubits("C", "D")),
        "mi_ab_d": _dm_mutual_information(glued, part.qubits("A", "B"), part.qubits("D")),
    }


@pytest.mark.parametrize("sizes", [*GLUE_PETZ_SHAPES, ONES])
def test_kernel_route_bytes_equal_the_density_matrix_route(monkeypatch, sizes):
    # every entropy, residual and output, against the same formulas on
    # plain-numpy Gram marginals
    for seed in range(5):
        inst = generate_gluable_instance(sizes, seed=seed)
        psi, part = inst.psi, inst.partition
        for names in (("A",), ("D",), ("B", "C"), ("A", "B", "C")):
            region = part.qubits(*names)
            assert reduced_density(psi, region).tobytes() == _gram_marginal(psi, region).tobytes()
            assert entanglement_entropy(psi, region) == _dm_entanglement_entropy(psi, region)
        a, cd = part.qubits("A"), part.qubits("C", "D")
        assert mutual_information(psi, a, cd) == _dm_mutual_information(psi, a, cd)
        assert inst.residuals == check_premises(inst) == _dm_premises(inst)
        glued = glue_states(inst)
        assert conclusions(inst, glued) == _dm_conclusions(inst, glued)
        rho = petz_glue(inst)
        with monkeypatch.context() as patch:
            patch.setattr(glue, "reduced_density", _gram_marginal)
            assert glue_states(inst).amps.tobytes() == glued.amps.tobytes()
            assert petz_glue(inst).tobytes() == rho.tobytes()


@pytest.mark.parametrize(
    "name, side, message",
    [
        ("reduced_density", "psi_prime", "BC marginals differ by nan"),
        ("entanglement_entropy", "psi_prime", "D entropies differ by nan bits"),
        ("mutual_information", "psi", "first state correlates A with CD: I = nan bits"),
        ("mutual_information", "psi_prime", "second state correlates AB with D: I = nan bits"),
    ],
)
def test_nan_residual_fails_its_premise(monkeypatch, name, side, message):
    inst = generate_gluable_instance(ONES, seed=1)
    real = getattr(glue, name)

    def poisoned(v, *args):
        out = real(v, *args)
        if v is not getattr(inst, side):
            return out
        return np.nan * out if name == "reduced_density" else np.nan

    monkeypatch.setattr(glue, name, poisoned)
    with pytest.raises(PremiseViolation, match=message):
        check_premises(inst)


def test_nan_conclusion_fails_the_glue(monkeypatch):
    inst = generate_gluable_instance(ONES, seed=1)
    real = glue.conclusions
    monkeypatch.setattr(
        glue, "conclusions", lambda inst, glued: {**real(inst, glued), "mi_ab_d": np.nan}
    )
    with pytest.raises(AssertionError, match="misses mi_ab_d by nan"):
        glue_states(inst)


def test_glue_suite_reports_a_late_nan(monkeypatch):
    # each check's NaN sits in the second of three trials, behind a finite value
    late = {"check_premises": 0, "merge": 0, "shared_factor_entropy": 0, "petz_glue": 0}

    def second_nan(name, poison):
        real = getattr(glue, name)

        def wrapped(inst, *args, **kwargs):
            late[name] += 1
            out = real(inst, *args, **kwargs)
            return poison(out) if late[name] == 2 else out

        monkeypatch.setattr(glue, name, wrapped)

    second_nan("check_premises", lambda res: {**res, "d_entropy": np.nan})
    second_nan("merge", lambda out: (out[0], {**out[1], "abc_marginal": np.nan}))
    second_nan("shared_factor_entropy", lambda s: np.nan)
    second_nan("petz_glue", lambda rho: np.full_like(rho, np.nan))
    reports = suites.suite_glue(seed=0, trials=3)
    assert [r.check for r in reports] == [
        "premises", "conclusions", "middle-factor-purity", "petz-matches-unitary"
    ]
    for report in reports:
        assert np.isnan(report.observed) and not report.passed, report


def test_nan_fails_loudly_under_optimize_flag():
    code = (
        "import numpy as np\n"
        "from magiclab import glue, statevec as sv, suites\n"
        "inst = glue.generate_gluable_instance((1, 1, 1, 1, 1, 1), seed=1)\n"
        "real_mi, real_conclusions = glue.mutual_information, glue.conclusions\n"
        "def nan_mi(v, a, b):\n"
        "    return np.nan if v is inst.psi_prime else real_mi(v, a, b)\n"
        "def nan_conclusions(inst, glued):\n"
        "    return {**real_conclusions(inst, glued), 'mi_a_cd': np.nan}\n"
        "def nan_mi_patched():\n"
        "    glue.mutual_information = nan_mi\n"
        "    try:\n"
        "        glue.check_premises(inst)\n"
        "    finally:\n"
        "        glue.mutual_information = real_mi\n"
        "def nan_conclusions_patched():\n"
        "    glue.conclusions = nan_conclusions\n"
        "    try:\n"
        "        glue.glue_states(inst)\n"
        "    finally:\n"
        "        glue.conclusions = real_conclusions\n"
        "for call in (\n"
        "    lambda: sv.StateVector(1, [np.nan, 0]),\n"
        "    nan_mi_patched,\n"
        "    nan_conclusions_patched,\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except (ValueError, AssertionError) as exc:\n"
        "        print(__debug__, 'raised', exc)\n"
        "    else:\n"
        "        print(__debug__, 'silent')\n"
        "glue.shared_factor_entropy = lambda inst: np.nan\n"
        "purity = suites.suite_glue(seed=0, trials=2)[2]\n"
        "print(__debug__, purity.check, purity.observed, purity.passed)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.splitlines() == [
        "False raised state not normalized (norm nan)",
        "False raised second state correlates AB with D: I = nan bits",
        "False raised merged state misses mi_a_cd by nan",
        "False middle-factor-purity nan False",
    ], out.stdout


def _retry_loop_unitary(inst, attempts=16):
    """matching_unitary's former loop: health is sigma_last/sigma_0 > 1e-6."""
    dim_a = 2 ** inst.partition.sizes[0]
    base = inst.psi.amps.reshape(-1, dim_a)
    d_block = inst.partition.qubits("D")
    rng = np.random.default_rng(181)
    best = None
    for attempt in range(attempts):
        ref = inst.psi_prime
        if attempt:
            ref = apply_gate(ref, Gate(d_block, statevec.haar_unitary(2 ** len(d_block), rng)))
        u, sing, vh = np.linalg.svd(base.T @ ref.amps.reshape(-1, dim_a).conj())
        ratio = sing[-1] / sing[0] if sing[0] > 0 else 0.0
        if ratio > 1e-6:
            return u @ vh
        if best is None or ratio > best[0]:
            best = (ratio, u @ vh)
    return best[1]


def _glued_by(inst, u_a):
    return apply_gate(inst.psi_prime, Gate(inst.partition.qubits("A"), u_a))


# |A| > |B1|: psi's Schmidt rank across A is 2^|B1| < 2^|A|
RANK_DEFICIENT_SHAPES = ((2, 1, 1, 1, 1, 2), (3, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 3), (2, 1, 2, 1, 2, 1))


@pytest.mark.parametrize("sizes", RANK_DEFICIENT_SHAPES)
def test_matching_unitary_takes_one_attempt_when_a_outranks_b1(monkeypatch, sizes):
    for seed in range(20):
        inst = generate_gluable_instance(sizes, seed=seed)
        old = _glued_by(inst, _retry_loop_unitary(inst))
        draws = []
        monkeypatch.setattr(glue, "haar_unitary", lambda *a: draws.append(a))
        glued = glue_states(inst)
        monkeypatch.undo()
        assert draws == []
        # the old loop's best retry and the first try agree up to a global phase
        assert abs(np.vdot(old.amps, glued.amps)) == pytest.approx(1.0, abs=1e-12)
        proj = np.outer(glued.amps, glued.amps.conj())
        assert np.abs(petz_glue(inst) - proj).max() <= 1e-7


@pytest.mark.parametrize(
    "sizes", [s for s in GLUE_PETZ_SHAPES if s not in RANK_DEFICIENT_SHAPES] + [ONES]
)
def test_full_rank_glue_bytes_equal_the_retry_loop_oracle(sizes):
    for seed in range(5):
        inst = generate_gluable_instance(sizes, seed=seed)
        want = _glued_by(inst, _retry_loop_unitary(inst))
        assert glue_states(inst).amps.tobytes() == want.amps.tobytes()


def test_conclusions_bound_is_written_once(monkeypatch):
    # glue_states and the conclusions check (suite and `glue run`) share it
    inst = generate_gluable_instance(ONES, seed=0)
    monkeypatch.setattr(glue, "CONCLUSION_TOL", -1.0)
    with pytest.raises(AssertionError, match="merged state misses"):
        glue.glue_states(inst)
    report = suites.conclusions_check({}, [glue.merge(inst)[1]])
    assert report.bound == -1.0 and not report.passed
