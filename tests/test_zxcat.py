import json
import math

import numpy as np
import pytest

from magiclab import statevec as sv
from magiclab import symplectic as sp
from magiclab import zxcat

# Closed-form limit of the two-qubit mutual information, frozen from an
# independent 30-digit evaluation of (3/4)log2(3) + 1 - sqrt(2)*
# artanh(2*sqrt(2)/3)/(2 ln 2).
MI_LIMIT = 0.390473948926579


def test_build_small_examples():
    one = zxcat.build(1, "plus")
    # (|0> + |+>)/sqrt(2 alpha) with alpha = 1 + 2^{-1/2}
    alpha = 1 + 2**-0.5
    want = np.array([1 + 2**-0.5, 2**-0.5]) / math.sqrt(2 * alpha)
    assert np.allclose(one.amps, want, atol=1e-14)


def oracle_build(n, variant):
    """Amplitudes of |0^n> + phase |+^n> over sqrt(2 alpha), sqrt(2 beta) or sqrt(2)."""
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    if variant == "minus":
        amps = -amps
    elif variant == "i":
        amps = 1j * amps
    amps[0] += 1.0
    alpha, beta = 1.0 + 2.0 ** (-n / 2.0), 1.0 - 2.0 ** (-n / 2.0)
    scale = {"plus": math.sqrt(2.0 * alpha), "minus": math.sqrt(2.0 * beta)}
    return amps / scale.get(variant, math.sqrt(2.0))


def test_build_is_bit_identical_to_the_closed_form():
    names = {"plus": "plus", "PLUS": "plus", "minus": "minus", "Minus": "minus",
             "i": "i", "I": "i", "i-phase": "i", "iphase": "i", "imag": "i"}
    for n in range(1, 15):
        for name, variant in names.items():
            got = zxcat.build(n, name).amps
            assert got.tobytes() == oracle_build(n, variant).tobytes(), (n, name)


def test_norms_and_orthogonality():
    for n in range(2, 11):
        plus = zxcat.build(n, "plus")
        minus = zxcat.build(n, "minus")
        imag = zxcat.build(n, "i")
        for state in (plus, minus, imag):
            assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
        assert abs(np.vdot(plus.amps, minus.amps)) < 1e-12


def test_variant_and_range_validation():
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        zxcat.build(3, "bogus")
    with pytest.raises(ValueError, match=r"n=0 outside \[1, "):
        zxcat.build(0)
    with pytest.raises(ValueError, match="outside"):
        zxcat.build(sv.max_qubits() + 1)
    assert np.allclose(
        zxcat.build(3, "i-phase").amps, zxcat.build(3, "i").amps
    )


def test_mi_asymptote_matches_frozen_value():
    val = zxcat.mi_asymptote()
    assert val == pytest.approx(MI_LIMIT, abs=1e-12)
    assert val > 0
    assert zxcat.mi_asymptote() == val


def test_mi_asymptote_literal_is_the_rounded_closed_form():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        val = (
            mpmath.mpf(3) / 4 * mpmath.log(3) / mpmath.log(2)
            + 1
            - mpmath.sqrt(2) * mpmath.atanh(2 * mpmath.sqrt(2) / 3) / (2 * mpmath.log(2))
        )
        assert zxcat.mi_asymptote() == float(val)


def test_mi_numeric_converges_and_is_positive():
    assert abs(zxcat.mi_numeric(12) - zxcat.mi_asymptote()) < 0.02
    for n in range(2, 13):
        assert zxcat.mi_numeric(n) > 0
    devs = [abs(zxcat.mi_numeric(n) - MI_LIMIT) for n in (4, 6, 8, 10, 12)]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_mi_numeric_pair_symmetry():
    a = zxcat.mi_numeric(8, pair=(0, 1))
    b = zxcat.mi_numeric(8, pair=(2, 5))
    assert abs(a - b) < 1e-9
    with pytest.raises(ValueError):
        zxcat.mi_numeric(1)


def test_z_expectation_closed_form():
    for n in range(2, 11):
        psi = zxcat.build(n, "plus")
        alpha = 1 + 2 ** (-n / 2)
        want = (1 + 2 ** (1 - n / 2)) / (2 * alpha)
        for q in (0, n - 1):
            got = sv.pauli_expectation(psi, sp.PauliString.single(n, q, "Z"))
            assert abs(got - want) < 1e-10


def test_crossterm_identity_value():
    # V = Z on one qubit of the raw branches: the cross term equals the
    # branch overlap 2^{-n/2} and sits well under the support-1 bound.
    n = 6
    zero = sv.StateVector.basis_state(n, 0)
    plus = sv.StateVector.uniform_plus(n)
    moved = sv.matrix_action(plus.amps, n, (2,), sv.Z2)
    val = abs(np.vdot(zero.amps, moved))
    assert val == pytest.approx(2 ** (-n / 2), abs=1e-12)
    assert val <= 2 * 2 ** (-n / 2)


def test_crossterm_bound_report():
    rep = zxcat.crossterm_bound_check(n=8, seed=7, trials=200)
    assert rep.passed and rep.check == "crossterm-bound"
    assert rep.params["violations"] == 0
    assert rep.observed <= 1.0
    assert rep.params["identity_overlap_dev"] < 1e-12
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least one trial"):
            zxcat.crossterm_bound_check(n=4, trials=trials)
    for max_support in (0, -1):
        with pytest.raises(ValueError, match="at least one qubit"):
            zxcat.crossterm_bound_check(n=4, trials=3, max_support=max_support)


def test_crossterm_branches_from_the_adjoint_images():
    # C^dag|0^n> and C^dag|+^n> read off the adjoint tableau's Z and X images
    rng = np.random.default_rng(31)
    for n in range(1, 13):
        for _ in range(6):
            adj = sp.random_clifford(n, rng).adjoint()
            zero = sp.apply_clifford(adj, sp.StabilizerState.zero_state(n))
            plus = sp.apply_clifford(adj, sp.StabilizerState.plus_state(n))
            assert sp.StabilizerState(n, adj.z_images) == zero
            assert sp.StabilizerState(n, adj.x_images) == plus


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crossterm_bound_below_the_support_cap(n):
    # supports are drawn up to min(max_support, n) qubits
    rep = zxcat.crossterm_bound_check(n=n, seed=5, trials=60)
    assert rep.passed and rep.params["violations"] == 0
    assert rep.observed <= 1.0
    assert rep.params["identity_overlap_dev"] < 1e-12
    assert rep.params["max_support"] == 4


def test_cu_witness_identity_small():
    # an in-cone pair exists, or the witness would have raised
    rep = zxcat.cu_correlation_witness(4)
    assert rep.params["g_expect"] == pytest.approx(0.6, abs=1e-12)
    assert rep.params["gg_expect"] == pytest.approx(0.6, abs=1e-12)
    assert rep.params["gap"] == pytest.approx(0.24, abs=1e-12)
    assert rep.passed


def test_cu_witness_large_near_half():
    n = 12
    rep = zxcat.cu_correlation_witness(n, gap_min=0.2)
    lim = 2 ** (1 - n / 2)
    for key in ("g_expect", "gp_expect", "gg_expect"):
        assert abs(rep.params[key] - 0.5) <= lim
    assert rep.params["gap"] > 0.2
    assert rep.passed


def test_cu_witness_random_clifford_sweep():
    # A random Clifford leaves no stabilizer of C^dag|0^n> inside a seed's
    # cone, so the factorization argument has no premise: the witness
    # raises instead of reporting the Clifford-independent Z-generator gap.
    rng = np.random.default_rng(23)
    n = 12
    for _ in range(50):
        cmap = sp.random_clifford(n, rng)
        with pytest.raises(ValueError, match="the witness does not apply"):
            zxcat.cu_correlation_witness(n, cmap)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cu_witness_brickwork_in_cone_sweep(depth, seed):
    # C = I with a shallow brickwork: in-cone pairs exist and the witness passes
    circ = sv.random_brickwork(10, depth, np.random.default_rng(seed))
    rep = zxcat.cu_correlation_witness(10, circuit=circ)
    assert rep.params["depth"] == depth
    assert rep.params["gap"] >= rep.params["gap_min"]
    assert rep.params["max_half_dev"] <= rep.params["half_dev_limit"]
    assert rep.passed


def test_cu_witness_shallow_circuit_in_cone():
    rng = np.random.default_rng(3)
    circ = sv.random_brickwork(8, 1, rng)
    rep = zxcat.cu_correlation_witness(8, circuit=circ)
    assert rep.params["depth"] == 1
    assert rep.passed


def test_cu_witness_overlapping_cones_rejected():
    n = 4
    deep = sv.random_brickwork(n, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        zxcat.cu_correlation_witness(n, circuit=deep)


def test_cu_witness_rejects_a_seed_qubit_outside_the_register():
    with pytest.raises(ValueError, match="seed 9 out of range for 6 qubits"):
        zxcat.cu_correlation_witness(6, qubits=(0, 9))


def test_uc_witness_identity_equality():
    rep = zxcat.uc_sign_witness(6)
    assert rep.params["fidelity_i"] == pytest.approx(2**-0.5, abs=1e-10)
    assert rep.params["dpi_i"] == pytest.approx(2**-0.5, abs=1e-15)
    assert rep.passed


def test_uc_witness_bound_value_for_four_qubit_cone():
    # |forward cone| = 4 gives the lower bound 1/4.
    assert 2.0 ** (-4 / 2.0) == 0.25


def test_uc_witness_depth_one_sweep():
    rng = np.random.default_rng(11)
    for _ in range(30):
        circ = sv.random_brickwork(8, 1, rng)
        rep = zxcat.uc_sign_witness(8, circ)
        for label in ("i", "j"):
            assert (
                rep.params[f"fidelity_{label}"]
                >= rep.params[f"dpi_{label}"] - 1e-9
            )
        assert rep.passed


def test_uc_witness_unsatisfiable_depth():
    circ = sv.random_brickwork(2, 1, np.random.default_rng(1))
    with pytest.raises(ValueError):
        zxcat.uc_sign_witness(2, circ)


def test_witness_report_serializes():
    rep = zxcat.crossterm_bound_check(n=4, seed=0, trials=5)
    blob = rep.to_dict()
    assert set(blob) == {"check", "params", "observed", "bound", "pass"}
    assert isinstance(blob["observed"], float) and isinstance(blob["bound"], float)
    json.dumps(blob)
