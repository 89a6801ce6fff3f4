"""Tests for the three cat-state preparation protocols."""

import itertools

import numpy as np
import pytest

from magiclab.prep import (
    CH4,
    MPS_BLOCKS,
    UZH,
    AdaptiveRunRecord,
    adaptive_circuit,
    adaptive_run,
    adaptive_shots,
    adaptive_success_probability,
    bell_protocol_run,
    bell_shots,
    mps_contract,
    prepare_sandwich,
    push_relation_check,
    verify_global_clifford,
    _site_state,
)
from magiclab.statevec import (
    H2,
    Z2,
    Gate,
    StateVector,
    apply_circuit,
    apply_gate,
    measure,
    pauli_matrix,
    pure_overlap,
)
from magiclab.symplectic import PauliString
from magiclab.zxcat import build

SQRT2 = np.sqrt(2.0)


# -- sandwich circuit ---------------------------------------------------------

def test_uzh_frame_takes_z_to_h():
    assert np.allclose(UZH @ UZH.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(UZH @ Z2 @ UZH.conj().T, H2, atol=1e-12)


def test_sandwich_single_qubit_pattern():
    v = prepare_sandwich(1)
    want = np.array([1.0, 0.0]) + 1j * np.array([1.0, 1.0]) / SQRT2
    want = want / np.linalg.norm(want)
    assert abs(abs(np.vdot(want, v.amps)) - 1.0) < 1e-12


def test_sandwich_matches_iphase_cat():
    for n in range(1, 9):
        v = prepare_sandwich(n)
        assert pure_overlap(v, build(n, "i")) >= 1.0 - 1e-12


def test_sandwich_output_is_permutation_symmetric():
    n = 5
    v = prepare_sandwich(n)
    tensor = v.amps.reshape((2,) * n)
    rng = np.random.default_rng(3)
    for _ in range(5):
        perm = rng.permutation(n)
        assert np.allclose(tensor, tensor.transpose(perm), atol=1e-12)


def test_sandwich_rejects_bad_sizes():
    with pytest.raises(ValueError):
        prepare_sandwich(0)


def test_phase_layer_is_matrix_exponential():
    # the two-term form (1 + iZ...Z)/sqrt(2) is exp(i pi/4 Z...Z)
    n = 3
    signs = np.array([(-1) ** bin(v).count("1") for v in range(1 << n)])
    two_term = (1.0 + 1j * signs) / SQRT2
    assert np.allclose(two_term, np.exp(1j * np.pi / 4 * signs), atol=1e-15)


def test_global_clifford_certificate():
    for n in (1, 2, 3, 6):
        assert verify_global_clifford(n) is True
    # symbolic-only path for a register far beyond the dense cap
    assert verify_global_clifford(40) is True
    with pytest.raises(ValueError):
        verify_global_clifford(0)


def test_conjugation_case_split_dense():
    # Z_0 commutes with Z...Z and survives unchanged; X_0 picks up the
    # diagonal word with a phase: the n = 2 image is -Y(x)Z.
    n = 2
    signs = np.array([(-1) ** bin(v).count("1") for v in range(1 << n)])
    cmat = np.diag((1.0 + 1j * signs) / SQRT2)
    z0 = pauli_matrix(PauliString.single(n, 0, "Z"))
    assert np.allclose(cmat @ z0 @ cmat.conj().T, z0, atol=1e-12)
    x0 = pauli_matrix(PauliString.single(n, 0, "X"))
    img = pauli_matrix(PauliString.from_text("-YZ"))
    assert np.allclose(cmat @ x0 @ cmat.conj().T, img, atol=1e-12)


# -- adaptive protocol --------------------------------------------------------

def test_controlled_h_matrix():
    # the entry-by-entry construction the constant replaced, byte for byte
    want = np.zeros((4, 4), dtype=complex)
    for ctrl in range(2):
        op = H2 if ctrl else np.eye(2)
        for t_out in range(2):
            for t_in in range(2):
                want[ctrl + 2 * t_out, ctrl + 2 * t_in] = op[t_out, t_in]
    assert CH4.tobytes() == want.tobytes()
    assert np.allclose(CH4 @ CH4.conj().T, np.eye(4), atol=1e-15)
    # control low bit = 0: identity on the target
    assert np.allclose(CH4[np.ix_([0, 2], [0, 2])], np.eye(2), atol=1e-15)
    # control low bit = 1: Hadamard on the target
    assert np.allclose(CH4[np.ix_([1, 3], [1, 3])], H2, atol=1e-15)


def test_adaptive_circuit_two_branch_form():
    n = 3
    v = apply_circuit(adaptive_circuit(n), StateVector.basis_state(2 * n, 0))
    want = np.zeros(1 << (2 * n), dtype=complex)
    want[0] = 1.0 / SQRT2  # |0^n>_a |0^n>
    ones = (1 << n) - 1
    for d in range(1 << n):  # |1^n>_a |+^n>
        want[ones + (d << n)] += (1.0 / SQRT2) * 2.0 ** (-n / 2.0)
    assert np.allclose(v.amps, want, atol=1e-12)


def test_adaptive_success_probability_closed_form():
    for n in range(1, 13):
        p = adaptive_success_probability(n)
        assert abs(p - (1.0 + 2.0 ** (-n / 2.0)) / 2.0) < 1e-12
        assert p > 0.5
    assert abs(adaptive_success_probability(2) - 0.75) < 1e-15
    with pytest.raises(ValueError):
        adaptive_success_probability(13)
    with pytest.raises(ValueError):
        adaptive_success_probability(0)


def test_adaptive_runs_collapse_to_cats():
    n = 4
    plus = build(n, "plus")
    minus = build(n, "minus")
    accepted = 0
    for seed in range(100):
        rec = adaptive_run(n, seed=seed)
        assert len(rec.outcomes) == n
        assert rec.accepted == (sum(rec.outcomes) % 2 == 0)
        if rec.accepted:
            accepted += 1
            assert pure_overlap(rec.post_state, plus) >= 1.0 - 1e-10
        else:
            # odd parity leaves the orthogonal cat on the data register
            assert pure_overlap(rec.post_state, minus) >= 1.0 - 1e-10
    # exact acceptance probability is 0.625; 100 shots stay well inside
    assert 45 <= accepted <= 80


def test_adaptive_record_parity_follows_outcomes():
    post = StateVector.basis_state(1, 0)
    for outcomes, parity in (((), 1), ((0, 1), -1), ((1, 1), 1), ((1, 0, 0), -1)):
        record = AdaptiveRunRecord(outcomes=outcomes, post_state=post)
        assert (record.parity, record.accepted) == (parity, parity == 1)


def test_adaptive_run_respects_dense_cap():
    with pytest.raises(ValueError):
        adaptive_run(8)  # 16 qubits > default cap


# -- matrix product form ------------------------------------------------------

def canonical_blocks():
    """A^0 = diag(1, 1/sqrt2) and A^1 with a lone 1/sqrt2 at (1, 1), stacked."""
    s = 1.0 / SQRT2
    a1 = np.zeros((2, 2))
    a1[1, 1] = s
    return np.stack([np.diag([1.0, s]), a1]).astype(complex)


def test_mps_tensor_invariants():
    s = 1.0 / SQRT2
    assert MPS_BLOCKS.tobytes() == canonical_blocks().tobytes()
    assert np.allclose(MPS_BLOCKS[0], np.diag([1.0, s]), atol=1e-15)
    assert MPS_BLOCKS[1, 1, 1] == pytest.approx(s)
    assert np.count_nonzero(MPS_BLOCKS[1]) == 1
    with pytest.raises(ValueError):
        MPS_BLOCKS[0, 0, 0] = 2.0  # one shared constant, read-only


def oracle_mps_contract(n, boundary):
    """Normalized amplitudes of the n-site train with (1, 1) boundaries or a trace."""
    mats = canonical_blocks()
    ones = np.ones(2, dtype=complex)
    grow = mats.copy()
    for _ in range(n - 1):
        grow = np.einsum("vab,jbc->jvac", grow, mats).reshape(-1, 2, 2)
    if boundary == "open":
        amps = np.einsum("a,vab,b->v", ones, grow, ones)
    else:
        amps = np.einsum("vaa->v", grow)
    return amps / float(np.linalg.norm(amps))


def test_mps_contract_is_bit_identical_to_the_block_contraction():
    for n in range(1, 11):
        for boundary in ("open", "periodic"):
            want = oracle_mps_contract(n, boundary)
            assert mps_contract(n, boundary).amps.tobytes() == want.tobytes()


def test_mps_open_two_site_pattern():
    v = mps_contract(2, boundary="open")
    want = np.array([1.5, 0.5, 0.5, 0.5])  # |00> + |++>
    want = want / np.linalg.norm(want)
    assert np.allclose(np.abs(v.amps), want, atol=1e-12)


def test_mps_matches_cat_both_boundaries():
    for n in range(1, 11):
        open_v = mps_contract(n, boundary="open")
        per_v = mps_contract(n, boundary="periodic")
        target = build(n, "plus")
        assert pure_overlap(open_v, target) >= 1.0 - 1e-12
        assert pure_overlap(per_v, target) >= 1.0 - 1e-12
        assert pure_overlap(open_v, per_v) >= 1.0 - 1e-12


def test_mps_contract_validation():
    with pytest.raises(ValueError):
        mps_contract(4, boundary="twisted")
    with pytest.raises(ValueError):
        mps_contract(0)


def test_push_relations():
    assert push_relation_check() is True
    a0, a1 = MPS_BLOCKS
    s = 1.0 / SQRT2
    # a = 0: (A0 + A1)/sqrt2 = X A0 X = diag(1/sqrt2, 1)
    mixed0 = (a0 + a1) / SQRT2
    assert np.allclose(mixed0, np.diag([s, 1.0]), atol=1e-12)
    # a = 1: (A0 - A1)/sqrt2 = X A1 X
    mixed1 = (a0 - a1) / SQRT2
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(mixed1, x @ a1 @ x, atol=1e-12)
    # every entry that appears is one of 0, +-1/sqrt2, +-1
    allowed = np.array([0.0, s, -s, 1.0, -1.0])
    for block in (a0, a1, mixed0, mixed1):
        for entry in np.asarray(block).ravel():
            assert np.min(np.abs(allowed - entry.real)) < 1e-15
            assert abs(entry.imag) < 1e-15


# -- Bell stitching protocol --------------------------------------------------

def test_bell_identity_outcomes_accept():
    accepted, state = bell_protocol_run(3, bonds="II", boundaries=(0, 0))
    assert accepted
    assert pure_overlap(state, build(3, "plus")) >= 1.0 - 1e-10


def test_bell_z_parity_bookkeeping():
    plus = build(3, "plus")
    minus = build(3, "minus")
    # a lone Z flips the right boundary: reject, and the register holds
    # the orthogonal cat
    accepted, state = bell_protocol_run(3, bonds="IZ", boundaries=(0, 0))
    assert not accepted
    assert pure_overlap(state, minus) >= 1.0 - 1e-10
    # two Z byproducts cancel in transit
    accepted, state = bell_protocol_run(3, bonds="ZZ", boundaries=(0, 0))
    assert accepted
    # boundary minuses inject Z's too, and pair up
    accepted, _ = bell_protocol_run(3, bonds="II", boundaries=(1, 1))
    assert accepted
    accepted, state = bell_protocol_run(3, bonds="II", boundaries=(1, 0))
    assert not accepted
    assert pure_overlap(state, minus) >= 1.0 - 1e-10
    # single site: only the boundary parities matter
    accepted, state = bell_protocol_run(1, boundaries=(1, 1))
    assert accepted
    assert pure_overlap(state, build(1, "plus")) >= 1.0 - 1e-10
    accepted, _ = bell_protocol_run(1, boundaries=(0, 1))
    assert not accepted


def test_bell_x_byproduct_is_hadamard_trail():
    # an X on the first bond converts to a Hadamard on every later site
    plus = build(3, "plus")
    accepted, state = bell_protocol_run(3, bonds="XI", boundaries=(0, 0))
    assert not accepted
    want = apply_gate(apply_gate(plus, Gate((1,), H2)), Gate((2,), H2))
    assert pure_overlap(state, want) >= 1.0 - 1e-10
    # two Y outcomes: the X components cancel after one site, the Z
    # components cancel outright, leaving a single Hadamard in between
    accepted, state = bell_protocol_run(3, bonds="YY", boundaries=(0, 0))
    assert not accepted
    want = apply_gate(plus, Gate((1,), H2))
    assert pure_overlap(state, want) >= 1.0 - 1e-10


def test_bell_sampled_runs_are_faithful():
    plus = build(3, "plus")
    accepted_count = 0
    for seed in range(200):
        accepted, state = bell_protocol_run(3, seed=seed)
        if accepted:
            accepted_count += 1
            assert pure_overlap(state, plus) >= 1.0 - 1e-10
    assert 0 < accepted_count < 200


def test_bell_validation():
    with pytest.raises(ValueError):
        bell_protocol_run(5)  # 15 qubits > default cap
    with pytest.raises(ValueError):
        bell_protocol_run(3, bonds="I")  # wrong length
    with pytest.raises(ValueError):
        bell_protocol_run(3, bonds="IQ")  # not a Pauli label
    with pytest.raises(ValueError):
        bell_protocol_run(0)
    with pytest.raises(ValueError, match="not one of 2"):
        bell_protocol_run(2, boundaries=(0, 2))  # not a boundary outcome


def test_shot_loops_follow_consecutive_seeds():
    for n, trials, seed in ((3, 5, 7), (1, 4, 0), (5, 6, 101), (7, 3, 9)):
        shots = adaptive_shots(n, trials=trials, seed=seed)
        assert len(shots) == trials
        for t, (record, overlap) in enumerate(shots):
            single = adaptive_run(n, seed=seed + t)
            assert record.outcomes == single.outcomes
            assert (record.parity, record.accepted) == (single.parity, single.accepted)
            assert np.array_equal(record.post_state.amps, single.post_state.amps)
            assert overlap >= 1.0 - 1e-10  # collapsed onto the plus or minus cat
    for t, (accepted, state, overlap) in enumerate(bell_shots(2, trials=6, seed=4)):
        single_accepted, single_state = bell_protocol_run(2, seed=4 + t)
        assert accepted == single_accepted
        assert np.array_equal(state.amps, single_state.amps)
        assert (overlap is None) == (not accepted)
    with pytest.raises(ValueError):
        adaptive_shots(3, trials=0)
    with pytest.raises(ValueError, match="dense-simulation cap"):
        adaptive_shots(8, trials=2)



# -- shot loops against a per-shot measure oracle -----------------------------

X_BRAS = (np.array([1.0, 1.0]) / SQRT2, np.array([1.0, -1.0]) / SQRT2)
BELL_BRAS = [
    np.array(b, dtype=complex) / SQRT2
    for b in ([1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1])
]


def oracle_adaptive(n, seed):
    """(outcomes, data register) of one shot, one measure call per ancilla."""
    v = apply_circuit(adaptive_circuit(n), StateVector.basis_state(2 * n, 0))
    rng = np.random.default_rng(seed)
    outcomes = []
    for anc in range(n - 1, -1, -1):
        bit, v, _ = measure(v, (anc,), X_BRAS, rng)
        outcomes.insert(0, bit)
    return tuple(outcomes), v


def oracle_site():
    """The site tensor as a 3-qubit state, entry by entry."""
    mats = canonical_blocks()
    site = np.array([mats[a][i, j] for j in range(2) for i in range(2) for a in range(2)])
    return site / np.linalg.norm(site)  # physical leg on the low bit, then left, right


def test_bell_site_state_is_bit_identical_to_the_entrywise_one():
    assert _site_state().tobytes() == oracle_site().tobytes()


def oracle_bell(n, seed, bonds=None, boundaries=None):
    """(accepted, physical register) of one shot, one measure call per step."""
    site = oracle_site()
    amps = site
    for _ in range(n - 1):
        amps = np.kron(site, amps)
    v = StateVector(3 * n, amps)
    rng = np.random.default_rng(seed)
    left_fix, right_fix = (None, None) if boundaries is None else boundaries
    right, v, _ = measure(v, (3 * n - 1,), X_BRAS, rng, forced=right_fix)
    labels = [None] * (n - 1)
    for k in range(n - 2, -1, -1):
        forced = None if bonds is None else "IXYZ".index(bonds[k])
        choice, v, _ = measure(v, (3 * k + 2, 3 * k + 4), BELL_BRAS, rng, forced=forced)
        labels[k] = "IXYZ"[choice]
    left, v, _ = measure(v, (1,), X_BRAS, rng, forced=left_fix)
    flags, pending_x, pending_z = [0] * n, 0, left ^ right
    for k in range(n):
        flags[k] = pending_x
        if k < n - 1:
            pending_x ^= labels[k] in "XY"
            pending_z ^= labels[k] in "ZY"
    return not any(flags) and pending_z == 0, v


def test_adaptive_shots_match_per_shot_oracle():
    for n, trials, seed in ((1, 40, 3), (2, 80, 0), (3, 120, 5), (4, 120, 17),
                            (5, 150, 2), (6, 200, 9), (7, 120, 0)):
        targets = {True: build(n, "plus"), False: build(n, "minus")}
        shots = adaptive_shots(n, trials, seed)
        assert len(shots) == trials
        for t, (record, overlap) in enumerate(shots):
            outcomes, state = oracle_adaptive(n, seed + t)
            assert record.outcomes == outcomes
            assert record.accepted == (sum(outcomes) % 2 == 0)
            assert record.parity == (1 if record.accepted else -1)
            assert np.array_equal(record.post_state.amps, state.amps)
            assert overlap == pure_overlap(state, targets[record.accepted])
        assert adaptive_run(n, seed).outcomes == shots[0][0].outcomes


def test_bell_shots_match_per_shot_oracle():
    for n, trials, seed in ((1, 50, 4), (2, 200, 0), (3, 200, 31), (4, 200, 8)):
        plus = build(n, "plus")
        shots = bell_shots(n, trials, seed)
        assert len(shots) == trials
        assert 0 < sum(accepted for accepted, _, _ in shots) < trials
        for t, (accepted, state, overlap) in enumerate(shots):
            want_accepted, want_state = oracle_bell(n, seed + t)
            assert accepted == want_accepted
            assert np.array_equal(state.amps, want_state.amps)
            assert overlap == (pure_overlap(want_state, plus) if accepted else None)


def test_bell_forced_runs_match_per_shot_oracle():
    for bonds in ("".join(p) for p in itertools.product("IXYZ", repeat=2)):
        for boundaries in itertools.product((0, 1), repeat=2):
            got = bell_protocol_run(3, 5, bonds, boundaries)
            want = oracle_bell(3, 5, bonds, boundaries)
            assert got[0] == want[0] and np.array_equal(got[1].amps, want[1].amps)
    # forcing only the bonds, or only the boundaries, samples the rest
    for seed in range(20):
        for bonds, boundaries in (("XZY", None), (None, (1, 0))):
            got = bell_protocol_run(4, seed, bonds, boundaries)
            want = oracle_bell(4, seed, bonds, boundaries)
            assert got[0] == want[0] and np.array_equal(got[1].amps, want[1].amps)
