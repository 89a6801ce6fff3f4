"""Dense engine checks: gate action, cones, entropies, conversions."""

import os
import subprocess
import sys

import numpy as np
import pytest

from magiclab import _f2, reports
from magiclab import statevec as sv
from magiclab import symplectic as sp
from tableaux import build, paulis


def normalized(amps):
    """The state of `amps` divided by their norm."""
    amps = np.asarray(amps, dtype=complex)
    return sv.StateVector(amps.size.bit_length() - 1, amps / np.linalg.norm(amps))


def haar_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_qubit0_is_low_bit():
    v = sv.StateVector.basis_state(3, 0)
    out = sv.apply_gate(v, sv.Gate((0,), sv.X2))
    assert np.argmax(np.abs(out.amps)) == 1
    out = sv.apply_gate(v, sv.Gate((2,), sv.X2))
    assert np.argmax(np.abs(out.amps)) == 4


def test_cx_convention_control_is_first_target():
    v = sv.StateVector.basis_state(2, 1)  # qubit0 = 1
    out = sv.apply_gate(v, sv.Gate((0, 1), sv.CX4))
    assert np.argmax(np.abs(out.amps)) == 3
    v = sv.StateVector.basis_state(2, 2)  # qubit1 = 1, control qubit0 = 0
    out = sv.apply_gate(v, sv.Gate((0, 1), sv.CX4))
    assert np.argmax(np.abs(out.amps)) == 2


def test_apply_gate_matches_kron_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
        u = haar_unitary(2**k, rng)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v = normalized(amps)
        got = sv.apply_gate(v, sv.Gate(targets, u)).amps
        # oracle: build the full 2^n unitary by summing basis transitions
        full = np.zeros((2**n, 2**n), dtype=complex)
        for col in range(2**n):
            sub = 0
            for pos, q in enumerate(targets):
                sub |= ((col >> q) & 1) << pos
            for sub_out in range(2**k):
                row = col
                for pos, q in enumerate(targets):
                    row = (row & ~(1 << q)) | (((sub_out >> pos) & 1) << q)
                full[row, col] += u[sub_out, sub]
        assert np.abs(got - full @ v.amps).max() < 1e-10


def test_circuit_adjoint_inverts():
    rng = np.random.default_rng(22)
    n = 5
    layers = []
    for _ in range(3):
        pairs = rng.permutation(n)
        layer = []
        for i in range(0, n - 1, 2):
            layer.append(
                sv.Gate((int(pairs[i]), int(pairs[i + 1])), haar_unitary(4, rng))
            )
        layers.append(tuple(layer))
    circ = sv.LayeredCircuit(n, tuple(layers))
    v = normalized(
        rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    )
    w = sv.apply_circuit(circ.adjoint(), sv.apply_circuit(circ, v))
    assert np.abs(w.amps - v.amps).max() < 1e-10


def brickwork(n, depth, rng):
    layers = []
    for d in range(depth):
        layer = []
        start = d % 2
        for a in range(start, n - 1, 2):
            layer.append(sv.Gate((a, a + 1), haar_unitary(4, rng)))
        layers.append(tuple(layer))
    return sv.LayeredCircuit(n, tuple(layers))


def test_cones_forward_backward_adjoint():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        circ = brickwork(n, int(rng.integers(0, 4)), rng)
        for i in range(n):
            fwd = sv.forward_cone(circ, [i])
            for j in range(n):
                back = sv.backward_cone(circ, [j])
                assert (j in fwd) == (i in back)


def test_cone_identity_and_growth():
    circ = sv.LayeredCircuit.identity(6)
    assert sv.forward_cone(circ, [2]) == frozenset({2})
    rng = np.random.default_rng(24)
    circ = brickwork(6, 1, rng)
    assert sv.forward_cone(circ, [0]) == frozenset({0, 1})


def test_cones_reject_seeds_outside_the_register():
    circ = sv.LayeredCircuit.identity(3)
    for cone in (sv.forward_cone, sv.backward_cone):
        for seeds in ([5], [0, 3], [-1]):
            with pytest.raises(ValueError, match="out of range for 3 qubits"):
                cone(circ, seeds)
        assert cone(circ, [0, 2]) == frozenset({0, 2})


def test_reduced_density_and_entropy():
    bell = normalized([1, 0, 0, 1])
    dm = sv.reduced_density(bell, [0])
    assert sv.entropy(dm) == pytest.approx(1.0, abs=1e-12)
    pure = sv.reduced_density(bell, [0, 1])
    assert sv.entropy(pure) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_ghz():
    ghz = normalized([1, 0, 0, 0, 0, 0, 0, 1])
    assert sv.mutual_information(ghz, [0], [1]) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        sv.mutual_information(ghz, [0], [0])


def test_fidelity_basics():
    zero = sv.reduced_density(sv.StateVector.basis_state(1, 0), [0])
    plus = sv.reduced_density(sv.StateVector.uniform_plus(1), [0])
    assert sv.fidelity(zero, plus) == pytest.approx(2**-0.5, abs=1e-12)
    assert sv.fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    # mixed-state sanity: maximally mixed vs pure on 1 qubit
    mixed = np.eye(2, dtype=complex) / 2
    assert sv.fidelity(mixed, zero) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = sp.PauliString(
            n,
            int(rng.integers(0, 2**n)),
            int(rng.integers(0, 2**n)),
            int(rng.integers(0, 4)),
        )
        v = normalized(
            rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        )
        got = sv.apply_pauli(v, p).amps
        want = sv.pauli_matrix(p) @ v.amps
        assert np.abs(got - want).max() < 1e-12


def test_nan_state_is_rejected():
    with pytest.raises(ValueError, match="norm nan"):
        sv.StateVector(1, [np.nan, 0])


def test_norm_is_checked_on_its_square():
    # norm 1 + 0.9e-8 gives every reduced state a trace of 1 + 1.8e-8, past 1e-8
    with pytest.raises(ValueError, match="state not normalized"):
        sv.StateVector(2, [1 + 0.9e-8, 0, 0, 0])
    v = sv.StateVector(2, [1 + 0.4e-8, 0, 0, 0])
    assert sv.reduced_density(v, [0])[0, 0] == (1 + 0.4e-8) ** 2
    assert abs(sv.entanglement_entropy(v, [0])) <= 1e-7


@pytest.mark.parametrize(
    "qubits, message",
    [((0, 13), "qubit out of range"), ((-1,), "qubit out of range"),
     (range(13), "density matrices capped at 12 qubits")],
)
def test_reduced_density_keeps_its_error_messages(qubits, message):
    v = sv.StateVector.uniform_plus(13)
    with pytest.raises(ValueError) as err:
        sv.reduced_density(v, qubits)
    assert str(err.value) == message


def test_kron_matches_np_kron_byte_for_byte():
    # .tobytes(), so a signed zero from a real factor counts as a difference
    rng = np.random.default_rng(21)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    c = sv.haar_unitary(3, rng)
    w = rng.normal(size=64) + 1j * rng.normal(size=64)  # long enough for SIMD loops
    x_real, z_real = sv.X2.real.copy(), sv.Z2.real.copy()
    pairs = [(u, v), (v, u), (u, u.conj()), (w, w), (w, w.conj()), (w.real.copy(), w),
             (v, np.ones(1, dtype=complex)), (-np.zeros(2), v),
             (a, b), (b, a), (c, c.conj()), (np.eye(4), a), (a, np.eye(2)),
             (x_real, a), (a, z_real), (sv.Y2, a), (a, sv.Y2), (np.eye(2), np.eye(3))]
    for left, right in pairs:
        got, want = sv.kron(left, right), np.kron(left, right)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="two vectors or two matrices"):
        sv.kron(u, a)


def test_pauli_expectation_requires_hermitian():
    v = sv.StateVector.basis_state(2, 0)
    with pytest.raises(ValueError):
        sv.pauli_expectation(v, sp.PauliString(2, 1, 0, 1))
    assert sv.pauli_expectation(v, sp.PauliString.from_text("ZI")) == 1.0
    with pytest.raises(ValueError, match="size mismatch"):
        sv.pauli_expectation(v, sp.PauliString.from_text("ZII"))


def test_pauli_expectation_equals_vdot_with_applied_word():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        v = normalized(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        for _ in range(10):
            p = sp.PauliString.from_text("".join(rng.choice(list("IXYZ"), size=n)))
            want = np.vdot(v.amps, sv.apply_pauli(v, p).amps).real
            assert sv.pauli_expectation(v, p) == want


def test_to_statevector_examples():
    zero = sv.to_statevector(sp.StabilizerState.zero_state(3))
    assert np.abs(zero.amps - sv.StateVector.basis_state(3, 0).amps).max() < 1e-12
    plus = sv.to_statevector(sp.StabilizerState.plus_state(3))
    assert np.abs(np.abs(plus.amps) - 2.0**-1.5).max() < 1e-12
    minus_z = build(sp.StabilizerState, ["-Z"])
    one = sv.to_statevector(minus_z)
    assert abs(one.amps[1]) == pytest.approx(1.0, abs=1e-12)


def test_to_statevector_satisfies_generators():
    rng = np.random.default_rng(26)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        c = sp.random_clifford(n, rng)
        s = sp.apply_clifford(c, sp.StabilizerState.zero_state(n))
        v = sv.to_statevector(s)
        for g in paulis(s):
            val = np.vdot(v.amps, sv.pauli_matrix(g.word()) @ v.amps).real
            assert val == pytest.approx(g.sign, abs=1e-10)



def projector_statevector(s):
    """Reference stabilizer->dense route: n projector passes (1 + g)/2 on |b>."""
    from magiclab import _f2

    x_rows = [g.x for g in paulis(s)]
    equations = []
    for tag in _f2.left_kernel(x_rows):
        x, z, phase = s.element(tag)
        assert x == 0
        equations.append((z, phase >> 1))
    b = _f2.solve(equations)
    state = np.zeros(2**s.n, dtype=complex)
    state[b] = 1.0
    for g in paulis(s):
        state = (state + g.sign * power_word_action(state, g.word())) / 2.0
    return normalized(state)


def power_word_action(amps, p):
    """i^phase W(x, z) applied to amps, with its signs as (-1.0) ** parity."""
    idx = np.arange(amps.size, dtype=np.uint64)
    src = idx ^ np.uint64(p.x)
    par = (np.bitwise_count(src & np.uint64(p.z)) & 1).astype(np.int64)
    k = (p.phase + (p.x & p.z).bit_count()) % 4
    return (1j**k) * ((-1.0) ** par) * amps[src]


def test_word_action_bytes_equal_the_power_oracle():
    rng = np.random.default_rng(41)
    for n in range(1, 10):
        amps = _random_state(n, rng).amps
        for _ in range(12):
            x, z = (int(t) for t in rng.integers(0, 2**n, size=2))
            p = sp.PauliString(n, x, z, int(rng.integers(0, 4)))
            got = sv._word_action(amps, p)
            assert got.dtype == np.complex128
            assert got.tobytes() == power_word_action(amps, p).tobytes(), (n, p)


def test_to_statevector_equals_projector_product_exactly():
    rng = np.random.default_rng(27)
    for n in range(1, 13):
        states = [sp.StabilizerState.zero_state(n), sp.StabilizerState.plus_state(n)]
        for _ in range(6 if n <= 8 else 2):
            c = sp.random_clifford(n, rng)
            states.append(sp.apply_clifford(c, states[int(rng.integers(0, 2))]))
        for s in states:
            got = sv.to_statevector(s).amps
            assert np.array_equal(got, projector_statevector(s).amps), n


def doubling_statevector(s):
    """Stabilizer->dense by two eliminations and concatenating complex doubling."""
    from magiclab import _f2

    gens = paulis(s)
    x_rows = [g.x for g in gens]
    equations = []
    for tag in _f2.left_kernel(x_rows):
        _, z, phase = s.element(tag)
        equations.append((z, phase >> 1))
    idx = np.array([_f2.solve(equations)], dtype=np.uint64)
    vals = np.ones(1, dtype=complex)
    for i in _f2.eliminate(x_rows)[0]:
        g, sign = gens[i].word(), gens[i].sign
        coeff = sign * (1.0 + 0j, 1j, -1.0 + 0j, -1j)[(g.x & g.z).bit_count() % 4]
        par = np.bitwise_count(idx & np.uint64(g.z)) & 1
        vals = np.concatenate((vals, coeff * (1.0 - 2.0 * par) * vals))
        idx = np.concatenate((idx, idx ^ np.uint64(g.x)))
    state = np.zeros(2**s.n, dtype=complex)
    state[idx] = vals
    return normalized(state)


def test_to_statevector_equals_the_concatenating_doubling():
    rng = np.random.default_rng(28)
    for n in range(1, 13):
        for _ in range(8 if n <= 8 else 3):
            c = sp.random_clifford(n, rng)
            for base in (sp.StabilizerState.zero_state(n), sp.StabilizerState.plus_state(n)):
                s = sp.apply_clifford(c, base)
                got = sv.to_statevector(s).amps
                assert np.array_equal(got, doubling_statevector(s).amps), n


def single_doubling(s):
    """The single-state stabilizer->dense doubling that the batched kernel replaced."""
    gens = paulis(s)
    picked, kernel = _f2.eliminate([g.x for g in gens])
    equations = []
    for tag in kernel:
        x, z, phase = s.element(tag)
        assert x == 0
        equations.append((z, phase >> 1))
    b = _f2.solve(equations)
    size = 1 << len(picked)
    idx = np.empty(size, dtype=np.uint64)
    phase = np.empty(size, dtype=np.uint8)
    idx[0], phase[0] = b, 0
    m = 1
    for i in picked:
        g = gens[i]
        low = idx[:m]
        np.bitwise_xor(low, g.x, out=idx[m : 2 * m])
        e = g.phase + (g.x & g.z).bit_count()
        phase[m : 2 * m] = phase[:m] + 2 * np.bitwise_count(low & g.z) + e
        m *= 2
    state = np.zeros(2**s.n, dtype=complex)
    state[idx] = (np.array([1, 1j, -1, -1j]) / np.sqrt(size))[phase & 3]
    return state


def mixed_k_batch(n, rng, draws):
    """Zero and plus states, and the Z and X images of C and of C^dag."""
    states = [sp.StabilizerState.zero_state(n), sp.StabilizerState.plus_state(n)]
    for _ in range(draws):
        c = sp.random_clifford(n, rng)
        for cmap in (c, c.adjoint()):
            states += cmap.zero_and_plus()
    return states


def test_to_statevectors_bytes_equal_the_single_state_doubling():
    rng = np.random.default_rng(43)
    for n in range(1, 13):
        states = mixed_k_batch(n, rng, 4 if n <= 8 else 2)
        ks = {_f2.rank([g.x for g in paulis(s)]) for s in states}
        assert {0, n} <= ks, n  # the batch mixes values of k
        want = [single_doubling(s).tobytes() for s in states]
        got = sv.to_statevectors(states)
        assert [v.amps.tobytes() for v in got] == want, n
        order = rng.permutation(len(states))
        shuffled = sv.to_statevectors([states[i] for i in order])
        assert [v.amps.tobytes() for v in shuffled] == [want[i] for i in order], n
        for i in (0, len(states) // 2, len(states) - 1):
            alone = sv.to_statevectors([states[i]])
            assert [v.amps.tobytes() for v in alone] == [want[i]]
            assert sv.to_statevector(states[i]).amps.tobytes() == want[i]


def test_to_statevectors_edge_batches(monkeypatch):
    assert sv.to_statevectors([]) == []
    mixed = [sp.StabilizerState.zero_state(3), sp.StabilizerState.plus_state(4)]
    with pytest.raises(ValueError, match="share one n"):
        sv.to_statevectors(mixed)
    monkeypatch.setenv("MAGICLAB_MAX_N", "5")
    with pytest.raises(ValueError, match="dense cap of 5"):
        sv.to_statevectors([sp.StabilizerState.zero_state(6)] * 2)
    assert sv.to_statevectors([sp.StabilizerState.plus_state(5)])[0].n == 5


def chunk_loop(trials, per_item, draw, convert):
    """The explicit chunk loop that `densified` replaced, as an oracle.

    Sampled checks ran it inline: `chunk_sizes`, then per chunk its draws
    in order and one conversion of all their states.
    """
    step = max(1, 2**14 // per_item)
    for size in [min(step, trials - start) for start in range(0, trials, step)]:
        drawn = [draw() for _ in range(size)]
        dense = convert([s for states, _ in drawn for s in states])
        at = 0
        for states, rest in drawn:
            yield rest, dense[at : at + len(states)]
            at += len(states)


def logged_run(trials, per_item, through_densified, monkeypatch):
    """(events, chunk sizes) of one run: draws, conversions and yields in order."""
    rng = np.random.default_rng([trials, per_item])
    events, numbers = [], iter(range(trials))

    def draw():
        trial = next(numbers)
        events.append(("draw",))
        # one or two states per trial, as the sampled checks draw
        return sp.random_clifford(3, rng).zero_and_plus()[: 1 + trial % 2], trial

    def convert(states):
        events.append(("convert", len(states)))
        return real(states)

    real = sv.to_statevectors
    with monkeypatch.context() as patch:
        if through_densified:
            patch.setattr(sv, "to_statevectors", convert)
            run = sv.densified(trials, per_item, draw)
        else:
            run = chunk_loop(trials, per_item, draw, convert)
        for rest, dense in run:
            events.append(("yield", rest, [v.amps.tobytes() for v in dense]))
    sizes, drawn = [], 0  # the draws before each conversion
    for event in events:
        if event[0] == "draw":
            drawn += 1
        elif event[0] == "convert":
            sizes.append(drawn)
            drawn = 0
    return events, sizes


@pytest.mark.parametrize("trials, per_item", [
    (150, 2 << 10), (40, 2 << 6), (3, 2 << 14), (1, 1), (17, 2 << 9),
])
def test_densified_matches_the_chunk_loop(trials, per_item, monkeypatch):
    got = logged_run(trials, per_item, True, monkeypatch)
    assert got == logged_run(trials, per_item, False, monkeypatch)
    events = got[0]
    assert sum(e[0] == "draw" for e in events) == sum(e[0] == "yield" for e in events) == trials


def test_chunk_sizes_stay_within_the_batch_budget(monkeypatch):
    assert sv.BATCH_AMPS == 2**14
    for trials, per_item, sizes in [
        (150, 2 << 10, [8] * 18 + [6]),
        (40, 2 << 6, [40]),
        (3, 2 << 14, [1, 1, 1]),  # one item past the budget
        (1, 1, [1]),
    ]:
        assert logged_run(trials, per_item, True, monkeypatch)[1] == sizes, (trials, per_item)


def moveaxis_front(amps, n, targets):
    axes = [n - 1 - q for q in reversed(targets)]
    return np.moveaxis(amps.reshape((2,) * n), axes, range(len(targets))).reshape(
        2 ** len(targets), -1
    )


def moveaxis_matrix_action(amps, n, targets, matrix):
    axes = [n - 1 - q for q in reversed(targets)]
    flat = matrix @ moveaxis_front(amps, n, targets)
    return np.moveaxis(flat.reshape((2,) * n), range(len(targets)), axes).reshape(-1)


def test_front_and_matrix_action_bytes_equal_the_moveaxis_oracle():
    rng = np.random.default_rng(29)
    for n in range(1, 11):
        amps = _random_state(n, rng).amps
        for k in range(1, n + 1):
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            got = sv._front(amps, n, targets)
            assert got.tobytes() == moveaxis_front(amps, n, targets).tobytes()
            m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            got = sv.matrix_action(amps, n, targets, m)
            assert got.tobytes() == moveaxis_matrix_action(amps, n, targets, m).tobytes()


@pytest.mark.parametrize("bad", [3, 4, 5, 6, 9, -1, -3, -4])
def test_targets_outside_the_register_raise(bad):
    # a target in [n, 2n) used to wrap around to qubit t - n
    v = sv.StateVector.basis_state(3, 0)
    match = f"target {bad} out of range for 3 qubits"
    with pytest.raises(ValueError, match=match):
        sv.apply_gate(v, sv.Gate((bad,), sv.X2))
    with pytest.raises(ValueError, match=match):
        sv.apply_gate(v, sv.Gate((0, bad), sv.CX4))
    with pytest.raises(ValueError, match=match):
        sv.measure(v, (bad,), [np.array([1, 0]), np.array([0, 1])], forced=1)
    with pytest.raises(ValueError, match=match):
        sv.matrix_action(v.amps, 3, (bad,), sv.Z2)


def test_target_perm_cache_keeps_its_errors_and_is_immutable():
    # lru_cache keeps no exceptions, so a bad target raises on every call
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            sv._target_perm(3, (0, 5))
        assert str(err.value) == "target 5 out of range for 3 qubits"
    axes, inverse = sv._target_perm(4, (2, 0))
    assert axes == (3, 1, 0, 2) and inverse == (2, 1, 3, 0)
    assert sv._target_perm(4, (2, 0)) is sv._target_perm(4, (2, 0))
    assert type(axes) is tuple and type(inverse) is tuple


def test_word_expectations_bytes_equal_the_power_oracle():
    from magiclab import zxcat

    rng = np.random.default_rng(30)
    for n in range(1, 11):
        states = (zxcat.build(n, "plus"), zxcat.build(n, "minus"), _random_state(n, rng))
        for _ in range(10):
            x, z = (int(t) for t in rng.integers(0, 2**n, size=2))
            p = sp.PauliString(n, x, z, 2 * int(rng.integers(0, 2)))
            got = sv._word_expectations(p, states)
            for v, val in zip(states, got, strict=True):
                want = float(np.vdot(v.amps, power_word_action(v.amps, p)).real)
                assert np.float64(val).tobytes() == np.float64(want).tobytes()
                assert val == sv.pauli_expectation(v, p)


def test_project_out_bell():
    bell = normalized([1, 0, 0, 1])
    _, post, prob = sv.measure(bell, [0], (np.array([1, 0]),), forced=0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(post.amps - [1, 0]).max() < 1e-12
    _, post, prob = sv.measure(bell, [1], (np.array([0, 1]),), forced=0)
    assert np.abs(post.amps - [0, 1]).max() < 1e-12


X_BRAS = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
# (1 x sigma)|Phi+> for sigma = I, X, Y, Z, targets[0] on the low bit
BELL_BRAS = [
    np.array(b, dtype=complex) / np.sqrt(2)
    for b in ([1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1])
]


def embedding(n, targets, bra):
    """2^n x 2^(n-k) isometry |bra>_targets (x) |r>_rest, built bit by bit."""
    rest = [q for q in range(n) if q not in targets]
    mat = np.zeros((2**n, 2 ** len(rest)), dtype=complex)
    for j, amp in enumerate(bra):
        for r in range(2 ** len(rest)):
            idx = sum((j >> i & 1) << q for i, q in enumerate(targets))
            idx += sum((r >> i & 1) << q for i, q in enumerate(rest))
            mat[idx, r] = amp
    return mat


def projector_oracle(v, targets, bras):
    """Probabilities and post-states from the dense projectors M M^dagger."""
    probs, posts = [], []
    for bra in bras:
        m = embedding(v.n, targets, bra)
        projected = m @ m.conj().T @ v.amps
        prob = float(np.vdot(projected, projected).real)
        probs.append(prob)
        posts.append(m.conj().T @ projected / np.sqrt(prob) if prob > 1e-14 else None)
    return probs, posts


def unsorted_targets(n, k, rng):
    """k distinct qubits in decreasing order, pairwise non-adjacent when n allows."""
    while True:
        targets = sorted(rng.choice(n, size=k, replace=False).tolist(), reverse=True)
        if n < 3 or all(a - b >= 2 for a, b in zip(targets, targets[1:])):
            return tuple(targets)


def test_measure_matches_dense_projector_oracle():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        for bras in (X_BRAS, BELL_BRAS):
            k = 1 if len(bras) == 2 else 2
            for _ in range(4):
                v = normalized(
                    rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                )
                targets = unsorted_targets(n, k, rng)
                probs, posts = projector_oracle(v, targets, bras)
                assert sum(probs) == pytest.approx(1.0, abs=1e-12)
                for forced in range(len(bras)):
                    outcome, post, prob = sv.measure(v, targets, bras, forced=forced)
                    assert outcome == forced and post.n == n - k
                    assert abs(prob - probs[forced]) < 1e-12
                    assert np.abs(post.amps - posts[forced]).max() < 1e-12
                # a sampled outcome is the first whose cumulative
                # probability exceeds u times the total, for one draw u
                seed = int(rng.integers(1 << 30))
                u = np.random.default_rng(seed).random()
                want = int(np.argmax(np.cumsum(probs) > u * sum(probs)))
                outcome, post, prob = sv.measure(
                    v, targets, bras, np.random.default_rng(seed)
                )
                assert outcome == want
                assert abs(prob - probs[want]) < 1e-12
                assert np.abs(post.amps - posts[want]).max() < 1e-12


def test_measure_bell_frequencies_follow_born_rule():
    from scipy.stats import chi2

    rng = np.random.default_rng(43)
    v = normalized(rng.normal(size=16) + 1j * rng.normal(size=16))
    targets = (3, 1)
    probs, _ = projector_oracle(v, targets, BELL_BRAS)
    shots = 4000
    counts = np.zeros(4)
    for _ in range(shots):
        counts[sv.measure(v, targets, BELL_BRAS, rng)[0]] += 1
    expected = shots * np.array(probs)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.isf(1e-3, 3), (counts, expected)


class TopDraw:
    """An rng stub whose one draw is the largest double below 1."""

    def random(self):
        return 1.0 - 2.0**-53


def test_measure_top_draw_picks_last_possible_outcome():
    # |Phi+>: only outcome I is possible, the other three are exact zeros
    bell = normalized([1, 0, 0, 1])
    assert sv.measure(bell, (0, 1), BELL_BRAS, TopDraw())[0] == 0
    # outcome Z at probability 1e-15 sits past the last possible outcome X;
    # the top draw lands on it and is pulled back to X
    amps = (
        np.sqrt(0.5) * BELL_BRAS[0]
        + np.sqrt(0.5 - 1e-15) * BELL_BRAS[1]
        + np.sqrt(1e-15) * BELL_BRAS[3]
    )
    v = normalized(amps.conj())
    outcome, post, prob = sv.measure(v, (0, 1), BELL_BRAS, TopDraw())
    assert outcome == 1 and prob == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(44)
    for n in range(2, 7):
        v = normalized(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        assert sv.measure(v, unsorted_targets(n, 2, rng), BELL_BRAS, TopDraw())[0] == 3
        assert sv.measure(v, (n - 1,), X_BRAS, TopDraw())[0] == 1


class BottomDraw:
    """An rng stub whose one draw is 0."""

    def random(self):
        return 0.0


def test_measure_never_samples_an_impossible_outcome():
    # outcome I at probability 1e-15 comes first; the lowest draw would land
    # on it by its raw cumulative sum, but it counts as impossible
    amps = np.sqrt(1e-15) * BELL_BRAS[0] + np.sqrt(1 - 1e-15) * BELL_BRAS[2]
    v = normalized(amps.conj())
    for rng in (BottomDraw(), TopDraw()):
        outcome, _, prob = sv.measure(v, (0, 1), BELL_BRAS, rng)
        assert outcome == 2 and prob == pytest.approx(1.0, abs=1e-12)
    # with no possible outcome among the bras, sampling fails loudly
    zero = sv.StateVector.basis_state(2, 0)
    with pytest.raises(ValueError, match="zero probability"):
        sv.measure(zero, (1,), [np.array([0, 1])], BottomDraw())


def test_measure_rejects_impossible_outcomes_under_optimize():
    # the zero-probability check must hold in every interpreter mode, both
    # through a forced single-bra measure and through a sampled shot-loop
    # step whose every outcome is impossible
    code = (
        "import numpy as np\n"
        "from magiclab import statevec as sv\n"
        "plus = sv.StateVector.uniform_plus(2)\n"
        "zero = sv.StateVector.basis_state(2, 0)\n"
        "rng = np.random.default_rng(0)\n"
        "for call in (\n"
        "    lambda: sv.measure(plus, [0], (np.array([1, -1]) / np.sqrt(2),), forced=0),\n"
        "    lambda: sv.measure(zero, [1], [np.array([0, 1])], forced=0),\n"
        "    lambda: sv.measure_shots(zero, [((1,), [np.array([0, 1])])], [rng]),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(__debug__, 'raised', exc)\n"
        "    else:\n"
        "        print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    lines = out.stdout.splitlines()
    assert len(lines) == 3, out.stdout
    assert all(line.startswith("False raised outcome 0 has (near) zero probability")
               for line in lines), out.stdout


def test_measure_needs_rng_or_valid_forced_outcome():
    zero = sv.StateVector.basis_state(2, 0)
    with pytest.raises(ValueError, match="needs an rng"):
        sv.measure(zero, (0,), X_BRAS)
    for forced in (2, -1):
        with pytest.raises(ValueError, match="not one of 2"):
            sv.measure(zero, (0,), X_BRAS, forced=forced)


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(27)
    v = normalized(
        rng.normal(size=8) + 1j * rng.normal(size=8)
    )
    path = tmp_path / "state.json"
    reports.dump_state(str(path), v)
    w = reports.load_state(str(path))
    assert w.n == v.n
    assert np.abs(w.amps - v.amps).max() < 1e-15


def test_max_qubits_env(monkeypatch):
    monkeypatch.setenv("MAGICLAB_MAX_N", "3")
    assert sv.max_qubits() == 3
    with pytest.raises(ValueError):
        sv.StateVector.basis_state(4, 0)
    monkeypatch.delenv("MAGICLAB_MAX_N")
    assert sv.max_qubits() == 14


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 5, 31])
def test_haar_unitary_matches_scipy_draws(dim, seed):
    unitary_group = pytest.importorskip("scipy.stats").unitary_group
    ours = sv.haar_unitary(dim, np.random.default_rng(seed))
    ref = unitary_group.rvs(dim, random_state=np.random.default_rng(seed))
    assert np.array_equal(ours, ref)
    assert np.abs(ours.conj().T @ ours - np.eye(dim)).max() <= 1e-12
    # an int seed is the same stream as a Generator built from it
    assert np.array_equal(sv.haar_unitary(dim, seed), ours)


def test_haar_unitary_leaves_scipy_stats_unimported():
    code = (
        "import sys\n"
        "from magiclab import statevec\n"
        "statevec.haar_unitary(4, 0)\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


def _random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return normalized(amps)


def test_entanglement_entropy_from_either_side():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        v = _random_state(n, rng)
        for _ in range(6):
            size = int(rng.integers(1, n))
            region = set(int(q) for q in rng.choice(n, size=size, replace=False))
            rest = set(range(n)) - region
            s_region = sv.entropy(sv.reduced_density(v, region))
            s_rest = sv.entropy(sv.reduced_density(v, rest))
            assert abs(s_region - s_rest) <= 1e-12
            assert abs(sv.entanglement_entropy(v, region) - s_region) <= 1e-12
            assert abs(sv.entanglement_entropy(v, rest) - s_region) <= 1e-12
        assert abs(sv.entanglement_entropy(v, range(n))) <= 1e-12
    with pytest.raises(ValueError, match="out of range"):
        sv.entanglement_entropy(v, (0, 8))


def test_mutual_information_matches_full_eigvalsh_formula():
    rng = np.random.default_rng(43)
    largest = 0
    for n in range(2, 9):
        v = _random_state(n, rng)
        for _ in range(6):
            order = [int(q) for q in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            stop = int(rng.integers(cut + 1, n + 1))
            a, b = set(order[:cut]), set(order[cut:stop])
            full = (
                sv.entropy(sv.reduced_density(v, a))
                + sv.entropy(sv.reduced_density(v, b))
                - sv.entropy(sv.reduced_density(v, a | b))
            )
            assert abs(sv.mutual_information(v, a, b) - full) <= 1e-12
            largest = max(largest, 2 * len(a) - n, 2 * len(a | b) - n)
    assert largest > 0  # some regions were larger than half the state


def test_measure_shots_equals_a_chain_of_measure_calls():
    # a plain per-shot loop of measure is the oracle for the shared walk
    rng = np.random.default_rng(13)
    v = _random_state(7, rng)
    steps = [((5,), X_BRAS), ((0, 3), BELL_BRAS), ((0,), X_BRAS), ((0, 1), BELL_BRAS)]
    rngs = [np.random.default_rng(s) for s in range(60)]
    shots = sv.measure_shots(v, steps, rngs)
    assert len(shots) == 60
    for seed, (outcomes, post) in enumerate(shots):
        shot_rng, w, expect = np.random.default_rng(seed), v, []
        for targets, bras in steps:
            outcome, w, _ = sv.measure(w, targets, bras, shot_rng)
            expect.append(outcome)
        assert outcomes == tuple(expect)
        assert post.n == w.n == 1 and np.array_equal(post.amps, w.amps)
        # each generator was drawn from exactly as often as by the chain
        assert rngs[seed].random() == shot_rng.random()
    # errors are the ones measure raises
    with pytest.raises(ValueError, match="needs an rng"):
        sv.measure_shots(v, steps[:1], [None])
    zero = sv.StateVector.basis_state(2, 0)
    with pytest.raises(ValueError, match="zero probability"):
        sv.measure_shots(zero, [((1,), [np.array([0, 1])])], [BottomDraw()])
