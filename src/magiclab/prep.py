"""Preparation protocols for the ZX-cat states.

Three independent routes to the same family:

* a depth-three sandwich circuit ``U^{(x)n} . C . (U+)^{(x)n}`` whose middle
  layer ``C = exp(i pi/4 Z^{(x)n})`` is a global Clifford (checked here by
  symbolic Pauli bookkeeping),
* an ancilla-assisted adaptive protocol (GHZ ancilla + controlled-Hadamard
  fanout + X-basis measurement) that postselects on even outcome parity,
* a bond-dimension-2 matrix product representation, one read-only (2, 2, 2)
  site tensor ``MPS_BLOCKS`` with boundary vectors of ones, contracted both
  with open and periodic boundaries, and a Bell-measurement stitching
  protocol whose byproduct pushing rests on the site tensor's push
  relations Z A^a Z = A^a and sum_b H_{ab} A^b = X A^a X.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .statevec import (
    CX4,
    H2,
    Gate,
    StateVector,
    apply_circuit,
    apply_gate,
    LayeredCircuit,
    check_dense,
    kron,
    measure_shots,
    pauli_matrix,
    pure_overlap,
)
from .symplectic import PauliString, commutes, pauli_product
from .zxcat import build

_SQRT2 = float(np.sqrt(2.0))

# Single-qubit rotation U = exp(-i pi/8 Y); conjugation sends Z to H, which
# turns the diagonal phase gate exp(i pi/4 Z^{(x)n}) into exp(i pi/4 H^{(x)n}).
UZH = np.array(
    [
        [np.cos(np.pi / 8), -np.sin(np.pi / 8)],
        [np.sin(np.pi / 8), np.cos(np.pi / 8)],
    ],
    dtype=complex,
)


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^{|v|} per basis index v, i.e. the diagonal of Z^{(x)n}."""
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    return 1.0 - 2.0 * (weights & 1).astype(float)


def _phase_layer_diag(n: int) -> np.ndarray:
    """Diagonal of C = exp(i pi/4 Z^{(x)n}) = (1 + i Z^{(x)n}) / sqrt(2)."""
    return (1.0 + 1j * _parity_signs(n)) / _SQRT2


def prepare_sandwich(n: int) -> StateVector:
    """Prepare the i-phase cat with the depth-three sandwich circuit.

    Applies ``(U+)^{(x)n}`` to |0^n>, then the diagonal global phase gate
    ``C = (1 + i Z^{(x)n})/sqrt(2)`` in its two-term dense form, then
    ``U^{(x)n}``, where U = exp(-i pi/8 Y). The output is the i-phase cat
    up to global phase; the `sandwich-overlap` report judges how closely.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    v = StateVector.basis_state(n, 0)
    for q in range(n):
        v = apply_gate(v, Gate((q,), UZH.conj().T))
    amps = _phase_layer_diag(n) * v.amps
    v = StateVector(n, amps)
    for q in range(n):
        v = apply_gate(v, Gate((q,), UZH))
    return v


def verify_global_clifford(n: int) -> bool:
    """Certify that the sandwich's middle layer maps Paulis to Paulis.

    Conjugation by C = exp(i pi/4 Z^{(x)n}) follows a two-way case split:
    a Pauli P commuting with Z^{(x)n} is left unchanged, an anticommuting
    one is sent to i Z^{(x)n} P (again a signed Pauli word). This routine
    applies the split symbolically to every generator X_q, Z_q, checks each
    image is a Hermitian Pauli string squaring to the identity, and
    cross-checks the conjugation densely for n <= 6. Returns True when every
    step holds and False at the first that does not.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    zz = PauliString(n, 0, (1 << n) - 1, 0)
    images = []
    for q in range(n):
        for letter in "XZ":
            p = PauliString.single(n, q, letter)
            if commutes(p, zz):
                img = p
            else:
                prod = pauli_product(zz, p)
                img = PauliString(n, prod.x, prod.z, (prod.phase + 1) % 4)
            square = pauli_product(img, img)
            if not img.is_hermitian or square.x or square.z or square.phase:
                return False
            images.append((p, img))
    if n <= 6:
        cmat = np.diag(_phase_layer_diag(n))
        for p, img in images:
            lhs = cmat @ pauli_matrix(p) @ cmat.conj().T
            if not np.allclose(lhs, pauli_matrix(img), atol=1e-12):
                return False
    return True


# -- adaptive protocol -------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveRunRecord:
    """One shot of the adaptive protocol.

    ``outcomes`` holds the X-basis ancilla results (0 for +, 1 for -) and
    ``post_state`` is the renormalized data register. Even parity accepts.
    """

    outcomes: tuple
    post_state: StateVector

    @property
    def parity(self) -> int:
        """+1 for an even number of minuses, -1 otherwise."""
        return -1 if sum(self.outcomes) % 2 else 1

    @property
    def accepted(self) -> bool:
        return self.parity == 1


# controlled-Hadamard, control on the low index bit (targets[0]): the
# identity, with H2 on the rows and columns whose control bit is 1
CH4 = np.eye(4, dtype=complex)
CH4[1::2, 1::2] = H2


def adaptive_circuit(n: int) -> LayeredCircuit:
    """Pre-measurement circuit on 2n qubits (ancillas 0..n-1, data n..2n-1).

    A Hadamard plus a CX ladder puts the ancillas in a GHZ state, and one
    controlled-Hadamard per pair (control on the ancilla, firing on control
    value 1) hands the |1^n> ancilla branch a |+^n> data register.
    """
    layers = [(Gate((0,), H2),)]
    for i in range(n - 1):
        layers.append((Gate((i, i + 1), CX4),))
    layers.append(tuple(Gate((i, n + i), CH4) for i in range(n)))
    return LayeredCircuit(2 * n, tuple(layers))


_X_BRAS = (
    np.array([1.0, 1.0]) / _SQRT2,   # outcome 0: +
    np.array([1.0, -1.0]) / _SQRT2,  # outcome 1: -
)


def adaptive_shots(n: int, trials: int, seed: int = 0) -> list:
    """Shots of the adaptive protocol at seeds seed .. seed + trials - 1.

    Shot t measures each ancilla of the 2n-qubit pre-measurement state in
    the X basis by Born sampling from its own generator default_rng(seed +
    t), so a shot's record does not depend on `trials`. Returns (record,
    overlap) pairs; the overlap is taken against the cat the shot should
    have collapsed to: plus when accepted, minus otherwise. The
    pre-measurement state is built once, and one `measure_shots` walk
    measures it for all the shots, computing each outcome branch once for
    all the shots that reach it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    targets = {True: build(n, "plus"), False: build(n, "minus")}
    v = apply_circuit(adaptive_circuit(n), StateVector.basis_state(2 * n, 0))
    rngs = [np.random.default_rng(seed + t) for t in range(trials)]
    # peel ancillas from the top so remaining indices stay put
    steps = [((anc,), _X_BRAS) for anc in range(n - 1, -1, -1)]
    shots = []
    for outcomes, post in measure_shots(v, steps, rngs):
        record = AdaptiveRunRecord(outcomes[::-1], post)
        shots.append((record, pure_overlap(post, targets[record.accepted])))
    return shots


def adaptive_success_probability(n: int) -> float:
    """Exact acceptance probability of the adaptive protocol.

    Enumerates all 2^n X-basis outcome strings on the ancilla register of
    the pre-measurement state (|0^n>_a |0^n> + |1^n>_a |+^n>)/sqrt(2) and
    accumulates the squared norms of the even-parity branches. The result
    equals (1 + 2^{-n/2})/2; the `adaptive-success-probability` report
    judges the agreement.
    """
    if not 1 <= n <= 12:
        raise ValueError("exact enumeration supports 1 <= n <= 12")
    cross = 2.0 ** (-n / 2.0)  # <0^n|+^n>
    total = 0.0
    for s in range(1 << n):
        c0 = c1 = 1.0
        for q in range(n):
            bra = _X_BRAS[s >> q & 1]
            c0 *= bra[0]
            c1 *= bra[1]
        norm_sq = (c0 * c0 + c1 * c1 + 2.0 * c0 * c1 * cross) / 2.0
        if bin(s).count("1") % 2 == 0:
            total += norm_sq
    return total


# -- matrix product form -----------------------------------------------------

# MPS_BLOCKS[v] = A^v: A^0 = diag(1, 1/sqrt2), A^1 has a lone 1/sqrt2 at (1, 1)
MPS_BLOCKS = np.array([[[1, 0], [0, 1 / _SQRT2]], [[0, 0], [0, 1 / _SQRT2]]], dtype=complex)
MPS_BLOCKS.flags.writeable = False


def mps_contract(n: int, boundary: str = "open") -> StateVector:
    """Contract the n-site tensor train into a normalized state vector.

    With open boundaries the amplitude of bitstring v is l^T A^{v_1} ...
    A^{v_n} r, the sum of the product's entries as l = r = (1, 1); with
    periodic boundaries it is the trace of the same matrix product. Both
    land on the plus cat; the `mps-overlap` report judges how closely.
    """
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary condition: {boundary!r}")
    check_dense(n)
    # grow[v] = A^{v_1} ... A^{v_k}, with site k sitting at bit k-1
    grow = MPS_BLOCKS
    for _ in range(n - 1):
        grow = np.einsum("vab,jbc->jvac", grow, MPS_BLOCKS).reshape(-1, 2, 2)
    if boundary == "open":
        amps = np.einsum("vab->v", grow)
    else:
        amps = np.einsum("vaa->v", grow)
    norm = float(np.linalg.norm(amps))
    if not norm > 0:
        raise AssertionError("contracted state vanished")
    return StateVector(n, amps / norm)


# -- Bell-measurement stitching protocol -------------------------------------

BELL_LABELS = "IXYZ"

# Bell bras on a (right leg, left leg) pair, right leg on the low index bit.
# Outcome sigma projects onto (1 x sigma)|Phi+>, i.e. inserts sigma on the
# bond. The labeling convention is fixed here; only the cancellation
# condition below is physically meaningful.
_BELL_BRAS = {
    "I": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "X": np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    "Y": np.array([0, -1j, 1j, 0], dtype=complex) / _SQRT2,
    "Z": np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
}


@cache
def _site_state() -> np.ndarray:
    """Site tensor as a 3-qubit state (physical, left leg, right leg), built once."""
    amps = MPS_BLOCKS.T.reshape(8)  # amps[a + 2i + 4j] = A^a[i, j]
    amps = amps / np.linalg.norm(amps)
    amps.flags.writeable = False
    return amps


def _bell_accepts(left_bit: int, bonds: str, right_bit: int) -> bool:
    """Whether the byproducts of a Bell shot's outcomes cancel.

    Byproducts are pushed left to right: the boundary minuses and each Z
    (or Y) bond label inject a Z that rides through the bonds for free, and
    each X (or Y) label leaves a pending X that flags every later site
    with a Hadamard. The shot is accepted iff no site is flagged and the
    residual Z is the identity.
    """
    pending_x, pending_z, flagged = 0, left_bit ^ right_bit, False
    for label in bonds:
        pending_x ^= label in ("X", "Y")  # a pending X flags the next site
        pending_z ^= label in ("Z", "Y")
        flagged |= bool(pending_x)
    return not flagged and pending_z == 0


def bell_shots(n: int, trials: int, seed: int = 0) -> list:
    """Shots of the Bell stitching protocol at seeds seed .. seed + trials - 1.

    Each of the n sites is prepared as a 3-qubit state (physical leg plus
    two virtual legs); adjacent virtual legs are fused by Bell measurements
    whose outcome labels the Pauli inserted on that bond, and the two outer
    legs are measured in the X basis to realize the uniform boundaries.
    Shot t samples its outcomes from its own generator default_rng(seed +
    t), and is accepted when its byproducts cancel (`_bell_accepts`); an
    accepted shot's physical register carries the plus cat exactly, and
    the `bell-accepted-fidelity` report judges its overlap.

    Returns (accepted, state, overlap) triples; the overlap with the plus
    cat is None for rejected shots. The product of site states is built
    once, and one `measure_shots` walk measures it for all the shots,
    computing each outcome branch once for all the shots that reach it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    target = build(n, "plus")
    check_dense(3 * n)
    # the product of the n site states, site k on qubits 3k..3k+2
    site = _site_state()
    amps = site
    for _ in range(n - 1):
        amps = kron(site, amps)
    v = StateVector(3 * n, amps)
    rngs = [np.random.default_rng(seed + t) for t in range(trials)]
    # measure from the highest qubit indices down so lower ones stay put:
    # the right boundary leg, each bond's (right leg of k, left leg of k+1)
    # from the right, then the left boundary leg
    bell_bras = [_BELL_BRAS[c] for c in BELL_LABELS]
    steps = [((3 * n - 1,), _X_BRAS)]
    steps += [((3 * k + 2, 3 * (k + 1) + 1), bell_bras) for k in range(n - 2, -1, -1)]
    steps.append(((1,), _X_BRAS))
    shots = []
    for (right_bit, *bonds, left_bit), state in measure_shots(v, steps, rngs):
        labels = "".join(BELL_LABELS[b] for b in reversed(bonds))
        accepted = _bell_accepts(left_bit, labels, right_bit)
        overlap = pure_overlap(state, target) if accepted else None
        shots.append((accepted, state, overlap))
    return shots
