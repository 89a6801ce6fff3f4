"""Preparation protocols for the ZX-cat states.

Three independent routes to the same family:

* a depth-three sandwich circuit ``U^{(x)n} . C . (U+)^{(x)n}`` whose middle
  layer ``C = exp(i pi/4 Z^{(x)n})`` is a global Clifford (checked here by
  symbolic Pauli bookkeeping),
* an ancilla-assisted adaptive protocol (GHZ ancilla + controlled-Hadamard
  fanout + X-basis measurement) that postselects on even outcome parity,
* a bond-dimension-2 matrix product representation, contracted both with open
  and periodic boundaries, together with the byproduct push relations that
  drive a Bell-measurement stitching protocol.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .statevec import (
    CX4,
    H2,
    X2,
    Z2,
    Gate,
    StateVector,
    apply_circuit,
    apply_gate,
    LayeredCircuit,
    max_qubits,
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
    ``U^{(x)n}``, where U = exp(-i pi/8 Y). Asserts the output matches the
    i-phase cat up to global phase before returning it.
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
    target = build(n, "i")
    overlap = pure_overlap(v, target)
    if not overlap >= 1.0 - 1e-12:
        raise AssertionError(f"sandwich output is off target (overlap {overlap})")
    return v


def verify_global_clifford(n: int) -> bool:
    """Certify that the sandwich's middle layer maps Paulis to Paulis.

    Conjugation by C = exp(i pi/4 Z^{(x)n}) follows a two-way case split:
    a Pauli P commuting with Z^{(x)n} is left unchanged, an anticommuting
    one is sent to i Z^{(x)n} P (again a signed Pauli word). This routine
    applies the split symbolically to every generator X_q, Z_q, checks each
    image is a Hermitian Pauli string squaring to the identity, and
    cross-checks the conjugation densely for n <= 6.
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
            if not img.is_hermitian:
                raise AssertionError(f"image of {p} is not Hermitian: {img}")
            square = pauli_product(img, img)
            if square.x or square.z or square.phase:
                raise AssertionError(f"image of {p} does not square to 1")
            images.append((p, img))
    if n <= 6:
        cmat = np.diag(_phase_layer_diag(n))
        for p, img in images:
            lhs = cmat @ pauli_matrix(p) @ cmat.conj().T
            if not np.allclose(lhs, pauli_matrix(img), atol=1e-12):
                raise AssertionError(f"dense conjugation disagrees for {p}")
    return True


# -- adaptive protocol -------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveRunRecord:
    """One shot of the adaptive protocol.

    ``outcomes`` holds the X-basis ancilla results (0 for +, 1 for -),
    ``parity`` is +1 for an even number of minuses and -1 otherwise, and
    ``post_state`` is the renormalized data register. Even parity accepts.
    """

    outcomes: tuple
    parity: int
    post_state: StateVector
    accepted: bool

    def __post_init__(self):
        if self.parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        expect = 1 if sum(self.outcomes) % 2 == 0 else -1
        if self.parity != expect:
            raise ValueError("parity inconsistent with outcomes")
        if self.accepted != (self.parity == 1):
            raise ValueError("acceptance must follow even parity")


def _controlled_h() -> np.ndarray:
    """4x4 controlled-Hadamard; control is the low index bit (targets[0])."""
    m = np.zeros((4, 4), dtype=complex)
    for ctrl in range(2):
        op = H2 if ctrl else np.eye(2)
        for t_out in range(2):
            for t_in in range(2):
                m[ctrl + 2 * t_out, ctrl + 2 * t_in] = op[t_out, t_in]
    return m


CH4 = _controlled_h()


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


def _premeasurement_state(n: int) -> StateVector:
    """The 2n-qubit state of `adaptive_circuit` applied to |0^{2n}>."""
    if 2 * n > max_qubits():
        raise ValueError("2n exceeds the dense-simulation cap")
    return apply_circuit(adaptive_circuit(n), StateVector.basis_state(2 * n, 0))


def _adaptive_records(v: StateVector, n: int, rngs) -> list:
    """One record per generator: X-basis outcomes of ancillas 0..n-1 of v."""
    # peel ancillas from the top so remaining indices stay put
    steps = [((anc,), _X_BRAS) for anc in range(n - 1, -1, -1)]
    records = []
    for outcomes, post in measure_shots(v, steps, rngs):
        parity = 1 if sum(outcomes) % 2 == 0 else -1
        records.append(AdaptiveRunRecord(outcomes[::-1], parity, post, parity == 1))
    return records


def adaptive_run(n: int, seed: int = 0) -> AdaptiveRunRecord:
    """Sample one shot of the adaptive preparation protocol.

    Builds the 2n-qubit pre-measurement state, measures each ancilla in the
    X basis by Born sampling, and returns the outcome record together with
    the renormalized data register.
    """
    v = _premeasurement_state(n)
    return _adaptive_records(v, n, [np.random.default_rng(seed)])[0]


def adaptive_shots(n: int, trials: int, seed: int = 0) -> list:
    """Shots of the adaptive protocol at seeds seed .. seed + trials - 1.

    Returns (record, overlap) pairs; the overlap is taken against the cat
    the shot should have collapsed to: plus when accepted, minus otherwise.
    Shot t gets the record of `adaptive_run(n, seed + t)`: the
    pre-measurement state is built once, and one `measure_shots` walk
    measures it with a generator per shot, computing each outcome branch
    once for all the shots that reach it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    targets = {True: build(n, "plus"), False: build(n, "minus")}
    v = _premeasurement_state(n)
    rngs = [np.random.default_rng(seed + t) for t in range(trials)]
    return [
        (record, pure_overlap(record.post_state, targets[record.accepted]))
        for record in _adaptive_records(v, n, rngs)
    ]


def adaptive_success_probability(n: int) -> float:
    """Exact acceptance probability of the adaptive protocol.

    Enumerates all 2^n X-basis outcome strings on the ancilla register of
    the pre-measurement state (|0^n>_a |0^n> + |1^n>_a |+^n>)/sqrt(2) and
    accumulates the squared norms of the even-parity branches. The result
    equals (1 + 2^{-n/2})/2, which is asserted before returning.
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
    closed = (1.0 + cross) / 2.0
    if abs(total - closed) > 1e-12:
        raise AssertionError("enumeration disagrees with the closed form")
    return total


# -- matrix product form -----------------------------------------------------

@dataclass(frozen=True)
class MpsTensor:
    """Site tensor of the bond-dimension-2 cat representation.

    ``a0``/``a1`` are the physical-leg blocks and ``left``/``right`` the
    boundary vectors. The canonical values (a0 = diag(1, 1/sqrt2), a1 with
    a lone 1/sqrt2 in the corner, uniform boundaries) are enforced here.
    """

    a0: np.ndarray
    a1: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=complex)
        a1 = np.asarray(self.a1, dtype=complex)
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        if a0.shape != (2, 2) or a1.shape != (2, 2):
            raise ValueError("site blocks must be 2x2")
        if left.shape != (2,) or right.shape != (2,):
            raise ValueError("boundary vectors must have length 2")
        s = 1.0 / _SQRT2
        if not np.allclose(a0, np.diag([1.0, s]), atol=1e-15):
            raise ValueError("a0 must be diag(1, 1/sqrt2)")
        want = np.zeros((2, 2))
        want[1, 1] = s
        if not np.allclose(a1, want, atol=1e-15):
            raise ValueError("a1 must have its only entry 1/sqrt2 at (1,1)")
        if not (np.allclose(left, [1, 1]) and np.allclose(right, [1, 1])):
            raise ValueError("boundaries must be (1,1)")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def blocks(self) -> np.ndarray:
        """Stacked (2, 2, 2) array indexed by the physical bit."""
        return np.stack([self.a0, self.a1])


def mps_tensors() -> MpsTensor:
    """The canonical cat site tensor and boundary vectors."""
    s = 1.0 / _SQRT2
    a1 = np.zeros((2, 2))
    a1[1, 1] = s
    return MpsTensor(
        a0=np.diag([1.0, s]),
        a1=a1,
        left=np.array([1.0, 1.0]),
        right=np.array([1.0, 1.0]),
    )


def mps_contract(n: int, boundary: str = "open") -> StateVector:
    """Contract the n-site tensor train into a normalized state vector.

    With open boundaries the amplitude of bitstring v is l^T A^{v_1} ...
    A^{v_n} r; with periodic boundaries it is the trace of the same matrix
    product. Both land on the plus cat, which is asserted before returning.
    """
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary condition: {boundary!r}")
    if not 1 <= n <= max_qubits():
        raise ValueError("n out of range")
    site = mps_tensors()
    mats = site.blocks()
    # grow[v] = A^{v_1} ... A^{v_k}, with site k sitting at bit k-1
    grow = mats.copy()
    for _ in range(n - 1):
        grow = np.einsum("vab,jbc->jvac", grow, mats).reshape(-1, 2, 2)
    if boundary == "open":
        amps = np.einsum("a,vab,b->v", site.left, grow, site.right)
    else:
        amps = np.einsum("vaa->v", grow)
    norm = float(np.linalg.norm(amps))
    if not norm > 0:
        raise AssertionError("contracted state vanished")
    state = StateVector(n, amps / norm)
    overlap = pure_overlap(state, build(n, "plus"))
    if not overlap >= 1.0 - 1e-12:
        raise AssertionError(f"contraction is off target (overlap {overlap})")
    return state


def push_relation_check() -> bool:
    """Verify the byproduct push relations of the cat site tensor.

    Elementwise, for both physical values a: Z A^a Z = A^a (a Z entering a
    bond leaves through the other side for free), and sum_b H_{ab} A^b =
    X A^a X (an X passes through the bond at the price of a Hadamard on the
    physical leg). Verified to 1e-12.
    """
    mats = mps_tensors().blocks()
    for a in range(2):
        z_push = Z2 @ mats[a] @ Z2
        if not np.allclose(z_push, mats[a], atol=1e-12):
            raise AssertionError(f"Z push fails on block {a}")
        h_mix = sum(H2[a, b] * mats[b] for b in range(2))
        x_push = X2 @ mats[a] @ X2
        if not np.allclose(h_mix, x_push, atol=1e-12):
            raise AssertionError(f"X push fails on block {a}")
    return True


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
    mats = mps_tensors().blocks()
    amps = np.zeros(8, dtype=complex)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                amps[a + 2 * i + 4 * j] = mats[a][i, j]
    amps /= np.linalg.norm(amps)
    amps.flags.writeable = False
    return amps


def _bell_state(n: int) -> StateVector:
    """The 3n-qubit product of the n site states, site k on qubits 3k..3k+2."""
    if n < 1:
        raise ValueError("need at least one site")
    if 3 * n > max_qubits():
        raise ValueError("3n exceeds the dense-simulation cap")
    site = _site_state()
    amps = site
    for _ in range(n - 1):
        amps = np.kron(site, amps)
    return StateVector(3 * n, amps)


def _bell_accepts(left_bit: int, bonds: str, right_bit: int) -> bool:
    """The byproduct push of `bell_protocol_run`, from its measured outcomes."""
    pending_x, pending_z, flagged = 0, left_bit ^ right_bit, False
    for label in bonds:
        pending_x ^= label in ("X", "Y")  # a pending X flags the next site
        pending_z ^= label in ("Z", "Y")
        flagged |= bool(pending_x)
    return not flagged and pending_z == 0


def _bell_runs(v: StateVector, n: int, rngs, target, forced=None) -> list:
    """(accepted, state, overlap with `target` or None) per generator.

    One `measure_shots` walk over the protocol's measurements of v.
    """
    # measure from the highest qubit indices down so lower ones stay put:
    # the right boundary leg, each bond's (right leg of k, left leg of k+1)
    # from the right, then the left boundary leg
    bell_bras = [_BELL_BRAS[c] for c in BELL_LABELS]
    steps = [((3 * n - 1,), _X_BRAS)]
    steps += [((3 * k + 2, 3 * (k + 1) + 1), bell_bras) for k in range(n - 2, -1, -1)]
    steps.append(((1,), _X_BRAS))
    runs = []
    for (right_bit, *bonds, left_bit), state in measure_shots(v, steps, rngs, forced):
        labels = "".join(BELL_LABELS[b] for b in reversed(bonds))
        overlap = None
        if _bell_accepts(left_bit, labels, right_bit):
            overlap = pure_overlap(state, target)
            if not overlap >= 1.0 - 1e-10:
                raise AssertionError(f"accepted run is off target (overlap {overlap})")
        runs.append((overlap is not None, state, overlap))
    return runs


def bell_protocol_run(n, seed=0, bonds=None, boundaries=None):
    """One shot of the Bell-measurement stitching protocol.

    Each of the n sites is prepared as a 3-qubit state (physical leg plus
    two virtual legs); adjacent virtual legs are fused by Bell measurements
    whose outcome labels the Pauli inserted on that bond, and the two outer
    legs are measured in the X basis to realize the uniform boundaries.
    Byproducts are pushed left to right: Z outcomes ride through bonds for
    free, X outcomes trade into a Hadamard flag on every physical leg they
    pass. The run is accepted iff all flags cancel and the residual bond
    Pauli is the identity, in which case the physical register carries the
    plus cat exactly (asserted to 1e-10).

    `bonds` (a string over IXYZ of length n-1) and `boundaries` (two bits,
    1 meaning a minus outcome) force outcomes instead of sampling, which is
    convenient for exercising specific byproduct patterns.

    Returns ``(accepted, state)``.
    """
    v = _bell_state(n)
    forced = [None] * (n + 1)  # right boundary, bonds n-2 .. 0, left boundary
    if bonds is not None:
        bonds = str(bonds).upper()
        if len(bonds) != n - 1 or any(c not in BELL_LABELS for c in bonds):
            raise ValueError("bonds must be a length n-1 string over IXYZ")
        forced[1:n] = [BELL_LABELS.index(c) for c in reversed(bonds)]
    if boundaries is not None:
        forced[0], forced[n] = int(boundaries[1]), int(boundaries[0])
    rngs = [np.random.default_rng(seed)]
    return _bell_runs(v, n, rngs, build(n, "plus"), forced)[0][:2]


def bell_shots(n: int, trials: int, seed: int = 0) -> list:
    """Shots of the Bell protocol at seeds seed .. seed + trials - 1.

    Returns (accepted, state, overlap) triples; the overlap with the plus
    cat is None for rejected shots. Shot t gets the run of
    `bell_protocol_run(n, seed + t)`: the product of site states is built
    once, and one `measure_shots` walk measures it with a generator per
    shot, computing each outcome branch once for all the shots that reach it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    target = build(n, "plus")
    rngs = [np.random.default_rng(seed + t) for t in range(trials)]
    return _bell_runs(_bell_state(n), n, rngs, target)
