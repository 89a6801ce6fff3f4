"""Dense statevector simulation, light cones, and information quantities.

A light cone is a frozenset of qubits; a seed outside 0..n-1 raises.

Amplitude indexing: qubit q is bit q of the index (qubit 0 = least
significant), so axis n-1-q of the reshaped (2,)*n tensor belongs to
qubit q. Multi-qubit gate matrices pack their targets the same way:
targets[0] is the least significant bit of the gate's own index.

Entropies are in bits (base 2); eigenvalues below 1e-12 are treated as
exact zeros, and 0*log(0) is 0. A region of a pure state and its
complement have the same nonzero spectrum, so `entanglement_entropy`
(and `mutual_information`, built on it) diagonalizes the reduced density
of whichever side of the cut has fewer qubits. I(A, CD) on the 9-qubit
blocks A B C D = 2 2 2 3 of glue, for instance, takes S(ACD) from the
4x4 marginal of B in place of a 128x128 one.

A reduced state is a bare (2^k, 2^k) array from one Gram kernel,
`reduced_density`: Phi Phi* of the `_front` split. A StateVector is
validated when it is built (|norm^2 - 1| <= 1e-8, so every reduced
state's trace is within 1e-8 of 1), so `entropy`, `fidelity` and glue's
premises, conclusions and Petz map read the kernel's arrays without
validating them again. Dense work is capped at max_qubits() statevector
qubits (MAGICLAB_MAX_N, default 14) and 12 density-matrix qubits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import _f2
from .symplectic import PauliString, StabilizerState

_EIG_CLIP = 1e-12
_MIN_PROB = 1e-14  # measurement outcomes below this are impossible
_DENSITY_MAX_QUBITS = 12
_TILE = 128  # side of the blocks _hermitian_defect compares: 256 KB of complex128

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
# control = targets[0] (low bit), target = targets[1] (high bit)
CX4 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
_I_POWERS = np.array([1, 1j, -1, -1j])


def max_qubits() -> int:
    """Dense-simulation cap; override with MAGICLAB_MAX_N (an integer >= 1)."""
    raw = os.environ.get("MAGICLAB_MAX_N", "14")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MAGICLAB_MAX_N must be an integer >= 1, got {raw!r}")
    return cap


def _check_dense(n: int) -> None:
    cap = max_qubits()
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the dense cap of {cap}")


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError("amplitude length must be 2**n")
        norm = np.linalg.norm(amps)
        # norm^2 is the trace of every reduced state of the vector
        if not abs(norm * norm - 1.0) <= 1e-8:
            raise ValueError(f"state not normalized (norm {norm})")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        """The state of `amps` divided by their norm."""
        amps = np.asarray(amps, dtype=complex)
        n = int(amps.size - 1).bit_length()
        if amps.size != 2**n:
            raise ValueError("length is not a power of two")
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        return cls(n, amps / norm)

    @classmethod
    def basis_state(cls, n: int, index: int) -> "StateVector":
        _check_dense(n)
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def uniform_plus(cls, n: int) -> "StateVector":
        _check_dense(n)
        return cls(n, np.full(2**n, 2.0 ** (-n / 2), dtype=complex))


def _hermitian_defect(mat: np.ndarray) -> float:
    """Largest entry of |mat - mat*|, bit for bit, over _TILE-square tiles.

    |m_ij - conj m_ji| = |m_ji - conj m_ij|, so only the tile pairs on and
    above the diagonal are compared; a NaN anywhere makes the result NaN.
    """
    tiles = [slice(i, i + _TILE) for i in range(0, mat.shape[0], _TILE)]
    # np.maximum, not max: a NaN tile must make the whole defect NaN
    return float(reduce(np.maximum, [
        np.abs(mat[r, c] - mat[c, r].conj().T).max()
        for k, r in enumerate(tiles)
        for c in tiles[k:]
    ]))


@dataclass(frozen=True)
class Gate:
    """k-qubit gate; matrix index packs targets[0] as the low bit."""

    targets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        k = len(self.targets)
        if k < 1:
            raise ValueError("gate needs at least one target")
        if len(set(self.targets)) != k:
            raise ValueError("duplicate targets")
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2**k, 2**k):
            raise ValueError("matrix shape must match target count")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "matrix", mat)

    def adjoint(self) -> "Gate":
        return Gate(self.targets, self.matrix.conj().T)


@dataclass(frozen=True)
class LayeredCircuit:
    """Depth-ordered layers of gates with disjoint targets per layer."""

    n: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        layers = tuple(tuple(layer) for layer in self.layers)
        for layer in layers:
            seen: set[int] = set()
            for gate in layer:
                for t in gate.targets:
                    if not 0 <= t < self.n:
                        raise ValueError("gate target out of range")
                    if t in seen:
                        raise ValueError("overlapping targets within a layer")
                    seen.add(t)
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @classmethod
    def identity(cls, n: int) -> "LayeredCircuit":
        return cls(n, ())

    def adjoint(self) -> "LayeredCircuit":
        layers = tuple(
            tuple(g.adjoint() for g in layer) for layer in reversed(self.layers)
        )
        return LayeredCircuit(self.n, layers)


def _target_perm(n: int, targets: Sequence[int]) -> list:
    """Axes of the (2,)*n tensor, `targets` first with targets[0] (low bit) last."""
    front = []
    for t in reversed(targets):
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
        front.append(n - 1 - t)
    return front + [a for a in range(n) if a not in front]


def _front(amps: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """The (2**k, 2**(n-k)) split of amps with `targets` on the rows.

    The row index packs targets[0] as its low bit; the columns keep the
    other qubits in their original relative order, so a column index is
    already the LSB-consistent index of the remaining qubits.
    """
    tensor = amps.reshape((2,) * n).transpose(_target_perm(n, targets))
    return tensor.reshape(2 ** len(targets), -1)


def matrix_action(
    amps: np.ndarray, n: int, targets: Sequence[int], matrix: np.ndarray
) -> np.ndarray:
    """Apply a (not necessarily unitary) matrix on `targets` to raw amplitudes."""
    flat = np.asarray(matrix, dtype=complex) @ _front(amps, n, targets)
    perm = _target_perm(n, targets)
    inverse = sorted(range(n), key=perm.__getitem__)
    return flat.reshape((2,) * n).transpose(inverse).reshape(-1)


def apply_gate(v: StateVector, gate: Gate) -> StateVector:
    return StateVector(v.n, matrix_action(v.amps, v.n, gate.targets, gate.matrix))


def apply_circuit(circ: LayeredCircuit, v: StateVector) -> StateVector:
    if circ.n != v.n:
        raise ValueError("size mismatch")
    for layer in circ.layers:
        for gate in layer:
            v = apply_gate(v, gate)
    return v


def _spread(n: int, layers, seeds: Iterable[int]) -> frozenset:
    """Qubits reached from `seeds` through `layers` in order, gate by gate."""
    cone = set(seeds)
    for q in cone:
        if not 0 <= q < n:
            raise ValueError(f"seed {q} out of range for {n} qubits")
    for layer in layers:
        for gate in layer:
            if cone.intersection(gate.targets):
                cone.update(gate.targets)
    return frozenset(cone)


def forward_cone(circ: LayeredCircuit, seeds: Iterable[int]) -> frozenset:
    """Output qubits that the seed inputs can influence."""
    return _spread(circ.n, circ.layers, seeds)


def backward_cone(circ: LayeredCircuit, seeds: Iterable[int]) -> frozenset:
    """Input qubits that can influence the seed outputs."""
    return _spread(circ.n, reversed(circ.layers), seeds)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary matrix; `rng` is a Generator or an int seed.

    QR of a complex Gaussian matrix with the phases of R's diagonal moved
    into Q (Mezzadri, math-ph/0609050): the same draws and the same matrix
    as scipy.stats.unitary_group.rvs, without importing scipy.stats.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= d / np.abs(d)
    return q


def random_brickwork(n: int, depth: int, rng) -> LayeredCircuit:
    """Brickwork circuit of Haar-random two-qubit gates.

    Layer d pairs qubits starting at offset d % 2, so consecutive layers
    interleave; a lone unpaired qubit gets a random single-qubit gate.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers = []
    for d in range(depth):
        start = d % 2
        layer = []
        if start == 1 and n > 1:
            layer.append(Gate((0,), haar_unitary(2, rng)))
        q = start
        while q + 1 < n:
            layer.append(Gate((q, q + 1), haar_unitary(4, rng)))
            q += 2
        if q < n:
            layer.append(Gate((q,), haar_unitary(2, rng)))
        layers.append(tuple(layer))
    return LayeredCircuit(n, tuple(layers))


def reduced_density(v: StateVector, qubits: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of `qubits` of v, a (2^k, 2^k) array.

    The Gram matrix Phi Phi* of the `_front` split, with the qubits sorted
    (the lowest is the low index bit).  v was validated when it was built,
    so the matrix is not checked again.
    """
    keep = tuple(sorted(set(int(q) for q in qubits)))
    if any(q < 0 or q >= v.n for q in keep):
        raise ValueError("qubit out of range")
    if len(keep) > _DENSITY_MAX_QUBITS:
        raise ValueError(f"density matrices capped at {_DENSITY_MAX_QUBITS} qubits")
    flat = _front(v.amps, v.n, keep)
    return flat @ flat.conj().T


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits; eigenvalues under 1e-12 count as 0."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > _EIG_CLIP]
    return float(-(w * np.log2(w)).sum())


def entanglement_entropy(v: StateVector, qubits: Iterable[int]) -> float:
    """Entropy in bits of a region of the pure state v.

    Computed from the smaller of the region and its complement, which
    share their nonzero spectrum.
    """
    region = set(int(q) for q in qubits)
    if any(q < 0 or q >= v.n for q in region):
        raise ValueError("qubit out of range")
    if 2 * len(region) > v.n:
        region = set(range(v.n)) - region
    return entropy(reduced_density(v, region))


def mutual_information(v: StateVector, a: Iterable[int], b: Iterable[int]) -> float:
    """I(a, b) = S(a) + S(b) - S(a u b) in bits, each from its smaller side."""
    sa, sb = set(a), set(b)
    if sa & sb:
        raise ValueError("regions must be disjoint")
    return (
        entanglement_entropy(v, sa)
        + entanglement_entropy(v, sb)
        - entanglement_entropy(v, sa | sb)
    )


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = ||sqrt(rho) sqrt(sigma)||_1 (not squared)."""
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    prod = _sqrt_psd(rho) @ _sqrt_psd(sigma)
    return float(np.linalg.svd(prod, compute_uv=False).sum())


def pure_overlap(v1: StateVector, v2: StateVector) -> float:
    """|<v1|v2>| for pure states."""
    if v1.n != v2.n:
        raise ValueError("size mismatch")
    return float(abs(np.vdot(v1.amps, v2.amps)))


# -- Pauli action -----------------------------------------------------------

def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 0 = low index bit)."""
    if p.n > _DENSITY_MAX_QUBITS:
        raise ValueError("dense Pauli matrices capped at 12 qubits")
    singles = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}
    mat = np.array([[1.0 + 0j]])
    for q in range(p.n - 1, -1, -1):
        xb, zb = p.x >> q & 1, p.z >> q & 1
        letter = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xb, zb)]
        mat = np.kron(mat, singles[letter])
    return (1j**p.phase) * mat


def _word_map(size: int, p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(src, signs) with (P a)[i] = signs[i] * a[src[i]] for len(a) = size."""
    idx = np.arange(size, dtype=np.uint64)
    src = idx ^ np.uint64(p.x)
    par = np.bitwise_count(src & np.uint64(p.z)) & 1
    k = (p.phase + (p.x & p.z).bit_count()) % 4
    return src, (1j**k) * (1.0 - 2.0 * par)


def _word_action(amps: np.ndarray, p: PauliString) -> np.ndarray:
    src, signs = _word_map(amps.size, p)
    return signs * amps[src]


def _word_expectations(p: PauliString, states: Sequence[StateVector]) -> list:
    """<v|P|v> for each state v (Hermitian P, same n), from one word map."""
    src, signs = _word_map(states[0].amps.size, p)
    out = []
    for v in states:
        val = np.vdot(v.amps, signs * v.amps[src])
        if abs(val.imag) > 1e-9:
            raise AssertionError("Hermitian expectation came out complex")
        out.append(float(val.real))
    return out


def apply_pauli(v: StateVector, p: PauliString) -> StateVector:
    """P|v> via index arithmetic, O(2^n) time."""
    if p.n != v.n:
        raise ValueError("size mismatch")
    return StateVector(v.n, _word_action(v.amps, p))


def pauli_expectation(v: StateVector, p: PauliString) -> float:
    """<v|P|v> for Hermitian P, as a real float."""
    if not p.is_hermitian:
        raise ValueError("expectation needs a Hermitian Pauli")
    if p.n != v.n:
        raise ValueError("size mismatch")
    return _word_expectations(p, (v,))[0]


def to_statevector(s: StabilizerState) -> StateVector:
    """Dense vector of a stabilizer state.

    Seeds with a computational basis state |b> chosen by solving the sign
    constraints of the diagonal (x = 0) subgroup D over F2, so every
    element of D fixes |b>.  Generators h_1..h_k with independent x-parts
    then reach each coset of D exactly once, and the state is proportional
    to the sum of h^m|b> over m in F2^k (the projector product of all n
    generators applied to |b>, up to the factor |D|/2^n); one elimination
    of the x-parts finds both h and D.  The support is filled by doubling:
    h = i^(phase + |x&z|) X^x Z^z, its sign being i^phase, sends i^e at idx
    to i^(e + phase + |x&z| + 2 z.idx) at idx ^ x.  Dividing by
    sqrt(2^k), the norm, is exact.
    """
    n = s.n
    _check_dense(n)
    picked, kernel = _f2.eliminate([g.x for g in s.generators])
    equations = []
    for tag in kernel:
        element = s.element(tag)
        if element.x != 0:
            raise AssertionError("diagonal subgroup element has X support")
        equations.append((element.z, element.phase >> 1))
    b = _f2.solve(equations)
    if b is None:
        raise AssertionError("inconsistent stabilizer signs")
    size = 1 << len(picked)
    idx = np.empty(size, dtype=np.uint64)
    phase = np.empty(size, dtype=np.uint8)
    idx[0], phase[0] = b, 0
    m = 1
    for i in picked:
        g = s.generators[i]
        low = idx[:m]
        np.bitwise_xor(low, g.x, out=idx[m : 2 * m])
        # exponents of i wrap mod 256, a multiple of 4
        e = g.phase + (g.x & g.z).bit_count()
        phase[m : 2 * m] = phase[:m] + 2 * np.bitwise_count(low & g.z) + e
        m *= 2
    state = np.zeros(2**n, dtype=complex)
    state[idx] = (_I_POWERS / np.sqrt(size))[phase & 3]
    return StateVector(n, state)


def _branches(v: StateVector, targets: Sequence[int], bras: Sequence) -> tuple[list, list]:
    """(probabilities, unnormalized post-states) of each bra on `targets`."""
    k = len(targets)
    flat = _front(v.amps, v.n, tuple(int(t) for t in targets))
    posts = [np.asarray(bra, dtype=complex).reshape(2**k).conj() @ flat for bra in bras]
    return [float(np.linalg.norm(post) ** 2) for post in posts], posts


def _pick(probs: list, rng, forced) -> int:
    """The forced or Born-sampled outcome of `measure`; raises if impossible."""
    if forced is not None:
        outcome = int(forced)
        if not 0 <= outcome < len(probs):
            raise ValueError(f"forced outcome {outcome} is not one of {len(probs)}")
    elif rng is None:
        raise ValueError("sampling an outcome needs an rng")
    else:
        # an impossible outcome adds 0 and so is never the first sum past x
        cum = list(accumulate(p if p >= _MIN_PROB else 0.0 for p in probs))
        x = rng.random() * cum[-1]
        last = max((i for i, p in enumerate(probs) if p >= _MIN_PROB), default=0)
        outcome = next((i for i, c in enumerate(cum[:last]) if c > x), last)
    if probs[outcome] < _MIN_PROB:
        raise ValueError(
            f"outcome {outcome} has (near) zero probability ({probs[outcome]:.3g})"
        )
    return outcome


def measure(
    v: StateVector, targets: Sequence[int], bras: Sequence, rng=None, forced=None
) -> tuple[int, StateVector, float]:
    """Projective measurement of the target qubits onto the outcomes `bras`.

    Each bra packs targets[0] as its low index bit. The outcome is `forced`
    when given, else Born-sampled from one rng.random() draw u: the first
    whose cumulative probability exceeds u times the total, with outcomes
    below 1e-14 impossible (never sampled). Returns (outcome, normalized
    post-state on the other qubits in their original relative order,
    probability); an impossible or out-of-range forced outcome, or no
    possible outcome to sample, raises ValueError.
    """
    probs, posts = _branches(v, targets, bras)
    o = _pick(probs, rng, forced)
    return o, StateVector(v.n - len(targets), posts[o] / np.sqrt(probs[o])), probs[o]


def measure_shots(v: StateVector, steps: Sequence, rngs: Sequence, forced=None) -> list:
    """Run the measurement sequence `steps` on v once per generator in `rngs`.

    Step i is a (targets, bras) pair measured on the post-state of step
    i - 1, with outcome forced[i] when `forced` is given and not None
    there. Each shot draws from its own rng exactly as a chain of `measure`
    calls would, so it gets the same outcomes and post-state, and raises
    the same ValueError. The walk is breadth-first: shots that share an
    outcome prefix share one branch computation, and only the current
    level of the outcome tree is kept. Returns (outcomes, post-state) per
    rng, in order; shots with equal outcomes share one post-state.
    """
    forced = [None] * len(steps) if forced is None else forced
    level = {(): (v, list(range(len(rngs))))}
    for (targets, bras), fix in zip(steps, forced, strict=True):
        nxt = {}
        for prefix, (state, shots) in level.items():
            probs, posts = _branches(state, targets, bras)
            groups: dict = {}
            for i in shots:
                groups.setdefault(_pick(probs, rngs[i], fix), []).append(i)
            for o, group in groups.items():
                post = StateVector(state.n - len(targets), posts[o] / np.sqrt(probs[o]))
                nxt[prefix + (o,)] = (post, group)
        level = nxt
    leaf = {i: (prefix, state) for prefix, (state, shots) in level.items() for i in shots}
    return [leaf[i] for i in range(len(rngs))]
