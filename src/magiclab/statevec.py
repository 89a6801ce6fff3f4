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

import functools
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .symplectic import PauliString, StabilizerState

_EIG_CLIP = 1e-12
_MIN_PROB = 1e-14  # measurement outcomes below this are impossible
_DENSITY_MAX_QUBITS = 12
BATCH_AMPS = 1 << 14  # amplitudes per to_statevectors batch of a sampled check: 256 KB

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


def check_dense(n: int) -> None:
    """Raise ValueError unless a dense register of n qubits is within 1..max_qubits()."""
    cap = max_qubits()
    if not 1 <= n <= cap:
        raise ValueError(f"{n} qubits outside 1 to the dense cap of {cap}")


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)  # an owned C-order copy
        if amps.shape != (2**self.n,):
            raise ValueError("amplitude length must be 2**n")
        norm = _norm(amps)
        # norm^2 is the trace of every reduced state of the vector
        if not abs(norm * norm - 1.0) <= 1e-8:
            raise ValueError(f"state not normalized (norm {norm})")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def basis_state(cls, n: int, index: int) -> "StateVector":
        check_dense(n)
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def uniform_plus(cls, n: int) -> "StateVector":
        check_dense(n)
        return cls(n, np.full(2**n, 2.0 ** (-n / 2), dtype=complex))


def _norm(amps: np.ndarray) -> np.float64:
    """np.linalg.norm of a C-order complex vector, bit for bit, without its wrapper."""
    re, im = amps.real, amps.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two matrices, byte for byte, without its set-up.

    Each entry is the one product a_i b_k that np.kron forms, written once
    in np.kron's layout.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return np.multiply.outer(a, b).reshape(-1)
    if a.ndim == b.ndim == 2:
        # out[i, k, j, l] = a[i, j] b[k, l]
        out = np.multiply(a[:, None, :, None], b[:, None, :])
        return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    raise ValueError("kron takes two vectors or two matrices")


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


@functools.lru_cache(maxsize=1024)
def _target_perm(n: int, targets: tuple) -> tuple[tuple, tuple]:
    """(axes, inverse) for the (2,)*n tensor and a tuple of targets.

    `axes` puts `targets` first with targets[0] (low bit) last; `inverse`
    undoes it.  Cached per (n, targets); an out-of-range target raises
    ValueError on every call, since lru_cache keeps no exceptions.
    """
    front = []
    for t in reversed(targets):
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
        front.append(n - 1 - t)
    axes = tuple(front + [a for a in range(n) if a not in front])
    return axes, tuple(sorted(range(n), key=axes.__getitem__))


def _front(amps: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """The (2**k, 2**(n-k)) split of amps with `targets` on the rows.

    The row index packs targets[0] as its low bit; the columns keep the
    other qubits in their original relative order, so a column index is
    already the LSB-consistent index of the remaining qubits.
    """
    tensor = amps.reshape((2,) * n).transpose(_target_perm(n, tuple(targets))[0])
    return tensor.reshape(2 ** len(targets), -1)


def matrix_action(
    amps: np.ndarray, n: int, targets: Sequence[int], matrix: np.ndarray
) -> np.ndarray:
    """Apply a (not necessarily unitary) matrix on `targets` to raw amplitudes."""
    flat = np.asarray(matrix, dtype=complex) @ _front(amps, n, targets)
    inverse = _target_perm(n, tuple(targets))[1]
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


def _region(v: StateVector, qubits: Iterable[int]) -> tuple:
    """`qubits` sorted and without repeats, each checked to be a qubit of v."""
    keep = tuple(sorted(set(int(q) for q in qubits)))
    if any(q < 0 or q >= v.n for q in keep):
        raise ValueError("qubit out of range")
    return keep


def _gram(v: StateVector, keep: tuple) -> np.ndarray:
    """Phi Phi* of the `_front` split of v on the sorted region `keep`."""
    if len(keep) > _DENSITY_MAX_QUBITS:
        raise ValueError(f"density matrices capped at {_DENSITY_MAX_QUBITS} qubits")
    flat = _front(v.amps, v.n, keep)
    return flat @ flat.conj().T


def reduced_density(v: StateVector, qubits: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of `qubits` of v, a (2^k, 2^k) array.

    The Gram matrix Phi Phi* of the `_front` split, with the qubits sorted
    (the lowest is the low index bit).  v was validated when it was built,
    so the matrix is not checked again.
    """
    return _gram(v, _region(v, qubits))


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
    region = _region(v, qubits)
    if 2 * len(region) > v.n:
        region = tuple(q for q in range(v.n) if q not in region)
    return entropy(_gram(v, region))


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


def sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix; eigenvalues rounded below 0 count as 0."""
    w, u = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F = ||sqrt(rho) sqrt(sigma)||_1 (not squared)."""
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    prod = sqrt_psd(rho) @ sqrt_psd(sigma)
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
        mat = kron(mat, singles[letter])
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


def word_expectations(p: PauliString, states: Sequence[StateVector]) -> list:
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
    return word_expectations(p, (v,))[0]


def to_statevectors(states: Sequence[StabilizerState]) -> list[StateVector]:
    """Dense vectors of stabilizer states on one register, in input order.

    Each state is the normalized sum of h^m|b> over m in F2^k for its
    `StabilizerState.expansion` (b, h_1..h_k).  The support is filled by
    doubling, once for all the G states of equal k over (2^k, G) index and
    Z4-phase arrays: h = i^e X^x Z^z sends i^p at idx to
    i^(p + e + 2 z.idx) at idx ^ x.  Dividing by sqrt(2^k), the norm, is
    exact.  Every state must have the same n, within the dense cap; sampled
    checks keep a batch within BATCH_AMPS amplitudes (see `densified`).
    """
    if not states:
        return []
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("a batch of stabilizer states must share one n")
    check_dense(n)
    groups: dict[int, list] = {}  # k -> [(position, b, the k (x, z, e))]
    for pos, (b, gens) in enumerate(s.expansion() for s in states):
        groups.setdefault(len(gens), []).append((pos, b, gens))
    out: list = [None] * len(states)
    for k, members in groups.items():
        rows, size = len(members), 1 << k
        # (3, k, rows): the x, z and i-exponent of generator j of each state;
        # the uint8 phases wrap mod 256, a multiple of 4
        xs, zs, es = np.array(
            [gen for _, _, gens in members for gen in gens], dtype=np.uint64
        ).reshape(rows, k, 3).transpose(2, 1, 0).copy()
        es = es.astype(np.uint8)  # a uint64 addend would cast every step
        # (2^k, rows), state r in column r; its indices carry r above the n
        # qubit bits, where no x reaches, so one flat scatter fills all rows
        idx = np.empty((size, rows), dtype=np.uint64)
        phase = np.empty((size, rows), dtype=np.uint8)
        masked = np.empty((size // 2, rows), dtype=np.uint64)
        idx[0] = [row << n | b for row, (_, b, _) in enumerate(members)]
        phase[0] = 0
        m = 1
        for j in range(k):
            low, reached = idx[:m], phase[m : 2 * m]
            np.bitwise_xor(low, xs[j], out=idx[m : 2 * m])
            np.bitwise_and(low, zs[j], out=masked[:m])
            np.bitwise_count(masked[:m], out=reached)
            reached <<= 1
            reached += phase[:m]
            reached += es[j]
            m *= 2
        dense = np.zeros((rows, 2**n), dtype=complex)
        dense.reshape(-1)[idx.reshape(-1)] = (_I_POWERS / np.sqrt(size))[phase.reshape(-1) & 3]
        for row, (pos, _, _) in enumerate(members):
            out[pos] = StateVector(n, dense[row])
    return out


def to_statevector(s: StabilizerState) -> StateVector:
    """Dense vector of one stabilizer state: a batch of one."""
    return to_statevectors([s])[0]


def densified(trials: int, per_item: int, draw: Callable) -> Iterator[tuple]:
    """Yield (rest, dense states) for `trials` calls of `draw`, in order.

    `draw()` returns (stabilizer states, rest) for one trial of `per_item`
    amplitudes in all.  A chunk of at most BATCH_AMPS amplitudes, or one
    trial when a trial alone is larger, is drawn whole and then made dense
    in one `to_statevectors` call, so a sampled check keeps its draw order
    without holding every trial at once.
    """
    step = max(1, BATCH_AMPS // per_item)
    for start in range(0, trials, step):
        drawn = [draw() for _ in range(min(step, trials - start))]
        dense = iter(to_statevectors([s for states, _ in drawn for s in states]))
        for states, rest in drawn:
            yield rest, [next(dense) for _ in states]


def _branches(v: StateVector, targets: Sequence[int], bras: Sequence) -> tuple[list, list]:
    """(probabilities, unnormalized post-states) of each bra on `targets`."""
    k = len(targets)
    flat = _front(v.amps, v.n, tuple(int(t) for t in targets))
    posts = [np.asarray(bra, dtype=complex).reshape(2**k).conj() @ flat for bra in bras]
    return [float(_norm(post) ** 2) for post in posts], posts


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
    if forced is not None:
        o = int(forced)
        if not 0 <= o < len(probs):
            raise ValueError(f"forced outcome {o} is not one of {len(probs)}")
    elif rng is None:
        raise ValueError("sampling an outcome needs an rng")
    else:
        # an impossible outcome adds 0 and so is never the first sum past x
        cum = list(accumulate(p if p >= _MIN_PROB else 0.0 for p in probs))
        x = rng.random() * cum[-1]
        last = max((i for i, p in enumerate(probs) if p >= _MIN_PROB), default=0)
        o = next((i for i, c in enumerate(cum[:last]) if c > x), last)
    if probs[o] < _MIN_PROB:
        raise ValueError(f"outcome {o} has (near) zero probability ({probs[o]:.3g})")
    return o, StateVector(v.n - len(targets), posts[o] / np.sqrt(probs[o])), probs[o]


def measure_shots(v: StateVector, steps: Sequence, rngs: Sequence) -> list:
    """Run the measurement sequence `steps` on v once per generator in `rngs`.

    Step i is a (targets, bras) pair measured on the post-state of step
    i - 1. Each shot draws from its own rng exactly as a chain of `measure`
    calls would, so it gets the same outcomes and post-state, and raises
    the same ValueError. The walk is breadth-first: shots that share an
    outcome prefix share one branch computation, and only the current
    level of the outcome tree is kept. Returns (outcomes, post-state) per
    rng, in order; shots with equal outcomes share one post-state.
    """
    level = {(): (v, list(range(len(rngs))))}
    for targets, bras in steps:
        nxt = {}
        for prefix, (state, shots) in level.items():
            probs, posts = _branches(state, targets, bras)
            # measure's cumulative sums, once per branch; they never fall, so
            # the first one past a draw is a bisection
            cum = list(accumulate(p if p >= _MIN_PROB else 0.0 for p in probs))
            last = max((i for i, p in enumerate(probs) if p >= _MIN_PROB), default=0)
            groups: dict = {}
            for i in shots:
                if rngs[i] is None:
                    raise ValueError("sampling an outcome needs an rng")
                o = bisect_right(cum, rngs[i].random() * cum[-1], 0, last)
                if probs[o] < _MIN_PROB:
                    raise ValueError(
                        f"outcome {o} has (near) zero probability ({probs[o]:.3g})"
                    )
                groups.setdefault(o, []).append(i)
            for o, group in groups.items():
                post = StateVector(state.n - len(targets), posts[o] / np.sqrt(probs[o]))
                nxt[prefix + (o,)] = (post, group)
        level = nxt
    leaf = {i: (prefix, state) for prefix, (state, shots) in level.items() for i in shots}
    return [leaf[i] for i in range(len(rngs))]
