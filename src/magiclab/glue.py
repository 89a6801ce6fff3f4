"""Gluing two overlapping pure states with a single local unitary.

Two pure states psi and psi' on four blocks A|B|C|D can be merged into one
state that looks like psi on ABC and like psi' on BCD, provided they agree
on BC, neither state correlates its far end with the overlap's far side
(I(A,CD) of psi and I(AB,D) of psi' both vanish), and the D marginals
carry the same entropy.  The merge is a unitary acting on A alone.

The generator here builds such pairs from three random pure factors on
A.B1 / B2.C1 / C2.D (B and C each split in half internally), hides the
factor structure behind random unitaries on B and on C, and plants local
rotations on A and on D so the two states differ while the premises stay
exact.  `glue_states` reconstructs the matching unitary from the states
alone; `petz_glue` realizes the same merge as a recovery map built from
the AB marginal.  Every marginal here, in the premises, the conclusions
and the recovery map, is a bare array from statevec's Gram kernel
`reduced_density`.
"""

from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    Gate,
    StateVector,
    _hermitian_defect,
    _sqrt_psd,
    apply_gate,
    entanglement_entropy,
    haar_unitary,
    max_qubits,
    mutual_information,
    reduced_density,
)

_SUB_BLOCKS = ("A", "B1", "B2", "C1", "C2", "D")

# the bound on each gluing conclusion, for glue_states and the conclusions check
CONCLUSION_TOL = 1e-8


class PremiseViolation(ValueError):
    """An input pair fails one of the gluing premises."""


@dataclass(frozen=True)
class Partition:
    """Six contiguous qubit blocks A | B1 | B2 | C1 | C2 | D, low bits first."""

    sizes: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) != 6:
            raise ValueError("need six block sizes: A, B1, B2, C1, C2, D")
        if any(s < 1 for s in sizes):
            raise ValueError("every block needs at least one qubit")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def qubits(self, *names: str) -> tuple[int, ...]:
        """Sorted qubit indices of the union of the named blocks.

        Accepts the six sub-blocks plus the composites "B" = B1 B2 and
        "C" = C1 C2.
        """
        spans = {}
        start = 0
        for label, size in zip(_SUB_BLOCKS, self.sizes):
            spans[label] = range(start, start + size)
            start += size
        spans["B"] = range(spans["B1"].start, spans["B2"].stop)
        spans["C"] = range(spans["C1"].start, spans["C2"].stop)
        picked = set()
        for name in names:
            if name not in spans:
                raise KeyError(f"unknown block {name!r}")
            picked.update(spans[name])
        return tuple(sorted(picked))


@dataclass(frozen=True)
class GluableInstance:
    """A pair of states on a common partition, ready to be glued.

    `planted_a` / `planted_d` record the local rotations the generator
    used to make the two states differ (None for hand-built pairs).
    Building an instance checks the premises: a pair that fails one
    raises PremiseViolation, and `residuals` holds what `check_premises`
    returned for a pair that passes.
    """

    partition: Partition
    psi: StateVector
    psi_prime: StateVector
    planted_a: np.ndarray | None = None
    planted_d: np.ndarray | None = None
    residuals: dict = field(init=False)

    def __post_init__(self):
        if self.psi.n != self.partition.n or self.psi_prime.n != self.partition.n:
            raise ValueError("states must live on the partition's qubits")
        object.__setattr__(self, "residuals", check_premises(self))


def _random_factor(qubits: int, rng, product: bool) -> np.ndarray:
    """Haar-like pure state on `qubits` qubits; product of singles on request."""
    if product:
        vec = np.ones(1, dtype=complex)
        for _ in range(qubits):
            single = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec = np.kron(single / np.linalg.norm(single), vec)
        return vec
    vec = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return vec / np.linalg.norm(vec)


def generate_gluable_instance(
    sizes, seed: int = 0, product: bool = False
) -> GluableInstance:
    """Random instance whose premises hold by construction.

    Both states share the middle B2.C1 factor; they differ by a rotation
    on A (hidden inside the A.B1 factor) and one on D (inside C2.D), so
    the BC marginals and the D entropy match exactly.  Random unitaries
    on B and on C then hide the factor cuts.  With `product=True` every
    factor is itself a product of single-qubit states.
    """
    part = Partition(tuple(sizes))
    if part.n > max_qubits():
        raise ValueError(f"{part.n} qubits exceeds the dense cap of {max_qubits()}")
    a, b1, b2, c1, c2, d = part.sizes
    rng = np.random.default_rng(seed)
    f_ab1 = _random_factor(a + b1, rng, product)
    f_mid = _random_factor(b2 + c1, rng, product)
    f_c2d = _random_factor(c2 + d, rng, product)
    w_a = haar_unitary(2**a, rng)
    w_d = haar_unitary(2**d, rng)
    g_ab1 = np.kron(np.eye(2**b1), w_a) @ f_ab1
    g_c2d = np.kron(w_d, np.eye(2**c2)) @ f_c2d
    hide_b = Gate(part.qubits("B"), haar_unitary(2 ** (b1 + b2), rng))
    hide_c = Gate(part.qubits("C"), haar_unitary(2 ** (c1 + c2), rng))

    def assemble(left, right):
        amps = np.kron(right, np.kron(f_mid, left))
        return apply_gate(apply_gate(StateVector(part.n, amps), hide_b), hide_c)

    return GluableInstance(
        partition=part,
        psi=assemble(f_ab1, f_c2d),
        psi_prime=assemble(g_ab1, g_c2d),
        planted_a=w_a,
        planted_d=w_d,
    )


def check_premises(
    inst: GluableInstance, tol: float = 1e-8, mi_tol: float = 1e-8
) -> dict:
    """Evaluate the three gluing premises and return their residuals.

    Raises PremiseViolation naming the first premise that fails: equal BC
    marginals, equal D entropies, then the two vanishing mutual
    informations (`tol` for the equalities, `mi_tol` bits for the MIs).
    A NaN residual fails its premise.  Every GluableInstance runs this
    when it is built, so an instance in hand has passed it.  The marginals
    and entropies read statevec's Gram kernel (`reduced_density`).
    """
    part = inst.partition
    bc = part.qubits("B", "C")
    bc_dev = float(
        np.abs(reduced_density(inst.psi, bc) - reduced_density(inst.psi_prime, bc)).max()
    )
    d_block = part.qubits("D")
    d_dev = abs(
        entanglement_entropy(inst.psi, d_block)
        - entanglement_entropy(inst.psi_prime, d_block)
    )
    mi_a_cd = mutual_information(inst.psi, part.qubits("A"), part.qubits("C", "D"))
    mi_ab_d = mutual_information(inst.psi_prime, part.qubits("A", "B"), d_block)
    residuals = {
        "bc_marginal": bc_dev,
        "d_entropy": float(d_dev),
        "mi_a_cd": float(mi_a_cd),
        "mi_ab_d": float(mi_ab_d),
    }
    if not bc_dev <= tol:
        raise PremiseViolation(f"BC marginals differ by {bc_dev:.3e}")
    if not d_dev <= tol:
        raise PremiseViolation(f"D entropies differ by {d_dev:.3e} bits")
    if not mi_a_cd <= mi_tol:
        raise PremiseViolation(
            f"first state correlates A with CD: I = {mi_a_cd:.3e} bits"
        )
    if not mi_ab_d <= mi_tol:
        raise PremiseViolation(
            f"second state correlates AB with D: I = {mi_ab_d:.3e} bits"
        )
    return residuals


def shared_factor_entropy(inst: GluableInstance) -> float:
    """Entropy surplus S(BC) - S(A) - S(D) of the first state, in bits.

    Under the premises this equals the entropy of the hidden middle
    factor straddling the B|C cut, so it vanishes exactly when that
    factor is pure -- which the gluing argument forces.  S(BC) is taken
    as S(AD), the smaller side of that cut of the pure state.
    """
    part = inst.partition
    s_bc = entanglement_entropy(inst.psi, part.qubits("B", "C"))
    s_a = entanglement_entropy(inst.psi, part.qubits("A"))
    s_d = entanglement_entropy(inst.psi, part.qubits("D"))
    return s_bc - s_a - s_d


def matching_unitary(inst: GluableInstance, attempts: int = 16) -> np.ndarray:
    """Unitary on A aligning psi' with psi, from the states alone.

    Contracts everything but A out of |psi><psi'| and takes the unitary
    factor of the polar decomposition.  The contraction has rank at most r,
    psi's Schmidt rank across A (read from its singular values with a 1e-12
    relative cutoff; r < 2^|A| whenever |A| > |B1|), so health means
    sigma_{r-1}/sigma_0 > 1e-6.  It can still be accidentally singular when
    the two C2.D factors happen to be near-orthogonal; a seeded rotation on
    D (which commutes with the trace and so changes nothing but the
    conditioning) is retried until the spectrum is healthy.
    """
    part = inst.partition
    dim_a = 2 ** part.sizes[0]
    base = inst.psi.amps.reshape(-1, dim_a)
    schmidt = np.linalg.svd(base, compute_uv=False)
    rank = int(np.count_nonzero(schmidt > 1e-12 * schmidt[0]))
    d_block = part.qubits("D")
    rng = np.random.default_rng(181)
    best = None
    for attempt in range(attempts):
        ref = inst.psi_prime
        if attempt:
            ref = apply_gate(ref, Gate(d_block, haar_unitary(2 ** len(d_block), rng)))
        overlap = base.T @ ref.amps.reshape(-1, dim_a).conj()
        u, sing, vh = np.linalg.svd(overlap)
        ratio = sing[rank - 1] / sing[0] if sing[0] > 0 else 0.0
        if ratio > 1e-6:
            return u @ vh
        if best is None or ratio > best[0]:
            best = (ratio, u @ vh)
    return best[1]


def conclusions(inst: GluableInstance, glued: StateVector) -> dict:
    """Residuals of the four gluing conclusions for a merged state.

    The ABC marginal against psi and the BCD marginal against psi'
    (max-entry deviations of statevec's Gram kernel `reduced_density`), plus
    I(A,CD) and I(AB,D) of the merged state in bits; all four vanish for
    a correct merge.
    """
    part = inst.partition
    abc = part.qubits("A", "B", "C")
    bcd = part.qubits("B", "C", "D")
    return {
        "abc_marginal": float(
            np.abs(reduced_density(glued, abc) - reduced_density(inst.psi, abc)).max()
        ),
        "bcd_marginal": float(
            np.abs(reduced_density(glued, bcd) - reduced_density(inst.psi_prime, bcd)).max()
        ),
        "mi_a_cd": mutual_information(glued, part.qubits("A"), part.qubits("C", "D")),
        "mi_ab_d": mutual_information(glued, part.qubits("A", "B"), part.qubits("D")),
    }


def merge(inst: GluableInstance) -> tuple[StateVector, dict]:
    """The merged state and its four conclusion residuals.

    Builds the matching unitary on A (the premises were checked when the
    instance was built) and applies it to psi'; the residuals are
    returned, not compared to a tolerance.
    """
    u_a = matching_unitary(inst)
    glued = apply_gate(inst.psi_prime, Gate(inst.partition.qubits("A"), u_a))
    return glued, conclusions(inst, glued)


def glue_states(inst: GluableInstance) -> StateVector:
    """Merge the pair into one state matching psi on ABC and psi' on BCD.

    Raises AssertionError when any of the four conclusions misses by more
    than CONCLUSION_TOL or is NaN.
    """
    glued, residuals = merge(inst)
    for name, residual in residuals.items():
        if not residual <= CONCLUSION_TOL:
            raise AssertionError(f"merged state misses {name} by {residual:.3e}")
    return glued


def _invsqrt_psd(mat: np.ndarray, cutoff: float) -> np.ndarray:
    """Pseudo-inverse square root; eigenvalues below `cutoff` are dropped."""
    w, u = np.linalg.eigh(mat)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (u * inv) @ u.conj().T


def petz_glue(inst: GluableInstance, cutoff: float = 1e-10) -> np.ndarray:
    """Merge via the recovery map built from psi's AB marginal.

    The map sends an operator rho on BCD to
    S (I_A x rho) S*  with  S = psi_AB^(1/2) psi_B^(-1/2), acting as the
    identity on CD; psi_AB and psi_B come from statevec's Gram kernel
    `reduced_density`.  It is applied in factored form: a pure state's BCD
    marginal is Phi Phi* with Phi = amps.reshape(-1, dim_A), so the lifted
    input is F F* with F = Phi x I_A, and the output is W W* with the
    2^n x dim_A^2 factor W = (I_CD x S) F, one contraction of S with Phi on
    the AB axes.  No 2^n x 2^n matrix is formed before the returned one.

    Feeding the map psi's own BCD marginal must reproduce |psi><psi|: the
    exact trace norm of W W* - |psi><psi| is checked to 1e-7, from a QR
    of [W, psi] and a (dim_A^2 + 1)-square eigenproblem.  Feeding it psi's
    partner marginal yields the merged state, returned as the dense 2^n x
    2^n density matrix W W*; its unit trace and its spectrum are read from
    the dim_A^2-square Gram matrix W* W, which has the same nonzero
    eigenvalues, and the returned matrix is checked Hermitian tile by tile
    (statevec's `_hermitian_defect`).  The premises were checked when the
    instance was built.
    """
    part = inst.partition
    dim_a = 2 ** part.sizes[0]
    dim_b = 2 ** (part.sizes[1] + part.sizes[2])
    rho_ab = reduced_density(inst.psi, part.qubits("A", "B"))
    rho_b = reduced_density(inst.psi, part.qubits("B"))
    lift = _sqrt_psd(rho_ab) @ np.kron(_invsqrt_psd(rho_b, cutoff), np.eye(dim_a))
    # lift[b, a, b', a'] maps (b', a') to (b, a); A is the low-bit block
    lift = lift.reshape(dim_b, dim_a, dim_b, dim_a)

    def factor(state: StateVector) -> np.ndarray:
        phi = state.amps.reshape(-1, dim_b, dim_a)
        w = np.einsum("bazx,czk->cbakx", lift, phi)
        return w.reshape(2**part.n, dim_a * dim_a)

    # W W* - psi psi* = M J M* with M = [W, psi] = Q R, J = diag(1, .., 1, -1);
    # Q is an isometry, so the trace norm is that of R J R*
    w_psi = factor(inst.psi)
    r = np.linalg.qr(np.column_stack([w_psi, inst.psi.amps]), mode="r")
    signs = np.ones(r.shape[1])
    signs[-1] = -1.0
    gap = np.abs(np.linalg.eigvalsh((r * signs) @ r.conj().T)).sum()
    if not gap <= 1e-7:
        raise AssertionError(
            f"recovery map misses the source state by {gap:.3e} in trace norm"
        )
    w = factor(inst.psi_prime)
    gram = w.conj().T @ w
    if not abs(np.trace(gram).real - 1.0) <= 1e-9:
        raise AssertionError("recovered state must be normalized")
    out = w @ w.conj().T
    if not _hermitian_defect(out) <= 1e-9:
        raise AssertionError("recovered state must be Hermitian")
    if not np.linalg.eigvalsh(gram).min() >= -1e-9:
        raise AssertionError("recovered state must be positive semidefinite")
    return out
