"""Cat states over conjugate Pauli bases and shallow-circuit diagnostics.

The family lives on n qubits, and ``build(n, variant)`` computes a member's
statevector from those two values.  The ``plus`` member
(|0^n> + |+^n>) / sqrt(2a) with a = 1 + 2^{-n/2} superposes a Z-basis
product state with an X-basis product state; the ``minus`` member flips the
relative sign (normalizer b = 1 - 2^{-n/2}), and the ``i`` member
(|0^n> + i|+^n>) / sqrt(2) is exactly balanced.  The two branches act like distinct superselection sectors: any
nonempty Z-word and X-word each hold expectation near 1/2, yet their
correlations do not factorize, and the branch reductions onto small regions
stay far apart.  The witnesses below turn those facts into finite-size
diagnostics against preparing the plus state as (Clifford o shallow) or
(shallow o Clifford) circuits:

* ``crossterm_bound_check`` — cross terms <phi1|V|phi2> between the
  Clifford-rotated branches stay below 2^{a - n/2} for any ||V|| = 1
  supported on a qubits.
* ``cu_correlation_witness`` — branch stabilizers g, g' seeded at two
  qubits with disjoint forward cones show <gg'> far from <g><g'>, which a
  product-input shallow circuit could never produce.
* ``uc_sign_witness`` — the branch reductions onto a backward cone keep
  fidelity >= 2^{-|forward cone|/2} by data processing, so they cannot be
  made orthogonal by any shallow disentangler.

Each witness returns the zxcat suite's CheckReport for its check: one
scalar observed value against one bound, with the details in params.
"""

from __future__ import annotations

import math

import numpy as np

from . import _f2
from . import statevec as sv
from . import symplectic as sp
from .reports import CheckReport

_VARIANTS = ("plus", "minus", "i")
_ALIASES = {"i-phase": "i", "iphase": "i", "imag": "i"}


def build(n: int, variant: str = "plus") -> sv.StateVector:
    """Normalized statevector of a family member, 1 <= n <= max_qubits().

    The variant is case-insensitive; "i-phase", "iphase" and "imag" name "i".
    """
    if not 1 <= n <= sv.max_qubits():
        raise ValueError(f"n={n} outside [1, {sv.max_qubits()}]")
    v = str(variant).lower()
    v = _ALIASES.get(v, v)
    if v not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {_VARIANTS}")
    overlap = 2.0 ** (-n / 2.0)  # <0^n|+^n>
    amps = np.full(1 << n, overlap, dtype=np.complex128)
    if v == "plus":
        scale = math.sqrt(2.0 * (1.0 + overlap))
    elif v == "minus":
        amps, scale = -amps, math.sqrt(2.0 * (1.0 - overlap))
    else:
        amps, scale = 1j * amps, math.sqrt(2.0)
    amps[0] += 1.0
    return sv.StateVector(n, amps / scale)


def mi_asymptote() -> float:
    """Large-n limit of the two-qubit mutual information in the plus state.

    Closed form (3/4)log2(3) + 1 - sqrt(2) artanh(2 sqrt(2)/3) / (2 ln 2),
    evaluated at 30 significant digits and rounded to float (the tests pin
    the literal to that evaluation; the same formula in float arithmetic
    is 1e-15 off, from cancellation). Approximately 0.3905 bits, and
    strictly positive: distant qubits stay correlated no matter how large
    the system grows.
    """
    return 0.39047394892657933


def mi_numeric(n: int, pair=None) -> float:
    """Mutual information between two qubits of the n-qubit plus state.

    The state is permutation invariant, so the value is independent of the
    chosen pair; a second pair is cross-checked to 1e-9 as a guard.
    """
    if not 2 <= n <= sv.max_qubits():
        raise ValueError(f"n={n} outside [2, {sv.max_qubits()}]")
    if pair is None:
        pair = (0, 1)
    i, j = pair
    psi = build(n, "plus")
    val = sv.mutual_information(psi, (i,), (j,))
    if n >= 3:
        for alt in ((0, n - 1), (1, n - 1), (0, 1)):
            if set(alt) != {i, j}:
                other = sv.mutual_information(psi, (alt[0],), (alt[1],))
                if not abs(other - val) <= 1e-9:
                    raise AssertionError(f"pair symmetry violated: {other} vs {val}")
                break
    return val


def _random_bounded_hermitian(dim: int, rng) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to unit spectral norm."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (a + a.conj().T) / 2.0
    return herm / np.linalg.svd(herm, compute_uv=False).max()


def crossterm_bound_check(
    n: int = 10, seed: int = 0, trials: int = 500, max_support: int = 4
) -> CheckReport:
    """Check |<phi1|V|phi2>| <= 2^{a - n/2} over random Clifford branches.

    Each trial draws a random Clifford C, forms the rotated branches
    phi1 = C^dag|0^n> and phi2 = C^dag|+^n>, draws a random Hermitian V of
    unit spectral norm on a random support of size a <= top = min(max_support, n),
    and divides the cross term by the bound.  The report observes the worst
    ratio against 1 + 1e-9 min(1, 2^{n/2 - top}), a slack never looser than
    1e-9 in the ratio nor than 1e-9 in the cross term itself; `violations`
    counts the trials past it by the same rule.  The identity V reproduces
    |<phi1|phi2>| = 2^{-n/2} exactly, and its deviation is recorded too.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if max_support < 1:
        raise ValueError(f"need a support of at least one qubit, got {max_support}")
    top = min(max_support, n)
    bound = 1.0 + 1e-9 * min(1.0, 2.0 ** (n / 2.0 - top))
    rng = np.random.default_rng(seed)
    ratios, overlap_devs = [], []
    for _ in range(trials):
        # C^dag Z_q C and C^dag X_q C stabilize C^dag|0^n> and C^dag|+^n>
        adj = sp.random_clifford(n, rng).adjoint()
        s1 = sp.StabilizerState(n, adj.z_images)
        s2 = sp.StabilizerState(n, adj.x_images)
        v1 = sv.to_statevector(s1)
        v2 = sv.to_statevector(s2)
        overlap_devs.append(abs(abs(np.vdot(v1.amps, v2.amps)) - 2.0 ** (-n / 2.0)))
        a = int(rng.integers(1, top + 1))
        support = tuple(
            sorted(int(q) for q in rng.choice(n, size=a, replace=False))
        )
        v_op = _random_bounded_hermitian(1 << a, rng)
        moved = sv.matrix_action(v2.amps, n, support, v_op)
        ratios.append(abs(np.vdot(v1.amps, moved)) / 2.0 ** (a - n / 2.0))
    # np.max, not max: a NaN ratio must reach the verdict wherever it sits
    params = {
        "n": n, "seed": seed, "trials": trials, "max_support": max_support,
        "violations": sum(not ratio <= bound for ratio in ratios),
        "identity_overlap_dev": float(np.max(overlap_devs)),
    }
    return CheckReport("crossterm-bound", params, float(np.max(ratios)), bound)


def _incone_subgroup_masks(s1: sp.StabilizerState, cone: frozenset) -> list:
    """Basis of generator masks whose products are supported inside cone."""
    n = s1.n
    out = 0
    for q in range(n):
        if q not in cone:
            out |= 1 << q
    rows = [(g.x & out) | ((g.z & out) << n) for g in s1.generators]
    return _f2.left_kernel(rows)


def _best_incone_stabilizer(s1, cone, cmap, psi):
    """In-cone stabilizer of s1 maximizing the expectation in psi.

    Enumerates the in-cone subgroup (it is a subgroup: supports of products
    only shrink) when its dimension is at most 14, otherwise falls back to
    scanning the basis elements only. Returns (word, sign, value) with the
    expectation taken after conjugating by cmap, or None when only the
    identity is supported inside the cone.
    """
    basis = _incone_subgroup_masks(s1, cone)
    if not basis:
        return None
    if len(basis) <= 14:
        masks = []
        for combo in range(1, 1 << len(basis)):
            m = 0
            for j in range(len(basis)):
                if (combo >> j) & 1:
                    m ^= basis[j]
            masks.append(m)
    else:
        masks = list(basis)
    best = None
    for m in masks:
        element = s1.element(m)
        word, sign = element.word(), element.sign
        if word.x == 0 and word.z == 0:
            continue
        val = sign * sv.pauli_expectation(psi, cmap.conjugate(word))
        key = (val, -word.weight, -word.x, -word.z)
        if best is None or key > best[0]:
            best = (key, word, sign, val)
    if best is None:
        return None
    return best[1], best[2], best[3]


def cu_correlation_witness(
    n: int,
    cmap: sp.CliffordMap | None = None,
    circuit: sv.LayeredCircuit | None = None,
    qubits=None,
    gap_min: float = 0.1,
) -> CheckReport:
    """Correlation witness against plus = C (shallow circuit) |0^n>.

    Writes phi = C^dag psi and looks for stabilizers g, g' of the branch
    phi1 = C^dag|0^n> supported inside the forward cones of two seed qubits
    with disjoint cones. If the product form held, <gg'>_phi would equal
    <g>_phi <g'>_phi; instead all three expectations sit near 1/2 and the
    factorization gap stays at about 1/4.  The report observes
    max(gap_min - gap, max |<.> - 1/2| - 2^{1 - n/2}) against 0; the words,
    signs, expectations and both limits go into params.  Without an
    in-cone stabilizer at each seed (the usual case for a random C) the
    argument has no premise, and the witness raises ValueError.
    """
    psi = build(n, "plus")
    if cmap is None:
        cmap = sp.CliffordMap.identity(n)
    if circuit is None:
        circuit = sv.LayeredCircuit.identity(n)
    if cmap.n != n or circuit.n != n:
        raise ValueError("size mismatch")
    if qubits is None:
        cone_0 = sv.forward_cone(circuit, {0})
        cones = {j: sv.forward_cone(circuit, {j}) for j in range(n - 1, 0, -1)}
        far = [j for j, cone in cones.items() if not cone_0 & cone]
        if not far:
            raise ValueError("no seed pair with disjoint forward cones")
        qubits = (0, far[0])
    i, j = qubits
    cone_i = sv.forward_cone(circuit, {i})
    cone_j = sv.forward_cone(circuit, {j})
    if cone_i & cone_j:
        raise ValueError("forward cones of the seed qubits overlap")

    s1 = sp.apply_clifford(cmap.adjoint(), sp.StabilizerState.zero_state(n))
    gi = _best_incone_stabilizer(s1, cone_i, cmap, psi)
    gj = _best_incone_stabilizer(s1, cone_j, cmap, psi)
    if gi is None or gj is None:
        raise ValueError(
            "no stabilizer of C^dag|0^n> inside a seed's forward cone; "
            "the witness does not apply"
        )
    wi, si, vi = gi
    wj, sj, vj = gj
    prod = wi * wj
    if prod.x == 0 and prod.z == 0:
        raise ValueError("degenerate witness: g and g' coincide")
    vp = si * sj * prod.sign * sv.pauli_expectation(
        psi, cmap.conjugate(prod.word())
    )
    gap = abs(vp - vi * vj)
    dev_limit = 2.0 ** (1 - n / 2.0)
    # np.max, not max: a NaN expectation must reach the verdict wherever it sits
    max_dev = float(np.max([abs(vi - 0.5), abs(vj - 0.5), abs(vp - 0.5)]))
    params = {
        "n": n, "gap": gap, "max_half_dev": max_dev, "qubits": [int(i), int(j)],
        "depth": circuit.depth, "gap_min": gap_min, "half_dev_limit": dev_limit,
        "g": wi.to_text(), "g_sign": si, "g_expect": vi,
        "gp": wj.to_text(), "gp_sign": sj, "gp_expect": vj, "gg_expect": vp,
    }
    violation = float(np.max([gap_min - gap, max_dev - dev_limit]))
    return CheckReport("cu-correlation-witness", params, violation, 0.0)


def uc_sign_witness(
    n: int, circuit: sv.LayeredCircuit | None = None, qubit=None
) -> CheckReport:
    """Fidelity witness against plus = (shallow circuit) Clifford |0^n>.

    Rotates both branches back through the circuit, phi1 = U^dag|0^n> and
    phi2 = U^dag|+^n>, reduces them onto the backward cone B of a seed
    qubit, and checks the data-processing bound
    F(rho1, rho2) >= 2^{-|forward cone of B|/2}. The seed is paired with a
    second qubit whose forward-of-backward cone is disjoint (raises when
    the depth makes that impossible).  The report observes the larger
    shortfall bound - fidelity of the two sides against 1e-9; fidelities,
    cone sizes and bounds of both sides go into params.
    """
    if circuit is None:
        circuit = sv.LayeredCircuit.identity(n)
    if circuit.n != n:
        raise ValueError("size mismatch")
    cones = {}

    def fb(q):
        if q not in cones:
            b = sv.backward_cone(circuit, {q})
            cones[q] = (b, sv.forward_cone(circuit, b))
        return cones[q]

    pair = None
    first = range(n) if qubit is None else (qubit,)
    for i in first:
        for j in range(n - 1, -1, -1):
            if j != i and not fb(i)[1] & fb(j)[1]:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise ValueError("no qubit pair with disjoint forward-of-backward cones")
    adjoint = circuit.adjoint()
    phi1 = sv.apply_circuit(adjoint, sv.StateVector.basis_state(n, 0))
    phi2 = sv.apply_circuit(adjoint, sv.StateVector.uniform_plus(n))
    params = {"n": n, "depth": circuit.depth}
    for label, q in zip("ij", pair):
        b_cone, f_cone = fb(q)
        rho1 = sv.reduced_density(phi1, b_cone)
        rho2 = sv.reduced_density(phi2, b_cone)
        params[f"qubit_{label}"] = int(q)
        params[f"cone_size_{label}"] = len(f_cone)
        params[f"fidelity_{label}"] = sv.fidelity(rho1, rho2)
        params[f"dpi_{label}"] = 2.0 ** (-len(f_cone) / 2.0)
    params["fidelity_product"] = params["fidelity_i"] * params["fidelity_j"]
    # np.max, not max: a NaN fidelity must reach the verdict wherever it sits
    shortfall = np.max([params[f"dpi_{k}"] - params[f"fidelity_{k}"] for k in "ij"])
    return CheckReport("uc-sign-witness", params, float(shortfall), 1e-9)
