"""Output checks for the benchmark workloads.

Every check either recomputes its reference apart from magiclab (plain numpy
partial traces, mpmath closed forms, hand-written exact Horner evaluation) or
tests a property the method must have.  A failed check raises CheckFailed.
No check is an ``assert``: the library's own asserts vanish under
``python -O``, and these must not.

The checks take plain values (report dicts, numpy arrays, Fractions), so the
tests can feed them deliberately wrong results without running magiclab.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np


class CheckFailed(Exception):
    """A program output failed one of the benchmark's checks."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


_DPS = 50


def _mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


def _close(got, want, rel) -> bool:
    """Relative agreement at 50 digits; a zero reference demands an exact zero."""
    with mpmath.workdps(_DPS):
        got, want = _mpf(got), _mpf(want)
        if want == 0:
            return got == 0
        return abs(got - want) <= _mpf(rel) * abs(want)


# -- suite-seeds --------------------------------------------------------------

# The named checks each suite must yield, in order.  This is the suites'
# specification (one CheckReport per named check), not a copy of their numbers.
SUITE_CHECKS = {
    "symplectic": (
        "zero-plus-overlap", "overlap-vs-dense", "sandwich-vs-dense",
        "clifford-roundtrip", "product-associativity",
    ),
    "zxcat": (
        "mi-asymptote", "mi-near-asymptote", "crossterm-bound",
        "cu-correlation-witness", "uc-sign-witness",
    ),
    "agsp": (
        "step-error", "coefficient-mass-identity", "operator-vs-step",
        "depth-threshold-growth", "indist-word-ratio", "indist-random-hermitian",
    ),
    "prep": (
        "sandwich-overlap", "global-clifford-certificate",
        "adaptive-success-probability", "adaptive-sampled-rate",
        "adaptive-collapse-fidelity", "mps-overlap", "bell-accepted-fidelity",
    ),
    "modular": (
        "s-squared-identity", "st-cubed-relation", "genus-two-dimension",
        "lpu-search-identity-only", "off-pattern-moduli", "scalar-rigidity",
    ),
    "glue": ("premises", "conclusions", "middle-factor-purity", "petz-matches-unitary"),
}


def check_suite_reports(suite: str, reports: list) -> None:
    """Full set of named checks; every report passes by its own recomputed verdict."""
    names = tuple(r["check"] for r in reports)
    require(
        names == SUITE_CHECKS[suite],
        f"{suite}: checks {names} differ from {SUITE_CHECKS[suite]}",
    )
    for r in reports:
        label = f"{suite}/{r['check']}"
        require(r["pass"] is True, f"{label} failed: observed {r['observed']}, bound {r['bound']}")
        if r["bound"] is not None:
            require(
                r["pass"] == (r["observed"] <= r["bound"]),
                f"{label}: verdict {r['pass']} but observed {r['observed']}, bound {r['bound']}",
            )


def without_runtime(reports: list) -> list:
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports]


def check_rerun(suite: str, seed: int, first: list, again: list) -> None:
    """A (suite, seed) pair computed twice gives the same reports but for runtime_ms."""
    require(
        without_runtime(first) == without_runtime(again),
        f"{suite} at seed {seed}: rerun reports differ beyond runtime_ms",
    )


# -- glue-petz ----------------------------------------------------------------

def block_qubits(sizes) -> dict:
    """Qubits of the regions ABC and BCD; blocks A | B1 | B2 | C1 | C2 | D, low bits first."""
    a, d, n = sizes[0], sizes[-1], sum(sizes)
    return {
        "ABC": tuple(range(0, n - d)),
        "BCD": tuple(range(a, n)),
    }


def partial_trace(amps: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the qubits in `keep`.

    Qubit q is bit q of the amplitude index, so it is axis n-1-q of the
    (2,)*n tensor.  The traced axes are contracted against the conjugate.
    """
    n = int(amps.size).bit_length() - 1
    psi = np.asarray(amps).reshape((2,) * n)
    kept = [n - 1 - q for q in sorted(keep, reverse=True)]
    traced = [ax for ax in range(n) if ax not in kept]
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    dim = 2 ** len(kept)
    return rho.reshape(dim, dim)


def check_glue(sizes, psi, psi_prime, glued, rho_petz) -> None:
    """Glued marginals match both inputs; the Petz output is |glued><glued|, a state."""
    blocks = block_qubits(sizes)
    for region, source, label in (("ABC", psi, "psi"), ("BCD", psi_prime, "psi'")):
        dev = np.abs(
            partial_trace(glued, blocks[region]) - partial_trace(source, blocks[region])
        ).max()
        require(dev <= 1e-8, f"{sizes}: glued {region} marginal misses {label} by {dev:.3e}")
    proj = np.outer(glued, np.conj(glued))
    dev = np.abs(rho_petz - proj).max()
    require(dev <= 1e-7, f"{sizes}: Petz output misses |glued><glued| by {dev:.3e}")
    trace_dev = abs(np.trace(rho_petz) - 1.0)
    require(trace_dev <= 1e-9, f"{sizes}: Petz output trace off by {trace_dev:.3e}")
    herm_dev = np.abs(rho_petz - rho_petz.conj().T).max()
    require(herm_dev <= 1e-9, f"{sizes}: Petz output not Hermitian ({herm_dev:.3e})")
    low = np.linalg.eigvalsh(rho_petz).min()
    require(low >= -1e-9, f"{sizes}: Petz output has eigenvalue {low:.3e}")


# -- exact-sweep --------------------------------------------------------------

def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def step_reference(n: int, m: int, x):
    """T_m((n+1-2x)/(n-1)) / T_m((n+1)/(n-1)) in 50-digit mpmath."""
    with mpmath.workdps(_DPS):
        y = mpmath.mpf(n + 1 - 2 * x) / (n - 1)
        y0 = mpmath.mpf(n + 1) / (n - 1)
        return mpmath.chebyt(m, y) / mpmath.chebyt(m, y0)


def check_agsp_cell(n, m, coeffs, sup, coeff_total, p_minus_n, points) -> None:
    """P(0) = 1, the sup bound, and P against mpmath at `points` and at -n."""
    require(len(coeffs) == m + 1, f"({n}, {m}): {len(coeffs)} coefficients for degree {m}")
    require(
        isinstance(coeffs[0], Fraction) and coeffs[0] == 1,
        f"({n}, {m}): P(0) = {coeffs[0]!r}, not exactly 1",
    )
    bound = 2.0 * math.exp(-2.0 * m / math.sqrt(n))
    require(sup <= bound, f"({n}, {m}): sup error {sup:.3e} above 2 exp(-2m/sqrt n) = {bound:.3e}")
    # |T_m| <= 1 on the image of [1, n], with equality at x = 1, so the sup
    # over the excited spectrum is |P(1)|.
    require(
        _close(sup, abs(step_reference(n, m, 1)), 1e-9),
        f"({n}, {m}): sup error {sup!r} is not |P(1)|",
    )
    for x in points:
        got = horner(coeffs, Fraction(x))
        want = step_reference(n, m, x)
        require(_close(got, want, 1e-9),
                f"({n}, {m}): P({x}) = {float(got)!r}, mpmath gives {want}")
    at_minus_n = abs(step_reference(n, m, -n))
    for label, value in (("coefficient mass", coeff_total), ("|P(-n)|", p_minus_n)):
        require(
            _close(value, at_minus_n, 1e-9),
            f"({n}, {m}): {label} {value!r}, mpmath |P(-n)| = {at_minus_n}",
        )


def verlinde_reference(genus: int):
    """sum_i (D/d_i)^(2g-2) for dims (1, phi, phi, phi^2), 50-digit mpmath."""
    with mpmath.workdps(_DPS):
        phi = (1 + mpmath.sqrt(5)) / 2
        dims = (mpmath.mpf(1), phi, phi, phi**2)
        d_sq = sum(d**2 for d in dims)
        return sum((d_sq / d**2) ** (genus - 1) for d in dims)


def check_verlinde(genus: int, a: Fraction, b: Fraction) -> None:
    """The golden number a + b*phi is an integer dimension equal to the mpmath sum."""
    require(b == 0 and Fraction(a).denominator == 1,
            f"genus {genus}: dimension {a} + {b} phi is not an integer")
    exact = {1: 4, 2: 25}.get(genus)
    require(exact is None or a == exact, f"genus {genus}: dimension {a}, expected {exact}")
    require(_close(a, verlinde_reference(genus), Fraction(1, 10**40)),
            f"genus {genus}: dimension {a} disagrees with mpmath")


def check_lpu(candidates) -> None:
    """The monomial-gate search leaves the identity gate alone: (perm, phases) pairs."""
    require(len(candidates) == 1, f"lpu_search returned {len(candidates)} gates, expected 1")
    perm, phases = candidates[0]
    k = len(perm)
    require(tuple(perm) == tuple(range(k)), f"surviving gate permutes labels: {perm}")
    require(all(abs(z - 1.0) <= 1e-12 for z in phases), f"surviving gate has phases {phases}")
