"""Chebyshev approximate ground-state projectors and depth lower bounds.

``build_polynomial(n, m)`` produces the degree-m polynomial
P(x) = T_m((n+1-2x)/(n-1)) / T_m((n+1)/(n-1)) with exact rational
coefficients.  P mimics the step function that projects onto the
zero-eigenvalue ground space of G = sum_i |1><1|_i: P(0) = 1 exactly while
|P(x)| <= 2 exp(-2m/sqrt(n)) throughout [1, n].  All of its roots are
positive, so the coefficients alternate in sign and the coefficient-mass
identity sum_k |a_k| n^k = |P(-n)| holds exactly in rational arithmetic.

The exact layer runs in Python ints.  u_k(x) = (n-1)^k T_k((n+1-2x)/(n-1))
has integer coefficients by the recurrence u_0 = 1, u_1 = n+1-2x,
u_{k+1} = 2(n+1-2x) u_k - (n-1)^2 u_{k-1}, and P = u_m / u_m(0).  The
polynomial is held as integer numerators over one positive common
denominator, so an evaluation is Horner on integers with a single division
at the end, instead of a gcd in every Fraction operation.  The step-error
sup over the excited spectrum 1..n is exact too: in the centred variable
s = 2x - (n+1) the grid is symmetric, so one Horner pass in s^2 over the
n/2 points s >= 0 yields every grid value, on object arrays of Python ints.

These facts feed two depth diagnostics for states that look like
approximate code states (orthogonal, yet locally indistinguishable up to
epsilon on every region smaller than d):

* ``complexity_bound`` — the bits-style lower bound
  log2(d / max{n(delta + epsilon), 1}) on the depth needed to reach the
  state within trace error delta, plus the projector-based integer depth
  threshold (smallest depth not excluded by the overlap ceiling
  1/2 + exp(-n^alpha / 2^t), with the hidden constant set to 1 — a
  reporting convention, flagged as such).
* ``indist_words`` and ``indist_random`` — direct verification that the
  plus/minus cat pair is locally indistinguishable at rate 2^{a - n/2} on
  supports of size a, over every Pauli word and over random Hermitian V.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import statevec as sv
from . import symplectic as sp
from . import zxcat

_XYZ_BITS = ((1, 0), (1, 1), (0, 1))  # (x, z) bits of X, Y, Z


def chebyshev(m: int, x) -> float:
    """Degree-m Chebyshev polynomial of the first kind, evaluated stably.

    Uses the cosine form on [-1, 1], the cosh form for x > 1, and the
    parity rule T_m(-x) = (-1)^m T_m(x) below -1, so no recurrence is run
    in floating point.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    x = float(x)
    if abs(x) <= 1.0:
        return math.cos(m * math.acos(x))
    if x > 1.0:
        return math.cosh(m * math.acosh(x))
    val = math.cosh(m * math.acosh(-x))
    return -val if m % 2 else val


@dataclass(frozen=True)
class AgspPolynomial:
    """Step-function approximant; ``coeffs`` equal ``numerators`` / ``denominator``."""

    n: int
    m: int
    coeffs: tuple
    numerators: tuple = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.m + 1 or coeffs[-1] == 0:
            raise ValueError("degree mismatch")
        if coeffs[0] != 1:
            raise ValueError("P(0) must equal 1 exactly")
        for k, a in enumerate(coeffs):
            if a == 0 or (a > 0) != (k % 2 == 0):
                raise ValueError("coefficient signs must alternate")
        # Python ints throughout: an object-array Horner over numpy
        # integers would wrap silently
        den = math.lcm(*(int(a.denominator) for a in coeffs))
        nums = tuple(int(a.numerator) * (den // int(a.denominator)) for a in coeffs)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "numerators", nums)

    def numerator_at(self, p, q: int = 1):
        """q^m Q(p/q), by homogeneous Horner in integers.

        ``p`` is an int or an object array of Python ints; an array is
        evaluated elementwise in one pass, exactly, with ``q`` shared.
        """
        acc, scale = 0, 1
        for a in reversed(self.numerators):
            acc = acc * p + a * scale
            scale *= q
        return acc

    def evaluate(self, x) -> Fraction:
        """Exact value P(x) at a rational point."""
        x = Fraction(x)
        q = x.denominator
        return Fraction(self.numerator_at(x.numerator, q), self.denominator * q**self.m)

    def error_bound(self) -> float:
        """The guaranteed sup bound 2 exp(-2m/sqrt(n)) on [1, n]."""
        return 2.0 * math.exp(-2.0 * self.m / math.sqrt(self.n))


def build_polynomial(n: int, m: int) -> AgspPolynomial:
    """Compose the affine spectral map into the Chebyshev recurrence.

    Runs the integer recurrence for u_k = (n-1)^k T_k((n+1-2x)/(n-1)) (see
    the module docstring) and returns P = u_m / u_m(0). Exact throughout:
    float coefficient extraction is badly conditioned already at moderate
    degree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    sq = (n - 1) ** 2
    prev, cur = [1], [n + 1, -2]
    for _ in range(m - 1):
        nxt = zip(cur + [0], [0] + cur, prev + [0, 0])
        prev, cur = cur, [2 * (n + 1) * a - 4 * b - sq * c for a, b, c in nxt]
    return AgspPolynomial(n, m, tuple(Fraction(c, cur[0]) for c in cur))


def _centred_numerators(poly: AgspPolynomial) -> list:
    """Integer coefficients of 2^m Q((s + n + 1) / 2) in s, lowest first.

    Q has coefficients ``poly.numerators``; numerator k is scaled by
    2^(m-k) and the result composed with s + n + 1 by Horner, in O(m^2)
    int operations.
    """
    m, shift = poly.m, poly.n + 1
    cs = []
    for k in range(m, -1, -1):
        cs = [shift * a + b for a, b in zip(cs + [0], [0] + cs)]
        cs[0] += poly.numerators[k] << (m - k)
    return cs


def _horner(coeffs, t):
    acc = 0
    for a in reversed(coeffs):
        acc = acc * t + a
    return acc


def _grid_max(poly: AgspPolynomial) -> int:
    """max |Q(x)| over x in {1..n}, exactly, on the centred half-grid."""
    cs = _centred_numerators(poly)
    even, odd = cs[0::2], cs[1::2]
    s = np.arange((poly.n - 1) % 2, poly.n, 2, dtype=object)
    t = s * s
    if not any(odd):
        vals = (_horner(even, t),)
    elif not any(even):
        vals = (s * _horner(odd, t),)
    else:
        e, so = _horner(even, t), s * _horner(odd, t)
        vals = (e + so, e - so)
    # every value is 2^m Q(x) with Q(x) an int, so the shift is exact
    return max(np.abs(v).max() for v in vals) >> poly.m


def step_error_sup(poly: AgspPolynomial) -> float:
    """Max |P(x)| over the excited spectrum x in {1..n}.

    The affine map sends [1, n] onto [-1, 1] where |T_m| <= 1, so the
    continuous sup over the whole interval is attained at x = 1 and the
    integer grid already captures it. The grid is evaluated exactly in the
    centred variable s = 2x - (n+1), where it is s = +-(n-1), +-(n-3), ...:
    the centred numerators 2^m Q((s+n+1)/2) split as E(s^2) + s O(s^2), and
    one Horner pass in s^2 over the points s >= 0 gives 2^m Q at x as
    E + sO and at n+1-x as E - sO. A half whose coefficients are all zero
    is exactly the zero polynomial, so skipping it drops no value; T_m has
    parity, so one half vanishes for a built polynomial. Every grid point
    is evaluated: |P(x)| = |P(n+1-x)| holds only for correct coefficients
    and is not assumed. Asserts the 2 exp(-2m/sqrt(n)) bound.
    """
    val = float(Fraction(_grid_max(poly), poly.denominator))
    if not val <= poly.error_bound() + 1e-15:
        raise AssertionError(
            f"step-error bound violated at n={poly.n}, m={poly.m}: sup {val:.3e}"
        )
    return val


def coeff_sum_identity(poly: AgspPolynomial) -> tuple:
    """Both sides of sum_k |a_k| n^k = |P(-n)|, computed independently.

    The left side is an exact rational made from the coefficients; the
    right side evaluates T_m((3n+1)/(n-1)) / T_m((n+1)/(n-1)) in floating
    point through the stable cosh form. Their agreement (asserted to
    relative 1e-9) checks the sign-alternation reasoning end to end.
    """
    n, m = poly.n, poly.m
    total = sum(abs(a) * n**k for k, a in enumerate(poly.numerators)) / poly.denominator
    p_minus_n = abs(
        chebyshev(m, Fraction(3 * n + 1, n - 1))
        / chebyshev(m, Fraction(n + 1, n - 1))
    )
    if not abs(total - p_minus_n) <= 1e-9 * max(abs(total), 1.0):
        raise AssertionError(
            f"coefficient-mass identity violated at n={n}, m={m}: "
            f"{total!r} vs {p_minus_n!r}"
        )
    return total, p_minus_n


def agsp_operator_check(n: int, m: int) -> float:
    """Operator-norm distance between |0^n><0^n| and P(G) for diagonal G.

    G = sum_i |1><1|_i counts excited sites, so P(G) is diagonal with
    entry P(hamming weight); the norm is the largest per-entry deviation
    from the step function. Every weight 0..n occurs among the 2^n basis
    states, so that is the largest deviation over the weights, each
    evaluated exactly. The `operator-vs-step` report judges it against the
    same 2 exp(-2m/sqrt(n)) bound.
    """
    poly = build_polynomial(n, m)
    den = poly.denominator
    dev = poly.numerator_at(np.arange(n + 1, dtype=object))
    dev[0] -= den
    return float((np.abs(dev) / den).astype(float).max())


@dataclass(frozen=True)
class ComplexityBound:
    """Depth lower bound for approximate-code states, with diagnostics."""

    n: int
    d: int
    epsilon: float
    delta: float
    bound: float
    alpha: float
    depth_threshold: int


def _integer_d(d) -> int:
    """d as an int; a float or other non-integer d raises ValueError."""
    try:
        return operator.index(d)
    except TypeError:
        raise ValueError(f"d must be an integer, got {d!r}") from None


_DEPTH_SEARCH_CAP = 400


def _overlap_ceiling(n: int, d: int, t: int) -> float:
    """The overlap ceiling 1/2 + exp(-n^alpha / 2^t), n^alpha = d / sqrt(n)."""
    return 0.5 + math.exp(-d / math.sqrt(n) / 2.0**t)


def complexity_bound(n: int, d: int, epsilon: float, delta: float) -> ComplexityBound:
    """Depth bound log2(d / max{n(delta+epsilon), 1}) plus the projector threshold.

    The threshold diagnostic is the smallest integer depth t at which the
    overlap ceiling 1/2 + exp(-n^alpha / 2^t) stops excluding fidelity
    1 - delta, where n^alpha = d / sqrt(n); the hidden constant in the
    exponent is set to 1, which makes the integer convention-dependent.
    A non-integer d, and a negative or NaN epsilon or delta, raise
    ValueError.
    """
    d = _integer_d(d)
    if n < 2 or not 1 <= d <= n:
        raise ValueError("need 2 <= n and 1 <= d <= n")
    if not (epsilon >= 0 and delta >= 0):
        raise ValueError("epsilon and delta must be nonnegative")
    bound = math.log2(d / max(n * (delta + epsilon), 1.0))
    alpha = math.log(d) / math.log(n) - 0.5
    t = 0
    while _overlap_ceiling(n, d, t) < 1.0 - delta and t < _DEPTH_SEARCH_CAP:
        t += 1
    return ComplexityBound(
        n=n,
        d=d,
        epsilon=float(epsilon),
        delta=float(delta),
        bound=bound,
        alpha=alpha,
        depth_threshold=t,
    )


def indist_words(n: int, max_support: int) -> float:
    """Largest |<V>_plus - <V>_minus| / 2^{a - n/2} over Pauli words V.

    Scans every word whose support has size a <= max_support (letters X,
    Y, Z on each support qubit). The cat pair is locally
    indistinguishable, so the ratio stays order one.
    """
    pair = (zxcat.build(n, "plus"), zxcat.build(n, "minus"))
    ratios = [0.0]
    for a in range(1, max_support + 1):
        limit = 2.0 ** (a - n / 2.0)
        for support in itertools.combinations(range(n), a):
            # X, Y, Z letters on distinct qubits multiply with phase 0
            for letters in itertools.product(_XYZ_BITS, repeat=a):
                x = sum(xb << q for q, (xb, _) in zip(support, letters))
                z = sum(zb << q for q, (_, zb) in zip(support, letters))
                e_plus, e_minus = sv._word_expectations(sp.PauliString(n, x, z), pair)
                ratios.append(abs(e_plus - e_minus) / limit)
    return np.max(ratios)


def indist_random(n: int, max_support: int, trials: int, seed: int) -> float:
    """The ratio of `indist_words` over random Hermitian V instead of words.

    Each of `trials` draws a unit-norm Hermitian V on a random support of
    a <= min(max_support, n) qubits.
    """
    plus, minus = zxcat.build(n, "plus"), zxcat.build(n, "minus")
    rng = np.random.default_rng(seed)
    ratios = [0.0]
    for _ in range(trials):
        a = int(rng.integers(1, min(max_support, n) + 1))
        support = tuple(sorted(int(q) for q in rng.choice(n, a, replace=False)))
        herm = zxcat._random_bounded_hermitian(1 << a, rng)
        d1 = np.vdot(plus.amps, sv.matrix_action(plus.amps, n, support, herm))
        d2 = np.vdot(minus.amps, sv.matrix_action(minus.amps, n, support, herm))
        ratios.append(abs((d1 - d2).real) / 2.0 ** (a - n / 2.0))
    return np.max(ratios)
