"""Double-Fibonacci modular data and the monomial logical-gate exclusion.

The anyon content is described by a 4x4 S matrix with entries in the golden
field (rationals extended by the golden ratio) and a diagonal T of tenth
roots of unity. A locality-preserving logical gate would have to be a
monomial matrix L = (permutation) x (unimodular diagonal) whose conjugates
by the modular matrices stay monomial; this module carries out that
exclusion exactly: each entry of S (Pi D) S+ has an exact supremum over
unimodular phases (a triangle bound in the golden field), the entries whose
supremum stays below 1 must vanish, golden-field elimination of those
conditions pins the phases, and a numerical monomiality test (the mass
outside each row's largest entry) disposes of the surviving permutation
case. A randomized scalar-rigidity trial covers the companion fact that only
scalar matrices stay monomial under conjugation by every local-unitary pair.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .statevec import haar_unitary, kron

_PHI = (1.0 + 5.0 ** 0.5) / 2.0
_new, _setattr = object.__new__, object.__setattr__
_LPU_TOL = 1e-9  # monomial distance lpu_search allows under both conjugations
_RIGIDITY_TOL = 1e-9  # monomial distance beyond which a rigidity trial hits


def _golden(p: int, q: int, d: int) -> "GoldenNumber":
    """The golden number (p + q*phi)/d for d > 0, in lowest terms."""
    g = math.gcd(p, q, d)
    out = _new(GoldenNumber)
    _setattr(out, "_t", (p, q, d) if g == 1 else (p // g, q // g, d // g))
    return out


def _triple(value) -> tuple:
    if type(value) is GoldenNumber:
        return value._t
    return (value, 0, 1) if type(value) is int else GoldenNumber.of(value)._t


def _inverse(t) -> tuple:
    """Unreduced 1/t, as (p + q phi)((p + q) - q phi) = p^2 + pq - q^2."""
    p, q, d = t
    norm = p * p + p * q - q * q
    if norm == 0:
        raise ZeroDivisionError("inverse of zero golden number")
    sd = d if norm > 0 else -d
    return sd * (p + q), -sd * q, abs(norm)


@dataclass(frozen=True, init=False)
class GoldenNumber:
    """Exact element a + b*phi of the golden field.

    Stored as one integer triple (p, q, d) meaning (p + q*phi)/d, with d > 0
    and gcd(p, q, d) = 1, so equal values have equal triples. A ring
    operation is a few integer products (phi^2 = phi + 1) and one gcd; the
    components a = p/d and b = q/d are Fractions made on demand.
    """

    _t: tuple

    def __init__(self, a=0, b=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("golden components must be exact (int/Fraction/str)")
        a, b = Fraction(a), Fraction(b)
        # int(): a numpy integer would keep its dtype and wrap on overflow
        e, f = int(a.denominator), int(b.denominator)
        d = math.lcm(e, f)
        _setattr(self, "_t", (int(a.numerator) * (d // e), int(b.numerator) * (d // f), d))

    a = property(lambda self: Fraction(self._t[0], self._t[2]))
    b = property(lambda self: Fraction(self._t[1], self._t[2]))

    # -- constructors
    @classmethod
    def phi(cls) -> "GoldenNumber":
        return cls(0, 1)

    @classmethod
    def of(cls, value) -> "GoldenNumber":
        return value if isinstance(value, GoldenNumber) else cls(value)

    # -- ring operations
    def __add__(self, other):
        (p, q, d), (r, s, e) = self._t, _triple(other)
        return _golden(p * e + r * d, q * e + s * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        p, q, d = self._t
        return _golden(-p, -q, d)

    def __sub__(self, other):
        (p, q, d), (r, s, e) = self._t, _triple(other)
        return _golden(p * e - r * d, q * e - s * d, d * e)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        # (p + q phi)(r + s phi) = pr + qs + (ps + qr + qs) phi
        (p, q, d), (r, s, e) = self._t, _triple(other)
        qs = q * s
        return _golden(p * r + qs, p * s + q * r + qs, d * e)

    __rmul__ = __mul__

    def inverse(self) -> "GoldenNumber":
        return _golden(*_inverse(self._t))

    def __truediv__(self, other):
        return self * GoldenNumber.of(other).inverse()

    def __rtruediv__(self, other):
        return GoldenNumber.of(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GoldenNumber":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        p, q, d = self._t if exponent >= 0 else _inverse(self._t)
        # square-and-multiply on x + y phi, high bit first, over d^|exponent|
        x, y = 1, 0
        for bit in bin(abs(exponent))[2:]:
            yy = y * y
            x, y = x * x + yy, 2 * x * y + yy
            if bit == "1":
                yq = y * q
                x, y = x * p + yq, x * q + y * p + yq
        return _golden(x, y, d ** abs(exponent))

    def __eq__(self, other):
        if isinstance(other, GoldenNumber):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self._t[1] == 0 and self._t[0] == other * self._t[2]
        return NotImplemented

    def __hash__(self):
        p, q, d = self._t  # a rational value hashes as its Fraction, as == needs
        return hash(Fraction(p, d)) if q == 0 else hash(self._t)

    def __float__(self):
        p, q, d = self._t  # p/d rounds like float(Fraction(p, d))
        return p / d + q / d * _PHI

    def is_zero(self) -> bool:
        return self._t == (0, 0, 1)

    def __repr__(self):
        return f"GoldenNumber({self.a}, {self.b})"


_ZERO = GoldenNumber(0, 0)
_ONE = GoldenNumber(1, 0)
_PHI_G = GoldenNumber.phi()


# the fields of ModularData.to_json, all of which from_json reads
_JSON_FIELDS = ("labels", "dims", "s_prefactor", "s_body", "t_root_order", "t_exponents")


def _json_int(value, field: str) -> int:
    """An integral JSON number; anything else raises ValueError naming `field`."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"modular data field {field}: {value!r} is not an integer")


def _json_golden(value, field: str) -> "GoldenNumber":
    """A golden number from its [a, b] pair of exact components."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"modular data field {field}: {value!r} is not an [a, b] pair")
    try:
        return GoldenNumber(*value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"modular data field {field}: {value!r}: {exc}") from None


def _json_tuple(value, field: str, parse) -> tuple:
    """`parse(entry, field)` of each entry of a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"modular data field {field}: {value!r} is not a list")
    return tuple(parse(entry, field) for entry in value)


@dataclass(frozen=True)
class ModularData:
    """Label set with exact S matrix and root-of-unity T phases.

    ``s_body`` holds the golden-field entries of S over the common
    prefactor ``s_prefactor`` (so S = prefactor * body), and T is stored as
    integer exponents over a primitive ``t_root_order``-th root of unity.
    """

    k: int
    dims: tuple
    s_body: tuple
    s_prefactor: GoldenNumber
    t_exponents: tuple
    t_root_order: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one label")
        if self.t_root_order < 1:
            raise ValueError("t_root_order must be positive")
        if len(self.dims) != self.k or len(self.t_exponents) != self.k:
            raise ValueError("dims/T length must match the label count")
        if len(self.s_body) != self.k or any(len(r) != self.k for r in self.s_body):
            raise ValueError("S must be k x k")
        pairs = itertools.combinations(range(self.k), 2)
        if any(self.s_body[i][j] != self.s_body[j][i] for i, j in pairs):
            raise ValueError("S must be symmetric")
        s = self.s_numeric()
        if not np.allclose(s @ s.conj().T, np.eye(self.k), atol=1e-12):
            raise ValueError("numerical embedding of S is not unitary")

    def s_numeric(self) -> np.ndarray:
        pref = float(self.s_prefactor)
        return np.array([[pref * float(e) for e in row] for row in self.s_body])

    def t_numeric(self) -> np.ndarray:
        root = 2j * np.pi / self.t_root_order
        return np.diag([np.exp(root * e) for e in self.t_exponents])

    def to_json(self) -> str:
        def pair(g: GoldenNumber):
            return [str(g.a), str(g.b)]

        payload = {
            "labels": self.k,
            "dims": [pair(d) for d in self.dims],
            "s_prefactor": pair(self.s_prefactor),
            "s_body": [[pair(e) for e in row] for row in self.s_body],
            "t_root_order": self.t_root_order,
            "t_exponents": list(self.t_exponents),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModularData":
        """Read the `to_json` format; a missing or malformed field raises ValueError naming it."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("modular data must be a JSON object")
        missing = [name for name in _JSON_FIELDS if name not in raw]
        if missing:
            raise ValueError(f"modular data lacks the field(s) {', '.join(missing)}")
        return cls(
            k=_json_int(raw["labels"], "labels"),
            dims=_json_tuple(raw["dims"], "dims", _json_golden),
            s_body=_json_tuple(
                raw["s_body"], "s_body", lambda row, f: _json_tuple(row, f, _json_golden)
            ),
            s_prefactor=_json_golden(raw["s_prefactor"], "s_prefactor"),
            t_exponents=_json_tuple(raw["t_exponents"], "t_exponents", _json_int),
            t_root_order=_json_int(raw["t_root_order"], "t_root_order"),
        )


def double_fibonacci() -> ModularData:
    """The four-label data with quantum dimensions (1, phi, phi, phi^2)."""
    phi = _PHI_G
    phi2 = phi * phi
    body = (
        (_ONE, phi, phi, phi2),
        (phi, -_ONE, phi2, -phi),
        (phi, phi2, -_ONE, -phi),
        (phi2, -phi, -phi, _ONE),
    )
    return ModularData(
        k=4,
        dims=(_ONE, phi, phi, phi2),
        s_body=body,
        s_prefactor=(GoldenNumber.of(2) + phi).inverse(),
        t_exponents=(0, 4, 6, 0),  # 1, e^{i4pi/5}, e^{-i4pi/5}, 1
    )


def _positive(g: GoldenNumber) -> bool:
    """Exact sign of (p + q phi)/d. For p, q of mixed sign the conjugate
    p + q(1 - phi) has the sign of p, so the norm p^2 + pq - q^2 decides."""
    p, q, _ = g._t
    if p * q >= 0:
        return p > 0 or q > 0
    return (p * p + p * q - q * q > 0) == (p > 0)


def verlinde_dim(dims, genus: int) -> GoldenNumber:
    """Genus-g space dimension sum_i (D/d_i)^{2g-2} with D^2 = sum d_i^2.

    Exact in the golden field: only even powers of D appear, so the square
    root never materializes, and D^{2g-2} is raised once. Genus 1 returns
    the label count.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    ds = [GoldenNumber.of(d) for d in dims]
    if not ds or not all(_positive(d) for d in ds):
        raise ValueError("dims must be positive")
    squares = [d * d for d in ds]
    total = sum((sq ** (1 - genus) for sq in squares), _ZERO)
    return sum(squares, _ZERO) ** (genus - 1) * total


def dim_preserving_perms(dims) -> list:
    """All permutations pi with d_{pi(i)} = d_i exactly."""
    ds = [GoldenNumber.of(d) for d in dims]
    return [
        perm for perm in itertools.permutations(range(len(ds)))
        if all(ds[p] == d for p, d in zip(perm, ds))
    ]


@dataclass(frozen=True)
class MonomialCandidate:
    """Permutation-times-diagonal gate pattern with unit phases.

    The matrix is L[i, j] = phases[j] when permutation[i] = j and zero
    otherwise; the first phase is pinned to 1 (gates are projective, so a
    global phase carries no information).
    """

    permutation: tuple
    phases: tuple

    def __post_init__(self):
        k = len(self.permutation)
        if sorted(self.permutation) != list(range(k)):
            raise ValueError("not a permutation")
        if len(self.phases) != k:
            raise ValueError("need one phase per label")
        if abs(self.phases[0] - 1.0) > 1e-12:
            raise ValueError("first phase must be 1")
        if any(abs(abs(z) - 1.0) > 1e-12 for z in self.phases):
            raise ValueError("phases must be unimodular")

    def matrix(self) -> np.ndarray:
        k = len(self.permutation)
        out = np.zeros((k, k), dtype=complex)
        for i in range(k):
            out[i, self.permutation[i]] = self.phases[self.permutation[i]]
        return out

    def is_identity(self, tol: float = 1e-12) -> bool:
        return self.permutation == tuple(range(len(self.permutation))) and all(
            abs(z - 1.0) <= tol for z in self.phases
        )


def monomial_distance(m: np.ndarray) -> float:
    """Distance of a square matrix from the monomial pattern of its row maxima.

    Takes each row's largest-modulus entry as the pattern and returns the
    Frobenius norm of everything outside it, or inf when two rows peak in
    the same column. If some pattern leaves less than half of a unitary's
    unit row mass outside it, each row's pattern entry is that row's
    maximum, so the row maxima are the best pattern and the result is the
    nearest-pattern distance; otherwise the row maxima leave at least the
    optimum's off-pattern mass, or collide.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    weight = np.abs(m) ** 2
    cols = weight.argmax(axis=1)
    # a set, not np.unique, whose first call imports numpy.ma
    if len(set(cols.tolist())) < len(cols):
        return math.inf
    # Sum the off-pattern mass directly; total-minus-captured would lose
    # everything to cancellation when the matrix is already monomial.
    weight[np.arange(m.shape[0]), cols] = 0.0
    return float(np.sqrt(weight.sum()))


def _eliminate(rows):
    """Exact Gaussian elimination over the golden field.

    `rows` is a list of (coefficients, rhs) pairs. Returns the unique
    solution vector, None when the system is inconsistent, and raises when
    it is underdetermined.
    """
    rows = [(list(coeffs), r) for coeffs, r in rows]
    u = len(rows[0][0]) if rows else 0
    for col in range(u):  # column col is pivoted in row col
        pivot = next(
            (i for i in range(col, len(rows)) if not rows[i][0][col].is_zero()), None
        )
        if pivot is None:
            raise ValueError("phase system is underdetermined")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        coeffs, rhs = rows[col]
        inv = coeffs[col].inverse()
        coeffs, rhs = [c * inv for c in coeffs], rhs * inv
        rows[col] = (coeffs, rhs)
        for i in range(len(rows)):
            if i != col and not rows[i][0][col].is_zero():
                f = rows[i][0][col]
                rows[i] = (
                    [ci - f * cj for ci, cj in zip(rows[i][0], coeffs)],
                    rows[i][1] - f * rhs,
                )
    if any(not rhs.is_zero() for _, rhs in rows[u:]):
        return None  # inconsistent
    return [rhs for _, rhs in rows[:u]]


def conjugate_entry_coefficients(data: ModularData, perm, i: int, j: int):
    """Golden coefficients of entry (i, j) of S (Pi D) S+ in the d_m.

    The entry is prefactor^2 * sum_m body[i][pi^{-1}(m)] body[j][m] d_m,
    a linear form in the diagonal entries d_m of D.
    """
    inv = {p: a for a, p in enumerate(perm)}
    return [data.s_body[i][inv[m]] * data.s_body[j][m] for m in range(data.k)]


def _modulus_sum(coeffs) -> GoldenNumber:
    """Exact sum of |c_m| over real golden coefficients, signs by `_positive`.

    It is the supremum of |sum_m c_m d_m| over unimodular d_m, attained by
    d_m = +-1 with the sign of c_m.
    """
    return sum((c if _positive(c) else -c for c in coeffs), _ZERO)


def off_pattern_supremum(data: ModularData) -> GoldenNumber:
    """Exact supremum of the off-pattern moduli of S (Pi D) S+.

    Takes the largest prefactor^2 * sum_m |c_m| over every dimension-
    preserving permutation pi and every entry (i, j) with j != pi(i), where
    c_m are the entry's golden coefficients; over unimodular D that is the
    entry's largest modulus, so below 1 no off-pattern entry of a monomial
    conjugate can be the unit one.
    """
    best = _ZERO
    for perm in dim_preserving_perms(data.dims):
        for i in range(data.k):
            for j in range(data.k):
                if j != perm[i]:
                    mass = _modulus_sum(conjugate_entry_coefficients(data, perm, i, j))
                    if _positive(mass - best):
                        best = mass
    return data.s_prefactor ** 2 * best


def monomial_phase_solution(data: ModularData, perm):
    """Exact diagonal phases forced by monomiality of S (Pi D) S+.

    The conjugate is unitary, and a unitary monomial matrix has every
    entry either zero or unimodular. An entry whose supremum over phases
    (the exact triangle bound of `off_pattern_supremum`) is below 1 can
    never be the unit entry and must vanish; with the first phase pinned to
    1, those conditions form a linear system over the golden field. For
    double Fibonacci the forced entries are exactly the off-pattern ones.
    Returns the golden solution (d_1..d_{k-1}) or None when the system is
    inconsistent; raises when the forced entries leave phases free.
    """
    limit = data.s_prefactor.inverse() ** 2  # mass below 1/prefactor^2 is forced
    rows = []
    for i in range(data.k):
        for j in range(data.k):
            coeffs = conjugate_entry_coefficients(data, perm, i, j)
            if _positive(limit - _modulus_sum(coeffs)):
                rows.append((coeffs[1:], -coeffs[0]))
    if not rows:
        raise ValueError("no entry of the conjugate is forced to vanish")
    return _eliminate(rows)


def lpu_search(data: ModularData) -> list:
    """Enumerate monomial gates compatible with both modular conjugations.

    For each dimension-preserving permutation, the forced entries of
    S L S+ pin the diagonal phases exactly (or prove there are none);
    exact solutions that fail unimodularity are discarded, and the
    survivors must additionally keep (ST) L (ST)+ monomial numerically.
    For the double-Fibonacci data the output is exactly the identity gate.
    """
    s = data.s_numeric()
    st = s @ data.t_numeric()
    results = []
    for perm in dim_preserving_perms(data.dims):
        solution = monomial_phase_solution(data, perm)
        # the system has real coefficients, so solutions are real golden
        # numbers, and a unimodular real number is +-1
        if solution is None or any(z * z != _ONE for z in solution):
            continue
        phases = (1.0,) + tuple(float(z) for z in solution)
        candidate = MonomialCandidate(perm, phases)
        mat = candidate.matrix()
        dist_s = monomial_distance(s @ mat @ s.conj().T)
        dist_st = monomial_distance(st @ mat @ st.conj().T)
        if dist_s <= _LPU_TOL and dist_st <= _LPU_TOL:
            results.append(candidate)
    return results


def identity_only_misses(survivors) -> int:
    """How far `lpu_search` survivors are from "the identity gate alone".

    One per survivor that is not the identity, plus one when nothing
    survives (the identity always should); 0 means identity only.
    """
    stray = sum(not c.is_identity(1e-9) for c in survivors)
    return stray + (not survivors)


def scalar_rigidity_trial(
    n: int, k_matrix: np.ndarray, attempts: int = 1000, seed: int = 0
):
    """Search for a unitary witnessing that K is not scalar.

    Conjugating K by U (x) U* preserves monomiality for every U only when
    K is a multiple of the identity (n >= 3); this randomized trial
    returns the first Haar sample whose conjugate fails the monomiality
    test, or None when every attempt stays monomial (as a scalar K always
    does). A None is evidence, not proof, for non-scalar K.
    """
    if n < 3:
        raise ValueError("the rigidity statement needs dimension >= 3")
    k_matrix = np.asarray(k_matrix, dtype=complex)
    if k_matrix.shape != (n * n, n * n):
        raise ValueError("K must be n^2 x n^2")
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        u = haar_unitary(n, rng)
        w = kron(u, u.conj())
        if monomial_distance(w @ k_matrix @ w.conj().T) > _RIGIDITY_TOL:
            return u
    return None
