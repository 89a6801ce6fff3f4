"""Tests for the golden-field modular data and the monomial exclusion."""

import copy
import dataclasses
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from magiclab import modular
from magiclab.modular import (
    GoldenNumber,
    ModularData,
    MonomialCandidate,
    conjugate_entry_coefficients,
    dim_preserving_perms,
    double_fibonacci,
    identity_only_misses,
    lpu_search,
    monomial_distance,
    monomial_phase_solution,
    off_pattern_supremum,
    scalar_rigidity_trial,
    verlinde_dim,
)
from magiclab.reports import CheckReport
from magiclab.statevec import haar_unitary

PHI = (1.0 + np.sqrt(5.0)) / 2.0
ONE = GoldenNumber(1, 0)
PHI_G = GoldenNumber.phi()


@dataclass(frozen=True)
class RefGolden:
    """Reference golden field: a + b*phi as a pair of Fractions."""

    a: Fraction
    b: Fraction

    def __add__(self, o):
        return RefGolden(self.a + o.a, self.b + o.b)

    def __neg__(self):
        return RefGolden(-self.a, -self.b)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        return RefGolden(self.a * o.a + self.b * o.b, self.a * o.b + self.b * o.a + self.b * o.b)

    def inverse(self):
        # (a + b phi)((a + b) - b phi) = a^2 + ab - b^2, a rational
        norm = self.a * self.a + self.a * self.b - self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero golden number")
        return RefGolden((self.a + self.b) / norm, -self.b / norm)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, exponent):
        base = self if exponent >= 0 else self.inverse()
        out = RefGolden(Fraction(1), Fraction(0))
        for bit in bin(abs(exponent))[2:]:
            out = out * out
            if bit == "1":
                out = out * base
        return out

    def __float__(self):
        return float(self.a) + float(self.b) * ((1.0 + 5.0 ** 0.5) / 2.0)


def assert_canonical(x: GoldenNumber):
    p, q, d = x._t
    assert all(type(v) is int for v in x._t)
    assert d > 0 and math.gcd(p, q, d) == 1


# -- golden arithmetic --------------------------------------------------------

def test_golden_defining_identities():
    assert PHI_G * PHI_G == PHI_G + 1
    assert PHI_G ** 4 == 3 * PHI_G + 2
    assert PHI_G.inverse() == PHI_G - 1
    assert (GoldenNumber.of(2) + PHI_G).inverse() == GoldenNumber(
        Fraction(3, 5), Fraction(-1, 5)
    )


def test_golden_ring_against_float_embedding():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c, d = (int(x) for x in rng.integers(-9, 10, size=4))
        x = GoldenNumber(a, b)
        y = GoldenNumber(c, d)
        assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
        assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-8)
        if not y.is_zero():
            assert float(x / y) == pytest.approx(
                float(x) / float(y), abs=1e-8
            )
            assert x / y * y == x


def test_golden_division_and_powers():
    assert (ONE / PHI_G) * PHI_G == ONE
    assert PHI_G ** -2 == GoldenNumber(2, -1)  # 1/phi^2 = 2 - phi
    with pytest.raises(ZeroDivisionError):
        GoldenNumber(0, 0).inverse()
    with pytest.raises(TypeError):
        GoldenNumber(0.5, 0)
    with pytest.raises(TypeError):
        PHI_G ** 0.5


def test_golden_power_matches_repeated_products():
    for base in (PHI_G, GoldenNumber(Fraction(2, 3), -1), GoldenNumber(-3, Fraction(1, 5))):
        inv = base.inverse()
        for e in range(-6, 41):
            want = ONE
            for _ in range(abs(e)):
                want = want * (base if e >= 0 else inv)
            assert base**e == want


def test_golden_field_axioms_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
    golden = st.builds(GoldenNumber, rationals, rationals)

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(golden, golden, golden, st.integers(-8, 8), st.integers(-8, 8))
    def check(x, y, z, i, j):
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + GoldenNumber(0, 0) == x and x * ONE == x and x - x == GoldenNumber(0, 0)
        if not x.is_zero():
            assert x * x.inverse() == ONE
            assert x ** (i + j) == x**i * x**j
            assert x ** (i * j) == (x**i) ** j

    check()


def test_golden_matches_fraction_pair_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rationals = st.fractions(min_value=-40, max_value=40, max_denominator=60)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(rationals, rationals, rationals, rationals, st.integers(-12, 12), rationals)
    def check(a, b, c, d, e, k):
        x, y = GoldenNumber(a, b), GoldenNumber(c, d)
        rx, ry = RefGolden(a, b), RefGolden(c, d)
        assert (x.a, x.b) == (a, b)
        results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx)]
        if not y.is_zero():
            results += [(x / y, rx / ry), (y.inverse(), ry.inverse())]
            results += [(y**e, ry**e), (x / y * y, rx)]
        # int and Fraction operands on either side
        rk, rn = RefGolden(k, Fraction(0)), RefGolden(Fraction(e), Fraction(0))
        results += [(x + k, rx + rk), (k * x, rk * rx), (e - x, rn - rx), (x * e, rx * rn)]
        if not x.is_zero():
            results += [(e / x, rn / rx), (k / x, rk / rx)]
        for got, want in results:
            assert (got.a, got.b) == (want.a, want.b)
            assert float(got) == float(want)  # same bits, not just close
            assert_canonical(got)
        # equal values reached along different paths share one triple
        for got, want in results:
            same = GoldenNumber(want.a, want.b)
            assert got._t == same._t and got == same and hash(got) == hash(same)
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert clone == x and clone._t == x._t and type(clone) is GoldenNumber
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.a = Fraction(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x._t = (1, 0, 1)

    check()


def test_golden_equality_and_hash_agree_with_rationals():
    assert GoldenNumber(3) == 3 and 3 == GoldenNumber(3)
    assert len({GoldenNumber(3), 3}) == 1
    assert len({GoldenNumber(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(GoldenNumber(Fraction(-7, 4))) == hash(Fraction(-7, 4))
    assert GoldenNumber(Fraction(6, 2)) == Fraction(3) == GoldenNumber(3, 0)
    assert GoldenNumber(1, 1) != 1 and GoldenNumber(Fraction(1, 3)) != 1
    assert {GoldenNumber(2, 1): "x"}[PHI_G + 2] == "x"
    # only golden numbers, ints and Fractions compare
    assert GoldenNumber(1) != "1"
    assert GoldenNumber(1).__eq__("1") is NotImplemented
    assert GoldenNumber(1).__eq__(1.0) is NotImplemented
    assert GoldenNumber(0) != None  # noqa: E711


def test_golden_from_numpy_integers_holds_python_ints():
    # numpy components used to stay int64 and wrap: 2^120 came out as 0
    x = GoldenNumber(np.int64(2**40), 0) ** 3
    assert x == GoldenNumber(2**120, 0)
    y = GoldenNumber(Fraction(np.int64(3), np.int64(4)), np.int32(-5))
    assert y == GoldenNumber(Fraction(3, 4), -5)
    for value in (x, y, y * np.int64(2**62) * np.int64(2**62)):
        assert all(type(c) is int for c in value._t)


def test_golden_errors_survive_optimize_flag():
    code = (
        "from magiclab.modular import GoldenNumber, verlinde_dim\n"
        "for name, call in (\n"
        "    ('float', lambda: GoldenNumber(0.5, 0)),\n"
        "    ('zero', lambda: GoldenNumber(0, 0).inverse()),\n"
        "    ('dims', lambda: verlinde_dim([1, GoldenNumber(-2, 1)], 2)),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except Exception as exc:\n"
        "        print(__debug__, name, type(exc).__name__)\n"
        "    else:\n"
        "        print(__debug__, name, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split("\n")[:3] == [
        "False float TypeError", "False zero ZeroDivisionError", "False dims ValueError",
    ], out.stdout


# -- modular data -------------------------------------------------------------

def test_double_fibonacci_shape_and_entries():
    data = double_fibonacci()
    assert data.k == 4
    assert data.dims == (ONE, PHI_G, PHI_G, PHI_G * PHI_G)
    # upper-left S entry is the prefactor itself
    s00 = data.s_prefactor * data.s_body[0][0]
    assert s00 == GoldenNumber(Fraction(3, 5), Fraction(-1, 5))
    assert float(s00) == pytest.approx(1.0 / (2.0 + PHI))
    t = np.diag(data.t_numeric())
    want = [1.0, np.exp(4j * np.pi / 5), np.exp(-4j * np.pi / 5), 1.0]
    assert np.allclose(t, want, atol=1e-12)


def test_modular_relations():
    data = double_fibonacci()
    s = data.s_numeric()
    assert np.allclose(s, s.T, atol=1e-15)
    assert np.allclose(s @ s, np.eye(4), atol=1e-12)
    st = s @ data.t_numeric()
    assert np.allclose(
        st @ st @ st, s @ s, atol=1e-9
    )


def test_s_squared_identity_exactly():
    data = double_fibonacci()
    pref_sq = data.s_prefactor * data.s_prefactor
    for i in range(4):
        for j in range(4):
            acc = GoldenNumber(0, 0)
            for m in range(4):
                acc = acc + data.s_body[i][m] * data.s_body[m][j]
            entry = pref_sq * acc
            assert entry == (ONE if i == j else GoldenNumber(0, 0))


def test_modular_data_json_round_trip():
    data = double_fibonacci()
    clone = ModularData.from_json(data.to_json())
    assert clone == data
    assert np.allclose(clone.s_numeric(), data.s_numeric(), atol=1e-15)


@pytest.mark.parametrize("field", ["labels", "dims", "s_prefactor", "s_body",
                                   "t_root_order", "t_exponents"])
def test_modular_data_json_names_a_missing_field(field):
    raw = json.loads(double_fibonacci().to_json())
    del raw[field]
    with pytest.raises(ValueError, match=f"lacks the field\\(s\\) {field}$"):
        ModularData.from_json(json.dumps(raw))


def test_modular_data_json_must_be_an_object():
    with pytest.raises(ValueError, match="must be a JSON object"):
        ModularData.from_json("[]")


def test_modular_data_validation():
    data = double_fibonacci()
    with pytest.raises(ValueError):
        ModularData(
            k=4,
            dims=data.dims,
            s_body=data.s_body,
            s_prefactor=ONE,  # not unitary any more
            t_exponents=data.t_exponents,
        )
    lopsided = tuple(
        tuple(row[:3]) for row in data.s_body[:3]
    )
    with pytest.raises(ValueError):
        ModularData(
            k=4,
            dims=data.dims,
            s_body=lopsided,
            s_prefactor=data.s_prefactor,
            t_exponents=data.t_exponents,
        )


# -- Verlinde dimensions ------------------------------------------------------

def test_verlinde_genus_one_counts_labels():
    assert verlinde_dim(double_fibonacci().dims, 1) == 4
    assert verlinde_dim([1, 1, 1], 1) == 3


def test_verlinde_genus_two_exact():
    value = verlinde_dim(double_fibonacci().dims, 2)
    assert value == 25
    assert float(value) == 25.0


def test_verlinde_growth_and_validation():
    dims = double_fibonacci().dims
    rank = 4
    previous = rank
    for genus in (2, 3, 4):
        value = float(verlinde_dim(dims, genus))
        assert value > rank
        assert value > previous
        previous = value
    assert verlinde_dim([1, 1], 5) == 32  # abelian dims give k**g exactly
    with pytest.raises(ValueError):
        verlinde_dim(dims, 0)
    with pytest.raises(ValueError):
        verlinde_dim([1, -1], 2)


def test_verlinde_matches_per_label_power_loop():
    # the reference raises D^2 to the power g - 1 once per label
    phi = RefGolden(Fraction(0), Fraction(1))
    one = RefGolden(Fraction(1), Fraction(0))
    dims = (one, phi, phi, phi * phi)
    d_sq = RefGolden(Fraction(0), Fraction(0))
    for d in dims:
        d_sq = d_sq + d * d
    data = double_fibonacci()
    for genus in range(1, 378):
        want = RefGolden(Fraction(0), Fraction(0))
        for d in dims:
            want = want + (d_sq ** (genus - 1)) / ((d * d) ** (genus - 1))
        got = verlinde_dim(data.dims, genus)
        assert (got.a, got.b) == (want.a, want.b), genus
        assert_canonical(got)


def test_verlinde_positivity_is_exact():
    # phi - F42/F41 is positive (odd-index convergents undershoot phi), but
    # its float rounds to zero
    f41, f42 = 165580141, 267914296
    tiny = PHI_G - Fraction(f42, f41)
    assert float(tiny) == 0.0
    assert float(verlinde_dim([1, tiny], 2)) > 0
    with pytest.raises(ValueError):
        verlinde_dim([1, -tiny], 2)
    # beyond float range, positivity is still decided exactly
    assert verlinde_dim([10**400], 2) == 1
    assert verlinde_dim([10**400, 10**400], 3) == 8
    with pytest.raises(ValueError):
        verlinde_dim([1, GoldenNumber(-(10**400), 10**399)], 2)
    for bad in ([1, 0], [1, PHI_G - 2], [1, 1 - PHI_G], [1, -PHI_G]):
        with pytest.raises(ValueError):
            verlinde_dim(bad, 2)
    # the exact sign agrees with the float one wherever the float is clear
    for p, q in itertools.product(range(-30, 31), repeat=2):
        x = GoldenNumber(p, q)
        if abs(float(x)) > 1e-9:
            positive = True
            try:
                verlinde_dim([x], 1)
            except ValueError:
                positive = False
            assert positive == (float(x) > 0), (p, q)


# -- permutations and monomial tests ------------------------------------------

def _near_monomial(k, eps, rng):
    """Permutation x unimodular phases x exp(i eps H) for a random Hermitian H."""
    h = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    vals, vecs = np.linalg.eigh(h + h.conj().T)
    drift = vecs @ np.diag(np.exp(1j * eps * vals)) @ vecs.conj().T
    phases = np.exp(2j * np.pi * rng.random(k))
    return np.eye(k)[rng.permutation(k)] @ np.diag(phases) @ drift


def test_monomial_distance_matches_the_optimal_assignment():
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment

    def optimal(m):
        weight = np.abs(np.asarray(m, dtype=complex)) ** 2
        rows, cols = linear_sum_assignment(-weight)
        weight[rows, cols] = 0.0
        return float(np.sqrt(weight.sum()))

    rng = np.random.default_rng(11)
    # near-monomial unitaries: the row maxima are the optimal pattern, so the
    # off-pattern mass is the same float
    for k in (2, 3, 4, 6, 9, 16):
        for eps in np.logspace(-16, -9, 8):
            for _ in range(4):
                m = _near_monomial(k, eps, rng)
                assert monomial_distance(m) == optimal(m)
    # Haar unitaries are far from monomial under both rules, and the row
    # maxima never leave less off-pattern mass than the optimum
    collisions = 0
    for k in (3, 4, 9):
        for _ in range(40):
            m = haar_unitary(k, rng)
            dist, want = monomial_distance(m), optimal(m)
            assert dist >= want > 1e-9
            collisions += dist == math.inf
    assert collisions > 0
    # two rows peaking in one column leave no monomial pattern
    assert monomial_distance(np.array([[1.0, 0.5], [1.0, 0.5]])) == math.inf


def test_dim_preserving_perms():
    assert dim_preserving_perms(double_fibonacci().dims) == [
        (0, 1, 2, 3),
        (0, 2, 1, 3),
    ]
    assert dim_preserving_perms([1, 2, 3]) == [(0, 1, 2)]
    assert len(dim_preserving_perms([1, 1, 1])) == 6


def test_monomial_distance_basics():
    perm = np.array(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex
    )
    assert monomial_distance(perm) == 0.0

    theta = 0.7
    diag = np.diag([1.0, np.exp(1j * theta)])
    assert monomial_distance(diag) == 0.0

    assert monomial_distance(double_fibonacci().s_numeric()) > 0.5

    with pytest.raises(ValueError):
        monomial_distance(np.zeros((2, 3)))


def test_monomial_candidate_validation():
    with pytest.raises(ValueError):
        MonomialCandidate((0, 0, 1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        MonomialCandidate((0, 1), (2.0, 1.0))
    with pytest.raises(ValueError):
        MonomialCandidate((0, 1), (1.0, 0.5))
    cand = MonomialCandidate((0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0))
    assert cand.is_identity()


# -- the exclusion itself -----------------------------------------------------

def test_identity_case_phases_solve_to_one():
    data = double_fibonacci()
    solution = monomial_phase_solution(data, (0, 1, 2, 3))
    assert solution == [ONE, ONE, ONE]


def test_swap_case_survives_s_but_fails_st():
    data = double_fibonacci()
    solution = monomial_phase_solution(data, (0, 2, 1, 3))
    assert solution == [ONE, ONE, ONE]
    cand = MonomialCandidate((0, 2, 1, 3), (1.0, 1.0, 1.0, 1.0))
    s = data.s_numeric()
    dist_s = monomial_distance(s @ cand.matrix() @ s.conj().T)
    assert dist_s <= 1e-9  # diagonal by construction of the solve
    st = s @ data.t_numeric()
    dist_st = monomial_distance(st @ cand.matrix() @ st.conj().T)
    assert dist_st > 0.1


def test_lpu_search_returns_only_identity():
    results = lpu_search(double_fibonacci())
    assert len(results) == 1
    assert results[0].is_identity(tol=1e-9)


def test_identity_only_misses():
    identity = MonomialCandidate((0, 1, 2), (1.0, 1.0, 1.0))
    swap = MonomialCandidate((1, 0, 2), (1.0, 1.0, 1.0))
    assert identity_only_misses([]) == 1
    assert identity_only_misses([identity]) == 0
    assert identity_only_misses([identity, swap]) == 1
    assert identity_only_misses([swap, swap]) == 2


def _entry_bound(data, perm, i, j):
    """prefactor^2 * sum_m |c_m|, each sign read from the coefficient's float."""
    coeffs = conjugate_entry_coefficients(data, perm, i, j)
    mass = sum((c if float(c) >= 0 else -c for c in coeffs), GoldenNumber())
    return data.s_prefactor * data.s_prefactor * mass


def _off_pattern_bounds(data, perm):
    """Exact per-entry bounds of S (Pi D) S+ and the off-pattern ones among them."""
    k = data.k
    bounds, off_pattern = np.zeros((k, k)), []
    for i, j in itertools.product(range(k), repeat=2):
        exact = _entry_bound(data, perm, i, j)
        bounds[i, j] = float(exact)
        if j != perm[i]:
            off_pattern.append(exact)
    return bounds, off_pattern


def test_offdiag_modulus_scan():
    # the sampled scan the exact supremum replaced: 4,096 seeded unimodular
    # D per permutation never exceed the exact bound, and stay below 1 off
    # the pattern
    data = double_fibonacci()
    s, k = data.s_numeric(), data.k
    rng = np.random.default_rng(34)
    off_pattern = []
    for perm in dim_preserving_perms(data.dims):
        bounds, entries = _off_pattern_bounds(data, perm)
        off_pattern.extend(entries)
        draws = np.ones((4096, k), dtype=complex)
        draws[:, 1:] = np.exp(2j * np.pi * rng.random((4096, k - 1)))
        mats = np.zeros((4096, k, k), dtype=complex)
        mats[:, np.arange(k), list(perm)] = draws[:, list(perm)]
        conj = s @ mats @ s.conj().T
        assert np.max(np.abs(conj) - bounds) <= 1e-12
        mask = np.ones((k, k), dtype=bool)
        mask[np.arange(k), list(perm)] = False
        assert 0.0 < np.max(np.abs(conj[:, mask])) < 1.0
    sup = off_pattern_supremum(data)
    assert sup == max(off_pattern, key=float)
    assert sup == GoldenNumber(Fraction(-2, 5), Fraction(4, 5))  # 2/sqrt(5)
    assert float(sup) == 0.8944271909999161
    # the swap's on-pattern entries reach 1, so the pattern, not the
    # diagonal, is what the supremum must leave out
    swap = (0, 2, 1, 3)
    assert _entry_bound(data, swap, 1, 2) == _entry_bound(data, swap, 2, 1) == 1


def test_offdiag_modulus_scan_matches_per_sample_loop():
    # one conjugation per entry: the signs of c_0 c_m attain its exact bound
    data = double_fibonacci()
    s, k = data.s_numeric(), data.k
    attained = []
    for perm in dim_preserving_perms(data.dims):
        bounds, _ = _off_pattern_bounds(data, perm)
        for i, j in itertools.product(range(k), repeat=2):
            coeffs = conjugate_entry_coefficients(data, perm, i, j)
            signs = tuple(1.0 if float(coeffs[0] * c) >= 0 else -1.0 for c in coeffs)
            conj = s @ MonomialCandidate(perm, signs).matrix() @ s.conj().T
            assert abs(abs(conj[i, j]) - bounds[i, j]) <= 1e-15
            if j != perm[i]:
                attained.append(abs(conj[i, j]))
    assert abs(max(attained) - float(off_pattern_supremum(data))) <= 1e-15


def test_forced_entries_are_the_off_pattern_ones(monkeypatch):
    data = double_fibonacci()
    forced, real_eliminate = [], modular._eliminate

    def eliminate(rows):
        forced.append(rows)
        return real_eliminate(rows)

    monkeypatch.setattr(modular, "_eliminate", eliminate)
    for perm in dim_preserving_perms(data.dims):
        pattern_rows = [
            (coeffs[1:], -coeffs[0])
            for i, j in itertools.product(range(data.k), repeat=2)
            if j != perm[i]
            for coeffs in (conjugate_entry_coefficients(data, perm, i, j),)
        ]
        monomial_phase_solution(data, perm)
        assert forced.pop() == pattern_rows


def _toric_code():
    """Toric-code modular data: four abelian anyons 1, e, m, em, all of dimension 1."""
    signs = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    return ModularData(
        k=4,
        dims=(GoldenNumber(1),) * 4,
        s_body=tuple(tuple(GoldenNumber(x) for x in row) for row in signs),
        s_prefactor=GoldenNumber(Fraction(1, 2)),
        t_exponents=(0, 0, 0, 1),
        t_root_order=2,
    )


def test_toric_code_control_fails_the_off_pattern_rule():
    # abelian data admits nontrivial monomial gates (the e-m swap), so the
    # supremum must reach 1 and the off-pattern-moduli rule must fail
    data = _toric_code()
    sup = off_pattern_supremum(data)
    assert sup == GoldenNumber(1)
    assert not CheckReport("off-pattern-moduli", {}, float(sup), 1.0 - 1e-6).passed
    assert len(dim_preserving_perms(data.dims)) == 24
    # the open half: with nothing forced, the search has no system to solve
    with pytest.raises(ValueError, match="no entry of the conjugate is forced to vanish"):
        lpu_search(data)


def test_offdiag_row_expansion_hand_values():
    # pi = id, z = (-1, 1, 1): first row of S L S+ reduces to
    # (3/5, 2/(5 phi), -2 phi/5, 2/5) by phi^4 = 3 phi + 2
    data = double_fibonacci()
    s = data.s_numeric()
    mat = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)
    conj = s @ mat @ s.conj().T
    want = np.array(
        [3.0 / 5.0, 2.0 / (5.0 * PHI), -2.0 * PHI / 5.0, 2.0 / 5.0]
    )
    assert np.allclose(conj[0], want, atol=1e-12)


def test_scan_identity_candidate_is_exact():
    # with D = I, entry (i, j) of S (Pi D) S+ for the identity Pi is
    # prefactor^2 times the sum of its golden coefficients: exactly delta_ij
    data = double_fibonacci()
    identity = tuple(range(data.k))
    for i, j in itertools.product(range(data.k), repeat=2):
        coeffs = conjugate_entry_coefficients(data, identity, i, j)
        entry = data.s_prefactor ** 2 * sum(coeffs, GoldenNumber(0))
        assert entry == GoldenNumber(int(i == j)), (i, j)


# -- scalar rigidity ----------------------------------------------------------

def test_scalar_k_never_witnessed():
    k = 2.0 * np.eye(9)
    assert scalar_rigidity_trial(3, k, attempts=50, seed=1) is None


def test_swap_k_is_witnessed():
    n = 3
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    u = scalar_rigidity_trial(n, swap, attempts=1000, seed=2)
    assert u is not None
    w = np.kron(u, u.conj())
    dist = monomial_distance(w @ swap @ w.conj().T)
    assert dist > 1e-9


def test_product_monomial_k_is_witnessed():
    n = 3
    cycle = np.roll(np.eye(n), 1, axis=1)
    k = np.kron(cycle, np.eye(n))
    assert scalar_rigidity_trial(n, k, attempts=1000, seed=3) is not None


def test_scalar_rigidity_validation():
    with pytest.raises(ValueError):
        scalar_rigidity_trial(2, np.eye(4))
    with pytest.raises(ValueError):
        scalar_rigidity_trial(3, np.eye(4))


def test_import_leaves_scipy_optimize_unimported():
    # the runtime is numpy-only: neither scipy nor mpmath is loaded at all
    code = (
        "import sys\nimport magiclab\n"
        "print(any(m.split('.')[0] in ('scipy', 'mpmath') for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"
