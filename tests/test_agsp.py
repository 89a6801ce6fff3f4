import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from magiclab import agsp, statevec as sv, suites, symplectic as sp, zxcat


def cheb_exact(m, x):
    """Independent exact-rational Chebyshev recurrence."""
    x = Fraction(x)
    prev, cur = Fraction(1), x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def test_chebyshev_point_values():
    assert agsp.chebyshev(3, 2) == pytest.approx(26, abs=1e-9)
    for m in range(11):
        assert agsp.chebyshev(m, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        agsp.chebyshev(-1, 0.5)


def test_chebyshev_matches_exact_recurrence():
    points = [Fraction(-3), Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(7, 2)]
    for m in range(21):
        for x in points:
            want = float(cheb_exact(m, x))
            got = agsp.chebyshev(m, x)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_build_polynomial_invariants():
    for n, m in ((16, 4), (64, 8), (10, 9)):
        poly = agsp.build_polynomial(n, m)
        assert poly.coeffs[0] == 1
        assert len(poly.coeffs) == m + 1
        for k, a in enumerate(poly.coeffs):
            assert (a > 0) == (k % 2 == 0) and a != 0
    for bad in ((1, 1), (16, 0), (16, 16)):
        with pytest.raises(ValueError):
            agsp.build_polynomial(*bad)


def test_polynomial_validation_rejects_tampering():
    poly = agsp.build_polynomial(8, 3)
    with pytest.raises(ValueError):
        agsp.AgspPolynomial(8, 3, tuple(abs(c) for c in poly.coeffs))
    with pytest.raises(ValueError):
        agsp.AgspPolynomial(8, 2, poly.coeffs)
    with pytest.raises(ValueError):
        agsp.AgspPolynomial(8, 3, (Fraction(2),) + poly.coeffs[1:])


def test_evaluation_matches_chebyshev_form():
    for n, m in ((16, 4), (64, 8), (9, 5)):
        poly = agsp.build_polynomial(n, m)
        direct = 1.0 / agsp.chebyshev(m, Fraction(n + 1, n - 1))
        assert float(poly.evaluate(1)) == pytest.approx(direct, abs=1e-12)


def test_step_error_sup_bound_and_trend():
    val = agsp.step_error_sup(agsp.build_polynomial(16, 8))
    assert val <= 2 * math.exp(-4.0)
    sups = [agsp.step_error_sup(agsp.build_polynomial(64, m)) for m in (4, 8, 12, 16)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    # maximal admissible degree still honors the bound
    agsp.step_error_sup(agsp.build_polynomial(10, 9))


def test_step_error_check_survives_optimized_mode():
    # tripling a_2 keeps the signs alternating, so the polynomial passes
    # validation, but its sup error (about 125) breaks the bound (about 0.27)
    code = (
        "from magiclab import agsp\n"
        "poly = agsp.build_polynomial(16, 4)\n"
        "coeffs = list(poly.coeffs)\n"
        "coeffs[2] *= 3\n"
        "try:\n"
        "    agsp.step_error_sup(agsp.AgspPolynomial(16, 4, tuple(coeffs)))\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
        "else:\n"
        "    print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.startswith("False raised step-error bound violated"), out.stdout


def test_step_error_check_without_parity_survives_optimized_mode():
    # tripling a_3 instead breaks the parity of the centred coefficients, so
    # the sup takes the path through both halves; about 179 against 0.27
    code = (
        "from magiclab import agsp\n"
        "poly = agsp.build_polynomial(16, 4)\n"
        "coeffs = list(poly.coeffs)\n"
        "coeffs[3] *= 3\n"
        "try:\n"
        "    agsp.step_error_sup(agsp.AgspPolynomial(16, 4, tuple(coeffs)))\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
        "else:\n"
        "    print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.startswith("False raised step-error bound violated"), out.stdout


def test_coeff_sum_identity_exact_and_float():
    poly = agsp.build_polynomial(16, 4)
    exact_sum = sum(abs(a) * Fraction(16) ** k for k, a in enumerate(poly.coeffs))
    assert exact_sum == abs(poly.evaluate(-16))
    total, p_minus_n = agsp.coeff_sum_identity(poly)
    assert total == pytest.approx(p_minus_n, rel=1e-9)
    # degree-1 closed form (3n+1)/(n+1)
    one = agsp.build_polynomial(10, 1)
    assert agsp.coeff_sum_identity(one)[1] == pytest.approx(31 / 11, abs=1e-12)


def test_coeff_sum_growth_is_single_exponential():
    n = 64
    kappa = math.acosh((3 * n + 1) / (n - 1)) - math.acosh((n + 1) / (n - 1))
    for m in (4, 8, 12, 16, 20):
        total, _ = agsp.coeff_sum_identity(agsp.build_polynomial(n, m))
        assert math.log(total) <= kappa * m + 1.0


def test_operator_check_matches_scalar():
    op = agsp.agsp_operator_check(9, 6)
    scalar = agsp.step_error_sup(agsp.build_polynomial(9, 6))
    assert op == scalar
    assert op <= 2 * math.exp(-4.0)
    # weight-0 deviation vanishes identically
    assert agsp.build_polynomial(9, 6).evaluate(0) == 1
    # no 2^n array: the check runs far past a dense register
    assert agsp.agsp_operator_check(64, 8) == agsp.step_error_sup(agsp.build_polynomial(64, 8))


def test_complexity_bound_values():
    assert agsp.complexity_bound(64, 64, 0.0, 0.0).bound == pytest.approx(6.0, abs=1e-12)
    low = agsp.complexity_bound(64, 32, 0.0, 0.0).bound
    high = agsp.complexity_bound(64, 64, 0.0, 0.0).bound
    assert high - low == pytest.approx(1.0, abs=1e-12)
    sweep = [agsp.complexity_bound(64, d, 0.01, 0.04).bound for d in (8, 16, 32, 64)]
    assert all(b >= a for a, b in zip(sweep, sweep[1:]))
    for bad in ((1, 1, 0, 0), (8, 9, 0, 0), (8, 4, -1, 0), (8, 4, 0, -1)):
        with pytest.raises(ValueError):
            agsp.complexity_bound(*bad)


def test_complexity_bound_cat_instantiation_trend():
    # d = n/3 with exponentially small epsilon: the bits bound grows like
    # (1/2) log2 n and the projector threshold steps up once per 4x n.
    bits = []
    thresholds = []
    for n in (64, 256, 1024, 4096):
        cb = agsp.complexity_bound(n, n // 3, math.exp(-n / 6), 1 / math.sqrt(n))
        bits.append(cb.bound)
        thresholds.append(
            agsp.complexity_bound(n, n // 3, math.exp(-n / 6), 0.01).depth_threshold
        )
    assert bits == pytest.approx([1.3920, 2.4094, 3.4136, 4.4147], abs=1e-3)
    assert thresholds == [2, 3, 4, 5]
    assert all(b > a for a, b in zip(bits, bits[1:]))


def test_non_integer_d_and_nan_errors_are_rejected():
    # a float d used to be truncated in the record only; a NaN passed `< 0`
    for d in (2.5, 3.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="d must be an integer"):
            agsp.complexity_bound(64, d, 0.0, 0.0)
    for bad in ((math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="nonnegative"):
            agsp.complexity_bound(64, 3, *bad)
    cb = agsp.complexity_bound(64, np.int64(2), 0.0, 0.0)
    assert type(cb.d) is int and cb.d == 2 and cb.bound == 1.0


def test_local_indistinguishability_closed_form():
    n = 8
    plus = zxcat.build(n, "plus")
    minus = zxcat.build(n, "minus")
    z0 = sp.PauliString.single(n, 0, "Z")
    diff = sv.pauli_expectation(plus, z0) - sv.pauli_expectation(minus, z0)
    s = 2.0 ** (-n / 2)
    assert diff == pytest.approx(s / (1 - s * s), abs=1e-12)
    ident = sp.PauliString(n, 0, 0)
    assert sv.pauli_expectation(plus, ident) == pytest.approx(1.0, abs=1e-12)
    assert sv.pauli_expectation(minus, ident) == pytest.approx(1.0, abs=1e-12)


def test_local_indist_scan_ratio_bounded():
    ratio = agsp.indist_words(12, 3)
    assert 0 < ratio <= 8
    assert 0 < agsp.indist_random(8, 2, 50, 1) <= 8
    with pytest.raises(ValueError):
        agsp.indist_words(sv.max_qubits() + 1, 1)
    with pytest.raises(ValueError):
        agsp.indist_random(sv.max_qubits() + 1, 1, 1, 0)


def combined_indist_scan(n, max_support, random_trials=0, seed=0):
    """One loop over the words, then the random V, continuing one running max."""
    plus, minus = zxcat.build(n, "plus"), zxcat.build(n, "minus")
    worst = 0.0
    for a in range(1, max_support + 1):
        limit = 2.0 ** (a - n / 2.0)
        for support in itertools.combinations(range(n), a):
            for letters in range(3**a):
                p = sp.PauliString(n, 0, 0)
                rem = letters
                for q in support:
                    p = p * sp.PauliString.single(n, q, "XYZ"[rem % 3])
                    rem //= 3
                diff = abs(sv.pauli_expectation(plus, p) - sv.pauli_expectation(minus, p))
                worst = max(worst, diff / limit)
    rng = np.random.default_rng(seed)
    for _ in range(random_trials):
        a = int(rng.integers(1, max_support + 1))
        support = tuple(sorted(int(q) for q in rng.choice(n, a, replace=False)))
        herm = zxcat._random_bounded_hermitian(1 << a, rng)
        d1 = np.vdot(plus.amps, sv.matrix_action(plus.amps, n, support, herm))
        d2 = np.vdot(minus.amps, sv.matrix_action(minus.amps, n, support, herm))
        worst = max(worst, abs((d1 - d2).real) / 2.0 ** (a - n / 2.0))
    return worst


@pytest.mark.parametrize(
    "n, max_support, trials, seed",
    [(10, 2, 0, 0), (10, 2, 60, 0), (10, 2, 60, 3), (8, 3, 30, 4), (4, 4, 25, 2), (2, 1, 10, 7)],
)
def test_split_indist_scans_equal_the_combined_scan(n, max_support, trials, seed):
    want = combined_indist_scan(n, max_support, trials, seed)
    words = agsp.indist_words(n, max_support)
    assert words == combined_indist_scan(n, max_support)
    assert max(words, agsp.indist_random(n, max_support, trials, seed)) == want


def test_agsp_suite_reports_the_combined_scans():
    reports = {r.check: r for r in suites.suite_agsp(seed=3, trials=20)}
    assert reports["indist-word-ratio"].observed == combined_indist_scan(10, 2)
    want = combined_indist_scan(10, 2, 20, 3)
    assert reports["indist-random-hermitian"].observed == want


def test_local_indist_scan_with_supports_larger_than_n():
    # random supports are capped at n qubits, as the word scan's are
    for n, max_support in ((3, 4), (1, 2), (2, 5)):
        assert 0 < agsp.indist_words(n, max_support) <= 8
        assert 0 < agsp.indist_random(n, max_support, 20, 1) <= 8


# -- the integer exact layer against the Fraction recurrence ------------------

# every (n, m) cell of the exact-sweep benchmark, plus the (1024, 64) it leaves out
SWEEP_CELLS = [(n, m) for n in (128, 256, 512, 1024) for m in (8, 16, 32, 64)]


def fraction_coeffs(n, m):
    """Oracle: T_m(l(x)) / T_m(l(0)), l(x) = (n+1-2x)/(n-1), all in Fractions."""
    ell = [Fraction(n + 1, n - 1), Fraction(-2, n - 1)]

    def times_ell(poly):
        out = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] += c * ell[0]
            out[i + 1] += c * ell[1]
        return out

    prev, cur = [Fraction(1)], list(ell)
    for _ in range(m - 1):
        nxt = [2 * c for c in times_ell(cur)]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    t_prev, t_cur = Fraction(1), ell[0]
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2 * ell[0] * t_cur - t_prev
    return tuple(c / t_cur for c in cur)


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * Fraction(x) + a
    return acc


@pytest.mark.parametrize("n,m", SWEEP_CELLS)
def test_coeffs_match_fraction_recurrence(n, m):
    poly = agsp.build_polynomial(n, m)
    assert poly.coeffs == fraction_coeffs(n, m)
    assert all(type(a) is Fraction for a in poly.coeffs)
    assert poly.denominator > 0
    assert all(Fraction(q, poly.denominator) == a for q, a in zip(poly.numerators, poly.coeffs))


@pytest.mark.parametrize("n,m", [(128, 8), (128, 64), (256, 32), (512, 16), (1024, 64)])
def test_step_error_sup_matches_fraction_horner(n, m):
    poly = agsp.build_polynomial(n, m)
    worst = max(abs(fraction_horner(poly.coeffs, x)) for x in range(1, n + 1))
    assert agsp.step_error_sup(poly) == float(worst)


def test_evaluate_at_non_integer_rationals():
    for n, m in ((16, 4), (64, 8), (128, 16)):
        poly = agsp.build_polynomial(n, m)
        for x in (Fraction(1, 3), Fraction(-7, 2), Fraction(n, 7), Fraction(5, 4), 0.375):
            assert poly.evaluate(x) == fraction_horner(poly.coeffs, x)


def test_direct_construction_derives_the_integer_form():
    # the numerators and denominator come from whatever coeffs arrive
    poly = agsp.AgspPolynomial(4, 2, (1, Fraction(-3, 4), Fraction(1, 6)))
    assert poly.denominator == 12 and poly.numerators == (12, -9, 2)
    assert poly.evaluate(Fraction(1, 2)) == 1 - Fraction(3, 8) + Fraction(1, 24)
    built = agsp.build_polynomial(16, 4)
    assert agsp.AgspPolynomial(16, 4, built.coeffs) == built


def test_integer_agsp_matches_fractions_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(
        st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.fractions(min_value=-100, max_value=100, max_denominator=50),
    )
    def check(cell, x):
        n, m = cell
        poly = agsp.build_polynomial(n, m)
        assert poly.coeffs == fraction_coeffs(n, m)
        assert poly.evaluate(x) == fraction_horner(poly.coeffs, x)

    check()


# the 15 exact-sweep cells and (1024, 64), (4096, 64), and every degree at small n
HORNER_CELLS = SWEEP_CELLS + [(4096, 64)] + [(n, m) for n in (2, 3, 5, 16) for m in range(1, n)]


def generator_sup(poly):
    """step_error_sup's former per-point loop, up to the bound check."""
    worst = max(abs(poly.numerator_at(x)) for x in range(1, poly.n + 1))
    return float(Fraction(worst, poly.denominator))


@pytest.mark.parametrize("n,m", HORNER_CELLS)
def test_array_horner_matches_scalar_and_sup_matches_generator(n, m):
    poly = agsp.build_polynomial(n, m)
    xs = np.arange(1, n + 1, dtype=object)
    got = poly.numerator_at(xs)
    assert got.dtype == object and all(type(v) is int for v in got)
    assert list(got) == [poly.numerator_at(x) for x in range(1, n + 1)]
    assert agsp.step_error_sup(poly) == generator_sup(poly)


def random_polynomial(n, m, rng):
    """P(0) = 1 and alternating signs, but no Chebyshev structure."""
    coeffs = [Fraction(1)] + [
        (-1) ** k * Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 1000)) * n**k)
        for k in range(1, m + 1)
    ]
    return agsp.AgspPolynomial(n, m, tuple(coeffs))


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 128, 129])
def test_centred_grid_max_matches_x_grid_without_parity(n):
    rng = np.random.default_rng(n)
    for m in range(1, min(n - 1, 12) + 1):
        poly = random_polynomial(n, m, rng)
        cs = agsp._centred_numerators(poly)
        assert any(cs[0::2]) and any(cs[1::2])
        want = max(abs(poly.numerator_at(x)) for x in range(1, n + 1))
        got = agsp._grid_max(poly)
        assert type(got) is int and got == want


@pytest.mark.parametrize(
    "n,m", SWEEP_CELLS + [(n, m) for n in range(2, 18) for m in range(1, n)]
)
def test_centred_coefficients_of_built_polynomial_have_parity(n, m):
    # T_m(-y) = (-1)^m T_m(y) with y = -s/(n-1): the half of the centred
    # coefficients whose index parity differs from m's vanishes exactly
    cs = agsp._centred_numerators(agsp.build_polynomial(n, m))
    assert len(cs) == m + 1 and cs[m] != 0
    assert all(c == 0 for k, c in enumerate(cs) if k % 2 != m % 2)


def test_array_horner_with_shared_denominator():
    poly = agsp.build_polynomial(64, 8)
    ps = np.arange(-70, 71, dtype=object)
    for q in (2, 7, 3**40):
        assert list(poly.numerator_at(ps, q)) == [poly.numerator_at(p, q) for p in range(-70, 71)]
        assert all(poly.evaluate(Fraction(p, q)) * poly.denominator * q**8 == v
                   for p, v in zip(range(-70, 71), poly.numerator_at(ps, q)))


def test_numpy_integer_coefficients_keep_python_ints():
    built = agsp.build_polynomial(16, 4)
    coeffs = tuple(Fraction(np.int64(a.numerator), np.int64(a.denominator)) for a in built.coeffs)
    assert isinstance(coeffs[1].numerator, np.integer)
    poly = agsp.AgspPolynomial(16, 4, coeffs)
    assert type(poly.denominator) is int and all(type(a) is int for a in poly.numerators)
    assert poly.numerators == built.numerators and poly.denominator == built.denominator
    assert agsp.step_error_sup(poly) == agsp.step_error_sup(built)
    # int64 accumulators would wrap far below this point
    big = np.array([2**40], dtype=object)
    assert poly.numerator_at(big)[0] == fraction_horner(built.coeffs, 2**40) * built.denominator
