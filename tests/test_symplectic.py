"""Exact Pauli/stabilizer algebra against dense matrix oracles."""

import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from magiclab import symplectic as sp
from magiclab.statevec import pauli_matrix, to_statevector


def random_pauli(n, rng, hermitian=False):
    x = int(rng.integers(0, 2**n))
    z = int(rng.integers(0, 2**n))
    phase = int(rng.choice([0, 2] if hermitian else [0, 1, 2, 3]))
    return sp.PauliString(n, x, z, phase)


def test_text_roundtrip():
    for text in ["XIZY", "-XIZY", "iZZ", "-iYX", "I", "-Z"]:
        p = sp.PauliString.from_text(text)
        assert p.to_text() == text.replace("+", "")
    assert sp.PauliString.from_text("X").x == 1
    # qubit 0 is the leftmost letter
    p = sp.PauliString.from_text("XII")
    assert p.x == 1 and p.z == 0


def test_single_letters_match_dense():
    for letter, mat in [("I", np.eye(2)), ("X", [[0, 1], [1, 0]]),
                        ("Y", [[0, -1j], [1j, 0]]), ("Z", [[1, 0], [0, -1]])]:
        p = sp.PauliString.single(1, 0, letter)
        assert np.allclose(pauli_matrix(p), np.array(mat))


def test_product_example():
    x = sp.PauliString.from_text("X")
    z = sp.PauliString.from_text("Z")
    assert (x * z).to_text() == "-iY"
    assert (z * x).to_text() == "iY"


def test_product_vs_dense():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        got = pauli_matrix(sp.pauli_product(p, q))
        want = pauli_matrix(p) @ pauli_matrix(q)
        assert np.abs(got - want).max() < 1e-12


def test_commutes_vs_dense():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p, q = random_pauli(n, rng), random_pauli(n, rng)
        comm = pauli_matrix(p) @ pauli_matrix(q) - pauli_matrix(q) @ pauli_matrix(p)
        assert sp.commutes(p, q) == (np.abs(comm).max() < 1e-12)


def test_weight_and_support():
    p = sp.PauliString.from_text("XIZY")
    assert p.weight == 3
    assert p.support == (0, 2, 3)


# -- elementary H/S/CX conjugations, the gate-level reference -------------

def _conj_h(xs, zs, ph, q):
    for i in range(len(xs)):
        xb = xs[i] >> q & 1
        zb = zs[i] >> q & 1
        if xb & zb:
            ph[i] = (ph[i] + 2) % 4
        if xb ^ zb:
            xs[i] ^= 1 << q
            zs[i] ^= 1 << q


def _conj_s(xs, zs, ph, q):
    for i in range(len(xs)):
        xb = xs[i] >> q & 1
        zb = zs[i] >> q & 1
        if xb & zb:
            ph[i] = (ph[i] + 2) % 4
        if xb:
            zs[i] ^= 1 << q


def _conj_cx(xs, zs, ph, c, t):
    for i in range(len(xs)):
        xc = xs[i] >> c & 1
        zc = zs[i] >> c & 1
        xt = xs[i] >> t & 1
        zt = zs[i] >> t & 1
        if xc & zt & (xt ^ zc ^ 1):
            ph[i] = (ph[i] + 2) % 4
        if xc:
            xs[i] ^= 1 << t
        if zt:
            zs[i] ^= 1 << c


def test_elementary_conjugations_match_dense():
    from magiclab.statevec import CX4, H2, I2, S2

    rng = np.random.default_rng(13)
    h, s = np.asarray(H2), np.asarray(S2)
    # embed on 2 qubits, qubit 0 = low bit
    embeds = {
        ("h", 0): np.kron(I2, h), ("h", 1): np.kron(h, I2),
        ("s", 0): np.kron(I2, s), ("s", 1): np.kron(s, I2),
    }
    for _ in range(100):
        p = random_pauli(2, rng)
        for (kind, q), u in embeds.items():
            xs, zs, ph = [p.x], [p.z], [p.phase]
            if kind == "h":
                _conj_h(xs, zs, ph, q)
            else:
                _conj_s(xs, zs, ph, q)
            got = pauli_matrix(sp.PauliString(2, xs[0], zs[0], ph[0]))
            want = u @ pauli_matrix(p) @ u.conj().T
            assert np.abs(got - want).max() < 1e-12, (kind, q, p)
        # CX with control 0, target 1 (matches CX4's convention)
        xs, zs, ph = [p.x], [p.z], [p.phase]
        _conj_cx(xs, zs, ph, 0, 1)
        got = pauli_matrix(sp.PauliString(2, xs[0], zs[0], ph[0]))
        want = CX4 @ pauli_matrix(p) @ CX4.conj().T
        assert np.abs(got - want).max() < 1e-12, ("cx", p)


def test_random_clifford_structure_and_adjoint():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        c = sp.random_clifford(n, rng)  # constructor validates structure
        cinv = c.adjoint()
        for _ in range(5):
            p = random_pauli(n, rng, hermitian=True)
            assert cinv.conjugate(c.conjugate(p)) == p
            assert c.conjugate(cinv.conjugate(p)) == p


def test_conjugate_is_homomorphism():
    rng = np.random.default_rng(15)
    c = sp.random_clifford(4, rng)
    for _ in range(50):
        p, q = random_pauli(4, rng), random_pauli(4, rng)
        lhs = c.conjugate(sp.pauli_product(p, q))
        rhs = sp.pauli_product(c.conjugate(p), c.conjugate(q))
        assert lhs == rhs


def test_single_qubit_cliffords_land_in_the_24_group():
    # enumeration oracle: images of X and Z are anticommuting signed
    # letters; 6 * 4 = 24 elements mod global phase
    valid = set()
    letters = ["X", "Y", "Z"]
    for lx in letters:
        for sx in (0, 2):
            for lz in letters:
                if lz == lx:
                    continue
                for sz in (0, 2):
                    valid.add((lx, sx, lz, sz))
    assert len(valid) == 24
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(300):
        c = sp.random_clifford(1, rng)
        xi, zi = c.x_images[0], c.z_images[0]
        key = (
            xi.word().to_text(), xi.phase, zi.word().to_text(), zi.phase,
        )
        seen.add((key[0], key[1], key[2], key[3]))
        assert (key[0], key[1], key[2], key[3]) in {
            (lx, sx, lz, sz) for (lx, sx, lz, sz) in valid
        }
    assert len(seen) > 12  # mixing sanity, not uniformity


def chi_square(counts: Counter, classes: int) -> tuple[float, float]:
    """Pearson statistic against the uniform law, and its 99.9% critical value."""
    from scipy.stats import chi2

    assert len(counts) == classes
    expected = sum(counts.values()) / classes
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    return stat, chi2.isf(1e-3, classes - 1)


def test_random_clifford_uniform_over_the_24_single_qubit_classes():
    rng = np.random.default_rng(19)
    counts = Counter()
    for _ in range(24_000):
        c = sp.random_clifford(1, rng)
        counts[c.x_images[0], c.z_images[0]] += 1
    stat, critical = chi_square(counts, 24)
    assert stat < critical, (stat, critical)


def test_random_clifford_uniform_over_sp4_with_balanced_signs():
    # |Sp(4, F2)| = 720 symplectic classes at n = 2, about 20 draws each
    rng = np.random.default_rng(20)
    draws = 14_400
    counts = Counter()
    minus = [0] * 4
    for _ in range(draws):
        c = sp.random_clifford(2, rng)
        images = c.x_images + c.z_images
        counts[tuple((p.x, p.z) for p in images)] += 1
        for k, p in enumerate(images):
            minus[k] += p.phase == 2
    stat, critical = chi_square(counts, 720)
    assert stat < critical, (stat, critical)
    sigma = math.sqrt(draws / 4)
    assert all(abs(m - draws / 2) < 4 * sigma for m in minus), minus


def test_random_clifford_same_seed_same_map():
    for n in (1, 3, 7):
        first = sp.random_clifford(n, np.random.default_rng(21))
        assert sp.random_clifford(n, np.random.default_rng(21)) == first
        assert sp.random_clifford(n, 21) == first
        assert sp.random_clifford(n, 22) != first
    with pytest.raises(ValueError):
        sp.random_clifford(0, 21)


def form_by_two_popcounts(a, b, n):
    return ((a & (b >> n)).bit_count() + ((a >> n) & b).bit_count()) & 1


def random_clifford_by_bytes(n, rng):
    """The sampler with one rng.bytes call per 2n-bit draw, as (x, z, phase) rows."""
    low, full, nbytes = (1 << n) - 1, (1 << 2 * n) - 1, (2 * n + 7) // 8
    pairs = []

    def draw():
        u = int.from_bytes(rng.bytes(nbytes), "little") & full
        for v, w in pairs:
            if form_by_two_popcounts(u, w, n):
                u ^= v
            if form_by_two_popcounts(u, v, n):
                u ^= w
        return u

    for _ in range(n):
        v = draw()
        while not v:
            v = draw()
        w = draw()
        while not form_by_two_popcounts(v, w, n):
            w = draw()
        pairs.append((v, w))
    signs = int.from_bytes(rng.bytes(nbytes), "little")
    rows = [v for v, _ in pairs] + [w for _, w in pairs]
    return [(row & low, row >> n, 2 * (signs >> k & 1)) for k, row in enumerate(rows)]


def bitgen_state(rng):
    # MT19937, Philox and SFC64 keep parts of their state in arrays
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


@pytest.mark.parametrize("bitgen", ["PCG64", "MT19937", "Philox", "SFC64"])
def test_random_clifford_reads_the_rng_bytes_stream(bitgen):
    # 1 to 16 bytes per draw, on both sides of each 4-byte word boundary
    for n in (1, 3, 4, 15, 16, 17, 32, 33, 64):
        rng = np.random.Generator(getattr(np.random, bitgen)(n))
        twin = np.random.Generator(getattr(np.random, bitgen)(n))
        for _ in range(2):
            c = sp.random_clifford(n, rng)
            got = [(p.x, p.z, p.phase) for p in c.x_images + c.z_images]
            assert got == random_clifford_by_bytes(n, twin), (bitgen, n)
            assert bitgen_state(rng) == bitgen_state(twin), (bitgen, n)
            # an odd word count leaves half a 64-bit output buffered
            assert rng.bytes(1) == twin.bytes(1)


def test_swapped_form_matches_two_popcounts_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def row_pairs(draw):
        n = draw(st.integers(1, 70))
        rows = st.integers(0, 2 ** (2 * n) - 1)
        return n, draw(rows), draw(rows)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(row_pairs())
    def check(case):
        n, a, b = case
        want = form_by_two_popcounts(a, b, n)
        assert (a & sp._swap(b, n)).bit_count() & 1 == want
        assert sp._swap(sp._swap(b, n), n) == b
        low = (1 << n) - 1
        p = sp.PauliString(n, a & low, a >> n)
        q = sp.PauliString(n, b & low, b >> n)
        assert sp.commutes(p, q) == (not want)

    check()


def random_stabilizer_state(n, rng):
    c = sp.random_clifford(n, rng)
    base = sp.StabilizerState.zero_state(n)
    return sp.apply_clifford(c, base)


def test_overlap_examples():
    z2 = sp.StabilizerState.zero_state(2)
    p2 = sp.StabilizerState.plus_state(2)
    assert sp.stabilizer_overlap(z2, p2) == pytest.approx(0.5, abs=1e-15)
    # GHZ via generators XX..X and Z_i Z_{i+1}
    n = 4
    gens = [sp.PauliString(n, (1 << n) - 1, 0, 0)]
    for i in range(n - 1):
        gens.append(sp.PauliString(n, 0, (1 << i) | (1 << (i + 1)), 0))
    ghz = sp.StabilizerState(n, tuple(gens))
    assert sp.stabilizer_overlap(sp.StabilizerState.zero_state(n), ghz) == (
        pytest.approx(2**-0.5, abs=1e-15)
    )
    # orthogonal: |0> vs |1>
    one = sp.StabilizerState(1, (sp.PauliString.from_text("-Z"),))
    assert sp.stabilizer_overlap(sp.StabilizerState.zero_state(1), one) == 0.0


def test_overlap_matches_dense_and_is_half_integer_power():
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        s1 = random_stabilizer_state(n, rng)
        s2 = random_stabilizer_state(n, rng)
        val = sp.stabilizer_overlap(s1, s2)
        dense = abs(np.vdot(to_statevector(s1).amps, to_statevector(s2).amps))
        assert abs(val - dense) < 1e-10
        if val > 0:
            k = math.log2(val**2)
            assert abs(k - round(k)) < 1e-12


def test_sandwich_matches_dense_and_overlap():
    # The sandwich always shares the group-intersection dimension with the
    # plain overlap, so it is 0 or the same half-integer power of 2; the
    # two magnitudes agree whenever the plain overlap itself is nonzero.
    rng = np.random.default_rng(18)
    both_nonzero = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s1 = random_stabilizer_state(n, rng)
        s2 = random_stabilizer_state(n, rng)
        p = random_pauli(n, rng)
        val = sp.pauli_sandwich(s2, p, s1)
        v1 = to_statevector(s1).amps
        v2 = to_statevector(s2).amps
        dense = abs(np.vdot(v2, pauli_matrix(p) @ v1))
        assert abs(val - dense) < 1e-10
        if val > 1e-12:
            halves = 2.0 * np.log2(val)
            assert abs(halves - round(halves)) < 1e-9
        overlap = sp.stabilizer_overlap(s2, s1)
        if overlap > 1e-12 and val > 1e-12:
            both_nonzero += 1
            assert abs(val - overlap) < 1e-12
    assert both_nonzero > 20


def element_from_words_and_signs(s, mask):
    """Reference group element: the unsigned words' product, the signs apart."""
    acc, sign = sp.PauliString.identity(s.n), 1
    for i, g in enumerate(s.generators):
        if mask >> i & 1:
            acc, sign = sp.pauli_product(acc, g.word()), sign * g.sign
    return sp.PauliString(s.n, acc.x, acc.z, 0 if sign * acc.sign == 1 else 2)


def test_element_is_the_signed_generator_product():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        s = random_stabilizer_state(n, rng)
        for mask in range(1 << n):
            assert s.element(mask) == element_from_words_and_signs(s, mask)
        assert s.element(0) == sp.PauliString.identity(n)


def test_stabilizer_state_validation():
    with pytest.raises(ValueError):
        sp.StabilizerState(
            2, (sp.PauliString.from_text("XI"), sp.PauliString.from_text("ZI"))
        )  # anticommuting
    with pytest.raises(ValueError):
        sp.StabilizerState(
            2, (sp.PauliString.from_text("ZI"), sp.PauliString.from_text("ZI"))
        )  # dependent


# -- int kernels against per-PauliString references ---------------------------

def conjugate_by_products(c, p):
    """Reference C P C^dagger: one pauli_product per image of X_q and Z_q."""
    acc = sp.PauliString(c.n, 0, 0, (p.phase + (p.x & p.z).bit_count()) % 4)
    for q in range(c.n):
        if p.x >> q & 1:
            acc = sp.pauli_product(acc, c.x_images[q])
    for q in range(c.n):
        if p.z >> q & 1:
            acc = sp.pauli_product(acc, c.z_images[q])
    return acc


def adjoint_by_bits(c):
    """Reference inverse tableau, entry by entry from M^-1 = Omega M^T Omega."""
    n = c.n
    rows = [img.x | img.z << n for img in c.x_images + c.z_images]
    images = []
    for r in range(2 * n):
        rbar = r + n if r < n else r - n
        x = z = 0
        for col in range(2 * n):
            cbar = col + n if col < n else col - n
            if rows[cbar] >> rbar & 1:
                if col < n:
                    x |= 1 << col
                else:
                    z |= 1 << (col - n)
        back = conjugate_by_products(c, sp.PauliString(n, x, z, 0))
        images.append(sp.PauliString(n, x, z, -back.phase % 4))
    return sp.CliffordMap(n, tuple(images[:n]), tuple(images[n:]))


def test_conj_kernel_matches_product_loop_with_phases():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        c = sp.random_clifford(n, rng)
        for _ in range(8):
            p = random_pauli(n, rng)
            want = conjugate_by_products(c, p)
            assert c._conj(p.x, p.z, p.phase) == (want.x, want.z, want.phase)
            assert c.conjugate(p) == want


def test_apply_clifford_matches_product_loop():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        c = sp.random_clifford(n, rng)
        s = random_stabilizer_state(n, rng)
        out = sp.apply_clifford(c, s)
        for g, img in zip(s.generators, out.generators, strict=True):
            assert img == conjugate_by_products(c, g)


def test_adjoint_matches_bitwise_construction_and_inverts():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        c = sp.random_clifford(n, rng)
        adj = c.adjoint()
        assert adj == adjoint_by_bits(c)
        basis = [sp.PauliString.single(n, q, letter) for q in range(n) for letter in "XZ"]
        for p in basis:
            assert adj.conjugate(c.conjugate(p)) == p
            assert c.conjugate(adj.conjugate(p)) == p
        assert adj.adjoint() == c


def test_adjoint_inversion_check_survives_optimize():
    # corrupting the packed rows behind the images makes C map the inverse
    # rows elsewhere; the round trip must raise in every interpreter mode
    code = (
        "from magiclab import symplectic as sp\n"
        "c = sp.random_clifford(3, 5)\n"
        "rows = list(c._rows)\n"
        "rows[0] = (rows[0][0] ^ 1, rows[0][1], rows[0][2])\n"
        "object.__setattr__(c, '_rows', tuple(rows))\n"
        "try:\n"
        "    c.adjoint()\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, 'raised', exc)\n"
        "else:\n"
        "    print(__debug__, 'silent')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False raised symplectic inversion failed", out.stdout


def test_validators_keep_their_messages():
    xs = tuple(sp.PauliString.from_text(t) for t in ("XI", "ZI"))
    zs = tuple(sp.PauliString.from_text(t) for t in ("ZI", "IZ"))
    with pytest.raises(ValueError, match="X images must commute pairwise"):
        sp.CliffordMap(2, xs, zs)
    xs = tuple(sp.PauliString.from_text(t) for t in ("XI", "IX"))
    zs = tuple(sp.PauliString.from_text(t) for t in ("ZI", "XZ"))
    with pytest.raises(ValueError, match="Z images must commute pairwise"):
        sp.CliffordMap(2, xs, zs)
    zs = tuple(sp.PauliString.from_text(t) for t in ("IZ", "ZI"))
    with pytest.raises(ValueError, match="X/Z image pairing broken"):
        sp.CliffordMap(2, xs, zs)
    gens = tuple(sp.PauliString.from_text(t) for t in ("ZII", "IZI", "XII"))
    with pytest.raises(ValueError, match="generators 0 and 2 anticommute"):
        sp.StabilizerState(3, gens)
    with pytest.raises(ValueError, match="size mismatch"):
        sp.StabilizerState(2, tuple(sp.PauliString.from_text(t) for t in ("ZII", "IZI")))
    with pytest.raises(ValueError, match="generators must be Hermitian"):
        sp.StabilizerState(1, (sp.PauliString.from_text("iZ"),))
    with pytest.raises(ValueError, match="need exactly n generators"):
        sp.StabilizerState(2, (sp.PauliString.from_text("ZI"),))


def test_pauli_product_matches_dense_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def pauli_pairs(draw):
        n = draw(st.integers(1, 6))
        words = st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1), st.integers(0, 3))
        (x1, z1, k1), (x2, z2, k2) = draw(words), draw(words)
        return sp.PauliString(n, x1, z1, k1), sp.PauliString(n, x2, z2, k2)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(pauli_pairs())
    def check(pair):
        p, q = pair
        want = pauli_matrix(p) @ pauli_matrix(q)
        assert np.array_equal(pauli_matrix(sp.pauli_product(p, q)), want)

    check()
