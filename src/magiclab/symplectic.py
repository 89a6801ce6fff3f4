"""Pauli strings, stabilizer groups, and Clifford tableaus in symplectic form.

Conventions used throughout the package:

* An n-qubit Pauli is ``i**phase * W(x, z)`` where ``x`` and ``z`` are
  packed bit vectors (bit q = qubit q) and ``W`` is the Hermitian word
  with per-qubit letters (x, z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z,
  (1,1) -> Y.  The phase lives in Z_4 (a power of i), so Hermitian
  strings are exactly those with phase 0 or 2.
* Qubit 0 is the leftmost character in text form ("-XIZY" puts X on
  qubit 0) and the least significant bit of dense amplitude indices.
* Stabilizer states store n independent commuting Hermitian words plus
  a separate sign per generator; overlap magnitudes are returned as
  floats, global phases are never exposed.

All tableau work is exact integer arithmetic, so results like overlaps
are powers of sqrt(2) with no rounding; numpy appears only as the random
Generator that drives ``random_clifford``. Dense cross-checks live in
``magiclab.statevec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _f2

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli operator i**phase * W(x, z)."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the register")
        if not 0 <= self.phase < 4:
            object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """Single-qubit letter ('X', 'Y', 'Z' or 'I') embedded at `qubit`."""
        if not 0 <= qubit < n:
            raise ValueError("qubit index out of range")
        xb, zb = _LETTER_TO_BITS[letter]
        return cls(n, xb << qubit, zb << qubit, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse "-XIZY" style text; qubit 0 is the leftmost letter."""
        body = text
        phase = 0
        for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if body.startswith(prefix):
                body = body[len(prefix):]
                phase = ph
                break
        if not body or any(c not in _LETTER_TO_BITS for c in body):
            raise ValueError(f"not a Pauli string: {text!r}")
        x = z = 0
        for q, letter in enumerate(body):
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << q
            z |= zb << q
        return cls(len(body), x, z, phase)

    def to_text(self) -> str:
        letters = "".join(
            _BITS_TO_LETTER[(self.x >> q & 1, self.z >> q & 1)]
            for q in range(self.n)
        )
        return _PHASE_PREFIX[self.phase] + letters

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (0, 2)

    @property
    def sign(self) -> int:
        """+1 or -1 for Hermitian strings."""
        if not self.is_hermitian:
            raise ValueError("sign undefined for non-Hermitian phase")
        return 1 if self.phase == 0 else -1

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        occ = self.x | self.z
        return tuple(q for q in range(self.n) if occ >> q & 1)

    def word(self) -> "PauliString":
        """Same letters with phase reset to 0."""
        return PauliString(self.n, self.x, self.z, 0)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_product(self, other)

    def __repr__(self):
        return f"PauliString({self.to_text()!r})"


def pauli_product(p: PauliString, q: PauliString) -> PauliString:
    """Operator product p*q with exact phase tracking."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    x3 = p.x ^ q.x
    z3 = p.z ^ q.z
    # W(x1,z1) W(x2,z2) = i^k W(x3,z3); k from normal-ordering X past Z.
    k = (
        (p.x & p.z).bit_count()
        + (q.x & q.z).bit_count()
        + 2 * (p.z & q.x).bit_count()
        - (x3 & z3).bit_count()
    )
    return PauliString(p.n, x3, z3, (p.phase + q.phase + k) % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q commute (symplectic form vanishes)."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def _symplectic_row(p: PauliString) -> int:
    return p.x | (p.z << p.n)


@dataclass(frozen=True)
class StabilizerState:
    """Pure stabilizer state given by n signed commuting generators."""

    n: int
    generators: tuple[PauliString, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != self.n or len(self.signs) != self.n:
            raise ValueError("need exactly n generators and signs")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if any(g.phase != 0 for g in self.generators):
            raise ValueError("generator words must carry phase 0")
        gens = self.generators
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not commutes(gens[i], gens[j]):
                    raise ValueError(f"generators {i} and {j} anticommute")
        rows = [_symplectic_row(g) for g in gens]
        if _f2.rank(rows) != self.n:
            raise ValueError("generators are not independent")

    @classmethod
    def from_generators(cls, gens: Iterable[PauliString]) -> "StabilizerState":
        """Fold Hermitian phases (0 or 2) into separate signs."""
        words, signs = [], []
        for g in gens:
            if not g.is_hermitian:
                raise ValueError("stabilizer generators must be Hermitian")
            words.append(g.word())
            signs.append(g.sign)
        return cls(words[0].n if words else 0, tuple(words), tuple(signs))

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        gens = tuple(PauliString.single(n, q, "Z") for q in range(n))
        return cls(n, gens, (1,) * n)

    @classmethod
    def plus_state(cls, n: int) -> "StabilizerState":
        gens = tuple(PauliString.single(n, q, "X") for q in range(n))
        return cls(n, gens, (1,) * n)

    def element(self, mask: int) -> tuple[PauliString, int]:
        """Group element selected by generator mask, as (word, sign).

        Commuting Hermitian factors always multiply to a Hermitian
        result, so the accumulated phase is 0 or 2 and folds into the
        sign.
        """
        acc = PauliString.identity(self.n)
        sign = 1
        for i in range(self.n):
            if mask >> i & 1:
                acc = pauli_product(acc, self.generators[i])
                sign *= self.signs[i]
        if not acc.is_hermitian:
            raise AssertionError("non-Hermitian stabilizer element")
        return acc.word(), sign * acc.sign


def stabilizer_overlap(s1: StabilizerState, s2: StabilizerState) -> float:
    """|<eta1|eta2>| for two stabilizer states.

    The magnitude is 2**((k - n)/2) with k the dimension of the
    intersection of the two stabilizer groups, unless some intersection
    element carries opposite signs in the two groups, in which case the
    states are orthogonal.
    """
    if s1.n != s2.n:
        raise ValueError("size mismatch")
    n = s1.n
    rows = [_symplectic_row(g) for g in s1.generators]
    rows += [_symplectic_row(g) for g in s2.generators]
    kernel = _f2.left_kernel(rows)
    low = (1 << n) - 1
    for tag in kernel:
        mask1 = tag & low
        mask2 = tag >> n
        word1, sign1 = s1.element(mask1)
        word2, sign2 = s2.element(mask2)
        if (word1.x, word1.z) != (word2.x, word2.z):
            raise AssertionError("kernel element mismatch")
        if sign1 != sign2:
            return 0.0
    return 2.0 ** ((len(kernel) - n) / 2)


def pauli_sandwich(s2: StabilizerState, p: PauliString, s1: StabilizerState) -> float:
    """|<eta2| P |eta1>| for a Pauli P and stabilizer states eta1, eta2.

    P|eta1> is (up to a global phase, which the magnitude ignores) the
    stabilizer state whose generator signs flip wherever the generator
    anticommutes with P, so the value reduces to a stabilizer overlap.
    Since P only touches signs, the group-intersection dimension is the
    same as for |<eta2|eta1>|: the result is always either 0 or the same
    power 2^{(k-n)/2}.  In particular, when <eta2|eta1> is nonzero the
    sandwich is either 0 or exactly |<eta2|eta1>| (signs can still clash
    the other way around: a zero overlap does not force a zero sandwich).
    """
    if not (s1.n == s2.n == p.n):
        raise ValueError("size mismatch")
    flipped = tuple(
        s * (1 if commutes(g, p) else -1)
        for g, s in zip(s1.generators, s1.signs)
    )
    return stabilizer_overlap(s2, StabilizerState(s1.n, s1.generators, flipped))


@dataclass(frozen=True)
class CliffordMap:
    """Clifford unitary given by its conjugation action on X_q and Z_q."""

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("need n images for X and for Z")
        for img in self.x_images + self.z_images:
            if img.n != self.n:
                raise ValueError("image size mismatch")
            if not img.is_hermitian:
                raise ValueError("images must be Hermitian")
        for i in range(self.n):
            for j in range(self.n):
                if not commutes(self.x_images[i], self.x_images[j]):
                    raise ValueError("X images must commute pairwise")
                if not commutes(self.z_images[i], self.z_images[j]):
                    raise ValueError("Z images must commute pairwise")
                want = i != j
                if commutes(self.x_images[i], self.z_images[j]) != want:
                    raise ValueError("X/Z image pairing broken")

    @classmethod
    def identity(cls, n: int) -> "CliffordMap":
        xs = tuple(PauliString.single(n, q, "X") for q in range(n))
        zs = tuple(PauliString.single(n, q, "Z") for q in range(n))
        return cls(n, xs, zs)

    def conjugate(self, p: PauliString) -> PauliString:
        """Image C P C^dagger, with exact phase."""
        if p.n != self.n:
            raise ValueError("size mismatch")
        # P = i^(phase + |x & z|) * prod_q X_q^(x_q) * prod_q Z_q^(z_q)
        acc = PauliString(self.n, 0, 0, (p.phase + (p.x & p.z).bit_count()) % 4)
        for q in range(self.n):
            if p.x >> q & 1:
                acc = pauli_product(acc, self.x_images[q])
        for q in range(self.n):
            if p.z >> q & 1:
                acc = pauli_product(acc, self.z_images[q])
        return acc

    def adjoint(self) -> "CliffordMap":
        """Tableau of the inverse unitary."""
        n = self.n
        rows = [_symplectic_row(img) for img in self.x_images]
        rows += [_symplectic_row(img) for img in self.z_images]

        def bit(r: int, c: int) -> int:
            return rows[r] >> c & 1

        # Symplectic inverse: M^-1 = Omega M^T Omega with Omega swapping
        # the x and z halves; entry (r, c) of M^-1 is M[cbar][rbar].
        def inv_row(r: int) -> tuple[int, int]:
            rbar = r + n if r < n else r - n
            x = z = 0
            for c in range(2 * n):
                cbar = c + n if c < n else c - n
                if bit(cbar, rbar):
                    if c < n:
                        x |= 1 << c
                    else:
                        z |= 1 << (c - n)
            return x, z

        def signed_preimage(r: int, target: PauliString) -> PauliString:
            x, z = inv_row(r)
            word = PauliString(n, x, z, 0)
            back = self.conjugate(word)
            if (back.x, back.z) != (target.x, target.z):
                raise AssertionError("symplectic inversion failed")
            return PauliString(n, x, z, (-back.phase) % 4)

        xs = tuple(
            signed_preimage(q, PauliString.single(n, q, "X")) for q in range(n)
        )
        zs = tuple(
            signed_preimage(n + q, PauliString.single(n, q, "Z")) for q in range(n)
        )
        return CliffordMap(n, xs, zs)


def apply_clifford(c: CliffordMap, s: StabilizerState) -> StabilizerState:
    """Stabilizer state C|eta> from the tableau action on generators."""
    if c.n != s.n:
        raise ValueError("size mismatch")
    words, signs = [], []
    for g, sign in zip(s.generators, s.signs):
        img = c.conjugate(g)
        words.append(img.word())
        signs.append(sign * img.sign)
    return StabilizerState(s.n, tuple(words), tuple(signs))


# -- elementary H/S/CX conjugations, the gate-level reference for tests ---

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


def random_clifford(n: int, rng) -> CliffordMap:
    """Sample a Clifford tableau exactly uniformly, modulo global phase.

    Picks a random symplectic basis pair by pair: X_i goes to a uniform
    nonzero vector v_i of the symplectic complement of the earlier pairs and
    Z_i to a uniform w_i there with <v_i, w_i> = 1; each image then gets an
    independent random sign.  Sp(2n, F2) acts simply transitively on
    symplectic bases, so every Clifford is equally likely (Koenig-Smolin,
    arXiv:1406.2170; Bravyi-Maslov, arXiv:2003.09412).  `rng` is a numpy
    Generator or an integer seed.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    low = (1 << n) - 1
    full = (1 << 2 * n) - 1
    nbytes = (2 * n + 7) // 8
    pairs: list[tuple[int, int]] = []

    def form(a: int, b: int) -> int:
        # symplectic form of packed rows x | z << n
        return ((a & (b >> n)).bit_count() + ((a >> n) & b).bit_count()) & 1

    def project(u: int) -> int:
        # onto the complement of the earlier pairs; a linear surjection, so
        # it maps uniform bits to a uniform vector of the complement
        for v, w in pairs:
            if form(u, w):
                u ^= v
            if form(u, v):
                u ^= w
        return u

    def draw() -> int:
        return project(int.from_bytes(rng.bytes(nbytes), "little") & full)

    for _ in range(n):
        v = draw()
        while not v:
            v = draw()
        w = draw()
        while not form(v, w):
            w = draw()
        pairs.append((v, w))
    signs = int.from_bytes(rng.bytes(nbytes), "little")
    rows = [v for v, _ in pairs] + [w for _, w in pairs]
    images = [
        PauliString(n, row & low, row >> n, 2 * (signs >> k & 1))
        for k, row in enumerate(rows)
    ]
    return CliffordMap(n, tuple(images[:n]), tuple(images[n:]))
