"""Pauli strings, stabilizer groups, and Clifford tableaus in symplectic form.

Conventions used throughout the package:

* An n-qubit Pauli is ``i**phase * W(x, z)`` where ``x`` and ``z`` are
  packed bit vectors (bit q = qubit q) and ``W`` is the Hermitian word
  with per-qubit letters (x, z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z,
  (1,1) -> Y.  The phase lives in Z_4 (a power of i), so Hermitian
  strings are exactly those with phase 0 or 2.
* Qubit 0 is the leftmost character in text form ("-XIZY" puts X on
  qubit 0) and the least significant bit of dense amplitude indices.
* Stabilizer states store n independent commuting Hermitian generators,
  each carrying its sign as its phase (0 for +1, 2 for -1), as in the
  Aaronson-Gottesman tableau (quant-ph/0406196); overlap magnitudes are
  returned as floats, global phases are never exposed.

All tableau work is exact integer arithmetic, so results like overlaps
are powers of sqrt(2) with no rounding; numpy appears only as the random
Generator that drives ``random_clifford``. Dense cross-checks live in
``magiclab.statevec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _swap(row: int, n: int) -> int:
    """Packed row x | z << n with its halves swapped, z | x << n.

    The symplectic form of two packed rows a and b is the parity of
    a & _swap(b, n), so loops that pair one row with many others swap it
    once and take one popcount per pair.
    """
    return row >> n | (row & ((1 << n) - 1)) << n


def _symplectic_row(p: PauliString) -> int:
    return p.x | (p.z << p.n)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q commute (symplectic form vanishes)."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return not _f2.dot(_symplectic_row(p), q.z | q.x << q.n)


@dataclass(frozen=True)
class StabilizerState:
    """Pure stabilizer state given by n commuting Hermitian generators.

    A generator's phase, 0 or 2, is its sign.
    """

    n: int
    generators: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError("need exactly n generators")
        if not all(g.is_hermitian for g in self.generators):
            raise ValueError("stabilizer generators must be Hermitian")
        if any(g.n != self.n for g in self.generators):
            raise ValueError("size mismatch")
        rows = [_symplectic_row(g) for g in self.generators]
        swapped = [_swap(row, self.n) for row in rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, self.n):
                if (row & swapped[j]).bit_count() & 1:
                    raise ValueError(f"generators {i} and {j} anticommute")
        if _f2.rank(rows) != self.n:
            raise ValueError("generators are not independent")

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        return cls(n, tuple(PauliString.single(n, q, "Z") for q in range(n)))

    @classmethod
    def plus_state(cls, n: int) -> "StabilizerState":
        return cls(n, tuple(PauliString.single(n, q, "X") for q in range(n)))

    def element(self, mask: int) -> PauliString:
        """Signed group element, the product of the generators in `mask`.

        Commuting Hermitian factors always multiply to a Hermitian
        result, so its phase is 0 or 2.
        """
        acc = PauliString.identity(self.n)
        for i in range(self.n):
            if mask >> i & 1:
                acc = pauli_product(acc, self.generators[i])
        if not acc.is_hermitian:
            raise AssertionError("non-Hermitian stabilizer element")
        return acc


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
        g1 = s1.element(tag & low)
        g2 = s2.element(tag >> n)
        if (g1.x, g1.z) != (g2.x, g2.z):
            raise AssertionError("kernel element mismatch")
        if g1.phase != g2.phase:
            return 0.0
    return 2.0 ** ((len(kernel) - n) / 2)


def pauli_sandwich(s2: StabilizerState, p: PauliString, s1: StabilizerState) -> float:
    """|<eta2| P |eta1>| for a Pauli P and stabilizer states eta1, eta2.

    P|eta1> is (up to a global phase, which the magnitude ignores) the
    stabilizer state whose generators flip their phase by 2 wherever they
    anticommute with P, so the value reduces to a stabilizer overlap.
    Since P only touches signs, the group-intersection dimension is the
    same as for |<eta2|eta1>|: the result is always either 0 or the same
    power 2^{(k-n)/2}.  In particular, when <eta2|eta1> is nonzero the
    sandwich is either 0 or exactly |<eta2|eta1>| (signs can still clash
    the other way around: a zero overlap does not force a zero sandwich).
    """
    if not (s1.n == s2.n == p.n):
        raise ValueError("size mismatch")
    flipped = tuple(
        g if commutes(g, p) else PauliString(g.n, g.x, g.z, g.phase ^ 2)
        for g in s1.generators
    )
    return stabilizer_overlap(s2, StabilizerState(s1.n, flipped))


@dataclass(frozen=True)
class CliffordMap:
    """Clifford unitary given by its conjugation action on X_q and Z_q."""

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]
    # (x, z, e) per image of X_0..X_{n-1}, Z_0..Z_{n-1}, with the image
    # written as i^e X^x Z^z; derived from the images, so not compared
    _rows: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = self.n
        if len(self.x_images) != n or len(self.z_images) != n:
            raise ValueError("need n images for X and for Z")
        images = self.x_images + self.z_images
        for img in images:
            if img.n != n:
                raise ValueError("image size mismatch")
            if not img.is_hermitian:
                raise ValueError("images must be Hermitian")
        xs = [_symplectic_row(img) for img in self.x_images]
        zs = [_symplectic_row(img) for img in self.z_images]
        sxs = [_swap(row, n) for row in xs]
        szs = [_swap(row, n) for row in zs]
        for i in range(n):
            xi, zi = xs[i], zs[i]
            # X-X and Z-Z are symmetric and trivial on the diagonal, so only
            # j > i checks them, in the order a full sweep over j meets them
            for j in range(i):
                if (xi & szs[j]).bit_count() & 1:
                    raise ValueError("X/Z image pairing broken")
            if not (xi & szs[i]).bit_count() & 1:
                raise ValueError("X/Z image pairing broken")
            for j in range(i + 1, n):
                if (xi & sxs[j]).bit_count() & 1:
                    raise ValueError("X images must commute pairwise")
                if (zi & szs[j]).bit_count() & 1:
                    raise ValueError("Z images must commute pairwise")
                if (xi & szs[j]).bit_count() & 1:
                    raise ValueError("X/Z image pairing broken")
        rows = tuple(
            (img.x, img.z, (img.phase + (img.x & img.z).bit_count()) % 4)
            for img in images
        )
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def identity(cls, n: int) -> "CliffordMap":
        xs = tuple(PauliString.single(n, q, "X") for q in range(n))
        zs = tuple(PauliString.single(n, q, "Z") for q in range(n))
        return cls(n, xs, zs)

    def _conj(self, x: int, z: int, phase: int) -> tuple[int, int, int]:
        """Image of i^phase W(x, z) under C . C^dagger, as (x, z, phase).

        i^phase W(x, z) = i^(phase + |x & z|) X^x Z^z, and the images of
        X^x and Z^z are the ordered products of the images of X_q and Z_q.
        In the X^a Z^b form a product only picks up the sign (-1)^|b & a'|
        of moving Z^b past X^a'.
        """
        rows = self._rows
        ax = az = 0
        e = phase + (x & z).bit_count()
        for bits, offset in ((x, 0), (z, self.n)):
            while bits:
                low = bits & -bits
                bx, bz, be = rows[offset + low.bit_length() - 1]
                e += be + 2 * (az & bx).bit_count()
                ax ^= bx
                az ^= bz
                bits ^= low
        return ax, az, (e - (ax & az).bit_count()) % 4

    def conjugate(self, p: PauliString) -> PauliString:
        """Image C P C^dagger, with exact phase."""
        if p.n != self.n:
            raise ValueError("size mismatch")
        return PauliString(self.n, *self._conj(p.x, p.z, p.phase))

    def adjoint(self) -> "CliffordMap":
        """Tableau of the inverse unitary.

        The symplectic inverse is M^-1 = Omega M^T Omega, with M the
        2n x 2n bit matrix whose rows are the packed images and Omega the
        swap of the x and z halves: row r of M^-1 is column rbar of M with
        its halves swapped.  The sign of each row is the one that makes
        C map it back to +X_q or +Z_q.
        """
        n = self.n
        low = (1 << n) - 1
        cols = [0] * (2 * n)
        for r, (x, z, _) in enumerate(self._rows):
            bits = x | z << n
            while bits:
                lsb = bits & -bits
                cols[lsb.bit_length() - 1] |= 1 << r
                bits ^= lsb
        images = []
        for r in range(2 * n):
            col = cols[(r + n) % (2 * n)]
            x, z = col >> n, col & low
            bx, bz, phase = self._conj(x, z, 0)
            # packed, X_q is bit q and Z_q is bit n + q
            if bx | bz << n != 1 << r:
                raise AssertionError("symplectic inversion failed")
            images.append(PauliString(n, x, z, -phase % 4))
        return CliffordMap(n, tuple(images[:n]), tuple(images[n:]))


def apply_clifford(c: CliffordMap, s: StabilizerState) -> StabilizerState:
    """Stabilizer state C|eta> from the tableau action on generators."""
    if c.n != s.n:
        raise ValueError("size mismatch")
    return StabilizerState(s.n, tuple(c.conjugate(g) for g in s.generators))


def random_clifford(n: int, rng) -> CliffordMap:
    """Sample a Clifford tableau exactly uniformly, modulo global phase.

    Picks a random symplectic basis pair by pair: X_i goes to a uniform
    nonzero vector v_i of the symplectic complement of the earlier pairs and
    Z_i to a uniform w_i there with <v_i, w_i> = 1; each image then gets an
    independent random sign.  Sp(2n, F2) acts simply transitively on
    symplectic bases, so every Clifford is equally likely (Koenig-Smolin,
    arXiv:1406.2170; Bravyi-Maslov, arXiv:2003.09412).  `rng` is a numpy
    Generator or an integer seed.

    Each 2n-bit draw reads the uint32 words that ``rng.bytes`` would
    consume straight from the bit generator, packed little-endian, so the
    tableau and the generator state afterwards are those of the
    ``rng.bytes`` loop.  The draws bypass the bit generator's lock: a
    Generator must not be shared across threads during a call.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    low = (1 << n) - 1
    full = (1 << 2 * n) - 1
    # rng.bytes(k) takes ceil(k / 4) uint32 words for k = ceil(2n / 8) bytes
    shifts = range(0, 32 * ((2 * n + 31) // 32), 32)
    bitgen = rng.bit_generator.ctypes
    next_uint32, state = bitgen.next_uint32, bitgen.state
    # (v, w, swapped v, swapped w) per earlier pair
    pairs: list[tuple[int, int, int, int]] = []

    def bits() -> int:
        u = 0
        for shift in shifts:
            u |= next_uint32(state) << shift
        return u & full

    def draw() -> int:
        # projects onto the complement of the earlier pairs; a linear
        # surjection, so it maps uniform bits to a uniform vector there
        u = bits()
        for v, w, sv, sw in pairs:
            if (u & sw).bit_count() & 1:
                u ^= v
            if (u & sv).bit_count() & 1:
                u ^= w
        return u

    for _ in range(n):
        v = draw()
        while not v:
            v = draw()
        sv = _swap(v, n)
        w = draw()
        while not (w & sv).bit_count() & 1:
            w = draw()
        pairs.append((v, w, sv, _swap(w, n)))
    signs = bits()
    rows = [v for v, *_ in pairs] + [w for _, w, *_ in pairs]
    images = [
        PauliString(n, row & low, row >> n, 2 * (signs >> k & 1))
        for k, row in enumerate(rows)
    ]
    return CliffordMap(n, tuple(images[:n]), tuple(images[n:]))
