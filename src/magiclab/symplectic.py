"""Pauli strings, stabilizer groups, and Clifford tableaus in symplectic form.

Conventions used throughout the package:

* An n-qubit Pauli is ``i**phase * W(x, z)`` where ``x`` and ``z`` are
  packed bit vectors (bit q = qubit q) and ``W`` is the Hermitian word
  with per-qubit letters (x, z) = (0,0) -> I, (1,0) -> X, (0,1) -> Z,
  (1,1) -> Y.  The phase lives in Z_4 (a power of i), so Hermitian
  strings are exactly those with phase 0 or 2.
* Qubit 0 is the leftmost character in text form ("-XIZY" puts X on
  qubit 0) and the least significant bit of dense amplitude indices.
* A tableau is stored once, as in the Aaronson-Gottesman form
  (quant-ph/0406196): a tuple of packed rows x | z << n and one int sign
  mask whose bit r set negates row r.  A ``StabilizerState`` holds its n
  generators that way and a ``CliffordMap`` the images of X_0..X_{n-1}
  and then of Z_0..Z_{n-1}.  One private kernel, ``_product``, multiplies
  picked rows with exact phase: it gives a state's group elements and a
  Clifford's conjugation alike.  ``PauliString`` is for single operators
  and text only.  Overlap magnitudes are returned as floats, global
  phases are never exposed.
* The packed layout is private to this module: no other package module
  reads ``rows``, ``signs`` or ``_f2``.  Other layers see a state through
  ``element``, ``expansion`` (for dense vectors) and ``subgroup_on``.

All tableau work is exact integer arithmetic, so results like overlaps
are powers of sqrt(2) with no rounding; numpy appears only as the random
Generator that drives ``random_clifford``. Dense cross-checks live in
``magiclab.statevec``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q commute (symplectic form vanishes)."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    return not _f2.dot(p.x | p.z << p.n, q.z | q.x << q.n)


def _check_bits(n: int, rows: tuple[int, ...], signs: int) -> None:
    """Every row within 2n bits and `signs` within one bit per row."""
    if not (all(0 <= row < 1 << 2 * n for row in rows) and 0 <= signs < 1 << len(rows)):
        raise ValueError("tableau bits outside 2n-bit rows or one sign per row")


def _product(n: int, rows, signs: int, mask: int, e: int) -> tuple[int, int, int]:
    """Product of the signed rows picked by `mask`, in index order, times i^e.

    Row r is (-1)^(bit r of signs) W(x, z) = i^(2 s + |x & z|) X^x Z^z with
    x | z << n = rows[r].  In the X^a Z^b form a product only picks up the
    sign (-1)^|b & a'| of moving Z^b past X^a'.  Returns (x, z, phase) of
    the result i^phase W(x, z).
    """
    e += 2 * (signs & mask).bit_count()
    acc = 0
    while mask:
        low = mask & -mask
        row = rows[low.bit_length() - 1]
        # row & row >> n is x & z; acc >> n & row is z_acc & x
        e += (row & row >> n).bit_count() + 2 * (acc >> n & row).bit_count()
        acc ^= row
        mask ^= low
    x, z = acc & ((1 << n) - 1), acc >> n
    return x, z, (e - (x & z).bit_count()) % 4


@dataclass(frozen=True)
class StabilizerState:
    """Pure stabilizer state given by n commuting independent signed rows.

    Row r packs generator r as x | z << n, and bit r of `signs` set makes
    it -W(x, z) instead of +W(x, z).
    """

    n: int
    rows: tuple[int, ...]
    signs: int

    def __post_init__(self):
        n, rows = self.n, self.rows
        if len(rows) != n:
            raise ValueError("need exactly n generators")
        _check_bits(n, rows, self.signs)
        swapped = [_swap(row, n) for row in rows]
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                if (row & swapped[j]).bit_count() & 1:
                    raise ValueError(f"generators {i} and {j} anticommute")
        if _f2.rank(rows) != n:
            raise ValueError("generators are not independent")

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerState":
        return cls(n, tuple(1 << n + q for q in range(n)), 0)

    @classmethod
    def plus_state(cls, n: int) -> "StabilizerState":
        return cls(n, tuple(1 << q for q in range(n)), 0)

    def element(self, mask: int) -> tuple[int, int, int]:
        """Signed group element, the product of the generators in `mask`.

        Returned as (x, z, phase) for i^phase W(x, z).  Commuting Hermitian
        factors always multiply to a Hermitian result, so its phase is 0 or 2.
        """
        x, z, phase = _product(self.n, self.rows, self.signs, mask, 0)
        if phase & 1:
            raise AssertionError("non-Hermitian stabilizer element")
        return x, z, phase

    def expansion(self) -> tuple[int, list[tuple[int, int, int]]]:
        """(b, [(x, z, e), ...]): the state as a sum over one basis coset.

        b solves the sign constraints of the diagonal (x = 0) subgroup D
        over F2, so every element of D fixes |b>.  The k generators
        h = i^e X^x Z^z have independent x-parts, so they reach each coset
        of D once and k + dim D = n: the state is proportional to the sum
        of h^m|b> over m in F2^k.  One elimination of the x-parts finds both.
        """
        n, low = self.n, (1 << self.n) - 1
        picked, kernel = _f2.eliminate([row & low for row in self.rows])
        equations = []
        for tag in kernel:
            x, z, phase = self.element(tag)
            if x:
                raise AssertionError("diagonal subgroup element has X support")
            equations.append((z, phase >> 1))
        b = _f2.solve(equations)
        if b is None:
            raise AssertionError("inconsistent stabilizer signs")
        gens = []
        for i in picked:
            x, z = self.rows[i] & low, self.rows[i] >> n
            # (-1)^s W(x, z) = i^(2s + |x & z|) X^x Z^z
            gens.append((x, z, (2 * (self.signs >> i & 1) + (x & z).bit_count()) & 3))
        return b, gens

    def subgroup_on(self, qubits) -> list[int]:
        """Basis of the generator masks whose products act only on `qubits`."""
        n = self.n
        out = sum(1 << q for q in range(n) if q not in qubits)
        return _f2.left_kernel([row & (out | out << n) for row in self.rows])


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
    kernel = _f2.left_kernel(s1.rows + s2.rows)
    low = (1 << n) - 1
    for tag in kernel:
        x1, z1, phase1 = s1.element(tag & low)
        x2, z2, phase2 = s2.element(tag >> n)
        if (x1, z1) != (x2, z2):
            raise AssertionError("kernel element mismatch")
        if phase1 != phase2:
            return 0.0
    return 2.0 ** ((len(kernel) - n) / 2)


def pauli_sandwich(s2: StabilizerState, p: PauliString, s1: StabilizerState) -> float:
    """|<eta2| P |eta1>| for a Pauli P and stabilizer states eta1, eta2.

    P|eta1> is (up to a global phase, which the magnitude ignores) the
    stabilizer state whose generators flip their sign wherever they
    anticommute with P, so the value reduces to a stabilizer overlap.
    Since P only touches signs, the group-intersection dimension is the
    same as for |<eta2|eta1>|: the result is always either 0 or the same
    power 2^{(k-n)/2}.  In particular, when <eta2|eta1> is nonzero the
    sandwich is either 0 or exactly |<eta2|eta1>| (signs can still clash
    the other way around: a zero overlap does not force a zero sandwich).
    """
    if not (s1.n == s2.n == p.n):
        raise ValueError("size mismatch")
    swapped = p.z | p.x << p.n
    flips = sum(((row & swapped).bit_count() & 1) << r for r, row in enumerate(s1.rows))
    return stabilizer_overlap(s2, StabilizerState(s1.n, s1.rows, s1.signs ^ flips))


@dataclass(frozen=True)
class CliffordMap:
    """Clifford unitary C given by its conjugation action on X_q and Z_q.

    Rows 0..n-1 pack the images C X_q C^dagger and rows n..2n-1 the images
    C Z_q C^dagger, each as x | z << n; bit r of `signs` set negates image r.
    """

    n: int
    rows: tuple[int, ...]
    signs: int

    def __post_init__(self):
        n = self.n
        if len(self.rows) != 2 * n:
            raise ValueError("need n images for X and for Z")
        _check_bits(n, self.rows, self.signs)
        xs, zs = self.rows[:n], self.rows[n:]
        sxs = [_swap(row, n) for row in xs]
        szs = [_swap(row, n) for row in zs]
        for i, (xi, zi) in enumerate(zip(xs, zs)):
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

    @classmethod
    def identity(cls, n: int) -> "CliffordMap":
        return cls(n, tuple(1 << r for r in range(2 * n)), 0)

    def _conj(self, x: int, z: int, phase: int) -> tuple[int, int, int]:
        """Image of i^phase W(x, z) under C . C^dagger, as (x, z, phase).

        i^phase W(x, z) = i^(phase + |x & z|) X^x Z^z, whose image is the
        ordered product of the images of the X_q in x, then the Z_q in z.
        """
        e = phase + (x & z).bit_count()
        return _product(self.n, self.rows, self.signs, x | z << self.n, e)

    def conjugate(self, p: PauliString) -> PauliString:
        """Image C P C^dagger, with exact phase."""
        if p.n != self.n:
            raise ValueError("size mismatch")
        return PauliString(self.n, *self._conj(p.x, p.z, p.phase))

    def zero_and_plus(self) -> tuple[StabilizerState, StabilizerState]:
        """C|0^n> and C|+^n>, stabilized by the images of the Z_q and of the X_q."""
        n = self.n
        return (
            StabilizerState(n, self.rows[n:], self.signs >> n),
            StabilizerState(n, self.rows[:n], self.signs & ((1 << n) - 1)),
        )

    def adjoint(self) -> "CliffordMap":
        """Tableau of the inverse unitary.

        The symplectic inverse is M^-1 = Omega M^T Omega, with M the
        2n x 2n bit matrix whose rows are the packed images and Omega the
        swap of the x and z halves: row r of M^-1 is column rbar of M with
        its halves swapped.  The sign of each row is the one that makes
        C map it back to +X_q or +Z_q.
        """
        n = self.n
        cols = [0] * (2 * n)
        for r, bits in enumerate(self.rows):
            while bits:
                lsb = bits & -bits
                cols[lsb.bit_length() - 1] |= 1 << r
                bits ^= lsb
        rows, signs = [], 0
        for r in range(2 * n):
            row = _swap(cols[(r + n) % (2 * n)], n)
            bx, bz, phase = self._conj(row & ((1 << n) - 1), row >> n, 0)
            # packed, X_q is bit q and Z_q is bit n + q
            if bx | bz << n != 1 << r:
                raise AssertionError("symplectic inversion failed")
            rows.append(row)
            signs |= (phase >> 1) << r
        return CliffordMap(n, tuple(rows), signs)


def apply_clifford(c: CliffordMap, s: StabilizerState) -> StabilizerState:
    """Stabilizer state C|eta> from the tableau action on generators."""
    if c.n != s.n:
        raise ValueError("size mismatch")
    n, low = s.n, (1 << s.n) - 1
    rows, signs = [], 0
    for r, row in enumerate(s.rows):
        x, z, phase = c._conj(row & low, row >> n, 2 * (s.signs >> r & 1))
        rows.append(x | z << n)
        signs |= (phase >> 1) << r
    return StabilizerState(n, tuple(rows), signs)


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

    def project(u: int) -> int:
        # onto the complement of the earlier pairs; a linear surjection, so
        # it maps uniform bits to a uniform vector there
        for v, w, sv, sw in pairs:
            if (u & sw).bit_count() & 1:
                u ^= v
            if (u & sv).bit_count() & 1:
                u ^= w
        return u

    for _ in range(n):
        v = project(bits())
        while not v:
            v = project(bits())
        sv = _swap(v, n)
        # projecting adds only earlier pairs' vectors, all orthogonal to v,
        # so <u, v> is tested on the raw draw and only the accepted one is
        # projected
        u = bits()
        while not (u & sv).bit_count() & 1:
            u = bits()
        w = project(u)
        pairs.append((v, w, sv, _swap(w, n)))
    rows = tuple(v for v, *_ in pairs) + tuple(w for _, w, *_ in pairs)
    return CliffordMap(n, rows, bits())
