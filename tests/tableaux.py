"""Tableaux to and from Pauli strings, for the tests.

`StabilizerState` and `CliffordMap` store packed rows x | z << n and one
sign mask.  The tests write them as Hermitian Pauli strings or their text
("-XZ"), and read them back as `PauliString`s, one per row.
"""

from magiclab import symplectic as sp


def build(cls, words):
    """`cls(n, rows, signs)` from Hermitian `PauliString`s or their text, one per row."""
    words = [sp.PauliString.from_text(p) if isinstance(p, str) else p for p in words]
    assert all(p.is_hermitian for p in words), words
    n = words[0].n
    rows = tuple(p.x | p.z << n for p in words)
    signs = sum((p.phase >> 1) << r for r, p in enumerate(words))
    return cls(n, rows, signs)


def paulis(tableau):
    """The rows of a `StabilizerState` or `CliffordMap` as signed `PauliString`s."""
    n, low = tableau.n, (1 << tableau.n) - 1
    return [
        sp.PauliString(n, row & low, row >> n, 2 * (tableau.signs >> r & 1))
        for r, row in enumerate(tableau.rows)
    ]
