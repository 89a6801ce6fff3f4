"""Linear algebra over F2 with rows packed into Python ints.

A "row" is an int whose bit i is the i-th coordinate. Python ints store
their bits in machine words and xor/and/bit_count run at C speed, so this
representation scales to a few thousand columns without numpy.
"""

from __future__ import annotations


def dot(a: int, b: int) -> int:
    """Inner product mod 2 of two packed rows."""
    return (a & b).bit_count() & 1


def rank(rows: list[int]) -> int:
    """Rank of the span of the given rows."""
    return len(eliminate(rows)[0])


def left_kernel(rows: list[int]) -> list[int]:
    """Basis of {c : xor of rows selected by bits of c is 0}.

    Returned masks index into `rows` (bit i of a mask selects rows[i]).
    """
    return eliminate(rows)[1]


def eliminate(rows: list[int]) -> tuple[list[int], list[int]]:
    """(picked, left_kernel(rows)) from one elimination pass.

    Row i either finds a new pivot, so it is not in the span of the rows
    before it and its index goes to `picked`, or reduces to zero, and the
    rows its reduction used give one kernel basis mask.  The picked rows
    form a basis of the span of all the rows.
    """
    basis: dict[int, tuple[int, int]] = {}
    picked, kernel = [], []
    for i, row in enumerate(rows):
        tag = 1 << i
        while row:
            pivot = row.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = (row, tag)
                picked.append(i)
                break
            brow, btag = basis[pivot]
            row ^= brow
            tag ^= btag
        else:
            kernel.append(tag)
    return picked, kernel


def solve(equations: list[tuple[int, int]]) -> int | None:
    """Solve mask·b = bit (mod 2) for b, one (mask, bit) pair per equation.

    Returns one solution with free coordinates set to 0, or None if the
    system is inconsistent.
    """
    basis: dict[int, tuple[int, int]] = {}
    for mask, bit in equations:
        while mask:
            pivot = mask.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = (mask, bit)
                break
            bmask, bbit = basis[pivot]
            mask ^= bmask
            bit ^= bbit
        else:
            if bit:
                return None
    b = 0
    # Each stored mask has its pivot as the top bit, so ascending pivot
    # order sees only already-decided or free (zero) lower coordinates.
    for pivot in sorted(basis):
        mask, bit = basis[pivot]
        if dot(mask & ~(1 << pivot), b) ^ bit:
            b |= 1 << pivot
    return b
