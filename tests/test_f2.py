"""F2 linear algebra on packed rows against brute-force enumeration."""

from functools import reduce

import pytest

from magiclab import _f2

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

WIDTH = 7
rows_strategy = st.lists(st.integers(0, 2**WIDTH - 1), max_size=8)


def xor_of(rows, mask):
    return reduce(lambda acc, i: acc ^ rows[i], (i for i in range(len(rows)) if mask >> i & 1), 0)


def span(rows):
    return {xor_of(rows, mask) for mask in range(2 ** len(rows))}


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(rows_strategy)
def test_left_kernel_is_a_basis_of_the_relations(rows):
    kernel = _f2.left_kernel(rows)
    assert all(tag and xor_of(rows, tag) == 0 for tag in kernel)
    assert _f2.rank(kernel) == len(kernel)
    relations = sum(xor_of(rows, mask) == 0 for mask in range(2 ** len(rows)))
    assert relations == 2 ** len(kernel)


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(rows_strategy)
def test_independent_rows_span_everything(rows):
    picked = _f2.eliminate(rows)[0]
    chosen = [rows[i] for i in picked]
    assert picked == sorted(picked)
    assert len(span(chosen)) == 2 ** len(chosen) == len(span(rows))
    assert _f2.rank(rows) == len(picked)


@hyp.settings(max_examples=200, deadline=None)
@hyp.given(st.lists(st.tuples(st.integers(0, 2**WIDTH - 1), st.integers(0, 1)), max_size=9))
def test_solve_finds_a_solution_exactly_when_one_exists(equations):
    def satisfied(b):
        return all(_f2.dot(mask, b) == bit for mask, bit in equations)

    b = _f2.solve(equations)
    if b is None:
        assert not any(satisfied(c) for c in range(2**WIDTH))
    else:
        assert 0 <= b < 2**WIDTH and satisfied(b)
