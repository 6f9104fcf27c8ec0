from fractions import Fraction

import numpy as np
import pytest

from hodgewalk.exact import (
    ScaledMatrix,
    as_object_array,
    bareiss_rank,
    frac_sqrt,
    rat_eye,
    rational_rank,
)


def test_frac_sqrt():
    assert frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert frac_sqrt(Fraction(0)) == 0
    assert frac_sqrt(Fraction(2)) is None
    assert frac_sqrt(Fraction(1, 3)) is None
    with pytest.raises(ValueError):
        frac_sqrt(Fraction(-1))


def test_bareiss_rank():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2


def test_rational_rank_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(-3, 4, size=(4, 5))
        mat = as_object_array([[Fraction(int(x), 3) for x in row] for row in m])
        assert rational_rank(mat) == np.linalg.matrix_rank(m.astype(float))


def test_scaled_matrix_product_and_transpose():
    h = [Fraction(2), Fraction(1, 2)]
    inv = [Fraction(1) / x for x in h]
    body = as_object_array([[0, 1], [3, 0]])
    m = ScaledMatrix(h, inv, body)
    # (M^T)^T = M and (MN)^T = N^T M^T
    assert m.T.T.equals(m)
    prod = m @ m
    assert (m @ m).T.equals(m.T @ m.T)
    assert prod.shape == (2, 2)


def test_scaled_matrix_equality_across_scales():
    body_a = as_object_array([[1, 2], [0, 1]])
    a = ScaledMatrix([Fraction(4), Fraction(1)], [Fraction(1), Fraction(1)], body_a)
    # same entries written with different scales
    body_b = as_object_array([[Fraction(1), Fraction(2, 3)], [0, Fraction(1, 9)]])
    b = ScaledMatrix([Fraction(4), Fraction(9)], [Fraction(1), Fraction(9)], body_b)
    assert a.equals(b)
    body_c = as_object_array([[1, 2], [0, -1]])
    c = ScaledMatrix([Fraction(4), Fraction(1)], [Fraction(1), Fraction(1)], body_c)
    assert not a.equals(c)
    # same squared magnitudes under other scales, opposite sign
    d = ScaledMatrix([Fraction(1)], [Fraction(1)], as_object_array([[1]]))
    e = ScaledMatrix([Fraction(4)], [Fraction(1)], as_object_array([[Fraction(-1, 2)]]))
    assert not d.equals(e) and not e.equals(d)


def test_scaled_matrix_rebase_requires_square_factors():
    m = ScaledMatrix([Fraction(2)], [Fraction(1, 2)], as_object_array([[1]]))
    rebased = m.rebase([Fraction(8)], [Fraction(1, 8)])
    assert rebased.equals(m)
    with pytest.raises(ValueError):
        m.rebase([Fraction(3)], [Fraction(1, 2)])


def test_scaled_matrix_add_rebases_either_side():
    h = [Fraction(2), Fraction(3)]
    eye = ScaledMatrix.from_rational(rat_eye(2))
    m = ScaledMatrix(h, [Fraction(1) / x for x in h], as_object_array([[1, 0], [0, 1]]))
    total = eye + m
    assert total.equals(m.scale(2))
    assert (m - m).is_zero()


def test_to_float_matches_entries():
    h = [Fraction(2), Fraction(1, 2)]
    m = ScaledMatrix(h, [Fraction(1) / x for x in h], as_object_array([[0, 3], [1, 0]]))
    fl = m.to_float()
    assert fl[0, 1] == pytest.approx(3 * 2.0)  # sqrt(2) * sqrt(2) * 3
    assert fl[1, 0] == pytest.approx(0.5)
    assert m.entry(0, 1) == Fraction(6)
    with pytest.raises(ValueError):
        ScaledMatrix(
            [Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)], as_object_array([[1, 1], [1, 1]])
        ).entry(0, 0)


# -- property tests of the sparse kernels against dense Fraction references --

from hypothesis import given, settings
from hypothesis import strategies as st

FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
BASES = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)])
SQUARES = st.sampled_from([Fraction(1), Fraction(4), Fraction(1, 9), Fraction(9, 4)])


def sparse_body(n_rows, n_cols):
    """Rational body with about two zero entries in three."""
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), FRACTIONS)
    return st.lists(
        st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    ).map(lambda rows: as_object_array(rows) if rows else np.empty((0, n_cols), dtype=object))


@st.composite
def scaled(draw, n_rows, n_cols):
    rows = draw(st.lists(BASES, min_size=n_rows, max_size=n_rows))
    cols = draw(st.lists(BASES, min_size=n_cols, max_size=n_cols))
    return ScaledMatrix(rows, cols, draw(sparse_body(n_rows, n_cols)))


@st.composite
def product_pair(draw):
    """Left and right factors whose inner scale products are squares."""
    n, m, p = (draw(st.integers(0, 5)) for _ in range(3))
    inner = draw(st.lists(BASES, min_size=m, max_size=m))
    left = ScaledMatrix(
        draw(st.lists(BASES, min_size=n, max_size=n)),
        [b * draw(SQUARES) for b in inner],
        draw(sparse_body(n, m)),
    )
    right = ScaledMatrix(
        [b * draw(SQUARES) for b in inner],
        draw(st.lists(BASES, min_size=p, max_size=p)),
        draw(sparse_body(m, p)),
    )
    return left, right


@st.composite
def same_entries_pair(draw):
    """A matrix and new scales that differ from its own by square factors."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = draw(scaled(n, m))
    x = draw(st.lists(SQUARES, min_size=n, max_size=n))
    y = draw(st.lists(SQUARES, min_size=m, max_size=m))
    return a, x, y


def dense_product(a, b):
    out = [[Fraction(0)] * b.shape[1] for _ in range(a.shape[0])]
    for k in range(a.shape[1]):
        root = frac_sqrt(a.col_scale[k] * b.row_scale[k])
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                if a.body[i, k] and b.body[k, j]:
                    out[i][j] += a.body[i, k] * root * b.body[k, j]
    return out


def dense_to_float(m):
    rows = [[float(v) for v in row] for row in m.body]
    r = np.sqrt(np.array([float(x) for x in m.row_scale]))
    c = np.sqrt(np.array([float(x) for x in m.col_scale]))
    return np.array(rows, dtype=float).reshape(m.shape) * np.outer(r, c)


def body_list(m):
    assert all(type(v) is Fraction for v in m.body.flat)
    return [list(row) for row in m.body]


@settings(max_examples=150, deadline=None)
@given(product_pair())
def test_sparse_product_matches_dense(pair):
    a, b = pair
    prod = a @ b
    assert prod.row_scale == a.row_scale and prod.col_scale == b.col_scale
    assert body_list(prod) == dense_product(a, b)
    assert np.allclose(prod.to_float(), a.to_float() @ b.to_float())


@settings(max_examples=150, deadline=None)
@given(same_entries_pair(), st.data())
def test_sparse_algebra_matches_dense(case, data):
    a, x, y = case
    n, m = a.shape
    # b: another body, written with scales a square factor away from a's
    rows = [r * s for r, s in zip(a.row_scale, x)]
    cols = [c * s for c, s in zip(a.col_scale, y)]
    b = ScaledMatrix(rows, cols, data.draw(sparse_body(n, m)))
    root = [[frac_sqrt(x[i] * y[j]) for j in range(m)] for i in range(n)]
    # b in a's scales: each entry times sqrt(x_i * y_j)
    b_in_a = [[b.body[i, j] * root[i][j] for j in range(m)] for i in range(n)]
    total = a + b
    assert total.row_scale == a.row_scale and total.col_scale == a.col_scale
    assert body_list(total) == [
        [a.body[i, j] + b_in_a[i][j] for j in range(m)] for i in range(n)
    ]
    assert body_list(a - b) == [
        [a.body[i, j] - b_in_a[i][j] for j in range(m)] for i in range(n)
    ]
    assert body_list(-a) == [[-v for v in row] for row in a.body]
    factor = data.draw(FRACTIONS)
    assert body_list(a.scale(factor)) == [[v * factor for v in row] for row in a.body]
    rebased = a.rebase(rows, cols)
    assert body_list(rebased) == [
        [a.body[i, j] / root[i][j] for j in range(m)] for i in range(n)
    ]
    assert rebased.equals(a) and a.equals(rebased)
    assert b.rebase(a.row_scale, a.col_scale).equals(b)
    assert a.is_zero() == all(v == 0 for v in a.body.flat)
    assert (a - a).is_zero()
    assert np.array_equal(a.to_float(), dense_to_float(a))
    assert np.array_equal(a.T.to_float(), dense_to_float(a).T)


@settings(max_examples=100, deadline=None)
@given(same_entries_pair(), st.data())
def test_sparse_equals_detects_each_change(case, data):
    a, x, y = case
    nz = [(i, j) for i in range(a.shape[0]) for j in range(a.shape[1]) if a.body[i, j]]
    for other in (
        ScaledMatrix(a.row_scale, a.col_scale, a.body.copy()),
        a.rebase([r * s for r, s in zip(a.row_scale, x)], [c * s for c, s in zip(a.col_scale, y)]),
    ):
        assert other.equals(a) and a.equals(other)
        if not nz:
            continue
        i, j = data.draw(st.sampled_from(nz))
        # a sign flip keeps the squared magnitude that the check compares
        for change in (Fraction(0), 2 * other.body[i, j], -other.body[i, j]):
            body = other.body.copy()
            body[i, j] = change
            changed = ScaledMatrix(other.row_scale, other.col_scale, body)
            assert not changed.equals(a) and not a.equals(changed)


def test_irrational_inner_scale_needs_an_empty_row_or_column():
    left = ScaledMatrix([1, 1], [2, 1], as_object_array([[0, 1], [0, 2]]))
    right = ScaledMatrix([1, 1], [1, 1], as_object_array([[5, 7], [1, 1]]))
    # column 0 of the left factor is zero: sqrt(2 * 1) never contracts
    prod = left @ right
    assert body_list(prod) == [[1, 1], [2, 2]]
    empty_row = ScaledMatrix([1, 1], [1, 1], as_object_array([[0, 0], [1, 1]]))
    full_column = ScaledMatrix([1, 1], [2, 1], as_object_array([[3, 1], [0, 2]]))
    assert body_list(full_column @ empty_row) == [[1, 1], [2, 2]]
    left.body[1, 0] = Fraction(1)
    with pytest.raises(ValueError, match="inner scales do not compose exactly"):
        left @ right


def test_rebase_rejects_incompatible_scales():
    m = ScaledMatrix([1, 1], [1, 1], as_object_array([[0, 1], [0, 0]]))
    # (0, 1) needs sqrt(1/2): rejected; row 1 is zero, so any row scale works
    with pytest.raises(ValueError, match="scales are not compatible"):
        m.rebase([2, 1], [1, 1])
    assert m.rebase([1, 3], [7, 1]).equals(m)
    with pytest.raises(ValueError):
        m.rebase([1], [1, 1])


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes(shape):
    n, m = shape
    a = ScaledMatrix([1] * n, [1] * m, np.empty(shape, dtype=object))
    assert a.is_zero() and a.equals(a) and (a + a).shape == shape
    assert (-a).shape == shape and a.scale(3).shape == shape
    assert a.to_float().shape == shape
    assert (a @ a.T).shape == (n, n) and body_list(a.T @ a) == [[Fraction(0)] * m for _ in range(m)]
    assert a.restrict([], list(range(m))).shape == (0, m)
