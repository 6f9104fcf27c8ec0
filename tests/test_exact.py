import math
from fractions import Fraction

import numpy as np
import pytest

from hodgewalk.exact import ScaledMatrix, rational_rank

from oracles import (
    as_object_array,
    bareiss_rank,
    dense_matmul,
    dense_of,
    dense_rebase,
    dense_sum,
    dense_to_float,
    exact_sqrt,
    from_dense,
)


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
        assert rational_rank(from_dense([1] * 4, [1] * 5, mat)) == np.linalg.matrix_rank(m.astype(float))


def test_scaled_matrix_product_and_transpose():
    h = [Fraction(2), Fraction(1, 2)]
    inv = [Fraction(1) / x for x in h]
    body = [[0, 1], [3, 0]]
    m = from_dense(h, inv, body)
    # (M^T)^T = M and (MN)^T = N^T M^T
    assert m.T.T.equals(m)
    prod = m @ m
    assert (m @ m).T.equals(m.T @ m.T)
    assert prod.shape == (2, 2)


def test_scaled_matrix_equality_across_scales():
    body_a = [[1, 2], [0, 1]]
    a = from_dense([Fraction(4), Fraction(1)], [Fraction(1), Fraction(1)], body_a)
    # same entries written with different scales
    body_b = [[Fraction(1), Fraction(2, 3)], [0, Fraction(1, 9)]]
    b = from_dense([Fraction(4), Fraction(9)], [Fraction(1), Fraction(9)], body_b)
    assert a.equals(b)
    body_c = [[1, 2], [0, -1]]
    c = from_dense([Fraction(4), Fraction(1)], [Fraction(1), Fraction(1)], body_c)
    assert not a.equals(c)
    # same squared magnitudes under other scales, opposite sign
    d = from_dense([Fraction(1)], [Fraction(1)], [[1]])
    e = from_dense([Fraction(4)], [Fraction(1)], [[Fraction(-1, 2)]])
    assert not d.equals(e) and not e.equals(d)


def test_scaled_matrix_rebase_requires_square_factors():
    m = from_dense([Fraction(2)], [Fraction(1, 2)], [[1]])
    rebased = m.rebase([Fraction(8)], [Fraction(1, 8)])
    assert rebased.equals(m)
    with pytest.raises(ValueError):
        m.rebase([Fraction(3)], [Fraction(1, 2)])


def test_scaled_matrix_add_rebases_either_side():
    h = [Fraction(2), Fraction(3)]
    eye = ScaledMatrix.identity(2)
    m = from_dense(h, [Fraction(1) / x for x in h], [[1, 0], [0, 1]])
    total = eye + m
    assert total.equals(m.scale(2))
    assert (m - m).is_zero()


def test_to_float_matches_entries():
    h = [Fraction(2), Fraction(1, 2)]
    m = from_dense(h, [Fraction(1) / x for x in h], [[0, 3], [1, 0]])
    fl = m.to_float()
    assert fl[0, 1] == pytest.approx(3 * 2.0)  # sqrt(2) * sqrt(2) * 3
    assert fl[1, 0] == pytest.approx(0.5)
    # the entries themselves are rational here
    assert m.equals(from_dense([1, 1], [1, 1], [[0, 6], [Fraction(1, 2), 0]]))


@pytest.mark.parametrize(
    "row_scale, col_scale, rows",
    [
        ([0], [1], [{}]),
        ([1], [Fraction(-1, 2)], [{}]),
        ([1, 1], [1], [{0: 1}]),
        ([1], [1], [{0: 1}, {}]),
        ([1], [1, 1], [{2: 1}]),
        ([1], [1, 1], [{-1: 1}]),
    ],
    ids=["zero-row-scale", "negative-col-scale", "too-few-rows", "too-many-rows",
         "column-past-the-end", "negative-column"],
)
def test_constructor_rejects_bad_scales_and_shapes(row_scale, col_scale, rows):
    with pytest.raises(ValueError):
        ScaledMatrix(row_scale, col_scale, rows)


def test_constructor_accepts_ints_and_fractions_and_is_canonical():
    m = ScaledMatrix([1, 2], [1, 1, 3], [{0: 2, 1: 0, 2: Fraction(4, 6)}, {1: Fraction(0), 2: 6}])
    assert_canonical(m)
    assert m.row_scale == (1, 2) and all(type(x) is Fraction for x in m.row_scale + m.col_scale)
    # 2, 2/3 and 6 over their common denominator 3; both zeros dropped
    assert (m.rows, m.den) == ([{0: 6, 2: 2}, {2: 18}], 3)
    halves = ScaledMatrix([1], [1, 1], [{0: Fraction(2, 4), 1: Fraction(3, 2)}])
    assert (halves.rows, halves.den) == ([{0: 1, 1: 3}], 2)
    ints = ScaledMatrix([1], [1, 1], [{0: 4, 1: 6}])
    assert (ints.rows, ints.den) == ([{0: 4, 1: 6}], 1)
    assert ScaledMatrix([], [1], []).shape == (0, 1)
    assert ScaledMatrix([1, 1], [], [{}, {}]).shape == (2, 0)


# -- property tests of the sparse kernels against dense Fraction references --

from hypothesis import example, given, seed, settings
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
    return from_dense(rows, cols, draw(sparse_body(n_rows, n_cols)))


@st.composite
def product_pair(draw):
    """Left and right factors whose inner scale products are squares."""
    n, m, p = (draw(st.integers(0, 5)) for _ in range(3))
    inner = draw(st.lists(BASES, min_size=m, max_size=m))
    left = from_dense(
        draw(st.lists(BASES, min_size=n, max_size=n)),
        [b * draw(SQUARES) for b in inner],
        draw(sparse_body(n, m)),
    )
    right = from_dense(
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


def body_list(m):
    assert all(type(v) is Fraction for v in m.body.flat)
    return [list(row) for row in m.body]


@settings(max_examples=150, deadline=None)
@given(product_pair())
def test_sparse_product_matches_dense(pair):
    a, b = pair
    prod = a @ b
    assert prod.row_scale == a.row_scale and prod.col_scale == b.col_scale
    assert body_list(prod) == dense_matmul(dense_of(a), dense_of(b))[2]
    assert np.allclose(prod.to_float(), a.to_float() @ b.to_float())


@settings(max_examples=150, deadline=None)
@given(same_entries_pair(), st.data())
def test_sparse_algebra_matches_dense(case, data):
    a, x, y = case
    n, m = a.shape
    # b: another body, written with scales a square factor away from a's
    rows = [r * s for r, s in zip(a.row_scale, x)]
    cols = [c * s for c, s in zip(a.col_scale, y)]
    b = from_dense(rows, cols, data.draw(sparse_body(n, m)))
    root = [[exact_sqrt(x[i] * y[j]) for j in range(m)] for i in range(n)]
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
    assert np.array_equal(a.to_float(), dense_to_float(dense_of(a)))
    assert np.array_equal(a.T.to_float(), dense_to_float(dense_of(a)).T)


@settings(max_examples=100, deadline=None)
@given(same_entries_pair(), st.data())
def test_sparse_equals_detects_each_change(case, data):
    a, x, y = case
    nz = [(i, j) for i in range(a.shape[0]) for j in range(a.shape[1]) if a.body[i, j]]
    for other in (
        from_dense(a.row_scale, a.col_scale, a.body),
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
            changed = from_dense(other.row_scale, other.col_scale, body)
            assert not changed.equals(a) and not a.equals(changed)


# -- every operation: canonical integer body, dense reference, float mirror --

# scales and entries over pairwise distinct denominators, so products, sums
# and rebases must bring several denominators to one
WIDE_BASES = st.sampled_from(
    [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 7), Fraction(3, 10), Fraction(7, 11)]
)
WIDE_SQUARES = st.sampled_from(
    [Fraction(1), Fraction(4), Fraction(1, 9), Fraction(25, 49), Fraction(9, 4), Fraction(1, 121)]
)
WIDE_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 6, 7]))


def wide_matrix(draw, rows, cols):
    entry = st.one_of(st.just(0), st.just(0), WIDE_FRACTIONS)
    body = [[draw(entry) for _ in cols] for _ in rows]
    return from_dense(rows, cols, body)


@st.composite
def operation_case(draw):
    """a (n x m), b (m x p) composing with a, c (n x m) over scales a square
    factor away from a's, a factor (0 included), and row and column picks."""
    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    bases = lambda size: draw(st.lists(WIDE_BASES, min_size=size, max_size=size))
    squared = lambda xs: [x * draw(WIDE_SQUARES) for x in xs]
    inner = bases(m)
    a = wide_matrix(draw, bases(n), squared(inner))
    b = wide_matrix(draw, squared(inner), bases(p))
    c = wide_matrix(draw, squared(a.row_scale), squared(a.col_scale))
    factor = draw(st.one_of(st.just(Fraction(0)), WIDE_FRACTIONS))
    picks = lambda size: draw(st.lists(st.integers(0, size - 1), max_size=5)) if size else []
    return a, b, c, factor, picks(n), picks(m)


def assert_canonical(m):
    n_rows, n_cols = m.shape
    assert type(m.den) is int and m.den > 0
    assert len(m.rows) == n_rows
    values = [v for row in m.rows for v in row.values()]
    assert all(type(v) is int and v != 0 for v in values)
    assert all(0 <= j < n_cols for row in m.rows for j in row)
    assert math.gcd(m.den, *values) == 1


# a @ b and a + c cancel to zero entries, which must not be stored
CANCELLING = (
    from_dense([1], [1, 4], [[1, Fraction(1, 2)]]),
    from_dense([1, 1], [1], [[1], [-1]]),
    from_dense([9], [1, 1], [[Fraction(-1, 3), 1]]),
    Fraction(3, 5),
    [0, 0],
    [1, 0, 1],
)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(operation_case())
@example(CANCELLING)
def test_every_operation_is_canonical_and_matches_dense(case):
    a, b, c, factor, rows, cols = case
    da, db, dc = dense_of(a), dense_of(b), dense_of(c)
    neg_c = (dc[0], dc[1], [[-v for v in row] for row in dc[2]])
    cases = [
        (a, da),
        (a @ b, dense_matmul(da, db)),
        (a + c, dense_sum(da, dc)),
        (c + a, dense_sum(dc, da)),
        (a - c, dense_sum(da, neg_c)),
        (-c, neg_c),
        (a.scale(factor), (da[0], da[1], [[v * factor for v in row] for row in da[2]])),
        (a.rebase(c.row_scale, c.col_scale), dense_rebase(da, dc[0], dc[1])),
        (c.rebase(a.row_scale, a.col_scale), dense_rebase(dc, da[0], da[1])),
        (a.T, (da[1], da[0], [list(col) for col in zip(*da[2])] or [[] for _ in da[1]])),
        (
            a.restrict(rows, cols),
            (
                tuple(da[0][i] for i in rows),
                tuple(da[1][j] for j in cols),
                [[da[2][i][j] for j in cols] for i in rows],
            ),
        ),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert dense_of(got) == want
        assert got.to_float().tobytes() == dense_to_float(want).tobytes()
        assert got.equals(from_dense(*want))


def test_irrational_inner_scale_needs_an_empty_row_or_column():
    left = from_dense([1, 1], [2, 1], [[0, 1], [0, 2]])
    right = from_dense([1, 1], [1, 1], [[5, 7], [1, 1]])
    # column 0 of the left factor is zero: sqrt(2 * 1) never contracts
    prod = left @ right
    assert body_list(prod) == [[1, 1], [2, 2]]
    empty_row = from_dense([1, 1], [1, 1], [[0, 0], [1, 1]])
    full_column = from_dense([1, 1], [2, 1], [[3, 1], [0, 2]])
    assert body_list(full_column @ empty_row) == [[1, 1], [2, 2]]
    # the same left factor with a nonzero in column 0
    left = from_dense([1, 1], [2, 1], [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="inner scales do not compose exactly"):
        left @ right


def test_rebase_rejects_incompatible_scales():
    m = from_dense([1, 1], [1, 1], [[0, 1], [0, 0]])
    # (0, 1) needs sqrt(1/2): rejected; row 1 is zero, so any row scale works
    with pytest.raises(ValueError, match="scales are not compatible"):
        m.rebase([2, 1], [1, 1])
    assert m.rebase([1, 3], [7, 1]).equals(m)
    with pytest.raises(ValueError):
        m.rebase([1], [1, 1])


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes(shape):
    n, m = shape
    a = from_dense([1] * n, [1] * m, np.empty(shape, dtype=object))
    assert a.is_zero() and a.equals(a) and (a + a).shape == shape
    assert (-a).shape == shape and a.scale(3).shape == shape
    assert a.to_float().shape == shape
    assert (a @ a.T).shape == (n, n) and body_list(a.T @ a) == [[Fraction(0)] * m for _ in range(m)]
    assert a.restrict([], list(range(m))).shape == (0, m)


# -- the sparse rank against the dense Bareiss oracle --

RANK_VALUES = {
    "unit": st.sampled_from([1, -1]),
    "int": st.integers(-3, 3),
    "fraction": FRACTIONS,
}


@st.composite
def rank_case(draw):
    """Sparse ±1, small-integer or Fraction rows, some of them repeated."""
    n_rows, n_cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    value = RANK_VALUES[draw(st.sampled_from(sorted(RANK_VALUES)))]
    zeros = draw(st.integers(0, 4))
    entry = st.one_of(*[st.just(0)] * zeros, value)
    rows = draw(
        st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows)
    )
    if rows:
        for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
            factor = draw(st.sampled_from([1, -1, Fraction(2, 3)]))
            rows.append([factor * v for v in rows[i]])
    return rows


def dense_rank(rows):
    """The oracle: clear each row's denominators, then dense Bareiss."""
    ints = []
    for row in rows:
        fracs = [Fraction(v) for v in row]
        den = math.lcm(*(v.denominator for v in fracs)) if fracs else 1
        ints.append([int(v * den) for v in fracs])
    return bareiss_rank(ints)


def object_matrix(rows, n_cols):
    return as_object_array(rows) if rows else np.empty((0, n_cols), dtype=object)


@seed(20141014)
@settings(max_examples=300, deadline=None)
@given(rank_case())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, -1, 0, 0]] * 3)
@example([[1], [-1], [1]])
@example([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
def test_rational_rank_matches_dense_bareiss(rows):
    n_cols = len(rows[0]) if rows else 0
    mat = object_matrix(rows, n_cols)
    want = dense_rank(rows)
    assert rational_rank(from_dense([1] * len(rows), [1] * n_cols, mat)) == want
    assert rational_rank(from_dense([1] * n_cols, [1] * len(rows), mat.T)) == want


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_rational_rank_of_empty_shapes(shape):
    n, m = shape
    assert rational_rank(from_dense([1] * n, [1] * m, np.empty(shape, dtype=object))) == 0
