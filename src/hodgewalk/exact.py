"""Exact linear algebra helpers: rational matrices and scaled-matrix forms.

Many operators in this package have entries of the form q * sqrt(a_i / a_j)
with q, a_i, a_j rational.  They are stored exactly as

    M = diag(row_scale)**(1/2) @ body @ diag(col_scale)**(1/2)

with a rational ``body`` and positive rational scale vectors.  Products,
sums, transposes and equality checks then stay in rational arithmetic; the
square roots only materialize in the floating-point mirror ``to_float``.
The body is a dense object array of Fractions, but the operations read and
write only its nonzero entries, so their cost follows the nonzero count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def frac_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def as_object_array(rows: Sequence[Sequence]) -> np.ndarray:
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    out = np.empty((n_rows, n_cols), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            out[i, j] = Fraction(v)
    return out


def rat_zeros(n_rows: int, n_cols: int) -> np.ndarray:
    out = np.empty((n_rows, n_cols), dtype=object)
    out[:, :] = Fraction(0)
    return out


def rat_eye(n: int) -> np.ndarray:
    out = rat_zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def nonzeros(a: np.ndarray) -> tuple[list[int], list[int], list]:
    """Row-major (rows, cols, values) of the nonzero entries of an object array."""
    rows, cols = np.nonzero(a.astype(bool))
    return rows.tolist(), cols.tolist(), a[rows, cols].tolist()


def rat_from_entries(shape: tuple[int, int], rows, cols, values) -> np.ndarray:
    """Rational matrix of the given shape, Fraction(0) off the listed entries."""
    out = rat_zeros(*shape)
    if values:
        out[rows, cols] = values
    return out


def _fractions(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


def _add_bodies(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for rational bodies of one shape, adding over b's nonzeros only."""
    out = a.copy()
    rows, cols, values = nonzeros(b)
    if values:
        out[rows, cols] = [x + y for x, y in zip(a[rows, cols].tolist(), values)]
    return out


def mat_is_zero(a: np.ndarray) -> bool:
    return not np.count_nonzero(a)


def mat_to_float(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape)
    rows, cols, values = nonzeros(a)
    if values:
        out[rows, cols] = [float(v) for v in values]
    return out


def bareiss_rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in mat]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col]
            for c in range(col, n_cols):
                m[r][c] = (p * m[r][c] - factor * m[row][c]) // prev
        prev = p
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def rational_rank(mat: np.ndarray) -> int:
    """Rank of a matrix with Fraction entries, computed exactly."""
    if mat.size == 0:
        return 0
    r, c, values = nonzeros(mat)
    values = [Fraction(v) for v in values]
    den = [1] * mat.shape[0]
    for i, v in zip(r, values):
        den[i] = math.lcm(den[i], v.denominator)
    rows = [[0] * mat.shape[1] for _ in range(mat.shape[0])]
    for i, j, v in zip(r, c, values):
        rows[i][j] = v.numerator * (den[i] // v.denominator)
    return bareiss_rank(rows)


class ScaledMatrix:
    """M = diag(row_scale)^(1/2) @ body @ diag(col_scale)^(1/2), all rational."""

    __slots__ = ("row_scale", "col_scale", "body")

    def __init__(self, row_scale: Iterable, col_scale: Iterable, body: np.ndarray):
        self.row_scale = _fractions(row_scale)
        self.col_scale = _fractions(col_scale)
        if any(x <= 0 for x in self.row_scale) or any(x <= 0 for x in self.col_scale):
            raise ValueError("scales must be positive")
        if body.shape != (len(self.row_scale), len(self.col_scale)):
            raise ValueError("body shape does not match scales")
        self.body = body

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(mat: np.ndarray) -> "ScaledMatrix":
        r, c = mat.shape
        return ScaledMatrix([Fraction(1)] * r, [Fraction(1)] * c, mat)

    @staticmethod
    def identity(n: int) -> "ScaledMatrix":
        return ScaledMatrix.from_rational(rat_eye(n))

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.body.shape

    @property
    def T(self) -> "ScaledMatrix":
        return ScaledMatrix(self.col_scale, self.row_scale, self.body.T.copy())

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "ScaledMatrix":
        # a gather of object references: no per-entry arithmetic
        body = self.body[np.ix_(rows, cols)] if rows and cols else rat_zeros(len(rows), len(cols))
        return ScaledMatrix(
            [self.row_scale[i] for i in rows],
            [self.col_scale[j] for j in cols],
            body,
        )

    def entry(self, i: int, j: int) -> Fraction:
        """Exact entry value; raises if the entry is irrational."""
        b = self.body[i, j]
        if b == 0:
            return Fraction(0)
        root = frac_sqrt(self.row_scale[i] * self.col_scale[j])
        if root is None:
            raise ValueError("entry is irrational")
        return b * root

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        left = [[] for _ in range(self.shape[0])]
        for i, k, a in zip(*nonzeros(self.body)):
            left[i].append((k, a))
        contracted = {k for row in left for k, _ in row}
        # rows of the right factor times their inner factor sqrt(c_k * r_k);
        # an irrational inner factor is harmless when nothing contracts
        # through index k
        right = [[] for _ in range(other.shape[0])]
        roots = {}
        for k, j, v in zip(*nonzeros(other.body)):
            if k not in contracted:
                continue
            root = roots.get(k)
            if root is None:
                root = frac_sqrt(self.col_scale[k] * other.row_scale[k])
                if root is None:
                    raise ValueError("inner scales do not compose exactly")
                roots[k] = root
            right[k].append((j, v if root == 1 else v * root))
        body = rat_zeros(self.shape[0], other.shape[1])
        for i, row in enumerate(left):
            acc: dict[int, Fraction] = {}
            for k, a in row:
                for j, b in right[k]:
                    p = a * b
                    acc[j] = acc[j] + p if j in acc else p
            for j, v in acc.items():
                body[i, j] = v
        return ScaledMatrix(self.row_scale, other.col_scale, body)

    def rebase(self, row_scale: Iterable, col_scale: Iterable) -> "ScaledMatrix":
        """Re-express with new scales; needs each nonzero entry's conversion
        factor sqrt((r_old*c_old)/(r_new*c_new)) to be rational."""
        row_scale = _fractions(row_scale)
        col_scale = _fractions(col_scale)
        if (len(row_scale), len(col_scale)) != self.shape:
            raise ValueError("body shape does not match scales")
        rr = [a / b for a, b in zip(self.row_scale, row_scale)]
        cc = [a / b for a, b in zip(self.col_scale, col_scale)]
        rows, cols, values = nonzeros(self.body)
        for n, (i, j) in enumerate(zip(rows, cols)):
            f = frac_sqrt(rr[i] * cc[j])
            if f is None:
                raise ValueError("scales are not compatible")
            if f != 1:
                values[n] *= f
        return ScaledMatrix(row_scale, col_scale, rat_from_entries(self.shape, rows, cols, values))

    def __add__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        try:
            other = other.rebase(self.row_scale, self.col_scale)
        except ValueError:
            rebased = self.rebase(other.row_scale, other.col_scale)
            return ScaledMatrix(other.row_scale, other.col_scale, _add_bodies(rebased.body, other.body))
        return ScaledMatrix(self.row_scale, self.col_scale, _add_bodies(self.body, other.body))

    def __sub__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return self + (-other)

    def __neg__(self) -> "ScaledMatrix":
        return self._map(lambda v: -v)

    def scale(self, factor) -> "ScaledMatrix":
        factor = Fraction(factor)
        return self._map(lambda v: v * factor)

    def _map(self, fn) -> "ScaledMatrix":
        """Same scales, ``fn`` applied to every nonzero body entry."""
        rows, cols, values = nonzeros(self.body)
        body = rat_from_entries(self.shape, rows, cols, [fn(v) for v in values])
        return ScaledMatrix(self.row_scale, self.col_scale, body)

    # -- predicates ---------------------------------------------------

    def equals(self, other: "ScaledMatrix") -> bool:
        """Exact entrywise equality, independent of the chosen scales."""
        if self.shape != other.shape:
            return False
        rows, cols, mine = nonzeros(self.body)
        o_rows, o_cols, theirs = nonzeros(other.body)
        if rows != o_rows or cols != o_cols:
            return False
        same_row = [x == y for x, y in zip(self.row_scale, other.row_scale)]
        same_col = [x == y for x, y in zip(self.col_scale, other.col_scale)]
        for i, j, a, b in zip(rows, cols, mine, theirs):
            if same_row[i] and same_col[j]:
                if a != b:
                    return False
            elif (a > 0) != (b > 0) or a * a * self.row_scale[i] * self.col_scale[j] != (
                b * b * other.row_scale[i] * other.col_scale[j]
            ):
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, ScaledMatrix) and self.equals(other)

    def __hash__(self):
        raise TypeError("unhashable")

    def is_zero(self) -> bool:
        return mat_is_zero(self.body)

    def is_symmetric(self) -> bool:
        return self.equals(self.T)

    # -- floating mirror ----------------------------------------------

    def to_float(self) -> np.ndarray:
        r = np.sqrt(np.array([float(x) for x in self.row_scale]))
        c = np.sqrt(np.array([float(x) for x in self.col_scale]))
        return mat_to_float(self.body) * np.outer(r, c)

