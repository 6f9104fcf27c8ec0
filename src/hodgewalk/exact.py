"""Exact linear algebra: scaled rational matrices, ranks, inertia, eigenvalues.

Many operators in this package have entries of the form q * sqrt(a_i / a_j)
with q, a_i, a_j rational.  They are stored exactly as

    M = diag(row_scale)**(1/2) @ (rows / den) @ diag(col_scale)**(1/2)

with positive rational scale vectors and a sparse integer body: ``rows[i]``
maps a column j to the integer numerator of body entry (i, j), and the one
positive integer ``den`` is the denominator of every entry.  The form is
canonical: no zero is stored and gcd(den, every entry) = 1, so two bodies
over the same scales are equal exactly when their ``den`` and ``rows`` are.
Every matrix is built by ``ScaledMatrix(row_scale, col_scale, rows)`` from
rows of rationals, or is the result of an operation on built ones.

Products, sums, negation, scaling, transposes, restrictions and rebases
work on Python integers and visit only stored entries.  The square roots
they meet (sqrt(c_k * r_k) at an inner index of a product, the conversion
factors of a rebase) are rational or the operation raises; each is folded
into the integers through the lcm of their denominators, and one gcd pass
restores the canonical form.  Only the floating-point mirror
(``float_entries``, which ``to_float`` reads) takes irrational roots.
The eigenvalue counts below, at and above a rational threshold
(``inertia``) come from one sparse fraction-free integer elimination of a
symmetric matrix (``_eliminate``), with no rounding and no modular shortcut.
A rank is such a count too: rank B is the negative count of
[[0, B], [B^T, 0]].  ``eigenvalue`` bisects on counts of one matrix, set
up once (``_prepare``) and counted at each threshold (``_count``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


def _sqrt_ratio(num: int, den: int) -> tuple[int, int] | None:
    """(a, b) with a/b = sqrt(num/den) in lowest terms, or None if irrational;
    num >= 0, den > 0."""
    if num == den:
        return 1, 1
    g = math.gcd(num, den)
    num //= g
    den //= g
    a, b = math.isqrt(num), math.isqrt(den)
    if a * a == num and b * b == den:
        return a, b
    return None


def _scales(xs: Iterable) -> tuple[Fraction, ...]:
    out = tuple(x if type(x) is Fraction else Fraction(x) for x in xs)
    if any(x <= 0 for x in out):
        raise ValueError("scales must be positive")
    return out


def _reduced(rows: list[dict[int, int]], den: int) -> tuple[list[dict[int, int]], int]:
    """Integer rows over ``den`` (no stored zeros) divided by the gcd of den
    and every entry."""
    g = den
    for row in rows:
        if g == 1:
            return rows, den
        if row:
            g = math.gcd(g, *row.values())
    if g == 1:
        return rows, den
    return [{j: v // g for j, v in row.items()} for row in rows], den // g


def _integer_rows(rows: Sequence[dict]) -> tuple[list[dict[int, int]], int]:
    """Canonical (rows, den) of rows of rationals (ints or Fractions, zeros
    allowed).  Over the lcm of the reduced denominators the gcd with den is
    already 1: a prime p^a dividing the lcm divides some denominator exactly
    a times, and that entry's numerator is prime to p."""
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    den = math.lcm(*(v.denominator for row in rows for v in row.values()))
    return [
        {j: v.numerator * (den // v.denominator) for j, v in row.items()} for row in rows
    ], den


def _eliminate(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """(below, above): the negative and positive eigenvalue counts of the
    symmetric integer matrix whose nonempty rows are ``rows`` (row index ->
    {column: nonzero int}), by Sylvester's law of inertia.  Consumes ``rows``.

    A pivot is a nonzero diagonal entry with the fewest entries in its row,
    and its sign is the sign of one eigenvalue; when every remaining
    diagonal entry is 0, an off-diagonal pair (i, j) is eliminated
    together, a 2x2 block [[0, a], [b, 0]] with ab > 0 that counts one
    eigenvalue of each sign.  Each other row is updated with a positive
    multiplier and divided by its content (the gcd of its entries), so the
    rows stay a positive diagonal times the symmetric Schur complement,
    whose pattern is symmetric: the rows a pivot reaches are the columns of
    the pivot row.  The rows left out, and those emptied on the way, are
    the nullity.
    """

    def update(k, scale, *terms):
        """rows[k] = scale * rows[k] + the sum of f * other over the
        (f, other) terms, divided by its content; dropped when empty."""
        row = rows[k]
        if scale != 1:
            for j in row:
                row[j] *= scale
        for f, other in terms:
            if f:
                for j, v in other.items():
                    x = row.get(j, 0) + f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        if not row:
            del rows[k]
            return
        g = math.gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g

    below = above = 0
    while rows:
        p = min((i for i, row in rows.items() if i in row), key=lambda i: len(rows[i]), default=None)
        if p is not None:
            pivot = rows.pop(p)
            d = pivot.pop(p)
            if d > 0:
                above += 1
            else:
                below += 1
            # row k becomes |d| row_k - sign(d) row_k[p] pivot
            for k in pivot:
                f = rows[k].pop(p)
                update(k, abs(d), (-f if d > 0 else f, pivot))
        else:
            i = min(rows, key=lambda i: len(rows[i]))
            j = min(rows[i], key=lambda j: len(rows[j]))
            row_i, row_j = rows.pop(i), rows.pop(j)
            a, b = row_i.pop(j), row_j.pop(i)
            below += 1
            above += 1
            # row k becomes ab row_k - b row_k[j] row_i - a row_k[i] row_j
            for k in set(row_i) | set(row_j):
                fi, fj = rows[k].pop(i, 0), rows[k].pop(j, 0)
                update(k, a * b, (-b * fj, row_i), (-a * fi, row_j))
    return below, above


def rational_rank(mat: "ScaledMatrix") -> int:
    """Rank of a ScaledMatrix, computed exactly.

    The scales and the common denominator are positive, so the rank is
    that of the integer rows B.  The symmetric [[0, B], [B^T, 0]] has the
    eigenvalues +-sigma_i of B's nonzero singular values and zeros, so
    rank B is its negative count, which ``_eliminate`` takes.  Its diagonal stays
    zero and its pattern bipartite, so every step is a 2x2 step on an entry
    p of B: an updated row is p times the fraction-free Gaussian update
    p*r - r[c]*pivot, and content division removes that factor.
    """
    m = mat.shape[0]
    double: dict[int, dict[int, int]] = {}
    for i, row in enumerate(mat.rows):
        if row:
            double[i] = {m + j: v for j, v in row.items()}
            for j, v in row.items():
                double.setdefault(m + j, {})[i] = v
    return _eliminate(double)[0]


def _prepare(mat: "ScaledMatrix") -> tuple[tuple[Fraction, ...], list[dict[int, int]], int]:
    """The mu-free part of ``inertia``: (row_scale, rows, den), where the
    integer rows over den are (mat.rows / mat.den) diag(sqrt(c/r))."""
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    den = mat.den
    # per column j: sqrt(c_j / r_j) as (a_j, b_j)
    roots = {}
    for j in set().union(*mat.rows):
        r, c = mat.row_scale[j], mat.col_scale[j]
        root = _sqrt_ratio(c.numerator * r.denominator, c.denominator * r.numerator)
        if root is None:
            raise ValueError("scales are not congruent to a rational matrix")
        roots[j] = root
    body_den = den * math.lcm(*(b for _, b in roots.values()))
    mult = {j: a * (body_den // (den * b)) for j, (a, b) in roots.items()}
    rows = [{j: v * mult[j] for j, v in row.items()} for row in mat.rows]
    if any(rows[j].get(i) != v for i, row in enumerate(rows) for j, v in row.items()):
        raise ValueError("matrix must be symmetric")
    return mat.row_scale, rows, body_den


def _count(prepared: tuple, mu) -> tuple[int, int, int]:
    """``inertia`` of a ``_prepare``d matrix at mu: a positive integer
    multiple of rows / den - mu diag(1/r), eliminated on a fresh copy."""
    row_scale, body, den = prepared
    mu = Fraction(mu)
    shifts = [mu / r for r in row_scale]
    total = math.lcm(den, *(s.denominator for s in shifts))
    m = total // den
    rows = {}
    for i, (row, s) in enumerate(zip(body, shifts)):
        new = {j: v * m for j, v in row.items()}
        d = new.pop(i, 0) - s.numerator * (total // s.denominator)
        if d:
            new[i] = d
        if new:
            rows[i] = new
    below, above = _eliminate(rows)
    return below, len(body) - below - above, above


def inertia(mat: "ScaledMatrix", mu) -> tuple[int, int, int]:
    """(below, at, above): how many eigenvalues of the symmetric ScaledMatrix
    ``mat`` lie below, at and above the rational ``mu``, exactly.

    By Sylvester's law of inertia these are the signs of any matrix
    congruent to M - mu I.  Congruence by diag(row_scale)^(-1/2) gives
    N = (rows/den) diag(sqrt(c/r)) - mu diag(1/r), which is rational when
    c/r is a rational square in every column with a stored entry: a walk
    operator has r*c = 1, so N = (rows/den - mu I) diag(c), and a
    Laplacian has r = c, so N = rows/den - mu diag(1/r).  Other scales, and
    a matrix that is not symmetric, raise ValueError.  A positive integer
    multiple of N is eliminated by ``_eliminate``.
    """
    return _count(_prepare(mat), mu)


def eigenvalue(mat: "ScaledMatrix", index: int) -> float:
    """The ``index``-th eigenvalue (ascending; a negative index counts from
    the top) of a symmetric ScaledMatrix that ``inertia`` accepts, as the
    nearest double (a tie goes up).  The Gershgorin interval of the similar
    diag(sqrt(r*c)) (rows/den), widened to 0 and rounded outward, is bisected
    on ``inertia`` counts (Parlett 1998, ch. 3) at 0 first, where doubles are
    densest, then at double midpoints until one is the eigenvalue or the ends
    are the same or adjacent doubles; a count at their exact midpoint picks
    the nearer."""
    n = mat.shape[0]
    if not -n <= index < n:
        raise IndexError("eigenvalue index out of range")
    index %= n
    prepared = _prepare(mat)
    lo = hi = Fraction(0)
    # _prepare has made every stored row's r/c, hence r*c, a rational square
    for i, (row, r, c) in enumerate(zip(mat.rows, mat.row_scale, mat.col_scale)):
        if row:
            root = _sqrt_ratio(r.numerator * c.numerator, r.denominator * c.denominator)
            s = Fraction(*root) / mat.den
            radius = s * sum(abs(v) for j, v in row.items() if j != i)
            lo, hi = min(lo, s * row.get(i, 0) - radius), max(hi, s * row.get(i, 0) + radius)
    lo_f, hi_f = float(lo), float(hi)
    lo = lo_f if lo_f <= lo else math.nextafter(lo_f, -math.inf)
    hi = hi_f if hi_f >= hi else math.nextafter(hi_f, math.inf)
    mid = 0.0
    while True:
        below, at, _ = _count(prepared, mid)
        if below <= index < below + at:
            return mid
        lo, hi = (lo, mid) if below > index else (mid, hi)
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return lo if _count(prepared, (Fraction(lo) + Fraction(hi)) / 2)[0] > index else hi


class ScaledMatrix:
    """M = diag(row_scale)^(1/2) @ (rows / den) @ diag(col_scale)^(1/2).

    The scales are tuples of positive Fractions; ``rows`` and ``den`` are
    the canonical integer body (see the module docstring).  A matrix is
    never changed after it is built, so results may share row dicts.
    """

    __slots__ = ("row_scale", "col_scale", "rows", "den")

    def __init__(self, row_scale: Iterable, col_scale: Iterable, rows: Sequence[dict]):
        """From positive scales and one row {column: int or Fraction} per
        row scale; zero entries are dropped and the body made canonical."""
        self.row_scale = _scales(row_scale)
        self.col_scale = _scales(col_scale)
        n_cols = len(self.col_scale)
        if len(rows) != len(self.row_scale) or any(
            not 0 <= j < n_cols for row in rows for j in row
        ):
            raise ValueError("rows do not match the scales")
        self.rows, self.den = _integer_rows(rows)

    @classmethod
    def _new(cls, row_scale: tuple, col_scale: tuple, rows: list, den: int) -> "ScaledMatrix":
        """Trusted: validated scale tuples and a canonical integer body."""
        m = object.__new__(cls)
        m.row_scale, m.col_scale, m.rows, m.den = row_scale, col_scale, rows, den
        return m

    @staticmethod
    def identity(n: int) -> "ScaledMatrix":
        ones = (Fraction(1),) * n
        return ScaledMatrix._new(ones, ones, [{i: 1} for i in range(n)], 1)

    # -- structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_scale), len(self.col_scale)

    @property
    def body(self) -> np.ndarray:
        """Read-only dense Fraction array of the body, built on each access."""
        import numpy as np  # loads numpy: imported only where a dense view is built

        out = np.empty(self.shape, dtype=object)
        out.fill(Fraction(0))
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out[i, j] = Fraction(v, self.den)
        out.flags.writeable = False
        return out

    @property
    def T(self) -> "ScaledMatrix":
        cols: list[dict[int, int]] = [{} for _ in self.col_scale]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return ScaledMatrix._new(self.col_scale, self.row_scale, cols, self.den)

    def restrict(self, rows: Sequence[int], cols: Sequence[int]) -> "ScaledMatrix":
        """The submatrix on the listed rows and columns, in their order."""
        where: dict[int, list[int]] = {}
        for n, j in enumerate(cols):
            where.setdefault(j, []).append(n)
        out = []
        for i in rows:
            new = {}
            for j, v in self.rows[i].items():
                for n in where.get(j, ()):
                    new[n] = v
            out.append(new)
        return ScaledMatrix._new(
            tuple(self.row_scale[i] for i in rows),
            tuple(self.col_scale[j] for j in cols),
            *_reduced(out, self.den),
        )

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        right = other.rows
        # the inner factor sqrt(c_k * r_k) of every contracted index k, as
        # a_k / b_k; an irrational one is harmless when nothing contracts
        # through k
        roots = {}
        for k in set().union(*self.rows):
            if right[k]:
                c, r = self.col_scale[k], other.row_scale[k]
                root = _sqrt_ratio(c.numerator * r.numerator, c.denominator * r.denominator)
                if root is None:
                    raise ValueError("inner scales do not compose exactly")
                roots[k] = root
        inner = math.lcm(*(b for _, b in roots.values()))
        empty: dict[int, int] = {}
        scaled = [empty] * len(right)
        for k, (a, b) in roots.items():
            m = a * (inner // b)
            scaled[k] = right[k] if m == 1 else {j: v * m for j, v in right[k].items()}
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, b in scaled[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            if 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            out.append(acc)
        return ScaledMatrix._new(
            self.row_scale, other.col_scale, *_reduced(out, self.den * other.den * inner)
        )

    def rebase(self, row_scale: Iterable, col_scale: Iterable) -> "ScaledMatrix":
        """Re-express with new scales; needs each nonzero entry's conversion
        factor sqrt((r_old*c_old)/(r_new*c_new)) to be rational."""
        row_scale = _scales(row_scale)
        col_scale = _scales(col_scale)
        if (len(row_scale), len(col_scale)) != self.shape:
            raise ValueError("body shape does not match scales")
        return self._rebased(row_scale, col_scale)

    def _rebased(self, row_scale: tuple, col_scale: tuple) -> "ScaledMatrix":
        """``rebase`` onto validated scale tuples of this shape."""
        if row_scale == self.row_scale and col_scale == self.col_scale:
            return self

        def ratios(old, new):
            return [(x.numerator * y.denominator, x.denominator * y.numerator)
                    for x, y in zip(old, new)]

        rr, cc = ratios(self.row_scale, row_scale), ratios(self.col_scale, col_scale)
        roots: dict[tuple[int, int], tuple[int, int]] = {}  # this call's factors
        staged = []
        for (a, b), row in zip(rr, self.rows):
            new = {}
            for j, v in row.items():
                c, d = cc[j]
                key = (a * c, b * d)
                root = roots.get(key)
                if root is None:
                    root = _sqrt_ratio(*key)
                    if root is None:
                        raise ValueError("scales are not compatible")
                    roots[key] = root
                new[j] = (v * root[0], root[1])
            staged.append(new)
        lcm = math.lcm(*(b for _, b in roots.values()))
        out = [{j: v * (lcm // b) for j, (v, b) in row.items()} for row in staged]
        return ScaledMatrix._new(row_scale, col_scale, *_reduced(out, self.den * lcm))

    def __add__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        try:
            a, b = self, other._rebased(self.row_scale, self.col_scale)
        except ValueError:
            a, b = self._rebased(other.row_scale, other.col_scale), other
        den = math.lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        rows = []
        for ra, rb in zip(a.rows, b.rows):
            new = dict(ra) if ma == 1 else {j: v * ma for j, v in ra.items()}
            for j, v in rb.items():
                x = new.get(j, 0) + v * mb
                if x:
                    new[j] = x
                else:
                    del new[j]
            rows.append(new)
        return ScaledMatrix._new(a.row_scale, a.col_scale, *_reduced(rows, den))

    def __sub__(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return self + (-other)

    def __neg__(self) -> "ScaledMatrix":
        rows = [{j: -v for j, v in row.items()} for row in self.rows]
        return ScaledMatrix._new(self.row_scale, self.col_scale, rows, self.den)

    def scale(self, factor) -> "ScaledMatrix":
        factor = Fraction(factor)
        p = factor.numerator
        if p == 0:
            rows: list[dict[int, int]] = [{} for _ in self.rows]
            return ScaledMatrix._new(self.row_scale, self.col_scale, rows, 1)
        rows = self.rows if p == 1 else [{j: v * p for j, v in row.items()} for row in self.rows]
        return ScaledMatrix._new(
            self.row_scale, self.col_scale, *_reduced(rows, self.den * factor.denominator)
        )

    # -- predicates ---------------------------------------------------

    def equals(self, other: "ScaledMatrix") -> bool:
        """Exact entrywise equality, independent of the chosen scales.

        Equal nonzero entries b*sqrt(r*c) = b'*sqrt(r'*c') have a rational
        conversion factor b/b', so a rebase that fails proves inequality."""
        if self.shape != other.shape:
            return False
        try:
            other = other._rebased(self.row_scale, self.col_scale)
        except ValueError:
            return False
        return self.den == other.den and self.rows == other.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, ScaledMatrix) and self.equals(other)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_symmetric(self) -> bool:
        return self.equals(self.T)

    # -- floating mirror ----------------------------------------------

    def float_entries(self) -> Iterator[tuple[int, int, float]]:
        """(i, j, float of entry (i, j)) per stored entry, columns ascending.

        The one rounding of the float mirror, in pure Python: v / den is
        correctly rounded (int / int, as float(Fraction) is), and so is
        each square root of a scale."""
        r = [math.sqrt(float(x)) for x in self.row_scale]
        c = [math.sqrt(float(x)) for x in self.col_scale]
        den = self.den
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                yield i, j, (row[j] / den) * (r[i] * c[j])

    def to_float(self) -> np.ndarray:
        import numpy as np  # loads numpy: imported only where a float mirror is built

        out = np.zeros(self.shape)
        for i, j, x in self.float_entries():
            out[i, j] = x
        return out
