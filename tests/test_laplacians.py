import copy
from fractions import Fraction

import pytest

from hodgewalk import laplacians
from hodgewalk.complex_core import boundary_matrix
from hodgewalk.exact import eigenvalue, inertia, rational_rank
from hodgewalk.graded_cover import cover_from_complex
from hodgewalk.laplacians import (
    betti_numbers,
    boundary_rank,
    check_laplacian_walk_identity,
    hodge,
    hodge_decomposition,
    normalization_weights,
    normalized_coboundary,
    verify_hodge_properties,
)
from hodgewalk.operators import build_conditional, eigen, quotient_operator

import oracles
from conftest import COMPLEX_NAMES, load_complex, parse_complex, random_complex


def normalized_nullities(cx):
    """Kernel dimension of each normalized Hodge Laplacian, from its exact rank."""

    def nullity(k):
        up, down = hodge(cx, k, normalized=True)
        return cx.n_faces(k) - rational_rank(up + down)

    return tuple(nullity(k) for k in range(cx.dimension + 1))


def test_normalization_weights_tetrahedron():
    cx = load_complex("tetrahedron")
    w = normalization_weights(cx)
    assert w[0] == (Fraction(6),) * 4
    assert w[1] == (Fraction(2, 2),) * 6
    assert w[2] == (Fraction(1, 6),) * 4
    assert w[3] == (Fraction(1, 24),)


def test_down_laplacian_zero_at_k0():
    for name in ("tetrahedron", "cycle5"):
        cx = load_complex(name)
        assert hodge(cx, 0, normalized=False)[1].is_zero()
        assert hodge(cx, 0, normalized=True)[1].is_zero()


def test_combinatorial_diagonals():
    cx = load_complex("tetrahedron")
    up, down = hodge(cx, 1, normalized=False)
    for i in range(6):
        assert down.body[i, i] == 2  # k+1
        assert up.body[i, i] == 2  # each edge lies in two triangles


def test_normalized_up_diagonal_tetrahedron():
    cx = load_complex("tetrahedron")
    up, _down = hodge(cx, 1, normalized=True)
    for i in range(6):
        assert up.restrict([i], [i]).equals(oracles.from_dense([1], [1], [[Fraction(1, 3)]]))


def test_graph_specialization_half_normalized_laplacian():
    """For a graph whose edges are all maximal, the normalized up-Laplacian
    in dimension 0 is half the classic normalized graph Laplacian."""
    for text in ("x0 x1\nx1 x2\nx0 x2", "x0 x1\nx1 x2", "x0 x1\nx1 x2\nx2 x3\nx0 x3"):
        cx = parse_complex(text)
        up, _down = hodge(cx, 0, normalized=True)
        classic = oracles.normalized_graph_laplacian(cx)
        assert up.equals(classic.scale(Fraction(1, 2)))


def test_hollow_triangle_spectrum():
    cx = load_complex("hollow_triangle")
    ev = eigen(hodge(cx, 0, normalized=True)[0])
    assert ev == pytest.approx((0.0, 0.75, 0.75), abs=1e-9)


def test_betti_examples():
    assert betti_numbers(load_complex("hollow_triangle")) == (1, 1)
    assert betti_numbers(load_complex("tetrahedron")) == (1, 0, 0, 0)
    assert betti_numbers(load_complex("cycle6")) == (1, 1)
    assert betti_numbers(load_complex("two_triangles_bridged")) == (1, 1, 0)
    rep = hodge_decomposition(load_complex("branched"), 0)
    assert rep.harmonic == 1  # connected


def test_decomposition_dims_sum():
    for name in COMPLEX_NAMES:
        cx = load_complex(name)
        for k in range(cx.dimension + 1):
            rep = hodge_decomposition(cx, k)
            assert rep.rank_up + rep.rank_down + rep.harmonic == rep.n_k


def test_normalized_betti_agree():
    """The Betti numbers from the boundary ranks are the nullities of the
    normalized Laplacians: the weights scale by positive diagonals."""
    for name in COMPLEX_NAMES:
        cx = load_complex(name)
        assert betti_numbers(cx) == normalized_nullities(cx)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_walk_identity_exact(name):
    cx = load_complex(name)
    for k in range(cx.dimension + 1):
        assert check_laplacian_walk_identity(cx, k)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_verify_hodge_properties(name):
    report = verify_hodge_properties(load_complex(name))
    failures = {k: v for k, v in report.items() if not v[0]}
    assert not failures


def test_saturation_multiplicity_examples():
    # tetrahedron: eigenvalue 2/3 is the top of the dim-0 up spectrum
    cx = load_complex("tetrahedron")
    ev = eigen(hodge(cx, 0, normalized=True)[0])
    assert ev == pytest.approx((0.0, 2 / 3, 2 / 3, 2 / 3), abs=1e-9)
    # even cycle: eigenvalue 1 attained once (single coherent component)
    c6 = load_complex("cycle6")
    ev = eigen(hodge(c6, 0, normalized=True)[0])
    assert oracles.float_multiplicity(ev, 1.0) == 1
    assert inertia(hodge(c6, 0, normalized=True)[0], 1)[1] == 1
    # bridged triangles: two coherent edge families in dimension 1
    br = load_complex("two_triangles_bridged")
    ev = eigen(hodge(br, 1, normalized=True)[0])
    assert oracles.float_multiplicity(ev, 1.0) == 2
    assert inertia(hodge(br, 1, normalized=True)[0], 1)[1] == 2


# (row, k, normalized, part) of the Laplacian whose first diagonal body
# entry moves by 10^-12, far below every float tolerance
PERTURBED_LAPLACIANS = [
    ("positive_semidefinite k=1", 1, False, "up"),
    ("positive_semidefinite k=0 normalized", 0, True, "down"),
    ("nonzero_spectra_match k=1", 0, False, "up"),
    ("nonzero_spectra_match k=1 normalized", 1, True, "down"),
    ("saturation_counts_coherent k=1", 0, True, "up"),
    ("saturation_counts_coherent k=1", 1, True, "down"),
]


@pytest.mark.parametrize("row, k, nrm, part", PERTURBED_LAPLACIANS)
def test_hodge_rows_read_the_laplacians(row, k, nrm, part, monkeypatch):
    cx = load_complex("cycle6")
    assert verify_hodge_properties(cx)[row][0]
    real = laplacians.hodge

    def perturbed(complex, kk, normalized=False):
        lap = real(complex, kk, normalized)
        if (kk, normalized) != (k, nrm):
            return lap
        i = ("up", "down").index(part)
        body = lap[i].body.copy()
        body[0, 0] += Fraction(1, 10**12)
        moved = oracles.from_dense(lap[i].row_scale, lap[i].col_scale, body)
        return (moved, lap[1]) if i == 0 else (lap[0], moved)

    monkeypatch.setattr(laplacians, "hodge", perturbed)
    assert not verify_hodge_properties(cx)[row][0]


def test_spectrum_bounded_by_one_has_no_slack(monkeypatch):
    """The even cycle's normalized up Laplacian in dimension 0 has the
    eigenvalue 1; stretched by 1 + 10^-12 it breaks the bound by less than
    the 1e-10 slack a float check allowed."""
    cx = load_complex("cycle6")
    real = laplacians.hodge
    stretch = 1 + Fraction(1, 10**12)
    assert max(eigen(real(cx, 0, True)[0])) == pytest.approx(1.0, abs=1e-12)

    def stretched(complex, kk, normalized=False):
        up, down = real(complex, kk, normalized)
        return (up.scale(stretch), down) if (kk, normalized) == (0, True) else (up, down)

    monkeypatch.setattr(laplacians, "hodge", stretched)
    report = verify_hodge_properties(cx)
    assert not report["spectrum_bounded_by_one k=0 normalized"][0]
    assert report["spectrum_bounded_by_one k=1 normalized"][0]


def test_coboundary_squared_zero():
    for name in ("tetrahedron", "branched"):
        cx = load_complex(name)
        for k in range(cx.dimension):
            d1 = normalized_coboundary(cx, k)
            d2 = normalized_coboundary(cx, k + 1)
            assert (d2 @ d1).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_random_complex_properties(seed):
    cx = random_complex(seed + 300)
    assert betti_numbers(cx) == normalized_nullities(cx)
    for k in range(cx.dimension + 1):
        up, down = hodge(cx, k, normalized=True)
        assert (up @ down).is_zero()
        ev = eigen(up + down)
        assert all(-1e-10 <= v <= 1 + 1e-10 for v in ev)
        assert check_laplacian_walk_identity(cx, k)
        # positive scales leave a rank alone: only the integer body is read
        assert rational_rank(normalized_coboundary(cx, k)) == boundary_rank(cx, k + 1)


def test_exact_counts_leave_their_input_unchanged():
    """The elimination kernel consumes the rows it is given, so no exact
    count may hand it a matrix's own rows: the memoized Laplacians and
    operators, and the boundaries they share rows with, keep their rows,
    and a second call gives the same result."""
    cx = load_complex("branched")
    cover = cover_from_complex(cx)
    rectangular = [boundary_matrix(cx, k) for k in range(1, cx.dimension + 1)]
    rectangular += [normalized_coboundary(cx, k) for k in range(cx.dimension)]
    symmetric = [quotient_operator(cover)]
    for k in range(cx.dimension + 1):
        symmetric += [*hodge(cx, k, False), *hodge(cx, k, True)]
    symmetric += [build_conditional(cover, 1, "down", flavor) for flavor in ("quotient", "signed")]
    counts = [(rational_rank, m) for m in rectangular + symmetric]
    counts += [(lambda m: inertia(m, Fraction(1, 2)), m) for m in symmetric]
    counts += [(lambda m: eigenvalue(m, 0), m) for m in symmetric]
    for count, mat in counts:
        before = copy.deepcopy(mat.rows)
        first = count(mat)
        assert mat.rows == before
        assert count(mat) == first


def test_k_out_of_range():
    cx = load_complex("single_edge")
    with pytest.raises(ValueError):
        hodge(cx, 2)
    with pytest.raises(ValueError):
        hodge_decomposition(cx, -1)
