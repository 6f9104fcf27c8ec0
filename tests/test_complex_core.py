import pytest

from hodgewalk.complex_core import (
    ComplexFormatError,
    Face,
    adjacency,
    boundary_matrix,
    incidence_sign,
    parse_complex,
)
from hodgewalk.graded_cover import cover_from_complex

from conftest import load_complex, random_complex


def test_parse_tetrahedron_closure():
    cx = parse_complex("x0 x1 x2 x3")
    assert cx.n_faces() == 15
    assert [cx.n_faces(k) for k in range(4)] == [4, 6, 4, 1]


def test_parse_single_vertex():
    cx = parse_complex("x0")
    assert cx.n_faces() == 1
    assert cx.dimension == 0


def test_parse_branched_has_26_faces():
    cx = load_complex("branched")
    assert cx.n_faces() == 26


def test_parse_ignores_comments_and_blanks():
    cx = parse_complex("# comment\n\n  \nx0 x1\n")
    assert cx.n_faces() == 3


def test_parse_errors():
    with pytest.raises(ComplexFormatError):
        parse_complex("x0 x1 x0")
    with pytest.raises(ComplexFormatError):
        parse_complex("")
    with pytest.raises(ComplexFormatError):
        parse_complex("a b#c")


def test_face_ordering_is_input_independent():
    a = parse_complex("x0 x1 x2\nx3 x4")
    b = parse_complex("x3 x4\nx0 x1 x2")
    assert a.all_faces == b.all_faces


def test_incidence_sign_edge():
    tau = Face.of(["x0", "x1"])
    # boundary of an edge is its ending point minus its starting point
    assert incidence_sign(tau, Face.of(["x1"])) == 1
    assert incidence_sign(tau, Face.of(["x0"])) == -1
    # the other orientation of a face is its flipped lift q + N in the cover
    cover = cover_from_complex(parse_complex("x0 x1"))
    n = cover.n_quotient
    x1, edge = cover.labels.index("x1"), cover.labels.index("x0 x1")
    assert cover.cover_sign(x1, edge) == 1
    assert cover.cover_sign(x1 + n, edge) == -1
    assert cover.cover_sign(x1, edge + n) == -1
    assert cover.cover_sign(x1 + n, edge + n) == 1


def test_incidence_sign_rejects_non_subface():
    tau = Face.of(["x0", "x1"])
    with pytest.raises(ValueError):
        incidence_sign(tau, Face.of(["x2"]))
    with pytest.raises(ValueError):
        incidence_sign(tau, Face.of(["x0", "x1"]))


def test_boundary_matrix_shapes_and_k0():
    cx = load_complex("tetrahedron")
    assert boundary_matrix(cx, 0).shape == (0, 4)
    d1 = boundary_matrix(cx, 1)
    assert d1.shape == (4, 6)
    for j in range(6):
        col = [d1.body[i, j] for i in range(4)]
        assert sorted(v for v in col if v != 0) == [-1, 1]
    with pytest.raises(ValueError):
        boundary_matrix(cx, 4)


def test_boundary_squared_zero_tetrahedron():
    cx = load_complex("tetrahedron")
    prod = boundary_matrix(cx, 1) @ boundary_matrix(cx, 2)
    assert prod.shape == (4, 4)
    assert prod.is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_boundary_squared_zero_random(seed):
    cx = random_complex(seed)
    for k in range(2, cx.dimension + 1):
        assert (boundary_matrix(cx, k - 1) @ boundary_matrix(cx, k)).is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_boundary_subface_count(seed):
    cx = random_complex(seed + 50)
    for f in cx.all_faces:
        assert len(f.boundary()) == f.dimension + 1 if f.dimension else not f.boundary()


def test_adjacency_examples():
    tet = load_complex("tetrahedron")
    up1 = adjacency(tet, 1, "up")
    assert all(len(nb) == 4 for nb in up1.values())
    down2 = adjacency(tet, 2, "down")
    assert all(len(nb) == 3 for nb in down2.values())
    single = parse_complex("x0")
    assert adjacency(single, 0, "up") == {Face.of(["x0"]): frozenset()}


def test_adjacency_symmetric_irreflexive():
    cx = load_complex("branched")
    for k in range(cx.dimension + 1):
        for direction in ("up", "down"):
            adj = adjacency(cx, k, direction)
            for f, nbs in adj.items():
                assert f not in nbs
                for g in nbs:
                    assert f in adj[g]
