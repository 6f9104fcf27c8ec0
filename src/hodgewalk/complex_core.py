"""Simplicial complexes: faces, incidence signs, boundaries.

The reference orientation of every face is its ascending-label vertex
order; this convention fixes the sign of every matrix in the package.
Faces are globally ordered by (dimension, label tuple), so all matrix
layouts are reproducible regardless of input file order.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import exact


class ComplexFormatError(ValueError):
    """Raised on malformed complex input."""


class Face(NamedTuple):
    """A face as a sorted tuple of vertex labels."""

    vertices: tuple[str, ...]

    @staticmethod
    def of(labels) -> "Face":
        vs = tuple(sorted(labels))
        if not vs:
            raise ComplexFormatError("empty face")
        if len(set(vs)) != len(vs):
            raise ComplexFormatError(f"duplicate vertex in face {labels}")
        return Face(vs)

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return " ".join(self.vertices)

    def boundary(self) -> list["Face"]:
        if self.dimension == 0:
            return []
        return [Face(self.vertices[:i] + self.vertices[i + 1:]) for i in range(len(self.vertices))]


class SimplicialComplex:
    """A finite simplicial complex, closed under taking subfaces."""

    def __init__(self, faces):
        face_set = set(faces)
        if not face_set:
            raise ComplexFormatError("complex has no faces")
        for f in list(face_set):
            for size in range(1, len(f.vertices)):
                for sub in combinations(f.vertices, size):
                    face_set.add(Face(sub))
        self.faces: frozenset[Face] = frozenset(face_set)
        self.dimension: int = max(f.dimension for f in face_set)
        self.faces_by_dim: dict[int, tuple[Face, ...]] = {
            k: tuple(sorted(f for f in face_set if f.dimension == k))
            for k in range(self.dimension + 1)
        }
        self.all_faces: tuple[Face, ...] = tuple(
            f for k in range(self.dimension + 1) for f in self.faces_by_dim[k]
        )
        self._index = {f: i for i, f in enumerate(self.all_faces)}

    def n_faces(self, k: int | None = None) -> int:
        if k is None:
            return len(self.all_faces)
        return len(self.faces_by_dim.get(k, ()))

    def index_of(self, face: Face) -> int:
        """Position of a face in the global (dimension, lexicographic) order."""
        return self._index[face]


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the maximal-face line format.

    One face per line as whitespace-separated vertex labels; lines starting
    with '#' and blank lines are ignored.  The downward closure of all
    listed faces is returned.
    """
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        labels = line.split()
        for lab in labels:
            if "#" in lab:
                raise ComplexFormatError(f"line {lineno}: malformed label {lab!r}")
        if len(set(labels)) != len(labels):
            raise ComplexFormatError(f"line {lineno}: duplicate vertex in face")
        faces.append(Face.of(labels))
    if not faces:
        raise ComplexFormatError("no faces in input")
    return SimplicialComplex(faces)


def incidence_sign(tau: Face, sigma: Face) -> int:
    """Boundary incidence sign between a face and a subface, both in the
    reference orientation.

    The subface obtained by dropping the i-th vertex carries sign (-1)**i,
    so that the boundary of an edge is its ending point minus its starting
    point.  The other orientation of a face is its flipped lift in the
    double cover, and flipping either end negates the sign there.
    """
    tv, sv = tau.vertices, sigma.vertices
    if len(tv) != len(sv) + 1 or not set(sv) < set(tv):
        raise ValueError(f"{sigma} is not a boundary subface of {tau}")
    missing = (set(tv) - set(sv)).pop()
    return -1 if tv.index(missing) % 2 else 1


def boundary_matrix(complex: SimplicialComplex, k: int) -> exact.ScaledMatrix:
    """Integer boundary matrix from k-faces to (k-1)-faces (reference
    orientation), with unit scales."""
    if not 0 <= k <= complex.dimension:
        raise ValueError(f"k={k} out of range 0..{complex.dimension}")
    faces = complex.faces_by_dim[k - 1] if k else ()
    row_pos = {f: i for i, f in enumerate(faces)}
    rows: list[dict[int, int]] = [{} for _ in faces]
    for j, sigma in enumerate(complex.faces_by_dim[k]):
        for rho in sigma.boundary():
            rows[row_pos[rho]][j] = incidence_sign(sigma, rho)
    return exact.ScaledMatrix([1] * len(faces), [1] * complex.n_faces(k), rows)


def adjacency(complex: SimplicialComplex, k: int, direction: str) -> dict[Face, frozenset[Face]]:
    """Up- or down-adjacency among k-faces.

    Up: two distinct k-faces are adjacent when their union is a (k+1)-face.
    Down: when they share a (k-1)-subface (equivalently |intersection| = k).
    """
    if not 0 <= k <= complex.dimension:
        raise ValueError(f"k={k} out of range 0..{complex.dimension}")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    neighbors: dict[Face, set[Face]] = {f: set() for f in complex.faces_by_dim[k]}
    if direction == "up":
        for tau in complex.faces_by_dim.get(k + 1, ()):
            subs = tau.boundary()
            for a, b in combinations(subs, 2):
                neighbors[a].add(b)
                neighbors[b].add(a)
    else:
        by_sub: dict[Face, list[Face]] = {}
        for sigma in complex.faces_by_dim[k]:
            for rho in sigma.boundary():
                by_sub.setdefault(rho, []).append(sigma)
        for group in by_sub.values():
            for a, b in combinations(group, 2):
                neighbors[a].add(b)
                neighbors[b].add(a)
    return {f: frozenset(s) for f, s in neighbors.items()}
