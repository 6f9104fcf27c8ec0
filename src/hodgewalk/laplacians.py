"""Combinatorial and normalized Hodge Laplacians of a simplicial complex.

The normalization weight of a k-face is W_k = LP / (k+1)!, which is the
cover's H = LP/RP (a k-face has RP = (k+1)! paths down to the vertices).
It makes the normalized up/down Laplacians the negatives of the signed
conditional-walk operators.  Ranks (hence Betti numbers), nullities and
eigenvalue counts all come from ``exact``'s one fraction-free elimination
(a rank is the negative eigenvalue count of [[0, B], [B^T, 0]]), never from
floating-point decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import complex_core, operators
from .complex_core import SimplicialComplex, boundary_matrix
from .exact import ScaledMatrix, inertia, rational_rank
from .graded_cover import (
    components,
    compute_path_weights,
    conditional_triples,
    cover_from_complex,
    detect_coherent,
    memoized,
)


class HodgeReport(NamedTuple):
    rank_up: int
    rank_down: int
    harmonic: int
    n_k: int


@memoized
def normalization_weights(complex: SimplicialComplex) -> dict[int, tuple[Fraction, ...]]:
    """{k: W_k = H of the k-faces, in their order within dimension k}."""
    cover = cover_from_complex(complex)
    pw = compute_path_weights(cover)
    return {k: tuple(pw.h(q) for q in nodes) for k, nodes in cover.nodes_by_dim.items()}


def _coboundary(complex: SimplicialComplex, k: int, normalized: bool) -> ScaledMatrix:
    """Coboundary from k- to (k+1)-cochains, the transposed boundary, for
    -1 <= k <= dim (empty blocks at both ends).  Normalized, it is
    W_{k+1}^(1/2) @ coboundary @ W_k^(-1/2), exactly; otherwise the scales are 1."""
    rows = boundary_matrix(complex, k + 1).T.rows if k < complex.dimension else []
    if normalized:
        w = normalization_weights(complex)
        scales = w.get(k + 1, ()), tuple(1 / x for x in w.get(k, ()))
    else:
        scales = tuple((Fraction(1),) * complex.n_faces(i) for i in (k + 1, k))
    return ScaledMatrix._new(*scales, rows, 1)


def normalized_coboundary(complex: SimplicialComplex, k: int) -> ScaledMatrix:
    """W_{k+1}^(1/2) @ coboundary @ W_k^(-1/2), exactly."""
    return _coboundary(complex, k, True)


@memoized
def hodge(
    complex: SimplicialComplex, k: int, normalized: bool = False
) -> tuple[ScaledMatrix, ScaledMatrix]:
    """(up, down) Hodge Laplacians in dimension k."""
    if not 0 <= k <= complex.dimension:
        raise ValueError(f"k={k} out of range 0..{complex.dimension}")
    dk = _coboundary(complex, k, normalized)
    dkm1 = _coboundary(complex, k - 1, normalized)
    return dk.T @ dk, dkm1 @ dkm1.T


@memoized
def boundary_rank(complex: SimplicialComplex, k: int) -> int:
    """Exact rank of the boundary from k- to (k-1)-faces, 0 for k = 0 and
    k = dim + 1.  The normalized coboundaries scale it by positive diagonal
    weights, so they have the same rank."""
    return rational_rank(boundary_matrix(complex, k)) if 0 < k <= complex.dimension else 0


def hodge_decomposition(complex: SimplicialComplex, k: int) -> HodgeReport:
    """Ranks of the up/down images and the harmonic dimension (k-th Betti number)."""
    if not 0 <= k <= complex.dimension:
        raise ValueError(f"k={k} out of range 0..{complex.dimension}")
    n_k = complex.n_faces(k)
    rank_up = boundary_rank(complex, k + 1)
    rank_down = boundary_rank(complex, k)
    return HodgeReport(rank_up, rank_down, n_k - rank_up - rank_down, n_k)


def betti_numbers(complex: SimplicialComplex) -> tuple[int, ...]:
    return tuple(hodge_decomposition(complex, k).harmonic for k in range(complex.dimension + 1))


def check_laplacian_walk_identity(complex: SimplicialComplex, k: int) -> bool:
    """Normalized Laplacians equal the negated signed conditional operators, exactly."""
    up, down = hodge(complex, k, normalized=True)
    cover = cover_from_complex(complex)
    a_up = operators.build_conditional(cover, k, "up", "signed")
    a_down = operators.build_conditional(cover, k, "down", "signed")
    return up.equals(-a_up) and down.equals(-a_down)


def verify_hodge_properties(complex: SimplicialComplex) -> dict:
    """H1-H3 and NH1-NH6 on one complex, then its adjacency against the
    conditional triples of its cover; returns {check: (ok, detail)}."""
    report: dict[str, tuple[bool, str]] = {}

    def check(name: str, ok: bool, detail: str = ""):
        report[name] = (bool(ok), detail)

    cover = cover_from_complex(complex)
    dim = complex.dimension
    laps = {(k, nrm): hodge(complex, k, nrm) for k in range(dim + 1) for nrm in (False, True)}
    # L_up(k) = d_k^T d_k and L_down(k) = d_(k-1) d_(k-1)^T: Gram products are
    # PSD, and L_up(k-1), L_down(k) share d_(k-1), hence their nonzero spectra
    grams = {}
    for (k, nrm), (up, down) in laps.items():
        d, d_prev = _coboundary(complex, k, nrm), _coboundary(complex, k - 1, nrm)
        grams[(k, nrm)] = (up.equals(d.T @ d), down.equals(d_prev @ d_prev.T))
    for k in range(dim + 1):
        for nrm in (False, True):
            up, down = laps[(k, nrm)]
            tag = f"k={k}" + (" normalized" if nrm else "")
            check(
                f"annihilation {tag}",
                (up @ down).is_zero() and (down @ up).is_zero(),
            )
            check(
                f"symmetry {tag}",
                up.is_symmetric() and down.is_symmetric(),
            )
            check(f"positive_semidefinite {tag}", all(grams[(k, nrm)]))
            if nrm:
                above = inertia(up, 1)[2] + inertia(down, 1)[2]
                check(f"spectrum_bounded_by_one {tag}", above == 0)
        # the harmonic number from the boundary ranks against the nullity of
        # the normalized Laplacian itself
        up, down = laps[(k, True)]
        check(
            f"normalized_harmonic_dim k={k}",
            hodge_decomposition(complex, k).harmonic == inertia(up + down, 0)[1],
        )
    for k in range(1, dim + 1):
        for nrm in (False, True):
            tag = f"k={k}" + (" normalized" if nrm else "")
            check(f"nonzero_spectra_match {tag}", grams[(k - 1, nrm)][0] and grams[(k, nrm)][1])
        # multiplicity of eigenvalue 1 counts coherent components
        mult_up = inertia(laps[(k - 1, True)][0], 1)[1]
        mult_down = inertia(laps[(k, True)][1], 1)[1]
        n_coherent = sum(
            1
            for comp in components(cover, k - 1, "up")
            if detect_coherent(cover, comp, "up") is not None
        )
        check(
            f"saturation_counts_coherent k={k}",
            mult_up == mult_down == n_coherent,
            f"multiplicity {mult_up}/{mult_down}, coherent components {n_coherent}",
        )
    for k in range(dim + 1):
        check(
            f"walk_identity k={k}",
            check_laplacian_walk_identity(complex, k),
        )
    # the triples' neighbour pairs, as pairs of faces, against the oracle's
    faces, adjacent = complex.all_faces, []
    for k in range(dim + 1):
        for direction in ("up", "down"):
            theirs = complex_core.adjacency(complex, k, direction)
            triples = conditional_triples(cover, k, direction)
            ours = {(faces[a], faces[b]) for a, b, _v, _s in triples if a != b}
            adjacent.append(ours == {(f, g) for f in theirs for g in theirs[f]})
    check("complex_adjacency_consistent", all(adjacent))
    return report
