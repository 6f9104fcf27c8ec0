"""Combinatorial and normalized Hodge Laplacians of a simplicial complex.

The normalization weight of a k-face is W_k = LP / (k+1)!, which makes the
normalized up/down Laplacians the negatives of the signed conditional-walk
operators.  Ranks (hence Betti numbers) come from exact fraction-free
elimination, never from floating-point decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .complex_core import SimplicialComplex, boundary_matrix
from .exact import ScaledMatrix, rational_rank, rat_zeros
from .graded_cover import (
    components,
    compute_path_weights,
    cover_from_complex,
    detect_coherent,
    memoized,
)
from .operators import build_conditional, eigen, eigenvalue_multiplicity, multiset_match


@dataclass(frozen=True)
class NormalizationWeights:
    w: dict[int, tuple[Fraction, ...]]


@dataclass(frozen=True)
class HodgeLaplacian:
    up: ScaledMatrix
    down: ScaledMatrix

    @property
    def full(self) -> ScaledMatrix:
        return self.up + self.down


@dataclass(frozen=True)
class HodgeReport:
    rank_up: int
    rank_down: int
    harmonic: int
    n_k: int


@memoized
def normalization_weights(complex: SimplicialComplex) -> NormalizationWeights:
    pw = compute_path_weights(cover_from_complex(complex))
    w: dict[int, tuple[Fraction, ...]] = {}
    for k in range(complex.dimension + 1):
        w[k] = tuple(
            Fraction(pw.lp[complex.index_of(f)], factorial(k + 1))
            for f in complex.faces_by_dim[k]
        )
    return NormalizationWeights(w)


def _coboundary(complex: SimplicialComplex, k: int, normalized: bool) -> ScaledMatrix:
    """Coboundary from k- to (k+1)-cochains, the transposed boundary, for
    -1 <= k <= dim (empty blocks at both ends).  Normalized, it is
    W_{k+1}^(1/2) @ coboundary @ W_k^(-1/2), exactly; otherwise the scales are 1."""
    if k < complex.dimension:
        body = boundary_matrix(complex, k + 1).T.copy()
    else:
        body = rat_zeros(0, complex.n_faces(k))
    if not normalized:
        return ScaledMatrix.from_rational(body)
    w = normalization_weights(complex).w
    return ScaledMatrix(w.get(k + 1, ()), [1 / x for x in w.get(k, ())], body)


def normalized_coboundary(complex: SimplicialComplex, k: int) -> ScaledMatrix:
    """W_{k+1}^(1/2) @ coboundary @ W_k^(-1/2), exactly."""
    return _coboundary(complex, k, True)


@memoized
def hodge(complex: SimplicialComplex, k: int, normalized: bool = False) -> HodgeLaplacian:
    """Up and down Hodge Laplacians in dimension k."""
    if not 0 <= k <= complex.dimension:
        raise ValueError(f"k={k} out of range 0..{complex.dimension}")
    dk = _coboundary(complex, k, normalized)
    dkm1 = _coboundary(complex, k - 1, normalized)
    return HodgeLaplacian(dk.T @ dk, dkm1 @ dkm1.T)


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
    lap = hodge(complex, k, normalized=True)
    cover = cover_from_complex(complex)
    a_up = build_conditional(cover, k, "up", "signed")
    a_down = build_conditional(cover, k, "down", "signed")
    return lap.up.equals(-a_up.sm) and lap.down.equals(-a_down.sm)


def verify_hodge_properties(complex: SimplicialComplex) -> dict:
    """H1-H3 and NH1-NH6 on one complex; returns {check: (ok, detail)}."""
    report: dict[str, tuple[bool, str]] = {}

    def check(name: str, ok: bool, detail: str = ""):
        report[name] = (bool(ok), detail)

    cover = cover_from_complex(complex)
    dim = complex.dimension
    laps = {(k, nrm): hodge(complex, k, nrm) for k in range(dim + 1) for nrm in (False, True)}
    # one (up, down) spectrum per Laplacian, shared by every check below
    spectra = {
        key: (eigen(lap.up).eigenvalues, eigen(lap.down).eigenvalues)
        for key, lap in laps.items()
    }
    for k in range(dim + 1):
        for nrm in (False, True):
            lap = laps[(k, nrm)]
            tag = f"k={k}" + (" normalized" if nrm else "")
            check(
                f"annihilation {tag}",
                (lap.up @ lap.down).is_zero() and (lap.down @ lap.up).is_zero(),
            )
            check(
                f"symmetry {tag}",
                lap.up.is_symmetric() and lap.down.is_symmetric(),
            )
            ev_up, ev_dn = spectra[(k, nrm)]
            check(
                f"positive_semidefinite {tag}",
                all(v >= -1e-10 for v in ev_up) and all(v >= -1e-10 for v in ev_dn),
            )
            if nrm:
                check(
                    f"spectrum_bounded_by_one {tag}",
                    all(v <= 1 + 1e-10 for v in ev_up + ev_dn),
                )
        # the harmonic number from the boundary ranks against the nullity of
        # the normalized Laplacian itself
        check(
            f"normalized_harmonic_dim k={k}",
            hodge_decomposition(complex, k).harmonic
            == complex.n_faces(k) - rational_rank(laps[(k, True)].full.body),
        )
    for k in range(1, dim + 1):
        for nrm in (False, True):
            tag = f"k={k}" + (" normalized" if nrm else "")
            up_prev = [v for v in spectra[(k - 1, nrm)][0] if abs(v) > 1e-8]
            down_k = [v for v in spectra[(k, nrm)][1] if abs(v) > 1e-8]
            check(f"nonzero_spectra_match {tag}", multiset_match(up_prev, down_k))
        # multiplicity of eigenvalue 1 counts coherent components
        up_prev = spectra[(k - 1, True)][0]
        down_k = spectra[(k, True)][1]
        mult_up = eigenvalue_multiplicity(up_prev, 1.0)
        mult_down = eigenvalue_multiplicity(down_k, 1.0)
        n_coherent = sum(
            1
            for comp in components(cover, "quotient-up", k - 1)
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
    return report
