"""The normalized operator family of the root-to-leaf walk.

Every operator is stored exactly as a ScaledMatrix: its entries are
rational multiples of sqrt(H(u)) * sqrt(H(u'))^(-1) factors, where
H = LP/RP.  Algebraic identities between operators are therefore checked
in rational arithmetic with zero tolerance, while spectra come from a
floating-point mirror fed to numpy's LAPACK ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import ScaledMatrix, rat_zeros
from .graded_cover import (
    GradedSignedDoubleCover,
    components,
    compute_path_weights,
    conditional_triples,
    detect_coherent,
    memoized,
)


class EigenResidualError(RuntimeError):
    """Raised when the eigensolver does not meet its residual contract."""


@dataclass(frozen=True)
class SymmetricOperator:
    kind: str
    index: tuple[str, ...]
    nodes: tuple[int, ...]
    sm: ScaledMatrix

    def restrict(self, quotient_nodes) -> "SymmetricOperator":
        pos = [self.nodes.index(q) for q in sorted(quotient_nodes)]
        return SymmetricOperator(
            self.kind + "|restricted",
            tuple(self.index[i] for i in pos),
            tuple(self.nodes[i] for i in pos),
            self.sm.restrict(pos, pos),
        )


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class OperatorBundle:
    cover: GradedSignedDoubleCover
    a_cover: ScaledMatrix
    a_sym: ScaledMatrix
    a_alt: ScaledMatrix
    a_quotient: ScaledMatrix
    a_signed: ScaledMatrix
    delta_cover: ScaledMatrix
    delta_sym: ScaledMatrix
    delta_alt: ScaledMatrix
    delta_quotient: ScaledMatrix
    delta_signed: ScaledMatrix
    theta_l: ScaledMatrix
    theta_r: ScaledMatrix
    pi_l: ScaledMatrix
    pi_r: ScaledMatrix
    q_sym: ScaledMatrix
    q_alt: ScaledMatrix
    r: ScaledMatrix

    def delta_block(self, which: str, k: int) -> ScaledMatrix:
        """Graded block delta_k: rows in dimension k+1, columns in dimension k."""
        cov = self.cover
        if which in ("cover", "sym", "alt"):
            mat = {"cover": self.delta_cover, "sym": self.delta_sym, "alt": self.delta_alt}[which]
            return mat.restrict(cov.lifts(k + 1), cov.lifts(k))
        mat = {"quotient": self.delta_quotient, "signed": self.delta_signed}[which]
        return mat.restrict(cov.nodes_by_dim.get(k + 1, ()), cov.nodes_by_dim.get(k, ()))


@memoized
def build_bundle(cover: GradedSignedDoubleCover) -> OperatorBundle:
    """All walk operators of the cover, the quotient and the oriented graph.

    The signed matrices use the reference lift of every node; all other
    orientations are switching-equivalent to it.
    """
    pw = compute_path_weights(cover)
    n = cover.n_quotient
    hq = [pw.h(q) for q in range(n)]
    ihq = [Fraction(1) / x for x in hq]
    hc, ihc = hq + hq, ihq + ihq

    a_cover = rat_zeros(2 * n, 2 * n)
    a_sym = rat_zeros(2 * n, 2 * n)
    a_alt = rat_zeros(2 * n, 2 * n)
    d_cover = rat_zeros(2 * n, 2 * n)
    d_sym = rat_zeros(2 * n, 2 * n)
    d_alt = rat_zeros(2 * n, 2 * n)
    theta_l = rat_zeros(2 * n, 2 * n)
    theta_r = rat_zeros(2 * n, 2 * n)
    r_mat = rat_zeros(2 * n, 2 * n)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for u in range(2 * n):
        q, flip = u % n, u >= n
        r_mat[u, (u + n) % (2 * n)] = Fraction(1)
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        if leaf:
            theta_l[u, q] = half
            theta_l[u, q + n] = half
        if root:
            theta_r[u, q] = half
            theta_r[u, q + n] = half
        if leaf and root:
            a_cover[u, q] = a_cover[u, q + n] = half
            a_sym[u, q] = a_sym[u, q + n] = half
        elif leaf != root:
            a_cover[u, q] = a_cover[u, q + n] = quarter
            a_sym[u, q] = a_sym[u, q + n] = quarter
        # row u = v acting on subfaces u' (body factor for scales (H, 1/H) is rational)
        for t in cover.children[q]:
            s_ref = cover.sign_ref[(t, q)]
            for tflip in (False, True):
                u2 = t + n * tflip
                s = s_ref * (-1 if flip else 1) * (-1 if tflip else 1)
                a_sym[u, u2] += quarter
                a_alt[u, u2] += Fraction(s, 4)
                d_sym[u, u2] += half
                d_alt[u, u2] += Fraction(s, 2)
                if s == 1:
                    a_cover[u, u2] += half
                    d_cover[u, u2] += Fraction(1)
        # row u = t below supfaces u'
        for v in cover.parents[q]:
            s_ref = cover.sign_ref[(q, v)]
            ratio = hq[v] / hq[q]
            for vflip in (False, True):
                u2 = v + n * vflip
                s = s_ref * (-1 if flip else 1) * (-1 if vflip else 1)
                a_sym[u, u2] += quarter * ratio
                a_alt[u, u2] += Fraction(-s, 4) * ratio
                if s == -1:
                    a_cover[u, u2] += half * ratio

    a_quot = rat_zeros(n, n)
    d_quot = rat_zeros(n, n)
    d_signed = rat_zeros(n, n)
    pi_l = rat_zeros(n, n)
    pi_r = rat_zeros(n, n)
    for q in range(n):
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        if leaf:
            pi_l[q, q] = Fraction(1)
        if root:
            pi_r[q, q] = Fraction(1)
        if leaf and root:
            a_quot[q, q] = Fraction(1)
        elif leaf != root:
            a_quot[q, q] = half
        for t in cover.children[q]:
            a_quot[q, t] += half
            d_quot[q, t] += Fraction(1)
            d_signed[q, t] += Fraction(cover.sign_ref[(t, q)])
        for v in cover.parents[q]:
            a_quot[q, v] += half * (hq[v] / hq[q])

    a_signed = rat_zeros(n, n)
    for q in range(n):
        for t in cover.children[q]:
            a_signed[q, t] += Fraction(cover.sign_ref[(t, q)], 2)
        for v in cover.parents[q]:
            a_signed[q, v] += Fraction(-cover.sign_ref[(q, v)], 2) * (hq[v] / hq[q])

    q_sym = rat_zeros(n, 2 * n)
    q_alt = rat_zeros(n, 2 * n)
    for q in range(n):
        q_sym[q, q] = q_sym[q, q + n] = Fraction(1)
        q_alt[q, q] = Fraction(1)
        q_alt[q, q + n] = Fraction(-1)

    sm_c = lambda body: ScaledMatrix(hc, ihc, body)
    sm_q = lambda body: ScaledMatrix(hq, ihq, body)
    return OperatorBundle(
        cover=cover,
        a_cover=sm_c(a_cover),
        a_sym=sm_c(a_sym),
        a_alt=sm_c(a_alt),
        a_quotient=sm_q(a_quot),
        a_signed=sm_q(a_signed),
        delta_cover=sm_c(d_cover),
        delta_sym=sm_c(d_sym),
        delta_alt=sm_c(d_alt),
        delta_quotient=sm_q(d_quot),
        delta_signed=sm_q(d_signed),
        theta_l=sm_c(theta_l),
        theta_r=sm_c(theta_r),
        pi_l=sm_q(pi_l),
        pi_r=sm_q(pi_r),
        q_sym=ScaledMatrix(hq, ihc, q_sym),
        q_alt=ScaledMatrix(hq, ihc, q_alt),
        r=sm_c(r_mat),
    )


@memoized
def build_conditional(
    cover: GradedSignedDoubleCover,
    k: int,
    direction: str,
    flavor: str,
    orientation=None,
) -> SymmetricOperator:
    """Symmetric operator of the conditional up/down walk in dimension k.

    Flavors: 'quotient' (nonnegative, spectrum in [0,1]), 'signed'
    (negative semi-definite, spectrum in [-1,0]) and 'cover' (the full
    2N_k matrix whose spectrum is the disjoint union of the other two).
    ``orientation`` {quotient index -> flipped} re-orients the signed
    flavor; nodes it leaves out keep their reference lift.
    """
    cover.require_strong()
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if flavor not in ("quotient", "signed", "cover"):
        raise ValueError("flavor must be 'quotient', 'signed' or 'cover'")
    pw = compute_path_weights(cover)
    flipped = orientation or {}
    nodes = cover.nodes_by_dim.get(k, ())
    pos = {q: i for i, q in enumerate(nodes)}
    m = len(nodes)
    up = direction == "up"
    hq = [pw.h(q) for q in range(cover.n_quotient)]
    lonely = cover.is_leaf if up else cover.is_root
    size = 2 * m if flavor == "cover" else m
    body = rat_zeros(size, size)
    # a lonely node has no mid-node to pass through: it stays put (quotient)
    # or moves to either of its lifts (cover)
    for i in [pos[a] for a in nodes if lonely(a)]:
        if flavor == "quotient":
            body[i, i] = Fraction(1)
        elif flavor == "cover":
            body[i, i] = body[i, i + m] = body[i + m, i] = body[i + m, i + m] = Fraction(1, 2)
    for a, b, v, s in conditional_triples(cover, k, direction):
        w = hq[v] / hq[a] if up else hq[b] / hq[v]
        i, j = pos[a], pos[b]
        if flavor == "quotient":
            body[i, j] += w
        elif flavor == "signed":
            body[i, j] -= w * (-s if flipped.get(a, False) != flipped.get(b, False) else s)
        else:
            # two conditioned steps pick up opposite signs overall
            for fa in (0, 1):
                body[i + m * fa, j + m * (fa ^ (s == 1))] += w
    h_row = [hq[q] for q in nodes]
    h_col = [1 / hq[q] for q in nodes]
    if flavor != "cover":
        labels = tuple(cover.labels[q] for q in nodes)
        sm = ScaledMatrix(h_row, h_col, body)
        return SymmetricOperator(f"A-{direction}-{k}-{flavor}", labels, tuple(nodes), sm)
    labels = tuple(
        ("-" if flip else "+") + cover.labels[q] for flip in (0, 1) for q in nodes
    )
    sm = ScaledMatrix(h_row * 2, h_col * 2, body)
    return SymmetricOperator(f"A-{direction}-{k}-cover", labels, cover.lifts(k), sm)


# -- eigensolver ------------------------------------------------------------

# Float tolerances: the eigen residual bound (relative to the largest
# eigenvalue), multiset matching, and the multiplicity gap.
EIGEN_TOL = 1e-9
MULTISET_TOL = 1e-8
MULTIPLICITY_GAP = 1e-7


def eigen(operator) -> Spectrum:
    """Full spectral decomposition of a ScaledMatrix or a float array.

    Eigenvalues ascend; each eigenvector is normalized so its largest
    absolute entry is positive.  The residual max|Av - lambda v| must meet
    the tolerance contract or EigenResidualError is raised.
    """
    if isinstance(operator, ScaledMatrix):
        mat = operator.to_float()
    else:
        mat = np.array(operator, dtype=float)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(mat, mat.T, atol=1e-12 * (1 + np.abs(mat).max(initial=0.0))):
        raise ValueError("matrix must be symmetric")
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            vecs[:, j] = -col
    residual = float(np.abs(mat @ vecs - vecs * vals).max(initial=0.0))
    bound = EIGEN_TOL * (1 + np.abs(vals).max(initial=0.0))
    if residual > bound:
        raise EigenResidualError(f"residual {residual} exceeds {bound}")
    return Spectrum(tuple(float(x) for x in vals), vecs, residual)


def multiset_match(a, b) -> bool:
    """Equality of two real multisets after sorting."""
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= MULTISET_TOL for x, y in zip(sorted(a), sorted(b)))


def eigenvalue_multiplicity(values, target: float) -> int:
    return sum(1 for v in values if abs(v - target) < MULTIPLICITY_GAP)


# -- verification -----------------------------------------------------------


def verify_split(cover: GradedSignedDoubleCover) -> dict:
    """Check the spectrum-split identities, exactly where possible.

    Exact block-diagonalization of the cover operator through the
    symmetric/alternating projections proves the multiset split; the
    floating checks confirm eigenfunction transfer residuals.
    """
    b = build_bundle(cover)
    n = cover.n_quotient
    report: dict[str, tuple[bool, str]] = {}

    def check(name: str, ok: bool, detail: str = ""):
        report[name] = (bool(ok), detail)

    i2n = ScaledMatrix.identity(2 * n)
    check("projection_algebra",
          (b.q_sym.T @ b.q_sym).equals(i2n + b.r)
          and (b.q_alt.T @ b.q_alt).equals(i2n - b.r)
          and (b.q_sym @ b.q_sym.T).equals(ScaledMatrix.identity(n).scale(2))
          and (b.q_alt @ b.q_alt.T).equals(ScaledMatrix.identity(n).scale(2))
          and (b.q_sym @ b.q_alt.T).is_zero())
    check("block_diagonalization",
          (b.q_sym @ b.a_cover @ b.q_sym.T).scale(Fraction(1, 2)).equals(b.a_quotient)
          and (b.q_alt @ b.a_cover @ b.q_alt.T).scale(Fraction(1, 2)).equals(b.a_signed)
          and (b.q_sym @ b.a_cover @ b.q_alt.T).is_zero()
          and (b.q_alt @ b.a_cover @ b.q_sym.T).is_zero())
    # note: on the cover, flipping turns the transpose into the action-D
    # operator, so A R = R A = A^T and the alternating part satisfies
    # alt R = R alt = -alt (A^sym/A^alt map even/odd functions accordingly)
    check("sym_alt_decomposition",
          (b.a_sym + b.a_alt).equals(b.a_cover)
          and (b.a_cover + b.a_cover.T).scale(Fraction(1, 2)).equals(b.a_sym)
          and (b.a_cover - b.a_cover.T).scale(Fraction(1, 2)).equals(b.a_alt)
          and (b.a_cover @ b.r).equals(b.a_cover.T)
          and (b.r @ b.a_cover).equals(b.a_cover.T)
          and (b.a_sym @ b.r).equals(b.r @ b.a_sym)
          and (b.a_sym @ b.r).equals(b.a_sym)
          and (b.a_alt @ b.r).equals(b.r @ b.a_alt)
          and (b.a_alt @ b.r).equals(b.a_alt.scale(-1))
          and b.a_quotient.is_symmetric()
          and b.a_signed.T.equals(b.a_signed.scale(-1)))
    half = Fraction(1, 2)
    check("bundle_sum",
          (b.delta_cover.scale(half) + (b.delta_cover.T @ b.r).scale(half)
           + b.theta_l.scale(half) + b.theta_r.scale(half)).equals(b.a_cover)
          and (b.delta_cover.T @ b.r).equals(b.r @ b.delta_cover.T)
          and (b.delta_sym.scale(half) + b.delta_sym.T.scale(half)
               + b.theta_l.scale(half) + b.theta_r.scale(half)).equals(b.a_sym)
          and (b.delta_alt.scale(half) - b.delta_alt.T.scale(half)).equals(b.a_alt)
          and (b.delta_sym + b.delta_alt).equals(b.delta_cover)
          and (b.delta_quotient.scale(half) + b.delta_quotient.T.scale(half)
               + b.pi_l.scale(half) + b.pi_r.scale(half)).equals(b.a_quotient)
          and (b.delta_signed.scale(half) - b.delta_signed.T.scale(half)).equals(b.a_signed))

    a_cover_f = b.a_cover.to_float()
    qsymT = b.q_sym.T.to_float()
    spec_q = eigen(b.a_quotient)
    worst = 0.0
    for lam, f in zip(spec_q.eigenvalues, spec_q.eigenvectors.T):
        g = qsymT @ f
        worst = max(worst, float(np.abs(a_cover_f @ g - lam * g).max()))
    check("pullback_transfer", worst < 1e-8, f"max residual {worst:.2e}")

    alt_f = b.a_alt.to_float()
    sgn_f = b.a_signed.to_float()
    mags_cover = eigen(alt_f @ alt_f.T).eigenvalues
    mags_signed = list(eigen(sgn_f @ sgn_f.T).eigenvalues) + [0.0] * n
    check("alt_magnitude_split", multiset_match(mags_cover, mags_signed),
          "squared magnitudes of the alternating part match the signed operator")

    if cover.strong:
        dims = sorted(cover.nodes_by_dim)
        for k in dims:
            _verify_conditional_dim(cover, b, k, check)
        for k in dims:
            if k - 1 in cover.nodes_by_dim:
                _verify_transfer_dim(cover, b, k, check)
    return report


def _verify_conditional_dim(cover, b: OperatorBundle, k: int, check) -> None:
    half = Fraction(1, 2)
    lifts = cover.lifts(k)
    r_k = b.r.restrict(lifts, lifts)
    theta_l_k = b.theta_l.restrict(lifts, lifts)
    theta_r_k = b.theta_r.restrict(lifts, lifts)
    nodes = list(cover.nodes_by_dim[k])
    pi_l_k = b.pi_l.restrict(nodes, nodes)
    pi_r_k = b.pi_r.restrict(nodes, nodes)
    for direction in ("up", "down"):
        a_cov = build_conditional(cover, k, direction, "cover").sm
        a_quot = build_conditional(cover, k, direction, "quotient").sm
        a_sgn = build_conditional(cover, k, direction, "signed").sm
        if direction == "up":
            dc = b.delta_block("cover", k)
            ds = b.delta_block("sym", k)
            da = b.delta_block("alt", k)
            dq = b.delta_block("quotient", k)
            dg = b.delta_block("signed", k)
            plus = ds.T @ ds + theta_l_k
            minus = (da.T @ da).scale(-1)
            # on the cover, the action-D operator is delta^T followed by the flip
            cover_id = ((dc.T @ dc) @ r_k + theta_l_k).equals(a_cov)
            quot_id = (dq.T @ dq + pi_l_k).equals(a_quot)
            sgn_id = (dg.T @ dg).scale(-1).equals(a_sgn)
        else:
            dc = b.delta_block("cover", k - 1)
            ds = b.delta_block("sym", k - 1)
            da = b.delta_block("alt", k - 1)
            dq = b.delta_block("quotient", k - 1)
            dg = b.delta_block("signed", k - 1)
            plus = ds @ ds.T + theta_r_k
            minus = (da @ da.T).scale(-1)
            cover_id = (r_k @ (dc @ dc.T) + theta_r_k).equals(a_cov)
            quot_id = (dq @ dq.T + pi_r_k).equals(a_quot)
            sgn_id = (dg @ dg.T).scale(-1).equals(a_sgn)
        ok = (
            cover_id
            and (plus + minus).equals(a_cov)
            and (a_cov + a_cov @ r_k).scale(half).equals(plus)
            and (a_cov - a_cov @ r_k).scale(half).equals(minus)
            and (a_cov @ r_k).equals(r_k @ a_cov)
            and quot_id
            and sgn_id
            and a_cov.is_symmetric()
            and a_quot.is_symmetric()
            and a_sgn.is_symmetric()
        )
        check(f"conditional_factorization_{direction}_{k}", ok)
        ev_q = eigen(a_quot).eigenvalues
        ev_s = eigen(a_sgn).eigenvalues
        ev_c = eigen(a_cov).eigenvalues
        check(
            f"conditional_split_{direction}_{k}",
            multiset_match(ev_c, list(ev_q) + list(ev_s))
            and all(-1e-10 <= v <= 1 + 1e-10 for v in ev_q)
            and all(-1 - 1e-10 <= v <= 1e-10 for v in ev_s),
            f"cover spectrum = quotient + signed in dim {k} ({direction})",
        )


def _verify_transfer_dim(cover, b: OperatorBundle, k: int, check) -> None:
    """Eigenfunction transfer between dim k-1 up and dim k down operators."""
    from .graded_cover import component_correspondence

    worst = 0.0
    pairs = component_correspondence(cover, k)
    for flavor in ("quotient", "signed") if pairs else ():
        a_up = build_conditional(cover, k - 1, "up", flavor)
        a_dn = build_conditional(cover, k, "down", flavor)
        delta = b.delta_block(flavor, k - 1)
        for down_comp, up_comp in pairs:
            down_set, up_set = set(down_comp), set(up_comp)
            dblock = delta.restrict(
                [i for i, q in enumerate(cover.nodes_by_dim[k]) if q in down_set],
                [i for i, q in enumerate(cover.nodes_by_dim[k - 1]) if q in up_set],
            )
            up_f = a_up.restrict(up_comp).sm.to_float()
            dn_f = a_dn.restrict(down_comp).sm.to_float()
            d_f = dblock.to_float()
            spec = eigen(up_f)
            for lam, f in zip(spec.eigenvalues, spec.eigenvectors.T):
                if abs(lam) < 1e-8:
                    continue
                g = d_f @ f
                worst = max(worst, float(np.abs(dn_f @ g - lam * g).max(initial=0.0)))
            spec_dn = eigen(dn_f)
            for lam, f in zip(spec_dn.eigenvalues, spec_dn.eigenvectors.T):
                if abs(lam) < 1e-8:
                    continue
                g = d_f.T @ f
                worst = max(worst, float(np.abs(up_f @ g - lam * g).max(initial=0.0)))
    check(f"delta_transfer_{k}", worst < 1e-8, f"max residual {worst:.2e}")


def min_eigenvalue_bound(cover: GradedSignedDoubleCover) -> tuple[Fraction, bool]:
    """Bound on how far the minimal quotient eigenvalue sits above -1.

    Returns (min over components of 2/(E[len]+1), bound holds numerically).
    """
    from .walks import expected_path_length

    comps = components(cover, "quotient")
    bound = min(Fraction(2) / (expected_path_length(cover, comp) + 1) for comp in comps)
    lam_min = eigen(build_bundle(cover).a_quotient).eigenvalues[0]
    holds = lam_min <= float(-1 + bound) + 1e-9
    return bound, holds


def coherent_spectrum_check(
    cover: GradedSignedDoubleCover,
    component,
    direction: str,
) -> dict:
    """Spectral consequences of coherence for one up/down component.

    Coherent: the signed operator under the witness orientation is exactly
    the negative of the quotient operator, -1 is attained with multiplicity
    one, and (LP*RP)^(1/2) is the eigenfunction (checked exactly through
    the rational body).  Not coherent: the minimal signed eigenvalue stays
    strictly above -1.
    """
    comp = tuple(sorted(component))
    k = cover.dims[comp[0]]
    report: dict[str, tuple[bool, str]] = {}
    witness = detect_coherent(cover, comp, direction)
    quot = build_conditional(cover, k, direction, "quotient").restrict(comp)
    if witness is None:
        sgn = build_conditional(cover, k, direction, "signed").restrict(comp)
        lam_min = eigen(sgn.sm).eigenvalues[0]
        report["not_coherent_gap"] = (
            lam_min > -1 + 1e-10,
            f"lambda_min = {lam_min:.12g} > -1",
        )
        return report
    sgn = build_conditional(cover, k, direction, "signed", orientation=witness).restrict(comp)
    report["opposite_operators_exact"] = (
        sgn.sm.equals(-quot.sm),
        "signed operator equals minus the quotient operator under the witness",
    )
    ev_q = eigen(quot.sm).eigenvalues
    ev_s = eigen(sgn.sm).eigenvalues
    report["opposite_spectra"] = (
        multiset_match(ev_s, [-v for v in ev_q]),
        "spectra are opposite multisets",
    )
    report["minus_one_multiplicity"] = (
        eigenvalue_multiplicity(ev_s, -1.0) == 1,
        "-1 attained with multiplicity one",
    )
    pw = compute_path_weights(cover)
    w = np.empty(len(comp), dtype=object)
    for i, q in enumerate(comp):
        w[i] = Fraction(pw.rp[q])
    image = sgn.sm.body @ w
    report["minus_one_eigenvector"] = (
        all(image[i] == -w[i] for i in range(len(comp))),
        "(LP*RP)^(1/2) is a -1 eigenfunction (exact)",
    )
    return report
