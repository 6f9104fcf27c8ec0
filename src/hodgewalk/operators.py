"""The normalized operator family of the root-to-leaf walk.

Every operator is a plain ScaledMatrix: its entries are rational multiples
of sqrt(H(u)) * sqrt(H(u'))^(-1) factors, where H = LP/RP.  Which nodes
its rows follow is fixed by the builder (see ``build_conditional``), so
no record carries them along.  Algebraic identities between operators,
and the spectral facts they imply, are checked in rational arithmetic
with zero tolerance: every statement about where an eigenvalue sits is
an eigenvalue count at a rational threshold (``exact.inertia``).  Only
printed spectra and rates come from a floating-point mirror fed to
numpy's LAPACK ``eigh``; printed gaps are bisected on counts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .exact import ScaledMatrix, inertia
from .graded_cover import (
    GradedSignedDoubleCover,
    GuardError,
    components,
    compute_path_weights,
    conditional_triples,
    detect_coherent,
    expected_path_length,
    memoized,
)


class EigenResidualError(GuardError):
    """Raised when the eigensolver does not meet its residual contract."""


class OperatorBundle(NamedTuple):
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
def quotient_operator(cover: GradedSignedDoubleCover) -> ScaledMatrix:
    """The bundle's ``a_quotient``, built alone for callers that need no
    other bundle matrix."""
    hq = tuple(compute_path_weights(cover).h(q) for q in range(cover.n_quotient))
    body = [Counter() for _ in hq]
    for q in range(len(hq)):
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        if leaf or root:  # the lazy mass
            body[q][q] = 1 if leaf and root else Fraction(1, 2)
        for t in cover.children[q]:
            body[q][t] += Fraction(1, 2)
        for v in cover.parents[q]:
            body[q][v] += hq[v] / hq[q] / 2
    return ScaledMatrix(hq, [1 / x for x in hq], body)


@memoized
def build_bundle(cover: GradedSignedDoubleCover) -> OperatorBundle:
    """All walk operators of the cover, the quotient and the oriented graph.

    The signed matrices use the reference lift of every node; all other
    orientations are switching-equivalent to it.
    """
    pw = compute_path_weights(cover)
    n = cover.n_quotient
    hq = tuple(pw.h(q) for q in range(n))
    ihq = tuple(Fraction(1) / x for x in hq)
    hc, ihc = hq + hq, ihq + ihq

    def rows(m):
        return [Counter() for _ in range(m)]

    a_cover, a_sym, a_alt = rows(2 * n), rows(2 * n), rows(2 * n)
    d_cover, d_sym, d_alt = rows(2 * n), rows(2 * n), rows(2 * n)
    theta_l, theta_r, r_mat = rows(2 * n), rows(2 * n), rows(2 * n)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for u in range(2 * n):
        q = u % n
        r_mat[u][(u + n) % (2 * n)] = 1
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        if leaf:
            theta_l[u][q] = theta_l[u][q + n] = half
        if root:
            theta_r[u][q] = theta_r[u][q + n] = half
        if leaf and root:
            a_cover[u][q] = a_cover[u][q + n] = half
            a_sym[u][q] = a_sym[u][q + n] = half
        elif leaf != root:
            a_cover[u][q] = a_cover[u][q + n] = quarter
            a_sym[u][q] = a_sym[u][q + n] = quarter
        # row u = v acting on subfaces u' (body factor for scales (H, 1/H) is rational)
        for t in cover.children[q]:
            for u2 in (t, t + n):
                s = cover.cover_sign(u2, u)
                a_sym[u][u2] += quarter
                a_alt[u][u2] += Fraction(s, 4)
                d_sym[u][u2] += half
                d_alt[u][u2] += Fraction(s, 2)
                if s == 1:
                    a_cover[u][u2] += half
                    d_cover[u][u2] += 1
        # row u = t below supfaces u'
        for v in cover.parents[q]:
            ratio = hq[v] / hq[q]
            for u2 in (v, v + n):
                s = cover.cover_sign(u, u2)
                a_sym[u][u2] += quarter * ratio
                a_alt[u][u2] += Fraction(-s, 4) * ratio
                if s == -1:
                    a_cover[u][u2] += half * ratio

    d_quot, d_signed, a_signed = rows(n), rows(n), rows(n)
    pi_l, pi_r = rows(n), rows(n)
    for q in range(n):
        if cover.is_leaf(q):
            pi_l[q][q] = 1
        if cover.is_root(q):
            pi_r[q][q] = 1
        for t in cover.children[q]:
            d_quot[q][t] += 1
            d_signed[q][t] += cover.sign_ref[(t, q)]
            a_signed[q][t] += Fraction(cover.sign_ref[(t, q)], 2)
        for v in cover.parents[q]:
            a_signed[q][v] += Fraction(-cover.sign_ref[(q, v)], 2) * (hq[v] / hq[q])

    q_sym = [{q: 1, q + n: 1} for q in range(n)]
    q_alt = [{q: 1, q + n: -1} for q in range(n)]

    sm_c = lambda body: ScaledMatrix(hc, ihc, body)
    sm_q = lambda body: ScaledMatrix(hq, ihq, body)
    return OperatorBundle(
        cover=cover,
        a_cover=sm_c(a_cover),
        a_sym=sm_c(a_sym),
        a_alt=sm_c(a_alt),
        a_quotient=quotient_operator(cover),
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
) -> ScaledMatrix:
    """Symmetric operator of the conditional up/down walk in dimension k.

    Flavors: 'quotient' (nonnegative, spectrum in [0,1]), 'signed'
    (negative semi-definite, spectrum in [-1,0], under the reference lift
    of every node) and 'cover' (the full 2N_k matrix whose spectrum is the
    disjoint union of the other two).  Rows and columns follow
    ``cover.nodes_by_dim[k]``, or ``cover.lifts(k)`` for the cover flavor.
    """
    if flavor not in ("quotient", "signed", "cover"):
        raise ValueError("flavor must be 'quotient', 'signed' or 'cover'")
    pw = compute_path_weights(cover)
    nodes = cover.nodes_by_dim.get(k, ())
    pos = {q: i for i, q in enumerate(nodes)}
    m = len(nodes)
    up = direction == "up"
    hq = [pw.h(q) for q in range(cover.n_quotient)]
    lonely = cover.is_leaf if up else cover.is_root
    size = 2 * m if flavor == "cover" else m
    body = [Counter() for _ in range(size)]
    # a lonely node has no mid-node to pass through: it stays put (quotient)
    # or moves to either of its lifts (cover)
    for i in [pos[a] for a in nodes if lonely(a)]:
        if flavor == "quotient":
            body[i][i] = 1
        elif flavor == "cover":
            body[i][i] = body[i][i + m] = body[i + m][i] = body[i + m][i + m] = Fraction(1, 2)
    for a, b, v, s in conditional_triples(cover, k, direction):
        w = hq[v] / hq[a] if up else hq[b] / hq[v]
        i, j = pos[a], pos[b]
        if flavor == "quotient":
            body[i][j] += w
        elif flavor == "signed":
            body[i][j] -= w * s
        else:
            # two conditioned steps pick up opposite signs overall
            for fa in (0, 1):
                body[i + m * fa][j + m * (fa ^ (s == 1))] += w
    copies = 2 if flavor == "cover" else 1
    return ScaledMatrix(
        tuple(hq[q] for q in nodes) * copies, tuple(1 / hq[q] for q in nodes) * copies, body
    )


def on_component(cover: GradedSignedDoubleCover, op: ScaledMatrix, component) -> ScaledMatrix:
    """A quotient or signed conditional operator on the rows and columns of
    one component, in ascending node order."""
    comp = sorted(component)
    nodes = cover.nodes_by_dim[cover.dims[comp[0]]]
    pos = [nodes.index(q) for q in comp]
    return op.restrict(pos, pos)


# -- eigensolver ------------------------------------------------------------

# The eigen residual bound, relative to the largest eigenvalue.
EIGEN_TOL = 1e-9


def eigen(operator: ScaledMatrix) -> tuple[float, ...]:
    """Eigenvalues of a symmetric ScaledMatrix, ascending.

    Symmetry is decided exactly.  The eigenvectors are computed only for
    the residual contract: when max|Av - lambda v| exceeds the bound,
    EigenResidualError is raised.
    """
    if not operator.is_symmetric():
        raise ValueError("matrix must be symmetric")
    import numpy as np  # loads numpy: imported only where a spectrum is solved

    mat = operator.to_float()
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2)
    residual = float(np.abs(mat @ vecs - vecs * vals).max(initial=0.0))
    bound = EIGEN_TOL * (1 + np.abs(vals).max(initial=0.0))
    if residual > bound:
        raise EigenResidualError(f"residual {residual} exceeds {bound}")
    return tuple(float(x) for x in vals)


# -- verification -----------------------------------------------------------


def verify_split(cover: GradedSignedDoubleCover) -> dict:
    """Check the spectrum-split identities in rational arithmetic.

    The block-diagonalization through the symmetric/alternating
    projections proves each multiset split, and the intertwinings
    A Q^T = Q^T B and delta A_up = A_down delta carry eigenfunctions
    across.  The conditional ranges' lower sides are Gram identities, their
    upper sides eigenvalue counts.
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

    # Q_alt / sqrt(2) is an isometry, so A_alt A_alt^T is A_signed A_signed^T plus n zeros
    check("pullback_transfer",
          (b.a_cover @ b.q_sym.T).equals(b.q_sym.T @ b.a_quotient),
          "A_cover Q_sym^T = Q_sym^T A_quotient (exact)")
    check("alt_magnitude_split",
          (b.q_alt.T @ b.a_signed @ b.q_alt).scale(half).equals(b.a_alt),
          "A_alt = Q_alt^T A_signed Q_alt / 2 (exact)")

    if cover.strong:
        dims = sorted(cover.nodes_by_dim)
        for k in dims:
            _verify_conditional_dim(cover, b, k, check)
        for k in dims:
            if k - 1 in cover.nodes_by_dim:
                _verify_transfer_dim(cover, b, k, check)
        # the Rayleigh quotient behind the bound needs every edge to rise one level
        bound, holds = min_eigenvalue_bound(cover)
        check("min_eigenvalue_bound", holds, f"lambda_min <= -1 + {bound}")
    return report


def _verify_conditional_dim(cover, b: OperatorBundle, k: int, check) -> None:
    half = Fraction(1, 2)
    lifts = cover.lifts(k)
    r_k = b.r.restrict(lifts, lifts)
    nodes = list(cover.nodes_by_dim[k])
    q_s = b.q_sym.restrict(nodes, lifts)
    q_a = b.q_alt.restrict(nodes, lifts)
    for direction in ("up", "down"):
        up = direction == "up"
        a_cov = build_conditional(cover, k, direction, "cover")
        a_quot = build_conditional(cover, k, direction, "quotient")
        a_sgn = build_conditional(cover, k, direction, "signed")
        # up: delta^T delta over the blocks at k; down: delta delta^T over those at k-1
        dc, ds, da, dq, dg = (
            b.delta_block(flavor, k if up else k - 1)
            for flavor in ("cover", "sym", "alt", "quotient", "signed")
        )
        gram = (lambda d: d.T @ d) if up else (lambda d: d @ d.T)
        theta, pi = (b.theta_l, b.pi_l) if up else (b.theta_r, b.pi_r)
        theta, pi = theta.restrict(lifts, lifts), pi.restrict(nodes, nodes)
        plus = gram(ds) + theta
        minus = gram(da).scale(-1)
        # on the cover, the action-D operator is delta^T followed by the flip
        cover_id = ((gram(dc) @ r_k if up else r_k @ gram(dc)) + theta).equals(a_cov)
        quot_id = (gram(dq) + pi).equals(a_quot)
        sgn_id = gram(dg).scale(-1).equals(a_sgn)
        pi_nonneg = all(row.keys() <= {i} and row.get(i, 0) >= 0 for i, row in enumerate(pi.rows))
        symmetric = a_cov.is_symmetric() and a_quot.is_symmetric() and a_sgn.is_symmetric()
        ok = (
            cover_id
            and (plus + minus).equals(a_cov)
            and (a_cov + a_cov @ r_k).scale(half).equals(plus)
            and (a_cov - a_cov @ r_k).scale(half).equals(minus)
            and (a_cov @ r_k).equals(r_k @ a_cov)
            and quot_id
            and sgn_id
            and symmetric
        )
        check(f"conditional_factorization_{direction}_{k}", ok)
        split = (q_s.T @ a_quot @ q_s + q_a.T @ a_sgn @ q_a).scale(half).equals(a_cov)
        check(
            f"conditional_split_{direction}_{k}",
            split
            and symmetric
            # quotient spectrum in [0, 1], signed in [-1, 0]: Gram + a nonnegative
            # diagonal and -Gram bound them at 0, counts at 1 and -1
            and quot_id and pi_nonneg and sgn_id
            and inertia(a_quot, 1)[2] == inertia(a_sgn, -1)[0] == 0,
            f"cover spectrum = quotient + signed in dim {k} ({direction})",
        )


def _verify_transfer_dim(cover, b: OperatorBundle, k: int, check) -> None:
    """delta intertwines the dim k-1 up and dim k down operators, exactly,
    so it carries every eigenfunction of one to an eigenfunction of the other."""
    ok = True
    for flavor in ("quotient", "signed"):
        a_up = build_conditional(cover, k - 1, "up", flavor)
        a_dn = build_conditional(cover, k, "down", flavor)
        delta = b.delta_block(flavor, k - 1)
        ok = ok and (delta @ a_up).equals(a_dn @ delta)
    check(f"delta_transfer_{k}", ok, "delta A_up = A_down delta (exact)")


def min_eigenvalue_bound(cover: GradedSignedDoubleCover) -> tuple[Fraction, bool]:
    """Bound on how far the minimal quotient eigenvalue sits above -1.

    Returns (the min over components of 2/(E[len]+1), whether lambda_min
    <= -1 + that bound), decided exactly by counting the eigenvalues of
    the quotient operator at or below -1 + bound.
    """
    bound = min(Fraction(2) / (expected_path_length(cover, c) + 1)
                for c in components(cover))
    return bound, sum(inertia(quotient_operator(cover), bound - 1)[:2]) > 0


def coherent_spectrum_check(
    cover: GradedSignedDoubleCover,
    component,
    direction: str,
) -> dict:
    """Spectral consequences of coherence for one up/down component.

    Coherent: the signed operator under the witness orientation is exactly
    the negative of the quotient operator (so the spectra are opposite), -1
    is attained with multiplicity one (an eigenvalue count), and (LP*RP)^(1/2) is
    the eigenfunction (checked exactly through the rational body).  Not
    coherent: the minimal signed eigenvalue stays strictly above -1.
    """
    comp = tuple(sorted(component))
    k = cover.dims[comp[0]]
    report: dict[str, tuple[bool, str]] = {}
    sgn = on_component(cover, build_conditional(cover, k, direction, "signed"), comp)
    witness = detect_coherent(cover, comp, direction)
    if witness is None:
        below, at, _above = inertia(sgn, -1)
        report["not_coherent_gap"] = (below + at == 0, "lambda_min > -1 (exact)")
        return report
    # re-orient by sign conjugation X S X, with x = -1 on the flipped nodes
    x = [-1 if witness[q] else 1 for q in comp]
    rows = [{j: v * x[i] * x[j] for j, v in row.items()} for i, row in enumerate(sgn.rows)]
    sgn = ScaledMatrix._new(sgn.row_scale, sgn.col_scale, rows, sgn.den)
    quot = on_component(cover, build_conditional(cover, k, direction, "quotient"), comp)
    report["opposite_operators_exact"] = (
        sgn.equals(-quot),
        "signed operator equals minus the quotient operator under the witness",
    )
    report["minus_one_multiplicity"] = (
        inertia(sgn, -1)[1] == 1,
        "-1 attained with multiplicity one",
    )
    # S f = -f for f = (LP*RP)^(1/2) exactly when the body takes RP = H^(-1/2) f to -RP
    pw = compute_path_weights(cover)
    rp = [pw.rp[q] for q in comp]
    report["minus_one_eigenvector"] = (
        all(
            sum(v * rp[j] for j, v in row.items()) == -rp[i] * sgn.den
            for i, row in enumerate(sgn.rows)
        ),
        "(LP*RP)^(1/2) is a -1 eigenfunction (exact)",
    )
    return report
