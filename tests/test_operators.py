import math
from fractions import Fraction

import numpy as np
import pytest

from hodgewalk.exact import ScaledMatrix
from hodgewalk.graded_cover import components, compute_path_weights, detect_coherent
from hodgewalk.operators import (
    build_bundle,
    build_conditional,
    coherent_spectrum_check,
    eigen,
    eigenvalue_multiplicity,
    min_eigenvalue_bound,
    multiset_match,
    verify_split,
)
from hodgewalk.walks import transition_conditional, transition_full

from conftest import COMPLEX_NAMES, load_cover


def test_bundle_isolated_pair():
    cov = load_cover("single_vertex")
    b = build_bundle(cov)
    assert b.a_cover.to_float() == pytest.approx(np.full((2, 2), 0.5))
    assert b.a_alt.is_zero()


def test_quotient_operator_single_edge_entry():
    cov = load_cover("single_edge")
    b = build_bundle(cov)
    i = list(cov.labels).index("x0 x1")
    j = list(cov.labels).index("x0")
    val = b.a_quotient.to_float()[i, j]
    assert val == pytest.approx(math.sqrt(2) / 4)


def test_defining_conjugations():
    for name in ("single_edge", "tetrahedron", "branched"):
        cov = load_cover(name)
        b = build_bundle(cov)
        assert (b.q_sym @ b.a_cover @ b.q_sym.T).scale(Fraction(1, 2)).equals(b.a_quotient)
        assert (b.q_alt @ b.a_cover @ b.q_alt.T).scale(Fraction(1, 2)).equals(b.a_signed)


def test_operators_are_similar_to_transitions():
    """A = D^(-1/2) P^T D^(1/2) with D = LP*RP, exactly.

    On the quotient, reversibility makes this equal to D^(1/2) P D^(-1/2);
    on the cover only the transpose form applies.
    """
    for name in ("tetrahedron", "branched", "cycle5"):
        cov = load_cover(name)
        pw = compute_path_weights(cov)
        b = build_bundle(cov)
        d = [Fraction(pw.through(q)) for q in range(cov.n_quotient)]
        P = transition_full(cov, "quotient").entries
        assert ScaledMatrix(d, [1 / x for x in d], P).equals(b.a_quotient)
        assert ScaledMatrix([1 / x for x in d], d, P.T.copy()).equals(b.a_quotient)
        dc = d + d
        Pc = transition_full(cov, "cover").entries
        simc = ScaledMatrix([1 / x for x in dc], dc, Pc.T.copy())
        assert simc.equals(b.a_cover)


def test_conditional_similar_to_transitions():
    cov = load_cover("tetrahedron")
    pw = compute_path_weights(cov)
    for k, direction in ((0, "up"), (1, "up"), (1, "down"), (2, "down"), (3, "down")):
        op = build_conditional(cov, k, direction, "quotient")
        P = transition_conditional(cov, k, direction, "quotient")
        d = [Fraction(pw.through(q)) for q in P.nodes]
        assert ScaledMatrix(d, [1 / x for x in d], P.entries).equals(op.sm)
        opc = build_conditional(cov, k, direction, "cover")
        Pc = transition_conditional(cov, k, direction, "cover")
        n = cov.n_quotient
        dc = [Fraction(pw.through(u % n)) for u in Pc.nodes]
        assert ScaledMatrix(dc, [1 / x for x in dc], Pc.entries).equals(opc.sm)


def test_conditional_tetrahedron_k0_diagonal():
    cov = load_cover("tetrahedron")
    op = build_conditional(cov, 0, "up", "quotient")
    fl = op.sm.to_float()
    assert np.allclose(np.diag(fl), 0.5)
    assert fl[0, 1] == pytest.approx(1 / 6)


def test_signed_flavors_semidefinite():
    for name in COMPLEX_NAMES:
        cov = load_cover(name)
        for k in sorted(cov.nodes_by_dim):
            for direction in ("up", "down"):
                sgn = build_conditional(cov, k, direction, "signed")
                ev = eigen(sgn.sm).eigenvalues
                assert all(v <= 1e-12 for v in ev)
                assert all(v >= -1 - 1e-10 for v in ev)
                quot = build_conditional(cov, k, direction, "quotient")
                evq = eigen(quot.sm).eigenvalues
                assert all(-1e-10 <= v <= 1 + 1e-10 for v in evq)


def test_quotient_eigenvalue_one_eigenvector():
    """Eigenvalue 1 with eigenvector proportional to sqrt(LP*RP), per component."""
    cov = load_cover("branched")
    pw = compute_path_weights(cov)
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            op = build_conditional(cov, k, direction, "quotient")
            for comp in components(cov, f"quotient-{direction}", k).members:
                idx = [op.nodes.index(q) for q in comp]
                body = op.sm.restrict(idx, idx).body
                w = np.array([Fraction(pw.rp[q]) for q in comp], dtype=object)
                assert all((body @ w)[i] == w[i] for i in range(len(comp)))


def test_eigen_identity_and_ordering():
    spec = eigen(np.eye(3))
    assert spec.eigenvalues == (1.0, 1.0, 1.0)
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = eigen(mat)
    assert spec.eigenvalues == pytest.approx((1.0, 3.0))
    # deterministic sign: largest component positive
    for j in range(2):
        col = spec.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eigen(np.zeros((2, 3)))


def random_symmetric(rng, n, repeated):
    """A random symmetric n x n matrix; ``repeated`` gives Q diag(1, 1, 2, ...) Q^T."""
    if repeated:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ np.diag([1.0, 1.0, *range(2, n)][:n]) @ q.T
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


@pytest.mark.parametrize("seed", range(8))
def test_eigen_contract(seed):
    # the contract of eigen on random symmetric matrices of every size up to
    # 10, 0 x 0 and 1 x 1 included, with and without a repeated eigenvalue
    rng = np.random.default_rng(seed)
    for n in range(11):
        for repeated in (False, True):
            m = random_symmetric(rng, n, repeated)
            spec = eigen(m)
            vals, vecs = np.array(spec.eigenvalues), spec.eigenvectors
            assert vals.shape == (n,) and vecs.shape == (n, n)
            assert np.all(np.diff(vals) >= 0)
            assert np.allclose(vals, np.linalg.eigvalsh(m), atol=1e-9)
            if repeated and n >= 2:
                assert vals[:2] == pytest.approx([1.0, 1.0])
            for col in vecs.T:
                assert col[np.argmax(np.abs(col))] > 0
            assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
            assert spec.residual == np.abs(m @ vecs - vecs * vals).max(initial=0.0)
            assert spec.residual <= 1e-9 * (1 + np.abs(vals).max(initial=0.0))


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_verify_split_all_fixtures(name, covers):
    report = verify_split(covers[name])
    failures = {k: v for k, v in report.items() if not v[0]}
    assert not failures


def test_split_counts_tetrahedron():
    cov = load_cover("tetrahedron")
    b = build_bundle(cov)
    assert b.a_cover.shape == (30, 30)
    assert b.a_quotient.shape == (15, 15)
    assert b.a_signed.shape == (15, 15)


def test_signed_up_down_share_nonzero_spectrum():
    cov = load_cover("tetrahedron")
    up = eigen(build_conditional(cov, 0, "up", "signed").sm).eigenvalues
    down = eigen(build_conditional(cov, 1, "down", "signed").sm).eigenvalues
    up_nz = [v for v in up if abs(v) > 1e-8]
    down_nz = [v for v in down if abs(v) > 1e-8]
    assert multiset_match(up_nz, down_nz)


def test_min_eigenvalue_bound_examples():
    cov = load_cover("tetrahedron")
    bound, holds = min_eigenvalue_bound(cov)
    assert bound == Fraction(1, 2) and holds
    lam_min = eigen(build_bundle(cov).a_quotient).eigenvalues[0]
    assert lam_min <= -0.5 + 1e-9

    single = load_cover("single_vertex")
    bound, holds = min_eigenvalue_bound(single)
    assert bound == 2 and holds

    edge = load_cover("single_edge")
    bound, holds = min_eigenvalue_bound(edge)
    assert bound == 1 and holds
    lam_min = eigen(build_bundle(edge).a_quotient).eigenvalues[0]
    assert lam_min <= 1e-9


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_min_eigenvalue_bound_all_fixtures(name, covers):
    _, holds = min_eigenvalue_bound(covers[name])
    assert holds


def test_coherent_spectrum_check_cycle():
    cov = load_cover("cycle6")
    comp = components(cov, "quotient-down", 1).members[0]
    report = coherent_spectrum_check(cov, comp, "down")
    assert all(ok for ok, _ in report.values())
    assert set(report) == {
        "opposite_operators_exact",
        "opposite_spectra",
        "minus_one_multiplicity",
        "minus_one_eigenvector",
    }


def test_coherent_spectrum_check_not_coherent():
    cov = load_cover("tetrahedron")
    for k in (1, 2):
        comp = components(cov, "quotient-down", k).members[0]
        report = coherent_spectrum_check(cov, comp, "down")
        assert report["not_coherent_gap"][0]


def test_coherent_spectrum_singleton_non_leaf():
    """A non-leaf singleton up-component has quotient spectrum {1} and
    signed spectrum {-1}."""
    cov = load_cover("single_edge")
    comp = components(cov, "quotient-down", 1).members[0]
    assert len(comp) == 1
    quot = build_conditional(cov, 1, "down", "quotient").restrict(comp)
    assert eigen(quot.sm).eigenvalues == pytest.approx((1.0,))
    report = coherent_spectrum_check(cov, comp, "down")
    assert all(ok for ok, _ in report.values())


def test_minus_one_multiplicity_via_eigen():
    cov = load_cover("cycle6")
    comp = components(cov, "quotient-down", 1).members[0]
    witness = detect_coherent(cov, comp, "down")
    sgn = build_conditional(cov, 1, "down", "signed", orientation=witness).restrict(comp)
    ev = eigen(sgn.sm).eigenvalues
    assert eigenvalue_multiplicity(ev, -1.0) == 1


def test_alt_operator_antisymmetric_and_imaginary():
    cov = load_cover("branched")
    b = build_bundle(cov)
    alt = b.a_alt.to_float()
    assert np.allclose(alt, -alt.T)
    sgn = b.a_signed.to_float()
    assert np.allclose(sgn, -sgn.T)
    # squared magnitudes come from a PSD product
    mags = eigen(sgn @ sgn.T).eigenvalues
    assert all(v >= -1e-12 for v in mags)


def test_orientation_changes_are_switching_equivalent():
    cov = load_cover("tetrahedron")
    base = build_conditional(cov, 1, "up", "signed")
    flipped = build_conditional(
        cov, 1, "up", "signed", orientation={4: True, 7: True}
    )
    assert multiset_match(eigen(base.sm).eigenvalues, eigen(flipped.sm).eigenvalues)
    assert not base.sm.equals(flipped.sm)


def test_tetrahedron_second_largest_up_eigenvalue():
    cov = load_cover("tetrahedron")
    spec = eigen(build_conditional(cov, 0, "up", "quotient").sm)
    assert spec.eigenvalues[-1] == pytest.approx(1.0, abs=1e-9)
    assert spec.eigenvalues[-2] == pytest.approx(1 / 3, abs=1e-9)
