import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hodgewalk import operators
from hodgewalk.complex_core import parse_complex
from hodgewalk.graded_cover import (
    components,
    compute_path_weights,
    cover_from_complex,
    detect_coherent,
)
from hodgewalk.operators import (
    build_bundle,
    build_conditional,
    coherent_spectrum_check,
    eigen,
    min_eigenvalue_bound,
    on_component,
    quotient_operator,
    verify_split,
)
from hodgewalk import exact
from hodgewalk.exact import ScaledMatrix, eigenvalue, inertia
from hodgewalk.walks import transition_conditional, transition_full

from conftest import COMPLEX_NAMES, load_cover
from oracles import as_object_array, exact_sqrt, float_multiplicity, from_dense, multiset_match


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
        P = transition_full(cov, "quotient").body
        assert from_dense(d, [1 / x for x in d], P).equals(b.a_quotient)
        assert from_dense([1 / x for x in d], d, P.T).equals(b.a_quotient)
        dc = d + d
        Pc = transition_full(cov, "cover").body
        simc = from_dense([1 / x for x in dc], dc, Pc.T)
        assert simc.equals(b.a_cover)


def test_conditional_similar_to_transitions():
    cov = load_cover("tetrahedron")
    pw = compute_path_weights(cov)
    for k, direction in ((0, "up"), (1, "up"), (1, "down"), (2, "down"), (3, "down")):
        op = build_conditional(cov, k, direction, "quotient")
        # P's rows follow its operator's: the dimension-k nodes, or their lifts
        P = transition_conditional(cov, k, direction, "quotient")
        d = [Fraction(pw.through(q)) for q in cov.nodes_by_dim[k]]
        assert from_dense(d, [1 / x for x in d], P.body).equals(op)
        opc = build_conditional(cov, k, direction, "cover")
        Pc = transition_conditional(cov, k, direction, "cover")
        n = cov.n_quotient
        dc = [Fraction(pw.through(u % n)) for u in cov.lifts(k)]
        assert from_dense(dc, [1 / x for x in dc], Pc.body).equals(opc)


def test_conditional_tetrahedron_k0_diagonal():
    cov = load_cover("tetrahedron")
    op = build_conditional(cov, 0, "up", "quotient")
    fl = op.to_float()
    assert np.allclose(np.diag(fl), 0.5)
    assert fl[0, 1] == pytest.approx(1 / 6)


def test_signed_flavors_semidefinite():
    for name in COMPLEX_NAMES:
        cov = load_cover(name)
        for k in sorted(cov.nodes_by_dim):
            for direction in ("up", "down"):
                sgn = build_conditional(cov, k, direction, "signed")
                ev = eigen(sgn)
                assert all(v <= 1e-12 for v in ev)
                assert all(v >= -1 - 1e-10 for v in ev)
                quot = build_conditional(cov, k, direction, "quotient")
                evq = eigen(quot)
                assert all(-1e-10 <= v <= 1 + 1e-10 for v in evq)


def test_quotient_eigenvalue_one_eigenvector():
    """Eigenvalue 1 with eigenvector proportional to sqrt(LP*RP), per component."""
    cov = load_cover("branched")
    pw = compute_path_weights(cov)
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            op = build_conditional(cov, k, direction, "quotient")
            for comp in components(cov, k, direction):
                body = on_component(cov, op, comp).body
                w = np.array([Fraction(pw.rp[q]) for q in comp], dtype=object)
                assert all((body @ w)[i] == w[i] for i in range(len(comp)))


def test_eigen_identity_and_ordering():
    assert eigen(ScaledMatrix.identity(3)) == (1.0, 1.0, 1.0)
    mat = ScaledMatrix([1, 1], [1, 1], [{0: 2, 1: 1}, {0: 1, 1: 2}])
    assert eigen(mat) == pytest.approx((1.0, 3.0))


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigen(ScaledMatrix([1, 1], [1, 1], [{1: 1}, {}]))
    # a matrix that is not square is not symmetric either
    with pytest.raises(ValueError, match="symmetric"):
        eigen(ScaledMatrix([1, 1], [1, 1, 1], [{}, {}]))


@pytest.mark.parametrize("eps", [Fraction(1, 10**10), Fraction(1, 10**6)])
def test_eigen_decides_symmetry_exactly(eps):
    # [[1, 1], [1 + eps, 1]] is not symmetric, however small eps; a float
    # tolerance took it for symmetric at 1e-10 and tripped the residual
    # guard at 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        eigen(ScaledMatrix([1, 1], [1, 1], [{0: 1, 1: 1}, {0: 1 + eps, 1: 1}]))


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
            # exactly symmetric: the upper triangle of the draw, mirrored
            rows = [{j: Fraction(m[min(i, j), max(i, j)]) for j in range(n)} for i in range(n)]
            ev = eigen(ScaledMatrix([1] * n, [1] * n, rows))
            vals = np.array(ev)
            assert isinstance(ev, tuple) and vals.shape == (n,)
            assert np.all(np.diff(vals) >= 0)
            assert np.allclose(vals, np.linalg.eigvalsh(m), atol=1e-9)
            if repeated and n >= 2:
                assert vals[:2] == pytest.approx([1.0, 1.0])


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
    up = eigen(build_conditional(cov, 0, "up", "signed"))
    down = eigen(build_conditional(cov, 1, "down", "signed"))
    up_nz = [v for v in up if abs(v) > 1e-8]
    down_nz = [v for v in down if abs(v) > 1e-8]
    assert multiset_match(up_nz, down_nz)


def test_min_eigenvalue_bound_examples():
    cov = load_cover("tetrahedron")
    bound, holds = min_eigenvalue_bound(cov)
    assert bound == Fraction(1, 2) and holds
    lam_min = eigen(build_bundle(cov).a_quotient)[0]
    assert lam_min <= -0.5 + 1e-9

    single = load_cover("single_vertex")
    bound, holds = min_eigenvalue_bound(single)
    assert bound == 2 and holds

    edge = load_cover("single_edge")
    bound, holds = min_eigenvalue_bound(edge)
    assert bound == 1 and holds
    lam_min = eigen(build_bundle(edge).a_quotient)[0]
    assert lam_min <= 1e-9


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_min_eigenvalue_bound_all_fixtures(name, covers):
    _, holds = min_eigenvalue_bound(covers[name])
    assert holds


def test_coherent_spectrum_check_cycle():
    cov = load_cover("cycle6")
    comp = components(cov, 1, "down")[0]
    report = coherent_spectrum_check(cov, comp, "down")
    assert all(ok for ok, _ in report.values())
    assert set(report) == {
        "opposite_operators_exact",
        "minus_one_multiplicity",
        "minus_one_eigenvector",
    }


def test_coherent_spectrum_check_not_coherent():
    cov = load_cover("tetrahedron")
    for k in (1, 2):
        comp = components(cov, k, "down")[0]
        report = coherent_spectrum_check(cov, comp, "down")
        assert report["not_coherent_gap"][0]


def test_coherent_spectrum_singleton_non_leaf():
    """A non-leaf singleton up-component has quotient spectrum {1} and
    signed spectrum {-1}."""
    cov = load_cover("single_edge")
    comp = components(cov, 1, "down")[0]
    assert len(comp) == 1
    quot = on_component(cov, build_conditional(cov, 1, "down", "quotient"), comp)
    assert eigen(quot) == pytest.approx((1.0,))
    report = coherent_spectrum_check(cov, comp, "down")
    assert all(ok for ok, _ in report.values())


def test_minus_one_multiplicity_via_eigen():
    cov = load_cover("cycle6")
    comp = components(cov, 1, "down")[0]
    witness = detect_coherent(cov, comp, "down")
    sgn = switched(on_component(cov, build_conditional(cov, 1, "down", "signed"), comp),
                   [witness[q] for q in comp])
    ev = eigen(sgn)
    assert float_multiplicity(ev, -1.0) == inertia(sgn, -1)[1] == 1
    # the opposite spectra follow from the exact opposite operators
    quot = on_component(cov, build_conditional(cov, 1, "down", "quotient"), comp)
    assert multiset_match(ev, [-v for v in eigen(quot)])


def switched(op, flipped):
    """The signed operator ``op`` under another orientation: X op X, with
    x = -1 where ``flipped`` is true (one flag per row)."""
    x = np.array([-1 if f else 1 for f in flipped], dtype=object)
    return from_dense(op.row_scale, op.col_scale, op.body * np.outer(x, x))


def test_alt_operator_antisymmetric_and_imaginary():
    cov = load_cover("branched")
    b = build_bundle(cov)
    alt = b.a_alt.to_float()
    assert np.allclose(alt, -alt.T)
    sgn = b.a_signed.to_float()
    assert np.allclose(sgn, -sgn.T)
    # squared magnitudes come from a PSD product
    mags = eigen(b.a_signed @ b.a_signed.T)
    assert all(v >= -1e-12 for v in mags)


def test_orientation_changes_are_switching_equivalent():
    cov = load_cover("tetrahedron")
    base = build_conditional(cov, 1, "up", "signed")
    flipped = switched(base, [q in (4, 7) for q in cov.nodes_by_dim[1]])
    assert multiset_match(eigen(base), eigen(flipped))
    assert not base.equals(flipped)


def test_tetrahedron_second_largest_up_eigenvalue():
    cov = load_cover("tetrahedron")
    ev = eigen(build_conditional(cov, 0, "up", "quotient"))
    assert ev[-1] == pytest.approx(1.0, abs=1e-9)
    assert ev[-2] == pytest.approx(1 / 3, abs=1e-9)


# -- the exact rows fail when one entry of an operator they read moves --------


def bumped(sm, i=0, j=0):
    """A copy of ``sm`` with 10^-12 added to one body entry: far below every
    float tolerance, so only an exact row can notice it."""
    body = sm.body.copy()
    body[i, j] += Fraction(1, 10**12)
    return from_dense(sm.row_scale, sm.col_scale, body)


def filled_triangle():
    """The smallest complex with rows in dimensions 0-2: quotient indices
    0-2 are its vertices, 3-5 its edges and 6 the triangle."""
    cov = cover_from_complex(parse_complex("a b c"))
    assert cov.nodes_by_dim == {0: (0, 1, 2), 1: (3, 4, 5), 2: (6,)}
    return cov


# (row, bundle field, perturbed entry)
BUNDLE_CASES = [
    ("pullback_transfer", "a_cover", (0, 0)),
    ("pullback_transfer", "q_sym", (0, 0)),
    ("pullback_transfer", "a_quotient", (0, 0)),
    ("alt_magnitude_split", "q_alt", (0, 0)),
    ("alt_magnitude_split", "a_signed", (0, 0)),
    ("alt_magnitude_split", "a_alt", (0, 0)),
    ("conditional_split_up_1", "q_sym", (3, 3)),
    ("conditional_split_down_1", "q_alt", (3, 3)),
    ("delta_transfer_1", "delta_quotient", (3, 0)),
    ("delta_transfer_2", "delta_signed", (6, 3)),
]


@pytest.mark.parametrize("row, field, entry", BUNDLE_CASES)
def test_split_rows_read_the_bundle(row, field, entry, monkeypatch):
    cov = filled_triangle()
    b = build_bundle(cov)
    assert verify_split(cov)[row][0]
    fake = b._replace(**{field: bumped(getattr(b, field), *entry)})
    monkeypatch.setattr(operators, "build_bundle", lambda cover: fake)
    assert not verify_split(cov)[row][0]


def test_conditional_split_reads_the_sign_of_pi(monkeypatch):
    """The quotient spectrum's lower side 0 is decided by A = Gram + pi with
    pi a nonnegative diagonal, not by a count: a pi_l whose one nonzero
    entry, at the triangle, is negated fails the up rows of dimension 2."""
    cov = filled_triangle()
    b = build_bundle(cov)
    assert all(ok for ok, _detail in verify_split(cov).values())
    body = b.pi_l.body.copy()
    body[6, 6] = -1
    fake = b._replace(pi_l=from_dense(b.pi_l.row_scale, b.pi_l.col_scale, body))
    monkeypatch.setattr(operators, "build_bundle", lambda cover: fake)
    failed = [row for row, (ok, _detail) in verify_split(cov).items() if not ok]
    assert failed == ["bundle_sum", "conditional_factorization_up_2", "conditional_split_up_2"]


# (row, k, direction, flavor) of the conditional operator that is perturbed
CONDITIONAL_CASES = [
    ("conditional_split_up_1", 1, "up", "quotient"),
    ("conditional_split_up_1", 1, "up", "signed"),
    ("conditional_split_down_2", 2, "down", "cover"),
    ("delta_transfer_1", 0, "up", "quotient"),
    ("delta_transfer_1", 0, "up", "signed"),
    ("delta_transfer_2", 2, "down", "quotient"),
    ("delta_transfer_2", 2, "down", "signed"),
]


@pytest.mark.parametrize("row, k, direction, flavor", CONDITIONAL_CASES)
def test_split_rows_read_the_conditional_operators(row, k, direction, flavor, monkeypatch):
    cov = filled_triangle()
    real = operators.build_conditional
    assert verify_split(cov)[row][0]

    def perturbed(cover, kk, dirn, flav):
        op = real(cover, kk, dirn, flav)
        return bumped(op) if (kk, dirn, flav) == (k, direction, flavor) else op

    monkeypatch.setattr(operators, "build_conditional", perturbed)
    assert not verify_split(cov)[row][0]


def test_minus_one_multiplicity_reads_the_signed_operator(monkeypatch):
    cov = load_cover("cycle6")
    comp = components(cov, 1, "down")[0]
    assert coherent_spectrum_check(cov, comp, "down")["minus_one_multiplicity"][0]
    real = operators.build_conditional

    def perturbed(cover, k, direction, flavor):
        op = real(cover, k, direction, flavor)
        return bumped(op) if flavor == "signed" else op

    monkeypatch.setattr(operators, "build_conditional", perturbed)
    assert not coherent_spectrum_check(cov, comp, "down")["minus_one_multiplicity"][0]


# -- exact multiplicities -------------------------------------------------------


@st.composite
def rational_spectrum_case(draw):
    """Q diag(lam) Q^T for the rational reflection Q = I - 2 v v^T / v^T v,
    with eigenvalues lam from a small set, so repeats are common."""
    n = draw(st.integers(1, 6))
    lam = draw(st.lists(st.sampled_from([-1, 0, Fraction(1, 3), Fraction(1, 2), 1, 2]),
                        min_size=n, max_size=n))
    v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    vv = sum(x * x for x in v)
    q = [[Fraction(int(i == j)) - Fraction(2 * v[i] * v[j], vv) for j in range(n)]
         for i in range(n)]
    mat = [[sum(q[i][m] * lam[m] * q[j][m] for m in range(n)) for j in range(n)]
           for i in range(n)]
    h = draw(st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]),
                      min_size=n, max_size=n))
    return lam, mat, h


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(rational_spectrum_case())
def test_multiplicity_is_exact_on_rational_spectra(case):
    lam, mat, h = case
    n = len(h)
    plain = from_dense([1] * n, [1] * n, as_object_array(mat))
    # the same matrix in the walk operators' form, scales (h^2, h^-2)
    walk = from_dense([x * x for x in h], [1 / (x * x) for x in h],
                      [[mat[i][j] * h[j] / h[i] for j in range(n)] for i in range(n)])
    assert walk.equals(plain)
    floats = np.linalg.eigvalsh(np.array(mat, dtype=float))
    for t in set(lam) | {Fraction(-2), Fraction(1, 5)}:
        want = lam.count(t)
        assert inertia(plain, t)[1] == inertia(walk, t)[1] == want
        # the eigenvalues sit at least 1/6 apart, far beyond the float count's gap
        assert float_multiplicity(floats, float(t)) == want


@pytest.mark.parametrize("seed_", range(6))
def test_multiplicity_matches_eigvalsh_at_separated_values(seed_):
    """On random integer symmetric matrices, at t that some eigenvalue equals
    (0 of a singular matrix) or that every eigenvalue misses by far."""
    rng = np.random.default_rng(seed_)
    n = int(rng.integers(2, 7))
    m = rng.integers(-3, 4, size=(n, n))
    m = m + m.T
    m[:, 0] = m[0, :] = 0  # a zero row: 0 is an eigenvalue
    sm = from_dense([1] * n, [1] * n, [[int(x) for x in r] for r in m])
    floats = np.linalg.eigvalsh(m.astype(float))
    for t in [Fraction(0)] + [Fraction(x, 7) for x in range(-60, 61, 11)]:
        gap = np.abs(floats - float(t))
        if np.all((gap < 1e-9) | (gap > 1e-3)):
            assert inertia(sm, t)[1] == float_multiplicity(floats, float(t))


# -- exact eigenvalue counts --------------------------------------------------


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(rational_spectrum_case(), st.data())
def test_inertia_counts_rational_spectra_exactly(case, data):
    """Q diag(lam) Q^T has its eigenvalues exactly at lam, so the counts
    at each of them are ties that only exact arithmetic gets right.  The
    same matrix is stored plainly, in the walk operators' form (scales s,
    1/s) and in the Laplacians' form (scales s, s)."""
    lam, mat, _h = case
    n = len(lam)
    s = data.draw(st.lists(st.sampled_from([Fraction(1), Fraction(4), Fraction(1, 9)]),
                           min_size=n, max_size=n))
    root = [exact_sqrt(x) for x in s]
    plain = from_dense([1] * n, [1] * n, mat)
    walk = from_dense(s, [1 / x for x in s],
                      [[mat[i][j] * root[j] / root[i] for j in range(n)] for i in range(n)])
    lap = from_dense(s, s, [[mat[i][j] / (root[i] * root[j]) for j in range(n)] for i in range(n)])
    assert walk.equals(plain) and lap.equals(plain)
    for t in set(lam) | {Fraction(-2), Fraction(1, 5), Fraction(3)}:
        want = (sum(x < t for x in lam), lam.count(t), sum(x > t for x in lam))
        assert inertia(plain, t) == inertia(walk, t) == inertia(lap, t) == want


@st.composite
def symmetric_integer_matrix(draw):
    """m + m^T for a random integer m; hollow (zero diagonal) half the time,
    which forces the 2x2 elimination step."""
    n = draw(st.integers(1, 8))
    m = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    m = m + m.T
    if draw(st.booleans()):
        np.fill_diagonal(m, 0)
    return m


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(symmetric_integer_matrix())
def test_inertia_matches_eigvalsh_at_separated_thresholds(m):
    n = m.shape[0]
    sm = from_dense([1] * n, [1] * n, [[int(x) for x in row] for row in m])
    floats = np.linalg.eigvalsh(m.astype(float))
    for t in [Fraction(0)] + [Fraction(x, 4) for x in range(-40, 41, 7)]:
        gap = floats - float(t)
        # an integer matrix's eigenvalue within 1e-9 of 0 is 0
        if np.all((np.abs(gap) > 1e-6) | (t == 0) & (np.abs(gap) < 1e-9)):
            at = int(np.sum(np.abs(gap) < 1e-9))
            assert inertia(sm, t) == (int(np.sum(gap < -1e-9)), at, int(np.sum(gap > 1e-9)))


@pytest.mark.parametrize(
    "rows, mu, want",
    [
        ([[0, 1], [1, 0]], 0, (1, 0, 1)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 0, (2, 0, 1)),
        ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], 0, (1, 1, 1)),
        # after the first pivot, the Schur complement is [[0, 1], [1, 0]]
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], 0, (1, 0, 2)),
        ([[0]], 0, (0, 1, 0)),
        ([], 0, (0, 0, 0)),
    ],
)
def test_inertia_takes_a_2x2_step_on_a_hollow_matrix(rows, mu, want):
    n = len(rows)
    assert inertia(from_dense([1] * n, [1] * n, rows), mu) == want


def test_inertia_rejects_what_it_cannot_count():
    with pytest.raises(ValueError, match="symmetric"):
        inertia(from_dense([1, 1], [1, 1], [[0, 1], [0, 0]]), 0)
    # D^(1/2) B D^(-1/2) with a symmetric B is similar to B, but not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        inertia(from_dense([1, 4], [1, Fraction(1, 4)], [[0, 1], [1, 0]]), 0)
    # diag(sqrt(2), 1) is symmetric, but no rational matrix is congruent to it
    # through the scales
    with pytest.raises(ValueError, match="scales"):
        inertia(from_dense([2, 1], [1, 1], [[1, 0], [0, 1]]), 0)
    with pytest.raises(ValueError, match="square"):
        inertia(from_dense([1], [1, 1], [[1, 0]]), 0)


@pytest.mark.parametrize("shift", [Fraction(1, 10**12), Fraction(-1, 10**12)])
def test_conditional_split_ranges_have_no_slack(shift, monkeypatch):
    """The single edge's dimension-1 down operators are [1] (quotient) and
    [-1] (signed), at the ends of their ranges.  Shifting all three flavors
    by the same t keeps the split identity exact but moves one spectrum
    10^-12 out of its range (t > 0 the quotient, t < 0 the signed), which
    the 1e-10 slack of a float range accepted."""
    cov = load_cover("single_edge")
    real = operators.build_conditional
    one = ScaledMatrix.identity(1)
    assert real(cov, 1, "down", "quotient").equals(one)
    assert real(cov, 1, "down", "signed").equals(-one)

    def shifted(cover, k, direction, flavor):
        op = real(cover, k, direction, flavor)
        if (k, direction) != (1, "down"):
            return op
        return op + ScaledMatrix.identity(op.shape[0]).scale(shift)

    monkeypatch.setattr(operators, "build_conditional", shifted)
    assert not verify_split(cov)["conditional_split_down_1"][0]


def test_not_coherent_gap_is_exact(monkeypatch):
    """The row counts the eigenvalues at or below -1: a signed spectrum
    10^-12 above -1 passes (a float test, lambda_min > -1 + 1e-10, refused
    it), and one at -1 fails."""
    cov = load_cover("cycle5")
    comp = components(cov, 1, "down")[0]
    assert detect_coherent(cov, comp, "down") is None
    for value, ok in ((-1 + Fraction(1, 10**12), True), (-1, False)):
        signed = ScaledMatrix.identity(len(comp)).scale(value)
        monkeypatch.setattr(operators, "build_conditional", lambda *args: signed)
        assert coherent_spectrum_check(cov, comp, "down")["not_coherent_gap"][0] is ok


def test_min_eigenvalue_bound_is_exact(monkeypatch):
    """The bound holds when some quotient eigenvalue sits at or below
    -1 + bound: one exactly at it passes, and one 10^-12 above it fails (a
    float test, lambda_min <= -1 + bound + 1e-9, accepted it)."""
    cov = load_cover("tetrahedron")
    n = quotient_operator(cov).shape[0]
    for value, ok in ((Fraction(-1, 2), True), (Fraction(-1, 2) + Fraction(1, 10**12), False)):
        fake = ScaledMatrix.identity(n).scale(value)
        monkeypatch.setattr(operators, "quotient_operator", lambda _cover: fake)
        assert min_eigenvalue_bound(cov) == (Fraction(1, 2), ok)


def test_bundle_reads_the_quotient_operator():
    cov = load_cover("branched")
    assert build_bundle(cov).a_quotient is quotient_operator(cov)


# -- exact eigenvalues ----------------------------------------------------------


@st.composite
def symmetric_operator(draw):
    """A symmetric ScaledMatrix S_ij / sqrt(s_i s_j) in the walk operators'
    form (scales s, 1/s; body S_ij / s_i) or S_ij sqrt(s_i s_j) in the
    Laplacians' form (scales s, s; body S), for a random symmetric rational
    S: irrational entries in both forms, both accepted by ``inertia``."""
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    sym = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    s = draw(st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 5), Fraction(4)]),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        body = [[x / s[i] for x in row] for i, row in enumerate(sym)]
        return from_dense(s, [1 / x for x in s], body)
    return from_dense(s, s, sym)


def assert_nearest(mat, index, x):
    """``x`` is the double nearest eigenvalue ``index``, proved by counts:
    the eigenvalue lies between the doubles next to x, and between the
    midpoints of x and each of them."""
    prev, nxt = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    assert inertia(mat, prev)[0] <= index < sum(inertia(mat, nxt)[:2])
    half_down, half_up = (Fraction(prev) + Fraction(x)) / 2, (Fraction(x) + Fraction(nxt)) / 2
    assert inertia(mat, half_down)[0] <= index < inertia(mat, half_up)[0]


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(symmetric_operator())
def test_eigenvalue_matches_eigvalsh_and_is_certified(mat):
    n = mat.shape[0]
    floats = np.linalg.eigvalsh(mat.to_float())
    for index in range(n):
        x = eigenvalue(mat, index)
        assert abs(x - floats[index]) <= 1e-12 * (1 + abs(floats[index]))
        assert_nearest(mat, index, x)
        assert eigenvalue(mat, index - n) == x


def test_eigenvalue_hits_a_dyadic_midpoint(monkeypatch):
    """diag(1/2, 1) has Gershgorin interval [0, 1], whose first midpoint is
    the lower eigenvalue: the count after the one at 0 finds it.  On I/2
    the interval is [0, 1/2] and the eigenvalue its end, which the last
    count picks.  Each call prepares its matrix once, however many counts
    it makes."""
    calls, prepared = [], []
    real_count, real_prepare = exact._count, exact._prepare

    def counting(prep, mu):
        calls.append(mu)
        return real_count(prep, mu)

    def preparing(mat):
        prepared.append(mat)
        return real_prepare(mat)

    monkeypatch.setattr(exact, "_count", counting)
    monkeypatch.setattr(exact, "_prepare", preparing)
    assert eigenvalue(from_dense([1, 1], [1, 1], [[Fraction(1, 2), 0], [0, 1]]), 0) == 0.5
    assert calls == [0.0, 0.5]
    assert len(prepared) == 1
    half = ScaledMatrix.identity(3).scale(Fraction(1, 2))
    assert [eigenvalue(half, i) for i in range(-3, 3)] == [0.5] * 6
    assert len(prepared) == 7
    # the single edge's up operator has a zero eigenvalue at the end of its
    # interval [0, 1]: halving from 1 would take about 1075 counts to reach
    # it, and the first count, at 0, finds it
    calls.clear()
    assert eigenvalue(ScaledMatrix([1, 1], [1, 1], [{0: Fraction(1, 2), 1: Fraction(1, 2)}] * 2),
                      0) == 0.0
    assert calls == [0.0]
    assert len(prepared) == 8


def test_eigenvalue_rejects_what_inertia_cannot_count():
    with pytest.raises(IndexError):
        eigenvalue(ScaledMatrix.identity(2), 2)
    with pytest.raises(IndexError):
        eigenvalue(ScaledMatrix.identity(0), 0)
    with pytest.raises(ValueError, match="scales"):
        eigenvalue(from_dense([2, 1], [1, 1], [[1, 0], [0, 1]]), 0)
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalue(from_dense([1, 1], [1, 1], [[0, 1], [0, 0]]), 0)
    with pytest.raises(ValueError, match="square"):
        eigenvalue(from_dense([1, 1], [1], [[1], [1]]), 0)
