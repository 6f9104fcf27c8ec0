"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

from hodgewalk.cheeger import build_aux, cheeger_quotient, cheeger_signed, combined_report
from hodgewalk.cli import run as cli_run
from hodgewalk.exact import ScaledMatrix, rat_eye
from hodgewalk.graded_cover import components, detect_coherent, find_partition
from hodgewalk.laplacians import hodge
from hodgewalk.operators import (
    build_bundle,
    build_conditional,
    coherent_spectrum_check,
    eigen,
    min_eigenvalue_bound,
    multiset_match,
    verify_split,
)
from hodgewalk.walks import (
    simulate,
    stationary,
    total_variation,
    transition_conditional,
    transition_full,
)

import oracles
from conftest import COMPLEX_NAMES, FIXTURES, load_cover


def report(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


TABLE_LP = {
    "x3 x4 x5 x6": 1,
    "x0 x1 x2": 1, "x1 x2 x3": 1, "x3 x4 x5": 1, "x3 x4 x6": 1,
    "x3 x5 x6": 1, "x4 x5 x6": 1,
    "x0 x1": 1, "x0 x2": 1, "x1 x2": 2, "x1 x3": 1, "x2 x3": 1, "x2 x5": 1,
    "x3 x4": 2, "x3 x5": 2, "x3 x6": 2, "x4 x5": 2, "x4 x6": 2, "x5 x6": 2,
    "x0": 2, "x1": 4, "x2": 5, "x3": 8, "x4": 6, "x5": 7, "x6": 6,
}


def test_criterion_1_branched_lp_table(capsys):
    """26 exact LP values of the branched complex, under 1 second."""
    t0 = time.perf_counter()
    code = cli_run(["lp", str(FIXTURES / "branched.cx")])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rows = [ln.split("\t") for ln in out.strip().splitlines()[1:]]
        values = {r[1]: int(r[2]) for r in rows}
        ok = values == TABLE_LP and len(rows) == 26 and elapsed < 1.0
        report(1, ok, f"26 LP values exact, {elapsed:.3f}s < 1s")


EXPECTED_TABLES = {
    ("quotient", 1): ("4/3", "2/3", "2/3", "1/9", "1/12", "0.666666666667", "2/3", "2/3"),
    ("quotient", 2): ("3/2", "1", "1", "1/12", "1/9", "0.666666666667", "2/3", "2/3"),
    ("signed", 1): ("4/3", "1/3", "4/9", "1/36", "1/27", "0.333333333333", "1/3", "4/9"),
    ("signed", 2): ("3/2", "2/3", "1/2", "1/27", "1/36", "0.333333333333", "4/9", "1/3"),
}


def test_criterion_2_tetrahedron_tables(capsys):
    """Exact bound-table reproduction, gaps within 1e-9, under 10 seconds."""
    t0 = time.perf_counter()
    code = cli_run(["report", "--paper-tables", str(FIXTURES / "tetrahedron.cx")])
    out = capsys.readouterr().out
    cov = load_cover("tetrahedron")
    reps = {k: combined_report(cov, k)[0] for k in (1, 2)}
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        assert code == 0
        got = {}
        for ln in out.strip().splitlines()[1:]:
            parts = ln.split("\t")
            got[(parts[0], int(parts[1]))] = tuple(parts[2:])
        ok = got == EXPECTED_TABLES
        for k in (1, 2):
            ok = ok and abs(reps[k].gap_quotient - 2 / 3) < 1e-9
            ok = ok and abs(reps[k].gap_signed - 1 / 3) < 1e-9
        ok = ok and elapsed < 10.0
        report(2, ok, f"tables verbatim, gaps 2/3 and 1/3 within 1e-9, {elapsed:.2f}s < 10s")


def test_criterion_3_exact_identity_suite(covers, weights, capsys):
    """Zero-tolerance rational identities on every fixture."""
    with capsys.disabled():
        half = Fraction(1, 2)
        for name in COMPLEX_NAMES:
            cov, pw = covers[name], weights[name]
            from hodgewalk.complex_core import boundary_matrix
            from hodgewalk.exact import mat_is_zero
            from hodgewalk.laplacians import check_laplacian_walk_identity
            from conftest import load_complex

            cx = load_complex(name)
            for k in range(1, cx.dimension + 1):
                assert mat_is_zero(boundary_matrix(cx, k - 1) @ boundary_matrix(cx, k))
            for k in range(cx.dimension + 1):
                for nrm in (False, True):
                    lap = hodge(cx, k, nrm)
                    assert (lap.up @ lap.down).is_zero()
                    assert (lap.down @ lap.up).is_zero()
                assert check_laplacian_walk_identity(cx, k)
            P = transition_full(cov, "quotient").entries
            for a in range(cov.n_quotient):
                for b in range(cov.n_quotient):
                    assert pw.through(a) * P[a, b] == pw.through(b) * P[b, a]
            b = build_bundle(cov)
            i2n = ScaledMatrix.identity(cov.n_cover)
            assert (b.a_sym + b.a_alt).equals(b.a_cover)
            assert (b.delta_cover.scale(half) + (b.delta_cover.T @ b.r).scale(half)
                    + b.theta_l.scale(half) + b.theta_r.scale(half)).equals(b.a_cover)
            assert (b.q_sym.T @ b.q_sym).equals(i2n + b.r)
            assert (b.q_alt.T @ b.q_alt).equals(i2n - b.r)
            for k in range(1, cx.dimension + 1):
                for direction, kk in (("up", k - 1), ("down", k)):
                    for comp in components(cov, f"quotient-{direction}", kk):
                        try:
                            aux = build_aux(cov, comp, direction)
                        except ValueError:
                            continue
                        from hodgewalk.cheeger import aux_laplacian

                        factor = Fraction(kk + 2 if direction == "up" else kk + 1)
                        eye = ScaledMatrix.from_rational(rat_eye(aux.n))
                        a_q = build_conditional(cov, kk, direction, "quotient").restrict(comp).sm
                        a_s = build_conditional(cov, kk, direction, "signed").restrict(comp).sm
                        assert aux_laplacian(aux, "quotient").sm.equals((eye - a_q).scale(factor))
                        assert aux_laplacian(aux, "signed").sm.equals((eye + a_s).scale(factor))
        report(3, True, f"exact identities hold on all {len(COMPLEX_NAMES)} fixtures")


def test_criterion_4_spectral_transfer_suite(covers, capsys):
    """Split equalities, transfer residuals < 1e-8, normalized spectra in range."""
    with capsys.disabled():
        from conftest import load_complex

        for name in COMPLEX_NAMES:
            cov = covers[name]
            split = verify_split(cov)
            assert all(ok for ok, _ in split.values()), {
                k: v for k, v in split.items() if not v[0]
            }
            cx = load_complex(name)
            for k in range(1, cx.dimension + 1):
                up = eigen(hodge(cx, k - 1, True).up.to_float()).eigenvalues
                down = eigen(hodge(cx, k, True).down.to_float()).eigenvalues
                assert multiset_match(
                    [v for v in up if abs(v) > 1e-8], [v for v in down if abs(v) > 1e-8]
                )
            for k in range(cx.dimension + 1):
                lap = hodge(cx, k, True)
                ev = eigen(lap.full.to_float()).eigenvalues
                assert all(-1e-10 <= v <= 1 + 1e-10 for v in ev)
        report(4, True, "spectrum splits, transfers and bounds hold on all fixtures")


def test_criterion_5_coherence_partition_suite(covers, capsys):
    """Signed h = 0 <=> coherent <=> -1 attained; ring has no 3-partition."""
    with capsys.disabled():
        coherent_cases = [("cycle6", 1), ("triangle_ring", 2), ("two_triangles_bridged", 2)]
        for name, k in coherent_cases:
            cov = covers[name]
            for comp in components(cov, "quotient-down", k):
                witness = detect_coherent(cov, comp, "down")
                assert witness is not None
                spec_checks = coherent_spectrum_check(cov, comp, "down")
                assert all(ok for ok, _ in spec_checks.values())
                if len(comp) >= 2:
                    h, _ = cheeger_signed(build_aux(cov, comp, "down"))
                    assert h == 0
        ring = covers["triangle_ring"]
        comp = components(ring, "quotient-down", 2)[0]
        assert detect_coherent(ring, comp, "down") is not None
        assert find_partition(ring, comp) is None
        c5 = covers["cycle5"]
        comp5 = components(c5, "quotient-down", 1)[0]
        assert detect_coherent(c5, comp5, "down") is None
        h5, _ = cheeger_signed(build_aux(c5, comp5, "down"))
        assert h5 > 0
        check5 = coherent_spectrum_check(c5, comp5, "down")
        assert check5["not_coherent_gap"][0]
        report(5, True, "coherence, -1 eigenvalue and partition behavior all consistent")


def test_criterion_6_oracle_equivalence(covers, weights, capsys):
    """Brute-force path counts, naive Cheeger loops, two-step conditioning."""
    with capsys.disabled():
        for name in COMPLEX_NAMES:
            cov, pw = covers[name], weights[name]
            for q in range(cov.n_quotient):
                assert pw.lp[q] == len(oracles.ascending_paths(cov, q))
                assert pw.rp[q] == len(oracles.descending_paths(cov, q))
            P = transition_full(cov, "quotient").entries
            for k in sorted(cov.nodes_by_dim):
                for direction in ("up", "down"):
                    lonely = cov.is_leaf if direction == "up" else cov.is_root
                    nodes, want = oracles.two_step_conditional(P, cov.dims, k, direction, lonely)
                    got = transition_conditional(cov, k, direction, "quotient")
                    assert list(got.nodes) == nodes and (got.entries == want).all()
        checked = 0
        for name in ("tetrahedron", "cycle5", "cycle6", "hollow_triangle", "branched"):
            cov = covers[name]
            for k in sorted(cov.nodes_by_dim):
                for direction in ("up", "down"):
                    for comp in components(cov, f"quotient-{direction}", k):
                        if len(comp) > 12:
                            continue
                        try:
                            aux = build_aux(cov, comp, direction)
                        except ValueError:
                            continue
                        if aux.n >= 2:
                            assert cheeger_quotient(aux)[0] == oracles.naive_cheeger_quotient(aux)
                            checked += 1
                        if aux.n <= 10:
                            assert cheeger_signed(aux)[0] == oracles.naive_cheeger_signed(aux)
        report(6, True, f"oracle agreement (including {checked} Cheeger searches)")


def test_criterion_7_monte_carlo(covers, capsys):
    """Seeded 10^6-step walk: TV to stationary < 0.02, traces reproducible."""
    with capsys.disabled():
        cov = covers["tetrahedron"]
        comp = components(cov, "quotient")[0]
        pi = stationary(cov, comp, "cover")
        trace1, emp1 = simulate(cov, 0, 10**6, seed=7)
        trace2, emp2 = simulate(cov, 0, 10**6, seed=7)
        tv = float(total_variation(emp1, pi.weights))
        ok = tv < 0.02 and trace1.digest == trace2.digest and emp1 == emp2
        report(7, ok, f"TV = {tv:.4f} < 0.02 (tolerance is an artifact choice), traces identical")


def test_criterion_8_min_eigenvalue_bound(covers, capsys):
    """lambda_min <= -1 + min_C 2/(E[len]+1) with 1e-9 slack, all fixtures."""
    with capsys.disabled():
        for name in COMPLEX_NAMES:
            bound, holds = min_eigenvalue_bound(covers[name])
            assert holds, name
        cov = covers["tetrahedron"]
        bound, holds = min_eigenvalue_bound(cov)
        lam_min = eigen(build_bundle(cov).a_quotient).eigenvalues[0]
        ok = bound == Fraction(1, 2) and holds and lam_min <= -0.5 + 1e-9
        report(8, ok, f"tetrahedron bound 1/2, lambda_min = {lam_min:.6f} <= -1/2")
