from fractions import Fraction

import pytest

from hodgewalk.cheeger import (
    AuxiliaryGraph,
    BruteForceGuardError,
    _down_degree_term,
    _signed_best_orientation,
    aux_laplacian,
    build_aux,
    cheeger_quotient,
    cheeger_signed,
    combined_report,
    verify_cheeger,
)
from hodgewalk.complex_core import parse_complex
from hodgewalk.exact import ScaledMatrix
from hodgewalk.graded_cover import (
    NonStrongGradingError,
    components,
    cover_from_complex,
    detect_coherent,
    parse_cover_spec,
)
from hodgewalk.operators import build_conditional, eigen, on_component

import oracles
from conftest import COMPLEX_NAMES, FIXTURES, fixture_text, load_cover


def the_component(cov, k, direction):
    comps = [c for c in components(cov, k, direction) if len(c) > 1]
    assert len(comps) == 1
    return comps[0]


def test_build_aux_tetrahedron_edges_up():
    cov = load_cover("tetrahedron")
    comp = the_component(cov, 1, "up")
    aux = build_aux(cov, comp, "up")
    assert aux.n == 6
    assert len(aux.edges) == 12
    assert set(aux.weight) == {Fraction(1)}
    assert set(aux.measure) == {Fraction(2)}


def test_build_aux_degree_terms():
    cov = load_cover("tetrahedron")
    assert _down_degree_term(cov, the_component(cov, 1, "down"), 1) == Fraction(4, 3)
    assert _down_degree_term(cov, the_component(cov, 2, "down"), 2) == Fraction(3, 2)


def test_build_aux_weighted_degree_matches_term():
    """max over nodes of (sum of incident weights)/measure equals the degree
    term: k+1 up (at every node), _down_degree_term down."""
    for name, k, direction in (
        ("tetrahedron", 1, "up"),
        ("tetrahedron", 1, "down"),
        ("tetrahedron", 2, "down"),
        ("branched", 1, "down"),
        ("cycle6", 1, "down"),
    ):
        cov = load_cover(name)
        comp = the_component(cov, k, direction)
        aux = build_aux(cov, comp, direction)
        deg = [Fraction(0)] * aux.n
        for (i, j), w in zip(aux.edges, aux.weight):
            deg[i] += w
            deg[j] += w
        ratios = [deg[i] / aux.measure[i] for i in range(aux.n)]
        if direction == "up":
            assert all(r == k + 1 for r in ratios)
        else:
            assert max(ratios) == _down_degree_term(cov, comp, k)


def test_build_aux_preconditions():
    cov = load_cover("two_triangles_bridged")
    leaf_singleton = next(
        c for c in components(cov, 1, "up") if len(c) == 1
    )
    assert build_aux(cov, leaf_singleton, "up") is None
    singleton_down = components(cov, 2, "down")[0]
    assert build_aux(cov, singleton_down, "down") is None
    # a singleton with a parent has a one-node graph
    chain = parse_cover_spec("node a 0\nnode b 1\nedge a b +1\n")
    assert build_aux(chain, (0,), "up").n == 1
    # a bad call still raises: a bad direction before the singleton rule
    # answers, on a singleton and on a multi-node component alike
    triangle_edges = max(components(cov, 1, "up"), key=len)
    for bad in ("UP", "sideways", None):
        for comp in (leaf_singleton, singleton_down, triangle_edges):
            with pytest.raises(ValueError, match="direction must be 'up' or 'down'"):
                build_aux(cov, comp, bad)
        for flavor in ("quotient", "signed", "cover"):
            with pytest.raises(ValueError, match="direction must be 'up' or 'down'"):
                build_conditional(cov, 1, bad, flavor)
    with pytest.raises(ValueError):
        build_aux(cov, (0, cov.n_quotient - 1), "up")
    nonstrong = parse_cover_spec(fixture_text("nonstrong"))
    for direction in ("up", "down"):
        with pytest.raises(NonStrongGradingError):
            build_aux(nonstrong, (0,), direction)


def test_aux_laplacian_affine_identities():
    cov = load_cover("tetrahedron")
    # up in dimension m scales by m+2, down by m+1
    comp = the_component(cov, 1, "up")
    aux = build_aux(cov, comp, "up")
    eye = ScaledMatrix.identity(aux.n)
    a_q = on_component(cov, build_conditional(cov, 1, "up", "quotient"), comp)
    assert aux_laplacian(aux, "quotient").equals((eye - a_q).scale(3))
    a_s = on_component(cov, build_conditional(cov, 1, "up", "signed"), comp)
    assert aux_laplacian(aux, "signed").equals((eye + a_s).scale(3))

    comp = the_component(cov, 1, "down")
    aux = build_aux(cov, comp, "down")
    a_q = on_component(cov, build_conditional(cov, 1, "down", "quotient"), comp)
    assert aux_laplacian(aux, "quotient").equals((eye - a_q).scale(2))


def test_aux_laplacian_kernel_contains_sqrt_measure():
    import numpy as np

    cov = load_cover("branched")
    comp = the_component(cov, 1, "down")
    aux = build_aux(cov, comp, "down")
    lap = aux_laplacian(aux, "quotient")
    # Lap @ mu^(1/2) = 0: with scales (1/mu, 1/mu) the vector mu^(1/2)
    # pulls back to the all-ones vector in body coordinates
    ones = np.array([Fraction(1)] * aux.n, dtype=object)
    image = lap.body @ ones
    assert all(v == 0 for v in image)


TABLE_QUOTIENT = {
    (0, "up"): Fraction(2, 3),
    (1, "down"): Fraction(2, 3),
    (1, "up"): Fraction(1),
    (2, "down"): Fraction(1),
}
TABLE_SIGNED = {
    (0, "up"): Fraction(1, 3),
    (1, "down"): Fraction(4, 9),
    (1, "up"): Fraction(2, 3),
    (2, "down"): Fraction(1, 2),
}


@pytest.mark.parametrize("key", sorted(TABLE_QUOTIENT, key=str))
def test_tetrahedron_cheeger_constants(key):
    k, direction = key
    cov = load_cover("tetrahedron")
    aux = build_aux(cov, the_component(cov, k, direction), direction)
    h, witness = cheeger_quotient(aux)
    assert h == TABLE_QUOTIENT[key]
    assert 0 < len(witness) < aux.n
    hs, (nodes, orient) = cheeger_signed(aux)
    assert hs == TABLE_SIGNED[key]
    assert len(nodes) >= 1 and set(orient) == set(nodes)


def test_even_cycle_signed_zero():
    cov = load_cover("cycle6")
    aux = build_aux(cov, the_component(cov, 1, "down"), "down")
    h, (nodes, orient) = cheeger_signed(aux)
    assert h == 0
    assert len(nodes) == aux.n  # witness is the whole component
    hq, _ = cheeger_quotient(aux)
    assert hq > 0


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_signed_zero_iff_coherent(name, covers):
    cov = covers[name]
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            for comp in components(cov, k, direction):
                aux = build_aux(cov, comp, direction)
                if aux is None:
                    continue
                h, _ = cheeger_signed(aux)
                coherent = detect_coherent(cov, comp, direction) is not None
                assert (h == 0) == coherent, (name, k, direction)


def test_naive_oracle_equivalence(covers):
    """Optimized searches agree with the plain double loops (<= 12 nodes)."""
    for name in ("tetrahedron", "cycle5", "cycle6", "hollow_triangle", "branched"):
        cov = covers[name]
        for k in sorted(cov.nodes_by_dim):
            for direction in ("up", "down"):
                for comp in components(cov, k, direction):
                    if len(comp) > 12:
                        continue
                    aux = build_aux(cov, comp, direction)
                    if aux is None:
                        continue
                    if aux.n >= 2:
                        h, _ = cheeger_quotient(aux)
                        assert h == oracles.naive_cheeger_quotient(aux)
                    if aux.n <= 10:
                        hs, _ = cheeger_signed(aux)
                        assert hs == oracles.naive_cheeger_signed(aux)


def test_brute_force_guard(monkeypatch):
    from hodgewalk import cheeger

    cov = load_cover("triangle_ring")
    aux = build_aux(cov, the_component(cov, 1, "down"), "down")
    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 50)
    message = "cut search exceeds its budget of 50 search steps"
    with pytest.raises(BruteForceGuardError, match=message):
        cheeger_quotient(aux)
    with pytest.raises(BruteForceGuardError, match=message):
        cheeger_signed(aux)
    # the budget bounds work, not size: an edgeless 25-node graph is cut at once
    edgeless = AuxiliaryGraph(
        tuple(range(25)), (), (), (), tuple(Fraction(1) for _ in range(25))
    )
    assert cheeger_quotient(edgeless) == (0, (0,))


def test_budget_counts_the_bound_work(monkeypatch):
    from hodgewalk import cheeger

    # the signed search on this 16-node, 48-edge component decides 3,548
    # search nodes; updating its bound over their edges takes 22,438 steps
    cov = load_cover("triangle_ring")
    aux = build_aux(cov, the_component(cov, 1, "down"), "down")
    assert cheeger_signed(aux)[0] == Fraction(7, 18)
    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 10_000)
    with pytest.raises(BruteForceGuardError, match="budget of 10000 search steps"):
        cheeger_signed(aux)


def test_witness_tiebreak_is_lowest_mask():
    cov = load_cover("tetrahedron")
    aux = build_aux(cov, the_component(cov, 0, "up"), "up")
    h, witness = cheeger_quotient(aux)
    assert h == Fraction(2, 3)
    # all 2-subsets tie; the lexicographically smallest bitmask wins
    assert witness == tuple(sorted(aux.nodes))[:2]


def test_combined_report_tetrahedron_tables():
    cov = load_cover("tetrahedron")
    rep1 = combined_report(cov, 1)[0]
    assert rep1.d_down == Fraction(4, 3)
    assert rep1.lower_quotient == Fraction(1, 9)
    assert rep1.upper_quotient == Fraction(2, 3)
    assert rep1.lower_signed == Fraction(1, 27)
    assert rep1.upper_signed == Fraction(1, 3)
    assert rep1.gap_quotient == pytest.approx(2 / 3, abs=1e-9)
    assert rep1.gap_signed == pytest.approx(1 / 3, abs=1e-9)
    assert rep1.sandwich_quotient_ok and rep1.sandwich_signed_ok

    rep2 = combined_report(cov, 2)[0]
    assert rep2.d_down == Fraction(3, 2)
    assert rep2.lower_signed == Fraction(1, 27)
    assert rep2.upper_signed == Fraction(1, 3)
    assert rep2.lower_quotient == Fraction(1, 9)
    assert rep2.upper_quotient == Fraction(2, 3)


def test_sandwich_is_exact_at_a_tight_bound():
    """On the tetrahedron the upper bounds equal the gaps, 2/3 and 1/3: the
    sandwich holds at the tie and fails 10^-12 past either end, which the
    1e-9 slack of a float comparison accepted.  The diagonal operators have
    a simple lambda_2 and lambda_min, so each count is off by one there."""
    from hodgewalk.cheeger import _sandwiched

    rep = combined_report(load_cover("tetrahedron"), 1)[0]
    half = Fraction(1, 2)
    diagonal = lambda *d: ScaledMatrix([1] * 3, [1] * 3, [{i: x} for i, x in enumerate(d)])
    cases = [
        (rep.up_quotient, "quotient", rep.upper_quotient),
        (rep.up_signed, "signed", rep.upper_signed),
        (diagonal(1, half, 0), "quotient", half),
        (diagonal(-half, 0, 0), "signed", half),
    ]
    eps = Fraction(1, 10**12)
    for op, flavor, gap in cases:
        assert _sandwiched(op, flavor, gap, gap)
        assert not _sandwiched(op, flavor, gap, gap - eps)
        assert not _sandwiched(op, flavor, gap + eps, 1)


def test_combined_report_degenerate_singleton():
    cov = load_cover("single_edge")
    (rep,) = combined_report(cov, 1)
    assert rep.coherent
    assert rep.lower_signed == rep.upper_signed == Fraction(0)
    assert rep.gap_signed == pytest.approx(0.0, abs=1e-9)
    assert rep.h_quotient_down is None
    assert rep.sandwich_quotient_ok


def test_combined_report_coherent_cycle():
    cov = load_cover("cycle6")
    (rep,) = combined_report(cov, 1)
    assert rep.coherent
    assert rep.lower_signed == rep.upper_signed == Fraction(0)
    assert abs(rep.gap_signed) < 1e-9
    assert rep.sandwich_quotient_ok and rep.sandwich_signed_ok
    assert rep.rate_lower is None


@pytest.mark.parametrize("name", ["cycle6", "branched", "triangle_ring", "two_triangles_bridged"])
def test_coherent_signed_gap_is_exact_zero(name, monkeypatch):
    """Coherence pins the signed gap at 0: no signed bisection, no float noise."""
    from hodgewalk import cheeger

    solved = []
    real = cheeger.eigenvalue

    def spy(op, index):
        # lambda_2 of a quotient operator, lambda_min of a signed one
        solved.append("quotient" if index == -2 else "signed")
        return real(op, index)

    monkeypatch.setattr(cheeger, "eigenvalue", spy)
    cov = load_cover(name)
    reps = [rep for k in range(1, max(cov.dims) + 1) for rep in combined_report(cov, k)]
    # the sandwich flags are eigenvalue counts: the reports solve a gap only when read
    assert solved == []
    assert any(rep.coherent for rep in reps)
    for rep in reps:
        rep.gap_quotient
        if rep.coherent:
            assert rep.gap_signed == 0.0 and rep.sandwich_signed_ok
        else:
            rep.gap_signed
    paired = [rep for rep in reps if len(rep.up_component) >= 2]
    assert solved.count("quotient") == len(paired)
    assert solved.count("signed") == sum(not rep.coherent for rep in paired)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_report_gaps_match_the_float_eigensolver(name, covers):
    """The gaps bisected on eigenvalue counts agree with LAPACK's."""
    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for rep in combined_report(cov, k):
            want = 1 - eigen(rep.up_quotient)[-2]
            assert rep.gap_quotient == pytest.approx(want, rel=0, abs=1e-12)
            if not rep.coherent:
                want = 1 + eigen(rep.up_signed)[0]
                assert rep.gap_signed == pytest.approx(want, rel=0, abs=1e-12)


def test_eigenvalue_of_a_spectrum_outside_the_unit_interval():
    """The bisection brackets by Gershgorin, not by [-1, 1]: the signed
    auxiliary Laplacian 3(I + A) of the tetrahedron's edges has the
    eigenvalues 1 and 3, three times each."""
    from test_operators import assert_nearest

    from hodgewalk.exact import eigenvalue

    cov = load_cover("tetrahedron")
    lap = aux_laplacian(build_aux(cov, the_component(cov, 1, "up"), "up"), "signed")
    floats = eigen(lap)
    assert floats[-1] > 2
    for index, want in enumerate(floats):
        x = eigenvalue(lap, index)
        assert x == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert_nearest(lap, index, x)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_sandwich_everywhere(name, covers):
    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for rep in combined_report(cov, k):
            assert rep.sandwich_quotient_ok is True, (name, k)
            assert rep.sandwich_signed_ok is True, (name, k)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_up_down_gap_equality(name, covers):
    """The dim-(k-1) up gap equals the dim-k down gap on paired components."""
    from hodgewalk.graded_cover import component_correspondence

    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for down_comp, up_comp in component_correspondence(cov, k):
            if len(up_comp) < 2 or len(down_comp) < 2:
                continue
            # the gap is 1 - lambda_2 (quotient) or 1 + lambda_min (signed)
            for flavor, top in (("quotient", lambda ev: ev[-2]), ("signed", lambda ev: -ev[0])):
                up = build_conditional(cov, k - 1, "up", flavor)
                down = build_conditional(cov, k, "down", flavor)
                g_up = 1.0 - top(eigen(on_component(cov, up, up_comp)))
                g_down = 1.0 - top(eigen(on_component(cov, down, down_comp)))
                assert abs(g_up - g_down) < 1e-9


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_signed_spectrum_vanishes_iff_coherent(name, covers):
    """The numerical signed gap agrees with the exact coherence decision.

    combined_report takes the signed gap of coherent pairs to be 0 without
    an eigensolve, so its signed sandwich holds there by construction; this
    solves the signed operator anyway and checks it.
    """
    from hodgewalk.graded_cover import component_correspondence

    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        up = build_conditional(cov, k - 1, "up", "signed")
        for down_comp, up_comp in component_correspondence(cov, k):
            if len(up_comp) < 2:
                continue
            coherent = detect_coherent(cov, down_comp, "down") is not None
            gap = 1.0 + eigen(on_component(cov, up, up_comp))[0]
            assert (abs(gap) < 1e-9) == coherent, (name, k, gap)


def test_rate_bounds_bracket_rate():
    from hodgewalk.walks import convergence_rate

    cov = load_cover("tetrahedron")
    for k in (1, 2):
        (rep,) = combined_report(cov, k)
        rate = convergence_rate(cov, k)
        assert float(rep.rate_lower) <= rate + 1e-9
        assert rate <= float(rep.rate_upper) + 1e-9


def quotient_ratio(aux, witness):
    """cut / min(mu(S), mu(V) - mu(S)) of a witness subset, recomputed from the edges."""
    inside = {aux.nodes.index(q) for q in witness}
    cut = sum(w for (i, j), w in zip(aux.edges, aux.weight) if (i in inside) != (j in inside))
    mu = sum(aux.measure[i] for i in inside)
    return cut / min(mu, sum(aux.measure) - mu)


def test_annulus_6x4_vertex_component():
    """The 24-node up-component of the 6x4 annulus, past the old 2**24 scans."""
    lines = []
    for i in range(6):
        nxt = (i + 1) % 6
        for j in range(3):
            lines.append(f"v{i}_{j} v{nxt}_{j} v{nxt}_{j + 1}")
            lines.append(f"v{i}_{j} v{i}_{j + 1} v{nxt}_{j + 1}")
    cov = cover_from_complex(parse_complex("\n".join(lines)))
    aux = build_aux(cov, the_component(cov, 0, "up"), "up")
    assert aux.n == 24
    h, witness = cheeger_quotient(aux)
    assert h == Fraction(2, 9)
    assert quotient_ratio(aux, witness) == h


def test_quotient_search_proves_annulus_4x3_down(monkeypatch):
    """The 28-node k=1 down-component of the 4x3 annulus inside a million
    search steps: deciding nodes by degree, with the Dinkelbach and
    complement bounds, takes 524,830; deciding them by index took 1,970,523."""
    from hodgewalk import cheeger

    from conftest import benchmark_input

    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 1_000_000)
    cov = cover_from_complex(parse_complex(benchmark_input("annulus_4x3")))
    aux = build_aux(cov, the_component(cov, 1, "down"), "down")
    assert aux.n == 28
    h, witness = cheeger_quotient(aux)
    assert h == Fraction(7, 18)
    assert quotient_ratio(aux, witness) == h


def test_searches_deeper_than_the_recursion_limit():
    # 1100 isolated nodes below one frustrated triangle: every search
    # descends through all of them before its first leaf
    n = 1103
    aux = AuxiliaryGraph(
        tuple(range(n)),
        ((n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)), (1, 1, -1),
        (Fraction(1),) * 3, (Fraction(1),) * n,
    )
    assert cheeger_quotient(aux) == (0, (0,))
    assert cheeger_signed(aux) == (0, ((0,), {0: False}))
    # a path of 1100 nodes has 1099 free nodes to orient
    path = [(i, i + 1, 1, 1) for i in range(1099)]
    assert _signed_best_orientation(list(range(1100)), path, 0) == [1] * 1100


@pytest.mark.parametrize("seed", range(5))
def test_random_complex_sandwich(seed):
    from conftest import random_complex
    from hodgewalk.graded_cover import cover_from_complex

    cov = cover_from_complex(random_complex(seed + 700))
    for k in range(1, max(cov.dims) + 1):
        for rep in combined_report(cov, k):
            assert rep.sandwich_quotient_ok is True
            assert rep.sandwich_signed_ok is True


# -- the pruned searches against the full scans they replaced ----------------

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

SMALL_WEIGHTS = st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)])


@st.composite
def random_aux(draw, lo=1, hi=8, dense=False):
    """Auxiliary graph on lo..hi nodes, few distinct weights (ties are common).

    Dense graphs hold each node pair as an edge with probability 1/2.
    """
    n = draw(st.integers(lo, hi))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if dense:
        edges = [pair for pair in all_pairs if draw(st.booleans())]
    else:
        edges = sorted(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else []
    return AuxiliaryGraph(
        nodes=tuple(range(10, 10 + n)),
        edges=tuple(edges),
        sign=tuple(draw(st.sampled_from([1, -1])) for _ in edges),
        weight=tuple(draw(SMALL_WEIGHTS) for _ in edges),
        measure=tuple(draw(SMALL_WEIGHTS) for _ in range(n)),
    )


# the full set under +q4 +q3 +q2 +q1 -q0 and {q3, q4} under +q4 -q3 both reach
# 2/3; a search over the states out, +, - per node that kept the first
# minimizer it met would return the full set, not the lower mask
TIED_MASKS = AuxiliaryGraph(
    nodes=(10, 11, 12, 13, 14),
    edges=((0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)),
    sign=(1, -1, 1, 1, 1, -1),
    weight=tuple(Fraction(w) for w in (1, 2, 2, 1, 1, 1)),
    measure=tuple(Fraction(m) for m in (1, 1, 1, 2, 1)),
)


# {q4} and {q2} both reach 1 and no subset goes lower.  The signed search
# decides q3, q0, q1, q2, q4 (by degree 8, 7, 6, 2, 1), out before in, so it
# meets {q4} (mask 16) before {q2} (mask 4): only a leaf that ties the
# incumbent with a lower mask replacing it gives the lowest-mask witness
DEGREE_FIRST_TIE = AuxiliaryGraph(
    nodes=(10, 11, 12, 13, 14),
    edges=((0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 4)),
    sign=(1, 1, 1, -1, -1, -1),
    weight=tuple(Fraction(w) for w in (3, 1, 3, 3, 1, 1)),
    measure=tuple(Fraction(m) for m in (1, 1, 2, 1, 1)),
)


# the signed incumbent falls three times ({q2}, {q1, q2, q3}, then the full
# set at 4/13); each fall changes the floor of every node, the decided ones
# included, since undoing a decision puts its node's floor back
INCUMBENT_FALLS = AuxiliaryGraph(
    nodes=(10, 11, 12, 13),
    edges=((0, 1), (0, 3), (1, 3), (2, 3)),
    sign=(1, -1, 1, 1),
    weight=tuple(Fraction(w) for w in (1, 1, 2, 1)),
    measure=(Fraction(1, 2), Fraction(3), Fraction(2), Fraction(1)),
)


@settings(max_examples=300, deadline=None)
@given(random_aux())
@example(TIED_MASKS)
@example(DEGREE_FIRST_TIE)
@example(INCUMBENT_FALLS)
def test_cut_searches_match_references(aux):
    """Same value, witness subset and orientation as the full scans."""
    signed = cheeger_signed(aux)
    assert signed == oracles.reference_cheeger_signed(aux)
    if aux.n <= 6:
        assert signed[0] == oracles.naive_cheeger_signed(aux)
    if aux.n >= 2:
        quotient = cheeger_quotient(aux)
        assert quotient == oracles.reference_cheeger_quotient(aux)
        if aux.n <= 6:
            assert quotient[0] == oracles.naive_cheeger_quotient(aux)


@settings(max_examples=60, deadline=None)
@given(random_aux(9, 12, dense=True))
def test_cut_searches_match_references_9_to_12_nodes(aux):
    """As above on larger, denser graphs; the references take about 0.04 s each."""
    assert cheeger_signed(aux) == oracles.reference_cheeger_signed(aux)
    assert cheeger_quotient(aux) == oracles.reference_cheeger_quotient(aux)


def permuted(aux, perm):
    """``aux`` with node i moved to position perm[i]."""
    nodes, measure = [None] * aux.n, [None] * aux.n
    for i, p in enumerate(perm):
        nodes[p], measure[p] = aux.nodes[i], aux.measure[i]
    edges = sorted(
        (tuple(sorted((perm[i], perm[j]))), s, w)
        for (i, j), s, w in zip(aux.edges, aux.sign, aux.weight)
    )
    return AuxiliaryGraph(
        tuple(nodes),
        tuple(e for e, _s, _w in edges),
        tuple(s for _e, s, _w in edges),
        tuple(w for _e, _s, w in edges),
        tuple(measure),
    )


def witness_ratio(aux, witness):
    """(cut + 2 * frustrated weight) / measure of a (subset, orientation)
    witness, recomputed from the edges."""
    nodes, flipped = witness
    pos = {q: i for i, q in enumerate(aux.nodes)}
    x = {pos[q]: -1 if flipped[q] else 1 for q in nodes}
    cut = frustrated = Fraction(0)
    for (i, j), s, w in zip(aux.edges, aux.sign, aux.weight):
        if (i in x) != (j in x):
            cut += w
        elif i in x and x[i] * x[j] * s == -1:
            frustrated += w
    return (cut + 2 * frustrated) / sum(aux.measure[i] for i in x)


@st.composite
def permuted_aux(draw):
    aux = draw(random_aux())
    return aux, draw(st.permutations(range(aux.n)))


@settings(max_examples=200, deadline=None)
@given(permuted_aux())
@example((DEGREE_FIRST_TIE, [4, 3, 2, 1, 0]))
@example((DEGREE_FIRST_TIE, [1, 2, 3, 4, 0]))
def test_signed_value_ignores_node_order(case):
    """The decision order follows degree and index; relabelling the nodes
    may change the witness among tied minimizers, never the value."""
    aux, perm = case
    h, witness = cheeger_signed(aux)
    moved = permuted(aux, perm)
    h_moved, witness_moved = cheeger_signed(moved)
    assert h_moved == h
    assert witness_ratio(aux, witness) == h
    assert witness_ratio(moved, witness_moved) == h


@settings(max_examples=200, deadline=None)
@given(permuted_aux())
@example((DEGREE_FIRST_TIE, [4, 3, 2, 1, 0]))
@example((DEGREE_FIRST_TIE, [1, 2, 3, 4, 0]))
def test_quotient_value_ignores_node_order(case):
    """The quotient search follows degree and index too; relabelling the
    nodes may change the witness among tied minimizers, never the value."""
    aux, perm = case
    assume(aux.n >= 2)
    h, witness = cheeger_quotient(aux)
    moved = permuted(aux, perm)
    h_moved, witness_moved = cheeger_quotient(moved)
    assert h_moved == h
    assert quotient_ratio(aux, witness) == h
    assert quotient_ratio(moved, witness_moved) == h


def test_budgeted_orientation_search():
    # K4, negative triangle on 1, 2, 3: three orientations tie at weight 4;
    # the Gray walk meets (+, -, +, +) first (rank 1 flips node 1)
    pairs_in = [
        (0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, -1), (1, 3, 1, -1), (2, 3, 1, -1),
    ]
    members = [0, 1, 2, 3]
    best, best_x = oracles.reference_signed_best_orientation(members, pairs_in)
    assert (best, best_x) == (4, [1, -1, 1, 1])
    assert _signed_best_orientation(members, pairs_in, best) == best_x


@st.composite
def induced_graph(draw):
    """(members, pairs_in) on up to 8 nodes, weights 1 or 2: many tied minima."""
    m = draw(st.integers(1, 8))
    all_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = sorted(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else []
    pairs_in = [
        (i, j, draw(st.sampled_from([1, 1, 2])), draw(st.sampled_from([1, -1]))) for i, j in edges
    ]
    return list(range(m)), pairs_in


@settings(max_examples=300, deadline=None)
@given(induced_graph())
def test_budgeted_orientation_matches_gray_walk(graph):
    members, pairs_in = graph
    best, best_x = oracles.reference_signed_best_orientation(members, pairs_in)
    assert _signed_best_orientation(members, pairs_in, best) == best_x


@pytest.mark.parametrize("name", ["tetrahedron", "branched", "triangle_ring"])
def test_verify_cheeger_is_the_cli_cheeger_section(name, capsys):
    """verify prints verify_cheeger's rows, in order, just before TOTAL."""
    from hodgewalk.cli import fmt, run

    report = verify_cheeger(load_cover(name))
    assert any(row.startswith("aux_laplacian_identity_") for row in report)
    assert run(["verify", str(FIXTURES / f"{name}.cx")]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [f"{row}\t{fmt(ok)}\t{detail}" for row, (ok, detail) in report.items()]
    assert lines[-1 - len(report):-1] == expected
