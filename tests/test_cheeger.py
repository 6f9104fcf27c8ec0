from fractions import Fraction

import pytest

from hodgewalk.cheeger import (
    AuxiliaryGraph,
    BruteForceGuardError,
    _signed_best_orientation,
    aux_laplacian,
    build_aux,
    cheeger_quotient,
    cheeger_signed,
    combined_report,
)
from hodgewalk.complex_core import parse_complex
from hodgewalk.exact import ScaledMatrix, rat_eye
from hodgewalk.graded_cover import components, cover_from_complex, detect_coherent
from hodgewalk.operators import build_conditional

import oracles
from conftest import COMPLEX_NAMES, load_cover


def the_component(cov, kind, k):
    comps = [c for c in components(cov, kind, k) if len(c) > 1]
    assert len(comps) == 1
    return comps[0]


def test_build_aux_tetrahedron_edges_up():
    cov = load_cover("tetrahedron")
    comp = the_component(cov, "quotient-up", 1)
    aux = build_aux(cov, comp, "up")
    assert aux.n == 6
    assert len(aux.edges) == 12
    assert set(aux.weight) == {Fraction(1)}
    assert set(aux.measure) == {Fraction(2)}
    assert aux.degree_term == 2  # k+1


def test_build_aux_degree_terms():
    cov = load_cover("tetrahedron")
    d1 = build_aux(cov, the_component(cov, "quotient-down", 1), "down").degree_term
    assert d1 == Fraction(4, 3)
    d2 = build_aux(cov, the_component(cov, "quotient-down", 2), "down").degree_term
    assert d2 == Fraction(3, 2)


def test_build_aux_weighted_degree_matches_term():
    """max over nodes of (sum of incident weights)/measure equals the term."""
    for name, k, direction in (
        ("tetrahedron", 1, "up"),
        ("tetrahedron", 1, "down"),
        ("tetrahedron", 2, "down"),
        ("branched", 1, "down"),
        ("cycle6", 1, "down"),
    ):
        cov = load_cover(name)
        comp = the_component(cov, f"quotient-{direction}", k)
        aux = build_aux(cov, comp, direction)
        deg = [Fraction(0)] * aux.n
        for (i, j), w in zip(aux.edges, aux.weight):
            deg[i] += w
            deg[j] += w
        ratios = [deg[i] / aux.measure[i] for i in range(aux.n)]
        if direction == "up":
            assert all(r == aux.degree_term for r in ratios)
        else:
            assert max(ratios) == aux.degree_term


def test_build_aux_preconditions():
    cov = load_cover("two_triangles_bridged")
    leaf_singleton = next(
        c for c in components(cov, "quotient-up", 1) if len(c) == 1
    )
    with pytest.raises(ValueError):
        build_aux(cov, leaf_singleton, "up")
    singleton_down = components(cov, "quotient-down", 2)[0]
    with pytest.raises(ValueError):
        build_aux(cov, singleton_down, "down")


def test_aux_laplacian_affine_identities():
    cov = load_cover("tetrahedron")
    # up in dimension m scales by m+2, down by m+1
    comp = the_component(cov, "quotient-up", 1)
    aux = build_aux(cov, comp, "up")
    eye = ScaledMatrix.from_rational(rat_eye(aux.n))
    a_q = build_conditional(cov, 1, "up", "quotient").restrict(comp).sm
    assert aux_laplacian(aux, "quotient").sm.equals((eye - a_q).scale(3))
    a_s = build_conditional(cov, 1, "up", "signed").restrict(comp).sm
    assert aux_laplacian(aux, "signed").sm.equals((eye + a_s).scale(3))

    comp = the_component(cov, "quotient-down", 1)
    aux = build_aux(cov, comp, "down")
    a_q = build_conditional(cov, 1, "down", "quotient").restrict(comp).sm
    assert aux_laplacian(aux, "quotient").sm.equals((eye - a_q).scale(2))


def test_aux_laplacian_kernel_contains_sqrt_measure():
    import numpy as np

    cov = load_cover("branched")
    comp = the_component(cov, "quotient-down", 1)
    aux = build_aux(cov, comp, "down")
    lap = aux_laplacian(aux, "quotient").sm
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
    aux = build_aux(cov, the_component(cov, f"quotient-{direction}", k), direction)
    h, witness = cheeger_quotient(aux)
    assert h == TABLE_QUOTIENT[key]
    assert 0 < len(witness) < aux.n
    hs, (nodes, orient) = cheeger_signed(aux)
    assert hs == TABLE_SIGNED[key]
    assert len(nodes) >= 1 and set(orient) == set(nodes)


def test_even_cycle_signed_zero():
    cov = load_cover("cycle6")
    aux = build_aux(cov, the_component(cov, "quotient-down", 1), "down")
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
            for comp in components(cov, f"quotient-{direction}", k):
                try:
                    aux = build_aux(cov, comp, direction)
                except ValueError:
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
                for comp in components(cov, f"quotient-{direction}", k):
                    if len(comp) > 12:
                        continue
                    try:
                        aux = build_aux(cov, comp, direction)
                    except ValueError:
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
    aux = build_aux(cov, the_component(cov, "quotient-down", 1), "down")
    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 50)
    message = "cut search exceeds its budget of 50 search nodes"
    with pytest.raises(BruteForceGuardError, match=message):
        cheeger_quotient(aux)
    with pytest.raises(BruteForceGuardError, match=message):
        cheeger_signed(aux)
    # the budget bounds work, not size: an edgeless 25-node graph is cut at once
    edgeless = AuxiliaryGraph(
        "down", 1, tuple(range(25)), tuple(str(i) for i in range(25)), (), (), (),
        tuple(Fraction(1) for _ in range(25)), Fraction(1),
    )
    assert cheeger_quotient(edgeless) == (0, (0,))


def test_witness_tiebreak_is_lowest_mask():
    cov = load_cover("tetrahedron")
    aux = build_aux(cov, the_component(cov, "quotient-up", 0), "up")
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
    """Coherence pins the signed gap at 0: no signed eigensolve, no float noise."""
    from hodgewalk import cheeger

    solved = []
    real = cheeger._restricted_gap

    def spy(op, flavor, comp):
        solved.append(flavor)
        return real(op, flavor, comp)

    monkeypatch.setattr(cheeger, "_restricted_gap", spy)
    cov = load_cover(name)
    reps = [rep for k in range(1, max(cov.dims) + 1) for rep in combined_report(cov, k)]
    assert any(rep.coherent for rep in reps)
    for rep in reps:
        if rep.coherent:
            assert rep.gap_signed == 0.0 and rep.sandwich_signed_ok
    paired = [rep for rep in reps if len(rep.up_component) >= 2]
    assert solved.count("quotient") == len(paired)
    assert solved.count("signed") == sum(not rep.coherent for rep in paired)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_sandwich_everywhere(name, covers):
    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for rep in combined_report(cov, k):
            if rep.sandwich_quotient_ok is not None:
                assert rep.sandwich_quotient_ok, (name, k)
            if rep.sandwich_signed_ok is not None:
                assert rep.sandwich_signed_ok, (name, k)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_up_down_gap_equality(name, covers):
    """The dim-(k-1) up gap equals the dim-k down gap on paired components."""
    from hodgewalk.cheeger import _restricted_gap
    from hodgewalk.graded_cover import component_correspondence

    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for down_comp, up_comp in component_correspondence(cov, k):
            if len(up_comp) < 2 or len(down_comp) < 2:
                continue
            for flavor in ("quotient", "signed"):
                up = build_conditional(cov, k - 1, "up", flavor)
                down = build_conditional(cov, k, "down", flavor)
                g_up = _restricted_gap(up, flavor, up_comp)
                g_down = _restricted_gap(down, flavor, down_comp)
                assert abs(g_up - g_down) < 1e-9


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_signed_spectrum_vanishes_iff_coherent(name, covers):
    """The numerical signed gap agrees with the exact coherence decision.

    combined_report takes the signed gap of coherent pairs to be 0 without
    an eigensolve, so its signed sandwich holds there by construction; this
    solves the signed operator anyway and checks it.
    """
    from hodgewalk.cheeger import _restricted_gap
    from hodgewalk.graded_cover import component_correspondence

    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        up = build_conditional(cov, k - 1, "up", "signed")
        for down_comp, up_comp in component_correspondence(cov, k):
            if len(up_comp) < 2:
                continue
            coherent = detect_coherent(cov, down_comp, "down") is not None
            gap = _restricted_gap(up, "signed", up_comp)
            assert (abs(gap) < 1e-9) == coherent, (name, k, gap)


def test_rate_bounds_bracket_rate():
    from hodgewalk.walks import convergence_rate

    cov = load_cover("tetrahedron")
    for k in (1, 2):
        (rep,) = combined_report(cov, k)
        rate = convergence_rate(cov, k)
        assert float(rep.rate_lower) <= rate + 1e-9
        assert rate <= float(rep.rate_upper) + 1e-9


def test_annulus_6x4_vertex_component():
    """The 24-node up-component of the 6x4 annulus, past the old 2**24 scans."""
    lines = []
    for i in range(6):
        nxt = (i + 1) % 6
        for j in range(3):
            lines.append(f"v{i}_{j} v{nxt}_{j} v{nxt}_{j + 1}")
            lines.append(f"v{i}_{j} v{i}_{j + 1} v{nxt}_{j + 1}")
    cov = cover_from_complex(parse_complex("\n".join(lines)))
    aux = build_aux(cov, the_component(cov, "quotient-up", 0), "up")
    assert aux.n == 24
    h, witness = cheeger_quotient(aux)
    assert h == Fraction(2, 9)
    inside = {aux.nodes.index(q) for q in witness}
    cut = sum(w for (i, j), w in zip(aux.edges, aux.weight) if (i in inside) != (j in inside))
    mu = sum(aux.measure[i] for i in inside)
    assert cut / min(mu, sum(aux.measure) - mu) == h


def test_searches_deeper_than_the_recursion_limit():
    # 1100 isolated nodes below one frustrated triangle: every search
    # descends through all of them before its first leaf
    n = 1103
    aux = AuxiliaryGraph(
        "down", 1, tuple(range(n)), tuple(str(i) for i in range(n)),
        ((n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)), (1, 1, -1),
        (Fraction(1),) * 3, (Fraction(1),) * n, Fraction(1),
    )
    assert cheeger_quotient(aux) == (0, (0,))
    assert cheeger_signed(aux) == (0, ((0,), {0: False}))
    # a path of 1100 nodes has 1099 free nodes to orient
    path = [(i, i + 1, 1, 1) for i in range(1099)]
    assert _signed_best_orientation(list(range(1100)), path, 1) == (0, [1] * 1100)


@pytest.mark.parametrize("seed", range(5))
def test_random_complex_sandwich(seed):
    from conftest import random_complex
    from hodgewalk.graded_cover import cover_from_complex

    cov = cover_from_complex(random_complex(seed + 700))
    for k in range(1, max(cov.dims) + 1):
        for rep in combined_report(cov, k):
            if rep.sandwich_quotient_ok is not None:
                assert rep.sandwich_quotient_ok
            if rep.sandwich_signed_ok is not None:
                assert rep.sandwich_signed_ok


# -- the pruned searches against the full scans they replaced ----------------

from hypothesis import example, given, settings
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
        direction="down",
        k=1,
        nodes=tuple(range(10, 10 + n)),
        labels=tuple(f"q{i}" for i in range(n)),
        edges=tuple(edges),
        sign=tuple(draw(st.sampled_from([1, -1])) for _ in edges),
        weight=tuple(draw(SMALL_WEIGHTS) for _ in edges),
        measure=tuple(draw(SMALL_WEIGHTS) for _ in range(n)),
        degree_term=Fraction(1),
    )


# the full set under +q4 +q3 +q2 +q1 -q0 and {q3, q4} under +q4 -q3 both reach
# 2/3; a search over the states out, +, - per node that kept the first
# minimizer it met would return the full set, not the lower mask
TIED_MASKS = AuxiliaryGraph(
    direction="down",
    k=1,
    nodes=(10, 11, 12, 13, 14),
    labels=("q0", "q1", "q2", "q3", "q4"),
    edges=((0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)),
    sign=(1, -1, 1, 1, 1, -1),
    weight=tuple(Fraction(w) for w in (1, 2, 2, 1, 1, 1)),
    measure=tuple(Fraction(m) for m in (1, 1, 1, 2, 1)),
    degree_term=Fraction(1),
)


@settings(max_examples=300, deadline=None)
@given(random_aux())
@example(TIED_MASKS)
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


def test_budgeted_orientation_search():
    # K4, negative triangle on 1, 2, 3: three orientations tie at weight 4;
    # the Gray walk meets (+, -, +, +) first (rank 1 flips node 1)
    pairs_in = [
        (0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, -1), (1, 3, 1, -1), (2, 3, 1, -1),
    ]
    members = [0, 1, 2, 3]
    best, best_x = oracles.reference_signed_best_orientation(members, pairs_in)
    assert (best, best_x) == (4, [1, -1, 1, 1])
    assert _signed_best_orientation(members, pairs_in, best + 1) == (best, best_x)
    assert _signed_best_orientation(members, pairs_in, 10**6) == (best, best_x)
    assert _signed_best_orientation(members, pairs_in, best) is None
    assert _signed_best_orientation(members, pairs_in, 0) is None


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
    assert _signed_best_orientation(members, pairs_in, best + 1) == (best, best_x)
    assert _signed_best_orientation(members, pairs_in, best) is None
