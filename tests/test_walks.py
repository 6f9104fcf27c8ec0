from fractions import Fraction

import pytest

from hodgewalk.graded_cover import components, compute_path_weights, parse_cover_spec
from hodgewalk.walks import (
    CoherentComponentError,
    convergence_rate,
    expected_path_length,
    simulate,
    stationary,
    total_variation,
    transition_conditional,
    transition_full,
)

import oracles
from conftest import COMPLEX_NAMES, load_cover
from oracles import SplitMix64


def label_entry(P, cov, a, b):
    ia = list(cov.labels).index(a)
    ib = list(cov.labels).index(b)
    return P.entries[P.nodes.index(ia), P.nodes.index(ib)]


def test_transition_quotient_single_edge():
    cov = load_cover("single_edge")
    P = transition_full(cov, "quotient")
    assert label_entry(P, cov, "x0 x1", "x0") == Fraction(1, 4)
    assert label_entry(P, cov, "x0 x1", "x1") == Fraction(1, 4)
    assert label_entry(P, cov, "x0 x1", "x0 x1") == Fraction(1, 2)
    assert label_entry(P, cov, "x0", "x0") == Fraction(1, 2)
    assert label_entry(P, cov, "x0", "x0 x1") == Fraction(1, 2)


def test_transition_cover_isolated_pair():
    cov = load_cover("single_vertex")
    P = transition_full(cov, "cover")
    assert [list(row) for row in P.entries] == [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(1, 2)],
    ]


@pytest.mark.parametrize("name", COMPLEX_NAMES)
@pytest.mark.parametrize("view", ["quotient", "cover"])
def test_row_stochastic(name, view, covers):
    P = transition_full(covers[name], view)
    assert all(s == 1 for s in P.row_sums())


@pytest.mark.parametrize("name", COMPLEX_NAMES + ["nonstrong"])
@pytest.mark.parametrize("view", ["quotient", "cover"])
def test_transition_full_matches_action_oracle(name, view):
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text(name)) if name == "nonstrong" else load_cover(name)
    want = oracles.one_step_transition(cov, view)
    assert (transition_full(cov, view).entries == want).all()


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_flip_commutation(name, covers):
    cov = covers[name]
    P = transition_full(cov, "cover").entries
    n = cov.n_quotient
    flip = lambda u: (u + n) % (2 * n)
    for u in range(2 * n):
        for v in range(2 * n):
            assert P[u, v] == P[flip(u), flip(v)]


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_detailed_balance_quotient(name, covers, weights):
    cov, pw = covers[name], weights[name]
    P = transition_full(cov, "quotient").entries
    for a in range(cov.n_quotient):
        for b in range(cov.n_quotient):
            assert pw.through(a) * P[a, b] == pw.through(b) * P[b, a]


def test_cover_breaks_detailed_balance():
    cov = load_cover("single_edge")
    P = transition_full(cov, "cover").entries
    pi = stationary(cov, range(cov.n_quotient), "cover").weights
    violated = any(
        pi[a] * P[a, b] != pi[b] * P[b, a]
        for a in range(cov.n_cover)
        for b in range(cov.n_cover)
    )
    assert violated


def test_stationary_examples():
    edge = load_cover("single_edge")
    pi = stationary(edge, range(3), "quotient")
    by_label = {edge.labels[q]: v for q, v in pi.weights.items()}
    assert by_label == {"x0": Fraction(1, 4), "x1": Fraction(1, 4), "x0 x1": Fraction(1, 2)}
    assert pi.normalizer == 4

    tet = load_cover("tetrahedron")
    pi = stationary(tet, range(15), "quotient")
    by_dim = {tet.dims[q]: v for q, v in pi.weights.items()}
    assert by_dim == {
        0: Fraction(1, 16),
        1: Fraction(1, 24),
        2: Fraction(1, 16),
        3: Fraction(1, 4),
    }
    assert pi.normalizer == 96

    iso = load_cover("single_vertex")
    pic = stationary(iso, [0], "cover")
    assert pic.weights == {0: Fraction(1, 2), 1: Fraction(1, 2)}


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_stationary_fixed_point(name, covers):
    cov = covers[name]
    for view in ("quotient", "cover"):
        P = transition_full(cov, view)
        for comp in components(cov, "quotient"):
            pi = stationary(cov, comp, view)
            assert pi.total() == 1
            vec = [pi.weights.get(u, Fraction(0)) for u in P.nodes]
            for b in range(P.n):
                assert sum(vec[a] * P.entries[a, b] for a in range(P.n)) == vec[b]


def test_conditional_stationary_fixed_point_on_cover():
    cov = load_cover("tetrahedron")
    for k, direction in ((0, "up"), (1, "up"), (1, "down"), (2, "down")):
        P = transition_conditional(cov, k, direction, "cover")
        comp = components(cov, f"quotient-{direction}", k)[0]
        pi = stationary(cov, comp, "cover")
        vec = [pi.weights.get(u, Fraction(0)) for u in P.nodes]
        for b in range(P.n):
            assert sum(vec[a] * P.entries[a, b] for a in range(P.n)) == vec[b]
        # reversibility holds on the cover for conditional walks
        for a in range(P.n):
            for b in range(P.n):
                assert vec[a] * P.entries[a, b] == vec[b] * P.entries[b, a]


def test_expected_path_length_examples():
    assert expected_path_length(load_cover("tetrahedron"), range(15)) == 3
    assert expected_path_length(load_cover("single_vertex"), [0]) == 0
    assert expected_path_length(load_cover("single_edge"), range(3)) == 1


def test_conditional_quotient_tetrahedron_k0():
    cov = load_cover("tetrahedron")
    P = transition_conditional(cov, 0, "up", "quotient")
    for i in range(4):
        for j in range(4):
            assert P.entries[i, j] == (Fraction(1, 2) if i == j else Fraction(1, 6))


def test_conditional_leaf_row_is_identity():
    cov = load_cover("two_triangles_bridged")
    P = transition_conditional(cov, 1, "up", "quotient")
    leaf_pos = [i for i, q in enumerate(P.nodes) if cov.is_leaf(q)]
    assert leaf_pos
    for i in leaf_pos:
        row = list(P.entries[i])
        assert row[i] == 1 and sum(row) == 1


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_conditional_matches_two_step_oracle(name, covers):
    cov = covers[name]
    P = transition_full(cov, "quotient").entries
    Pc = transition_full(cov, "cover").entries
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            lonely = cov.is_leaf if direction == "up" else cov.is_root
            nodes, want = oracles.two_step_conditional(P, cov.dims, k, direction, lonely)
            got = transition_conditional(cov, k, direction, "quotient")
            assert list(got.nodes) == nodes
            assert (got.entries == want).all()
            cnodes, cwant = oracles.two_step_conditional_cover(
                Pc, cov.dims, cov.n_quotient, k, direction, lonely
            )
            cgot = transition_conditional(cov, k, direction, "cover")
            assert list(cgot.nodes) == cnodes
            assert (cgot.entries == cwant).all()


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_conditional_row_stochastic(name, covers):
    cov = covers[name]
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            for view in ("quotient", "cover"):
                P = transition_conditional(cov, k, direction, view)
                assert all(s == 1 for s in P.row_sums())


def test_conditional_requires_strong():
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text("nonstrong"))
    from hodgewalk.graded_cover import NonStrongGradingError

    with pytest.raises(NonStrongGradingError):
        transition_conditional(cov, 0, "up", "quotient")


def test_simulate_deterministic_and_errors():
    cov = load_cover("tetrahedron")
    t1, _ = simulate(cov, 0, 2000, seed=11)
    t2, _ = simulate(cov, 0, 2000, seed=11)
    t3, _ = simulate(cov, 0, 2000, seed=12)
    assert t1.digest == t2.digest
    assert t1.digest != t3.digest
    with pytest.raises(ValueError):
        simulate(cov, 99, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(cov, 0, 0, seed=0)


def test_simulate_steps_are_admissible():
    cov = load_cover("branched")
    P = transition_full(cov, "cover").entries
    trace, _ = simulate(cov, 0, 3000, seed=5)
    states, _ = oracles.reference_walk(cov, compute_path_weights(cov), 0, 3000, 5)
    # the digest ties the oracle's states to the simulated walk
    assert oracles.states_digest(states) == trace.digest
    for a, b in zip(states, states[1:]):
        assert P[a, b] > 0


@pytest.mark.parametrize("name", COMPLEX_NAMES + ["nonstrong"])
def test_simulate_matches_reference_walk(name):
    """Counts and digest equal the per-word reference loop's, bit for bit."""
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text(name)) if name == "nonstrong" else load_cover(name)
    pw = compute_path_weights(cov)
    n = cov.n_quotient
    for seed in (0, 3, 7, 2**64 - 1):
        for start in (0, 2 * n - 1):
            trace, emp = simulate(cov, start, 3000, seed)
            states, counts = oracles.reference_walk(cov, pw, start, 3000, seed)
            assert trace.digest == oracles.states_digest(states)
            assert emp == {u: Fraction(c, 3001) for u, c in enumerate(counts) if c}


def test_simulate_digest_ignores_block_size(monkeypatch):
    from hodgewalk import rng

    cov = load_cover("branched")
    want, emp = simulate(cov, 0, 500, seed=9)
    for block in (1, 3, 64):
        monkeypatch.setattr(rng, "BLOCK", block)
        got, got_emp = simulate(cov, 0, 500, seed=9)
        assert got.digest == want.digest and got_emp == emp


def test_simulate_memory_does_not_grow_with_steps():
    """Ten times the steps: the peak stays within a fixed slack."""
    import tracemalloc

    cov = load_cover("tetrahedron")

    def peak(steps):
        tracemalloc.start()
        try:
            simulate(cov, 0, steps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate(cov, 0, 10, seed=1)  # warm the builder caches
    assert peak(2 * 10**5) <= peak(2 * 10**4) + 256 * 1024


def test_simulate_isolated_pair_converges():
    cov = load_cover("single_vertex")
    _, emp = simulate(cov, 0, 10**5, seed=3)
    assert abs(float(emp[0]) - 0.5) < 0.02
    assert abs(float(emp[1]) - 0.5) < 0.02


def test_one_step_frequencies_match_path_sampling():
    """Monte Carlo one-step frequencies from the uniform-path description
    match the transition matrix within 3 sigma."""
    cov = load_cover("branched")
    pw = compute_path_weights(cov)
    P = transition_full(cov, "cover").entries
    rng = SplitMix64(2024)
    n_trials = 4000
    for u in (0, 9, cov.n_quotient + 2):
        counts: dict[int, int] = {}
        for _ in range(n_trials):
            v = oracles.sample_step_by_paths(cov, pw, u, rng)
            counts[v] = counts.get(v, 0) + 1
        for v in range(cov.n_cover):
            p = float(P[u, v])
            sigma = (p * (1 - p) / n_trials) ** 0.5
            assert abs(counts.get(v, 0) / n_trials - p) <= max(3 * sigma, 1e-12), (u, v)


def test_convergence_rate_tetrahedron():
    cov = load_cover("tetrahedron")
    assert convergence_rate(cov, 1) == pytest.approx(2 / 3, abs=1e-9)
    assert convergence_rate(cov, 2) == pytest.approx(2 / 3, abs=1e-9)


def test_convergence_rate_coherent_raises():
    cov = load_cover("cycle6")
    with pytest.raises(CoherentComponentError):
        convergence_rate(cov, 1)


def test_total_variation():
    p = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    q = {0: Fraction(1), 1: Fraction(0)}
    assert total_variation(p, q) == Fraction(1, 2)
    assert total_variation(p, p) == 0
