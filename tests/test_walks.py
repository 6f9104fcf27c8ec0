from collections import Counter
from fractions import Fraction

import pytest

from hodgewalk.graded_cover import components, compute_path_weights, parse_cover_spec
from hodgewalk.walks import (
    convergence_rate,
    expected_path_length,
    simulate,
    stationary,
    total_variation,
    transition_conditional,
    transition_full,
    verify_walk,
)

import oracles
from conftest import COMPLEX_NAMES, FIXTURES, load_cover
from oracles import SplitMix64


def label_entry(P, cov, a, b):
    """Entry of a quotient transition matrix, whose rows follow the quotient nodes."""
    return P.body[cov.labels.index(a), cov.labels.index(b)]


def row_sums(P):
    return [Fraction(sum(row.values()), P.den) for row in P.rows]


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
    assert [list(row) for row in P.body] == [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(1, 2)],
    ]


@pytest.mark.parametrize("name", COMPLEX_NAMES)
@pytest.mark.parametrize("view", ["quotient", "cover"])
def test_row_stochastic(name, view, covers):
    P = transition_full(covers[name], view)
    assert all(s == 1 for s in row_sums(P))


@pytest.mark.parametrize("name", COMPLEX_NAMES + ["nonstrong"])
@pytest.mark.parametrize("view", ["quotient", "cover"])
def test_transition_full_matches_action_oracle(name, view):
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text(name)) if name == "nonstrong" else load_cover(name)
    want = oracles.one_step_transition(cov, view)
    assert (transition_full(cov, view).body == want).all()


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_flip_commutation(name, covers):
    cov = covers[name]
    P = transition_full(cov, "cover").body
    n = cov.n_quotient
    flip = lambda u: (u + n) % (2 * n)
    for u in range(2 * n):
        for v in range(2 * n):
            assert P[u, v] == P[flip(u), flip(v)]


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_detailed_balance_quotient(name, covers, weights):
    cov, pw = covers[name], weights[name]
    P = transition_full(cov, "quotient").body
    for a in range(cov.n_quotient):
        for b in range(cov.n_quotient):
            assert pw.through(a) * P[a, b] == pw.through(b) * P[b, a]


def test_cover_breaks_detailed_balance():
    cov = load_cover("single_edge")
    P = transition_full(cov, "cover").body
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
        # rows follow the quotient nodes, or the cover nodes
        P = transition_full(cov, view).body
        n = len(P)
        for comp in components(cov):
            pi = stationary(cov, comp, view)
            assert pi.total() == 1
            vec = [pi.weights.get(u, Fraction(0)) for u in range(n)]
            for b in range(n):
                assert sum(vec[a] * P[a, b] for a in range(n)) == vec[b]


def test_conditional_stationary_fixed_point_on_cover():
    cov = load_cover("tetrahedron")
    for k, direction in ((0, "up"), (1, "up"), (1, "down"), (2, "down")):
        P = transition_conditional(cov, k, direction, "cover").body
        comp = components(cov, k, direction)[0]
        pi = stationary(cov, comp, "cover")
        # rows follow the lifts of the dimension-k nodes
        vec = [pi.weights.get(u, Fraction(0)) for u in cov.lifts(k)]
        n = len(vec)
        for b in range(n):
            assert sum(vec[a] * P[a, b] for a in range(n)) == vec[b]
        # reversibility holds on the cover for conditional walks
        for a in range(n):
            for b in range(n):
                assert vec[a] * P[a, b] == vec[b] * P[b, a]


def test_expected_path_length_examples():
    assert expected_path_length(load_cover("tetrahedron"), range(15)) == 3
    assert expected_path_length(load_cover("single_vertex"), [0]) == 0
    assert expected_path_length(load_cover("single_edge"), range(3)) == 1


def test_conditional_quotient_tetrahedron_k0():
    cov = load_cover("tetrahedron")
    P = transition_conditional(cov, 0, "up", "quotient").body
    for i in range(4):
        for j in range(4):
            assert P[i, j] == (Fraction(1, 2) if i == j else Fraction(1, 6))


def test_conditional_leaf_row_is_identity():
    cov = load_cover("two_triangles_bridged")
    P = transition_conditional(cov, 1, "up", "quotient").body
    leaf_pos = [i for i, q in enumerate(cov.nodes_by_dim[1]) if cov.is_leaf(q)]
    assert leaf_pos
    for i in leaf_pos:
        row = list(P[i])
        assert row[i] == 1 and sum(row) == 1


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_conditional_matches_two_step_oracle(name, covers):
    cov = covers[name]
    P = transition_full(cov, "quotient").body
    Pc = transition_full(cov, "cover").body
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            lonely = cov.is_leaf if direction == "up" else cov.is_root
            nodes, want = oracles.two_step_conditional(P, cov.dims, k, direction, lonely)
            got = transition_conditional(cov, k, direction, "quotient")
            assert list(cov.nodes_by_dim[k]) == nodes
            assert (got.body == want).all()
            cnodes, cwant = oracles.two_step_conditional_cover(
                Pc, cov.dims, cov.n_quotient, k, direction, lonely
            )
            cgot = transition_conditional(cov, k, direction, "cover")
            assert list(cov.lifts(k)) == cnodes
            assert (cgot.body == cwant).all()


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_conditional_row_stochastic(name, covers):
    cov = covers[name]
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            for view in ("quotient", "cover"):
                P = transition_conditional(cov, k, direction, view)
                assert all(s == 1 for s in row_sums(P))


def test_conditional_requires_strong():
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text("nonstrong"))
    from hodgewalk.graded_cover import NonStrongGradingError

    with pytest.raises(NonStrongGradingError):
        transition_conditional(cov, 0, "up", "quotient")


def test_simulate_deterministic_and_errors():
    cov = load_cover("tetrahedron")
    d1, _ = simulate(cov, 0, 2000, seed=11)
    d2, _ = simulate(cov, 0, 2000, seed=11)
    d3, _ = simulate(cov, 0, 2000, seed=12)
    assert d1 == d2
    assert d1 != d3
    with pytest.raises(ValueError):
        simulate(cov, 99, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(cov, 0, 0, seed=0)


def test_simulate_steps_are_admissible():
    cov = load_cover("branched")
    P = transition_full(cov, "cover").body
    digest, _ = simulate(cov, 0, 3000, seed=5)
    states, _ = oracles.reference_walk(cov, compute_path_weights(cov), 0, 3000, 5)
    # the digest ties the oracle's states to the simulated walk
    assert oracles.states_digest(states) == digest
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
            digest, emp = simulate(cov, start, 3000, seed)
            states, counts = oracles.reference_walk(cov, pw, start, 3000, seed)
            assert digest == oracles.states_digest(states)
            assert emp == {u: Fraction(c, 3001) for u, c in enumerate(counts) if c}


def test_simulate_digest_ignores_block_size(monkeypatch):
    """At block sizes 1, 2, 3 and 64, and step counts around the block size,
    the walk equals the per-word reference: this covers a draw whose action
    word ends one block and whose draw word starts the next, and the
    surplus states of the last block."""
    from hodgewalk import rng

    cov = load_cover("branched")
    pw = compute_path_weights(cov)
    for block in (1, 2, 3, 64):
        monkeypatch.setattr(rng, "BLOCK", block)
        for steps in sorted({1, block - 1, block, block + 1, 3 * block + 2} - {0}):
            digest, emp = simulate(cov, 0, steps, seed=9)
            states, counts = oracles.reference_walk(cov, pw, 0, steps, 9)
            assert digest == oracles.states_digest(states), (block, steps)
            assert emp == {u: Fraction(c, steps + 1) for u, c in enumerate(counts) if c}


def layered_spec(layers, wide):
    """Two nodes per layer, three in layer ``wide``, each node joined to
    every node of the next layer: LP and RP are products of layer widths."""
    width = [3 if i == wide else 2 for i in range(layers)]
    spec = [f"node n{i}_{j} {i}" for i in range(layers) for j in range(width[i])]
    spec += [
        f"edge n{i}_{a} n{i + 1}_{b} +1"
        for i in range(layers - 1) for a in range(width[i]) for b in range(width[i + 1])
    ]
    return "\n".join(spec)


def test_simulate_matches_reference_walk_under_rejection(monkeypatch):
    """64 layers with a wide middle one: the draw totals at both ends are
    3 * 2**62, whose rejection limit is the total itself, so about a quarter
    of their draw words are rejected.  Every total above ``TABLE_CAP`` is
    resolved by bisection, and no table of a total's size is built."""
    import tracemalloc

    from hodgewalk import rng, walks

    cov = parse_cover_spec(layered_spec(64, 32))
    pw = compute_path_weights(cov)
    n = cov.n_quotient
    top = 3 * 2**62
    assert max(pw.lp) == max(pw.rp) == rng.rejection_limit(top) == top
    assert walks.TABLE_CAP < top

    used = {"words": 0, "bits": 0, "draws": 0}
    next_word, next_bit, randbelow = (
        SplitMix64.next_word, SplitMix64.next_bit, SplitMix64.randbelow
    )

    def counted_word(self):
        used["words"] += 1
        return next_word(self)

    def counted_bit(self):
        used["bits"] += 1
        return next_bit(self)

    def counted_draw(self, m):
        used["draws"] += m > 1  # a draw below 1 takes no word
        return randbelow(self, m)

    monkeypatch.setattr(SplitMix64, "next_word", counted_word)
    monkeypatch.setattr(SplitMix64, "next_bit", counted_bit)
    monkeypatch.setattr(SplitMix64, "randbelow", counted_draw)
    simulate(cov, 0, 10, seed=0)  # warm the builder caches
    for seed in (0, 3, 2**64 - 1):
        for start in (0, 2 * n - 1):
            tracemalloc.start()
            try:
                digest, emp = simulate(cov, start, 3000, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one table of a total above 2**17 would take 1 MiB on its own
            assert peak < 1 << 20
            used.update(words=0, bits=0, draws=0)
            states, counts = oracles.reference_walk(cov, pw, start, 3000, seed)
            assert digest == oracles.states_digest(states)
            assert emp == {u: Fraction(c, 3001) for u, c in enumerate(counts) if c}
            # every word is an action bit, a coin flip, an accepted draw or a rejection
            rejected = used["words"] - used["bits"] - used["draws"]
            assert rejected > 0


def spy_on_blocks(monkeypatch):
    """Replace ``rng.blocks`` by a spy that passes the same blocks on and
    records each call's modulus and each block's kind and largest word."""
    from hodgewalk import rng

    real = rng.blocks
    seen = {"moduli": [], "kinds": Counter(), "largest": 0}

    def spy(seed, modulus=2**64):
        seen["moduli"].append(modulus)
        limit = rng.rejection_limit(modulus)
        for raw, block in zip(real(seed), real(seed, modulus)):
            seen["kinds"]["reduced" if max(raw) < limit else "raw"] += 1
            seen["largest"] = max(seen["largest"], *block)
            yield block

    monkeypatch.setattr(rng, "blocks", spy)
    return seen


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("layers", [63, 64])
def test_simulate_matches_reference_walk_on_reduced_and_raw_blocks(monkeypatch, block, layers):
    """The lcm of the draw totals is 3 * 2**62 (64 layers) or 3 * 2**61 (63),
    whose limit rejects a quarter of the words: with one to three words a
    block, both reduced and raw blocks occur, and the walk equals the
    per-word reference on either."""
    from hodgewalk import rng

    cov = parse_cover_spec(layered_spec(layers, layers // 2))
    pw = compute_path_weights(cov)
    monkeypatch.setattr(rng, "BLOCK", block)
    seen = spy_on_blocks(monkeypatch)
    for seed in (0, 5):
        digest, emp = simulate(cov, 0, 400, seed)
        states, counts = oracles.reference_walk(cov, pw, 0, 400, seed)
        assert digest == oracles.states_digest(states)
        assert emp == {u: Fraction(c, 401) for u, c in enumerate(counts) if c}
    assert set(seen["moduli"]) == {3 * 2 ** (layers - 2)}
    assert seen["kinds"]["reduced"] and seen["kinds"]["raw"]


def test_annulus_walk_reads_words_below_twelve(monkeypatch):
    """The annuli's draw totals are 2, 6 and 12: the walk on annulus 8x5
    reads its blocks modulo 12, every one of them reduced."""
    from hodgewalk import cover_from_complex, parse_complex

    from conftest import benchmark_input

    cov = cover_from_complex(parse_complex(benchmark_input("annulus_8x5")))
    seen = spy_on_blocks(monkeypatch)
    simulate(cov, 0, 20_000, seed=0)
    assert seen["moduli"] == [12]
    assert seen["kinds"]["reduced"] >= 2 and not seen["kinds"]["raw"]
    assert seen["largest"] < 12


def test_walk_sim_refuses_a_draw_above_64_bits(tmp_path):
    """70 layers: the draw totals reach 3 * 2**68, whose one-word rejection
    limit would reject every word.  The walk is refused before it starts,
    with one guard line and exit 2, instead of never returning."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hodgewalk

    spec = tmp_path / "deep.cover"
    spec.write_text(layered_spec(70, 35))
    env = {**os.environ, "PYTHONPATH": str(Path(hodgewalk.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "hodgewalk.cli", "walk-sim", str(spec), "--steps", "10"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("guard: ")


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
    P = transition_full(cov, "cover").body
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
    with pytest.raises(ValueError, match="not aperiodic on a coherent component"):
        convergence_rate(cov, 1)


def test_total_variation():
    p = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    q = {0: Fraction(1), 1: Fraction(0)}
    assert total_variation(p, q) == Fraction(1, 2)
    assert total_variation(p, p) == 0


@pytest.mark.parametrize("name", ["tetrahedron.cx", "branched.cx", "triangle_ring.cx",
                                  "nonstrong.cover"])
def test_verify_walk_is_the_cli_walk_section(name, capsys):
    """verify prints verify_walk's rows, in order, before any other row."""
    from hodgewalk.cli import fmt, load_input, run

    path = str(FIXTURES / name)
    report = verify_walk(load_input(path)[0])
    assert "path_count_oracle" in report
    assert run(["verify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [f"{row}\t{fmt(ok)}\t{detail}" for row, (ok, detail) in report.items()]
    assert lines[1:1 + len(report)] == expected
