from fractions import Fraction
from math import factorial

import pytest

from hodgewalk.graded_cover import (
    CoverSpecError,
    NonStrongGradingError,
    component_correspondence,
    components,
    compute_path_weights,
    cover_from_complex,
    detect_coherent,
    find_partition,
    leaves_and_roots,
    parse_cover_spec,
)

import oracles
from conftest import COMPLEX_NAMES, load_complex, load_cover, random_complex

TABLE_LP = {
    "x3 x4 x5 x6": 1,
    "x0 x1 x2": 1, "x1 x2 x3": 1, "x3 x4 x5": 1, "x3 x4 x6": 1,
    "x3 x5 x6": 1, "x4 x5 x6": 1,
    "x0 x1": 1, "x0 x2": 1, "x1 x2": 2, "x1 x3": 1, "x2 x3": 1, "x2 x5": 1,
    "x3 x4": 2, "x3 x5": 2, "x3 x6": 2, "x4 x5": 2, "x4 x6": 2, "x5 x6": 2,
    "x0": 2, "x1": 4, "x2": 5, "x3": 8, "x4": 6, "x5": 7, "x6": 6,
}


def test_cover_from_tetrahedron_counts():
    cov = load_cover("tetrahedron")
    assert cov.n_quotient == 15
    assert len(cov.sign_ref) == 28
    assert cov.strong


def test_cover_single_vertex():
    cov = load_cover("single_vertex")
    assert cov.n_quotient == 1
    assert not cov.sign_ref


def test_cover_sign_compatibility():
    cov = load_cover("branched")
    n = cov.n_quotient
    for (c, p), s in cov.sign_ref.items():
        assert cov.cover_sign(c, p) == s
        assert cov.cover_sign(c + n, p) == -s
        assert cov.cover_sign(c, p + n) == -s
        assert cov.cover_sign(c + n, p + n) == s


def test_parse_cover_spec_strong_flag():
    cov = parse_cover_spec("node a 0\nnode b 1\nedge a b +1")
    assert cov.strong
    assert cov.sign_ref[(0, 1)] == 1
    skip = parse_cover_spec("node a 0\nnode b 2\nedge a b -1")
    assert not skip.strong
    with pytest.raises(NonStrongGradingError):
        skip.require_strong()


def test_parse_cover_spec_errors():
    with pytest.raises(CoverSpecError):
        parse_cover_spec("node a 1\nnode b 1\nedge a b +1")
    with pytest.raises(CoverSpecError):
        parse_cover_spec("node a 0\nedge a z +1")
    with pytest.raises(CoverSpecError):
        parse_cover_spec("node a 0\nnode b 1\nedge a b 2")
    with pytest.raises(CoverSpecError):
        parse_cover_spec("node a 0\nnode a 1")
    with pytest.raises(CoverSpecError):
        parse_cover_spec("vertex a 0")


def test_lp_branched_matches_reference_values():
    cx = load_complex("branched")
    cov = cover_from_complex(cx)
    pw = compute_path_weights(cov)
    assert len(TABLE_LP) == 26
    for q in range(cov.n_quotient):
        assert pw.lp[q] == TABLE_LP[cov.labels[q]], cov.labels[q]


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_rp_is_factorial_on_simplicial(name, covers, weights):
    cov, pw = covers[name], weights[name]
    for q in range(cov.n_quotient):
        assert pw.rp[q] == factorial(cov.dims[q] + 1)


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_lp_leaf_sum_formula(name, covers, weights):
    cov, pw = covers[name], weights[name]
    leaves, _ = leaves_and_roots(cov)
    for q in range(cov.n_quotient):
        face = cov.faces[q]
        total = sum(
            factorial(cov.faces[l].dimension - face.dimension)
            for l in leaves
            if set(face.vertices) <= set(cov.faces[l].vertices)
        )
        assert pw.lp[q] == total


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_path_count_oracle(name, covers, weights):
    cov, pw = covers[name], weights[name]
    paths = oracles.root_to_leaf_paths(cov)
    assert len(paths) <= 10**4
    for q in range(cov.n_quotient):
        assert pw.lp[q] == len(oracles.ascending_paths(cov, q))
        assert pw.rp[q] == len(oracles.descending_paths(cov, q))
        assert pw.through(q) == sum(1 for p in paths if q in p)


def test_path_count_oracle_nonstrong():
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text("nonstrong"))
    pw = compute_path_weights(cov)
    for q in range(cov.n_quotient):
        assert pw.lp[q] == len(oracles.ascending_paths(cov, q))
        assert pw.rp[q] == len(oracles.descending_paths(cov, q))


def test_leaves_and_roots_examples():
    tet = load_cover("tetrahedron")
    leaves, roots = leaves_and_roots(tet)
    assert {tet.labels[q] for q in leaves} == {"x0 x1 x2 x3"}
    assert {tet.labels[q] for q in roots} == {"x0", "x1", "x2", "x3"}
    br = load_cover("branched")
    _, roots = leaves_and_roots(br)
    assert {br.labels[q] for q in roots} == {f"x{i}" for i in range(7)}
    single = load_cover("single_vertex")
    leaves, roots = leaves_and_roots(single)
    assert leaves == roots == frozenset({0})
    assert single.is_isolated(0)


def test_components_quotient_and_cover():
    single = load_cover("single_vertex")
    assert components(single, "quotient") == ((0,),)
    tet = load_cover("tetrahedron")
    assert len(components(tet, "quotient")) == 1


def test_components_bridged_up_dim1():
    cov = load_cover("two_triangles_bridged")
    comps = components(cov, "quotient-up", 1)
    assert len(comps) == 4
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 3, 3]
    singles = {cov.labels[c[0]] for c in comps if len(c) == 1}
    assert singles == {"x1 x3", "x2 x5"}


def test_components_tetrahedron_down_dim2():
    cov = load_cover("tetrahedron")
    comps = components(cov, "quotient-down", 2)
    assert len(comps) == 1 and len(comps[0]) == 4


def test_components_require_strong_and_k():
    from conftest import fixture_text

    cov = parse_cover_spec(fixture_text("nonstrong"))
    with pytest.raises(NonStrongGradingError):
        components(cov, "quotient-up", 0)
    tet = load_cover("tetrahedron")
    with pytest.raises(ValueError):
        components(tet, "quotient-up")
    with pytest.raises(ValueError):
        components(tet, "sideways")
    # cover components are the lifts of quotient components, not a kind of their own
    with pytest.raises(ValueError):
        components(tet, "cover")


def test_component_correspondence_tetrahedron():
    cov = load_cover("tetrahedron")
    pairs2 = component_correspondence(cov, 2)
    assert len(pairs2) == 1
    down, up = pairs2[0]
    assert len(down) == 4 and len(up) == 6
    pairs1 = component_correspondence(cov, 1)
    down, up = pairs1[0]
    assert len(down) == 6 and len(up) == 4


def test_component_correspondence_excludes_roots():
    cov = load_cover("single_edge")
    # dim-0 down-components are the two vertex roots: no pairs at k=0 exist,
    # and at k=1 the edge pairs with the vertices
    pairs = component_correspondence(cov, 1)
    assert len(pairs) == 1
    down, up = pairs[0]
    assert [cov.labels[q] for q in down] == ["x0 x1"]
    assert {cov.labels[q] for q in up} == {"x0", "x1"}


@pytest.mark.parametrize(
    "name,k,direction,expected",
    [
        ("cycle6", 1, "down", True),
        ("cycle6", 0, "up", True),
        ("cycle5", 1, "down", False),
        ("tetrahedron", 2, "down", False),
        ("triangle_ring", 2, "down", True),
    ],
)
def test_detect_coherent_examples(name, k, direction, expected, covers):
    cov = covers[name]
    comps = [
        c
        for c in components(cov, f"quotient-{direction}", k)
        if len(c) > 1
    ]
    assert len(comps) == 1
    witness = detect_coherent(cov, comps[0], direction)
    assert (witness is not None) == expected
    if witness is not None:
        _assert_witness_valid(cov, comps[0], direction, witness)


def _assert_witness_valid(cov, comp, direction, witness):
    for i, a in enumerate(comp):
        for b in comp[i + 1:]:
            mids = (
                cov.shared_parents(a, b) if direction == "up" else cov.shared_children(a, b)
            )
            for m in mids:
                if direction == "up":
                    sa = cov.sign_ref[(a, m)] * (-1 if witness[a] else 1)
                    sb = cov.sign_ref[(b, m)] * (-1 if witness[b] else 1)
                else:
                    sa = cov.sign_ref[(m, a)] * (-1 if witness[a] else 1)
                    sb = cov.sign_ref[(m, b)] * (-1 if witness[b] else 1)
                assert sa == sb


def test_detect_coherent_singletons():
    cov = load_cover("two_triangles_bridged")
    for comp in components(cov, "quotient-up", 1):
        if len(comp) == 1:
            # bridge edges are leaves: not coherent by definition
            assert detect_coherent(cov, comp, "up") is None
    # a single triangle is a non-root singleton down-component in dim 2
    for comp in components(cov, "quotient-down", 2):
        assert len(comp) == 1
        assert detect_coherent(cov, comp, "down") == {comp[0]: False}


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_detect_coherent_matches_enumeration(name, covers):
    cov = covers[name]
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            for comp in components(cov, f"quotient-{direction}", k):
                if len(comp) > 16:
                    continue
                got = detect_coherent(cov, comp, direction) is not None
                want = oracles.coherence_by_enumeration(cov, comp, direction)
                assert got == want, (name, k, direction, comp)


def test_find_partition_examples(covers):
    c6 = covers["cycle6"]
    comp = components(c6, "quotient-down", 1)[0]
    classes = find_partition(c6, comp)
    assert classes == [["x0", "x2", "x4"], ["x1", "x3", "x5"]]
    ring = covers["triangle_ring"]
    comp = components(ring, "quotient-down", 2)[0]
    assert find_partition(ring, comp) is None
    tet = covers["tetrahedron"]
    comp = components(tet, "quotient-down", 3)[0]
    assert find_partition(tet, comp) == [["x0"], ["x1"], ["x2"], ["x3"]]


def test_find_partition_odd_cycle_none(covers):
    c5 = covers["cycle5"]
    comp = components(c5, "quotient-down", 1)[0]
    assert find_partition(c5, comp) is None


@pytest.mark.parametrize("seed", range(10))
def test_partition_implies_coherent(seed):
    cx = random_complex(seed + 100)
    cov = cover_from_complex(cx)
    for k in sorted(cov.nodes_by_dim):
        for comp in components(cov, "quotient-down", k):
            classes = find_partition(cov, comp)
            if classes is not None and not (len(comp) == 1 and cov.is_root(comp[0])):
                assert detect_coherent(cov, comp, "down") is not None


@pytest.mark.parametrize("name", COMPLEX_NAMES)
def test_correspondence_preserves_coherence(name, covers):
    """Paired down/up components are coherent together or not at all."""
    cov = covers[name]
    for k in range(1, max(cov.dims) + 1):
        for down_comp, up_comp in component_correspondence(cov, k):
            down_coherent = detect_coherent(cov, down_comp, "down") is not None
            up_coherent = detect_coherent(cov, up_comp, "up") is not None
            assert down_coherent == up_coherent, (name, k)


def random_cover_spec(seed):
    """Random graded signed cover spec, not necessarily strong."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 9)
    dims = [rng.randint(0, 3) for _ in range(n)]
    lines = [f"node w{i} {dims[i]}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if dims[i] < dims[j] and rng.random() < 0.5:
                sign = rng.choice(("+1", "-1"))
                lines.append(f"edge w{i} w{j} {sign}")
    return parse_cover_spec("\n".join(lines))


@pytest.mark.parametrize("seed", range(12))
def test_random_cover_walk_invariants(seed):
    from hodgewalk.walks import stationary, transition_full

    cov = random_cover_spec(seed)
    pw = compute_path_weights(cov)
    for q in range(cov.n_quotient):
        assert pw.lp[q] == len(oracles.ascending_paths(cov, q))
        assert pw.rp[q] == len(oracles.descending_paths(cov, q))
    P = transition_full(cov, "quotient")
    Pc = transition_full(cov, "cover")
    assert (P.entries == oracles.one_step_transition(cov, "quotient")).all()
    assert (Pc.entries == oracles.one_step_transition(cov, "cover")).all()
    assert all(s == 1 for s in P.row_sums())
    assert all(s == 1 for s in Pc.row_sums())
    for a in range(cov.n_quotient):
        for b in range(cov.n_quotient):
            assert pw.through(a) * P.entries[a, b] == pw.through(b) * P.entries[b, a]
    for comp in components(cov, "quotient"):
        pi = stationary(cov, comp, "quotient")
        vec = [pi.weights.get(q, Fraction(0)) for q in range(cov.n_quotient)]
        for b in range(cov.n_quotient):
            assert sum(vec[a] * P.entries[a, b] for a in range(cov.n_quotient)) == vec[b]


@pytest.mark.parametrize("seed", range(12))
def test_random_cover_split_exact(seed):
    from hodgewalk.operators import verify_split

    cov = random_cover_spec(seed + 40)
    report = verify_split(cov)
    assert all(ok for ok, _ in report.values()), {
        k: v for k, v in report.items() if not v[0]
    }


def random_strong_cover_spec(seed):
    """Random strongly graded cover spec: every edge goes from dimension d to d+1.

    Dense edges make two nodes share several mid-nodes, which simplicial
    fixtures never do.
    """
    import random

    rng = random.Random(seed)
    n = rng.randint(4, 8)
    dims = [rng.randint(0, 2) for _ in range(n)]
    lines = [f"node s{i} {dims[i]}" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if dims[j] == dims[i] + 1 and rng.random() < 0.8:
                lines.append(f"edge s{i} s{j} {rng.choice(('+1', '-1'))}")
    return parse_cover_spec("\n".join(lines))


STRONG_SEEDS = range(24)


def test_random_strong_covers_share_several_mid_nodes():
    multi = 0
    for seed in STRONG_SEEDS:
        cov = random_strong_cover_spec(seed)
        assert cov.strong
        for a in range(cov.n_quotient):
            for b in range(a + 1, cov.n_quotient):
                multi += len(cov.shared_parents(a, b)) > 1
                multi += len(cov.shared_children(a, b)) > 1
    assert multi >= 20


@pytest.mark.parametrize("seed", STRONG_SEEDS)
def test_random_strong_cover_properties(seed):
    from hodgewalk.operators import verify_split
    from hodgewalk.walks import transition_conditional

    cov = random_strong_cover_spec(seed)
    report = verify_split(cov)
    assert all(ok for ok, _ in report.values()), {
        k: v for k, v in report.items() if not v[0]
    }
    P = oracles.one_step_transition(cov, "quotient")
    Pc = oracles.one_step_transition(cov, "cover")
    for k in sorted(cov.nodes_by_dim):
        for direction in ("up", "down"):
            for comp in components(cov, f"quotient-{direction}", k):
                got = detect_coherent(cov, comp, direction) is not None
                assert got == oracles.coherence_by_enumeration(cov, comp, direction)
            lonely = cov.is_leaf if direction == "up" else cov.is_root
            nodes, want = oracles.two_step_conditional(P, cov.dims, k, direction, lonely)
            got = transition_conditional(cov, k, direction, "quotient")
            assert list(got.nodes) == nodes and (got.entries == want).all()
            cnodes, cwant = oracles.two_step_conditional_cover(
                Pc, cov.dims, cov.n_quotient, k, direction, lonely
            )
            cgot = transition_conditional(cov, k, direction, "cover")
            assert list(cgot.nodes) == cnodes and (cgot.entries == cwant).all()
