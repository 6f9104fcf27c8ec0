"""Auxiliary graphs, exact Cheeger constants, and combined bounds.

The quotient constant minimizes cut-weight over measure across all proper
nonempty subsets; the signed constant additionally minimizes over
orientations of the chosen subset (the subset may be everything).  Both
searches are exact: comparisons are done by integer cross-multiplication
after clearing denominators once.

Each constant comes from one depth-first branch-and-bound over node
states (out/in, or out/+/- for the signed constant) on an explicit stack.
The witness is the lowest mask attaining the minimum and, for the signed
constant, the lowest-Gray-rank orientation of that subset.  A search that
would visit more than SEARCH_BUDGET nodes raises BruteForceGuardError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import ScaledMatrix, rat_zeros
from .graded_cover import (
    GradedSignedDoubleCover,
    component_correspondence,
    compute_path_weights,
    conditional_triples,
    detect_coherent,
    memoized,
    propagate_signs,
)
from .operators import SymmetricOperator, build_conditional, eigen

# Search nodes one cut search may visit before it gives up.
SEARCH_BUDGET = 4_000_000


class BruteForceGuardError(ValueError):
    """Raised when a cut search would visit more than SEARCH_BUDGET nodes."""


class SharedMidNodeError(ValueError):
    """Raised when two faces share several mid-nodes, so the auxiliary
    edge weight (defined through the unique shared face) is undefined."""


class ChildCountError(ValueError):
    """Raised when a node of a dimension-k down-component has other than
    k+1 children, the count the combined bounds' constants assume."""


@dataclass(frozen=True)
class AuxiliaryGraph:
    direction: str
    k: int
    nodes: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    sign: tuple[int, ...]
    weight: tuple[Fraction, ...]
    measure: tuple[Fraction, ...]
    degree_term: Fraction

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CheegerReport:
    up_component: tuple[int, ...]
    down_component: tuple[int, ...]
    d_down: Fraction
    coherent: bool
    h_quotient_up: Fraction | None
    h_quotient_down: Fraction | None
    h_signed_up: Fraction | None
    h_signed_down: Fraction | None
    gap_quotient: float | None
    gap_signed: float | None
    lower_quotient: Fraction | None
    upper_quotient: Fraction | None
    lower_signed: Fraction | None
    upper_signed: Fraction | None
    sandwich_quotient_ok: bool | None
    sandwich_signed_ok: bool | None
    rate_lower: Fraction | None
    rate_upper: Fraction | None


@memoized
def build_aux(cover: GradedSignedDoubleCover, component, direction: str) -> AuxiliaryGraph:
    """Auxiliary weighted signed graph of one up- or down-component.

    Up: nodes weighted by LP, edges by LP of the shared coface, signs by
    the product of the two incidence signs.  Down: edge weight
    LP(a) * LP(b) / LP(shared face).  The degree term is k+1 for the up
    case and k+1 - min LP(s) * sum 1/LP(child) for the down case.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    pw = compute_path_weights(cover)
    comp = tuple(sorted(component))
    k = cover.dims[comp[0]]
    if any(cover.dims[q] != k for q in comp):
        raise ValueError("component mixes dimensions")
    if direction == "up":
        if len(comp) == 1 and cover.is_leaf(comp[0]):
            raise ValueError("up auxiliary graph requires a non-leaf component")
    else:
        if len(comp) < 2:
            raise ValueError("down auxiliary graph requires at least two faces")
    pos = {q: i for i, q in enumerate(comp)}
    mid: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b, v, s in conditional_triples(cover, k, direction, comp):
        if a < b and a in pos and b in pos:
            if (pos[a], pos[b]) in mid:
                raise SharedMidNodeError(
                    f"auxiliary weights need a unique shared mid-node: {cover.labels[a]} and"
                    f" {cover.labels[b]} share several"
                )
            mid[(pos[a], pos[b])] = (v, s)
    edges = sorted(mid)
    signs = [mid[e][1] for e in edges]
    if direction == "up":
        weights = [Fraction(pw.lp[mid[e][0]]) for e in edges]
    else:
        weights = [
            Fraction(pw.lp[comp[i]] * pw.lp[comp[j]], pw.lp[mid[(i, j)][0]]) for i, j in edges
        ]
    measure = tuple(Fraction(pw.lp[q]) for q in comp)
    degree_term = Fraction(k + 1) if direction == "up" else _down_degree_term(cover, comp, k)
    return AuxiliaryGraph(
        direction,
        k,
        comp,
        tuple(cover.labels[q] for q in comp),
        tuple(edges),
        tuple(signs),
        tuple(weights),
        measure,
        degree_term,
    )


def _down_degree_term(cover: GradedSignedDoubleCover, comp, k: int) -> Fraction:
    """k+1 - min LP(q) * sum 1/LP(child) over the dimension-k nodes q of comp."""
    pw = compute_path_weights(cover)
    return Fraction(k + 1) - min(
        pw.lp[q] * sum(Fraction(1, pw.lp[t]) for t in cover.children[q]) for q in comp
    )


def aux_laplacian(aux: AuxiliaryGraph, flavor: str) -> SymmetricOperator:
    """Measure-normalized weighted Laplacian of the auxiliary graph."""
    if flavor not in ("quotient", "signed"):
        raise ValueError("flavor must be 'quotient' or 'signed'")
    n = aux.n
    body = rat_zeros(n, n)
    for (i, j), s, w in zip(aux.edges, aux.sign, aux.weight):
        body[i, i] += w
        body[j, j] += w
        off = -w if flavor == "quotient" else -s * w
        body[i, j] += off
        body[j, i] += off
    inv_measure = [Fraction(1) / m for m in aux.measure]
    sm = ScaledMatrix(inv_measure, inv_measure, body)
    return SymmetricOperator(f"aux-{aux.direction}-{aux.k}-{flavor}", aux.labels, aux.nodes, sm)


def _integerized(aux: AuxiliaryGraph):
    wden = lcm(*(w.denominator for w in aux.weight)) if aux.weight else 1
    mden = lcm(*(m.denominator for m in aux.measure))
    wints = [int(w * wden) for w in aux.weight]
    mints = [int(m * mden) for m in aux.measure]
    return wints, wden, mints, mden


def _over_budget() -> BruteForceGuardError:
    return BruteForceGuardError(f"cut search exceeds its budget of {SEARCH_BUDGET} search nodes")


def _search_graph(aux: AuxiliaryGraph):
    """What both searches read: integer weights and measures, each node's
    edges to higher-index nodes as (other end, weight, 1 if the sign is
    negative else 0), and ``below[i]``, the measure of the nodes under i."""
    wints, wden, mints, mden = _integerized(aux)
    above: list[list[tuple[int, int, int]]] = [[] for _ in range(aux.n)]
    for (i, j), w, s in zip(aux.edges, wints, aux.sign):
        above[min(i, j)].append((max(i, j), w, int(s == -1)))
    below = [0]
    for m in mints:
        below.append(below[-1] + m)
    return wints, wden, mints, mden, above, below


def cheeger_quotient(aux: AuxiliaryGraph):
    """Exact quotient Cheeger constant with a witness subset.

    Minimizes cut/min(mu(S), mu(V-S)) over the proper nonempty subsets S;
    ties resolve to the lowest bitmask.  A depth-first branch-and-bound
    decides nodes from the highest index down, out before in, so leaves
    come in ascending mask order and only a strict improvement replaces
    the incumbent.  The highest node stays out: a subset and its
    complement have the same ratio, and the one without that node has the
    lower mask.  A branch is cut when its cut so far over the largest
    measure it could still reach is not below the incumbent.
    """
    n = aux.n
    if n < 2:
        raise ValueError("quotient Cheeger constant needs at least two nodes")
    _wints, wden, mints, mden, above, below = _search_graph(aux)
    above_w = [sum(w for _j, w, _s in es) for es in above]
    total_m = below[n]
    budget, visited = SEARCH_BUDGET, 0
    best_num = best_den = best_mask = None
    stack = [(n - 2, 0, 0, 0)]  # (next node, in-mask, cut, measure in)
    while stack:
        i, mask, cut, mu = stack.pop()
        visited += 1
        if visited > budget:
            raise _over_budget()
        if best_num is not None and cut * best_den >= best_num * min(
            mu + below[i + 1], total_m - mu
        ):
            continue
        if i < 0:
            if mask:
                best_num, best_den, best_mask = cut, min(mu, total_m - mu), mask
            continue
        into = 0
        for j, w, _s in above[i]:
            if mask >> j & 1:
                into += w
        # pushed in reverse, so "out" pops first
        stack.append((i - 1, mask | 1 << i, cut + above_w[i] - into, mu + mints[i]))
        stack.append((i - 1, mask, cut + into, mu))
    h = Fraction(best_num, wden) / Fraction(best_den, mden)
    witness = tuple(aux.nodes[i] for i in range(n) if (best_mask >> i) & 1)
    return h, witness


def _signed_best_orientation(members, pairs_in, limit):
    """Least within-subset negative weight below ``limit``, with witness.

    Orientations fix one node per connected piece of the induced graph
    (switching equivalence); the negative pair weight counts both ordered
    pairs, hence the factor 2.  The remaining free nodes are decided by a
    depth-first branch-and-bound over the Gray-code rank t of the
    orientation (node ``free[b]`` is flipped when bit b of t ^ (t >> 1) is
    set), most significant bit first and 0 before 1, so leaves come in
    ascending t.  An edge's frustrated weight is added once both ends are
    decided, and a branch whose partial weight is not below the current
    limit is cut.  Each leaf that gets through lowers the limit, so the
    result is the lowest-rank minimizer.  Returns (neg, x), or None when
    no orientation has neg < limit.
    """
    pieces = propagate_signs(range(len(members)), [(i, j, 1) for (i, j, _w, _s) in pairs_in])[1]
    free = [x for piece in pieces for x in piece[1:]]
    # an edge is decided at the level of its later-decided end; piece roots
    # are fixed at +1 from the start (and no edge joins two of them)
    top = len(free)
    rank = {node: b for b, node in enumerate(free)}
    edges_at: list[list[tuple[int, int, int]]] = [[] for _ in free]
    for i, j, w, s in pairs_in:
        bi, bj = rank.get(i, top), rank.get(j, top)
        if bi < bj:
            edges_at[bi].append((j, 2 * w, s))
        else:
            edges_at[bj].append((i, 2 * w, s))
    level_total = [sum(w2 for _o, w2, _s in es) for es in edges_at]
    x = [1] * len(members)
    best_neg, best_x = limit, None
    budget, visited = SEARCH_BUDGET, 0
    # (level just decided, its sign, its bit of t, partial weight)
    stack = [(top, 1, 0, 0)]
    while stack:
        b, v, t_above, partial = stack.pop()
        visited += 1
        if visited > budget:
            raise _over_budget()
        if partial >= best_neg:
            continue
        if b < top:
            x[free[b]] = v
        if b == 0:
            best_neg, best_x = partial, list(x)
            continue
        b -= 1
        # frustrated weight added by x = +1 (x_o * s == -1); x = -1 frustrates the rest
        plus = 0
        for o, w2, s in edges_at[b]:
            if x[o] != s:
                plus += w2
        minus = level_total[b] - plus
        # Gray bit b is t ^ t_above: x = +1 exactly when t equals t_above; t = 0 pops first
        for t in (1, 0):
            stack.append((b, 1, t, partial + plus) if t == t_above else (b, -1, t, partial + minus))
    if best_x is None:
        return None
    return best_neg, best_x


def cheeger_signed(aux: AuxiliaryGraph):
    """Exact signed Cheeger constant with a (subset, orientation) witness.

    The subset may be the whole node set; the orientation outside the
    subset is irrelevant.  Zero exactly when the component is coherent
    (beta = 0 forces the full set with a balanced orientation, which is
    checked directly by sign propagation).  Otherwise a depth-first
    branch-and-bound gives each node, from the highest index down, one of
    the states out, +, -; the highest node of the subset is always +
    (flipping every sign keeps the value).  The incumbent starts at a
    cheap upper bound, and a branch is cut when its weight so far over the
    largest measure it could still reach exceeds the incumbent, or ties it
    with no mask below the incumbent's left to reach.  The witness is the
    lowest-mask minimizer; its orientation is then searched again for the
    lowest Gray rank.
    """
    n = aux.n
    if n == 0:
        raise ValueError("empty auxiliary graph")
    x, _pieces, frustrated = propagate_signs(
        range(n), [(i, j, s) for (i, j), s in zip(aux.edges, aux.sign)]
    )
    if not frustrated:
        orientation = {aux.nodes[i]: (x[i] == -1) for i in range(n)}
        return Fraction(0), (tuple(aux.nodes), orientation)
    wints, wden, mints, mden, above, below = _search_graph(aux)
    degree = [0] * n
    for (i, j), w in zip(aux.edges, wints):
        degree[i] += w
        degree[j] += w
    # the upper bound: the full set under the propagated orientation, and
    # every singleton; no mask reaches 1 << n, so a leaf that only ties it
    # still replaces it
    best_num, best_den, best_mask = sum(2 * wints[e] for e in frustrated), below[n], 1 << n
    for i in range(n):
        if degree[i] * best_den < best_num * mints[i]:
            best_num, best_den = degree[i], mints[i]
    budget, visited = SEARCH_BUDGET, 0
    stack = [(n - 1, 0, 0, 0, 0)]  # (next node, in-mask, minus-mask, weight, measure in)
    while stack:
        i, mask, neg, partial, mu = stack.pop()
        visited += 1
        if visited > budget:
            raise _over_budget()
        # a branch that can at best tie holds no mask below its own
        lhs, rhs = partial * best_den, best_num * (mu + below[i + 1])
        if lhs > rhs or lhs == rhs and mask >= best_mask:
            continue
        if i < 0:
            if mask:
                best_num, best_den, best_mask = partial, mu, mask
            continue
        to_in = to_out = plus = minus = 0
        for j, w, s_neg in above[i]:
            if mask >> j & 1:
                to_in += w
                # x = +1 frustrates the edge when x_j * s == -1
                if (neg >> j ^ s_neg) & 1:
                    plus += w
                else:
                    minus += w
            else:
                to_out += w
        # pushed in reverse, so the states pop as out, +, -; the subset's
        # highest node is always +
        bit, mu_in = 1 << i, mu + mints[i]
        if mask:
            stack.append((i - 1, mask | bit, neg | bit, partial + to_out + 2 * minus, mu_in))
        stack.append((i - 1, mask | bit, neg, partial + to_out + 2 * plus, mu_in))
        stack.append((i - 1, mask, neg, partial + to_in, mu))
    members = [i for i in range(n) if (best_mask >> i) & 1]
    member_pos = {node: p for p, node in enumerate(members)}
    pairs_in = [
        (member_pos[i], member_pos[j], w, s)
        for (i, j), w, s in zip(aux.edges, wints, aux.sign)
        if (best_mask >> i) & (best_mask >> j) & 1
    ]
    cut = sum(w for (i, j), w in zip(aux.edges, wints) if (best_mask >> i ^ best_mask >> j) & 1)
    _neg, x = _signed_best_orientation(members, pairs_in, best_num - cut + 1)
    h = Fraction(best_num, wden) / Fraction(best_den, mden)
    witness_nodes = tuple(aux.nodes[i] for i in members)
    witness_orientation = {aux.nodes[i]: (xi == -1) for i, xi in zip(members, x)}
    return h, (witness_nodes, witness_orientation)


def side_bounds(h: Fraction, degree, k: int) -> tuple[Fraction, Fraction]:
    """One side of the combined Cheeger inequality,
    h^2 / (2 d (k+1)) <= gap <= 2h / (k+1), with degree term d: k on the
    up side and d_down on the down side.  Returns (lower, upper)."""
    return h * h / (2 * degree * (k + 1)), 2 * h / (k + 1)


def _combined_bounds(sides, k: int):
    """Largest lower and smallest upper side bound over the (h, degree)
    sides that have a constant and a positive degree; (None, None) if none do."""
    bounds = [side_bounds(h, d, k) for h, d in sides if h is not None and d > 0]
    if not bounds:
        return None, None
    return max(lower for lower, _ in bounds), min(upper for _, upper in bounds)


def _sandwiched(lower, gap, upper) -> bool | None:
    if gap is None or lower is None:
        return None
    return float(lower) <= gap + 1e-9 and gap <= float(upper) + 1e-9


def _restricted_gap(op: SymmetricOperator, flavor: str, comp) -> float:
    ev = eigen(op.restrict(comp).sm).eigenvalues
    if flavor == "quotient":
        return 1.0 - ev[-2]
    return 1.0 - (-ev[0])


def combined_report(cover: GradedSignedDoubleCover, k: int) -> list[CheegerReport]:
    """Combined Cheeger bounds for every paired component in dimensions k-1/k.

    Emits, per flavor, the largest lower and the smallest upper
    ``side_bounds`` of the up side (degree k) and the down side (degree
    d_down), with the shared spectral gap between them.  Coherent or
    singleton pairs get the all-zero signed triple (coherence is decided
    exactly, so no eigensolve backs that gap); a singleton down-component
    additionally drops the quotient down-constant.  Raises ChildCountError
    when a down-component node has other than k+1 children.
    """
    cover.require_strong()
    reports = []
    for down_comp, up_comp in component_correspondence(cover, k):
        for q in down_comp:
            if len(cover.children[q]) != k + 1:
                raise ChildCountError(
                    f"combined bounds need {k + 1} children per {k}-dimensional node:"
                    f" {cover.labels[q]} has {len(cover.children[q])}"
                )
        coherent = detect_coherent(cover, down_comp, "down") is not None
        aux_down = build_aux(cover, down_comp, "down") if len(down_comp) >= 2 else None
        d_down = _down_degree_term(cover, down_comp, k)
        h_q_up = h_q_down = h_s_up = h_s_down = None
        gap_q = gap_s = None
        if len(up_comp) >= 2:
            aux_up = build_aux(cover, up_comp, "up")
            h_q_up, _ = cheeger_quotient(aux_up)
            h_s_up, _ = cheeger_signed(aux_up)
            up_q = build_conditional(cover, k - 1, "up", "quotient")
            gap_q = _restricted_gap(up_q, "quotient", up_comp)
            if not coherent:
                up_s = build_conditional(cover, k - 1, "up", "signed")
                gap_s = _restricted_gap(up_s, "signed", up_comp)
        if aux_down is not None:
            h_q_down, _ = cheeger_quotient(aux_down)
            h_s_down, _ = cheeger_signed(aux_down)
        lower_q, upper_q = _combined_bounds(((h_q_up, k), (h_q_down, d_down)), k)
        if coherent:
            # coherence is decided exactly and pins the signed gap at 0
            lower_s = upper_s = Fraction(0)
            gap_s = 0.0
        else:
            lower_s, upper_s = _combined_bounds(((h_s_up, k), (h_s_down, d_down)), k)
        rate_lower = rate_upper = None
        if not coherent and h_q_up is not None and h_q_down is not None:
            rate_lower = 1 - max(upper_q, upper_s)
            rate_upper = 1 - min(lower_q, lower_s)
        reports.append(
            CheegerReport(
                up_component=up_comp,
                down_component=down_comp,
                d_down=d_down,
                coherent=coherent,
                h_quotient_up=h_q_up,
                h_quotient_down=h_q_down,
                h_signed_up=h_s_up,
                h_signed_down=h_s_down,
                gap_quotient=gap_q,
                gap_signed=gap_s,
                lower_quotient=lower_q,
                upper_quotient=upper_q,
                lower_signed=lower_s,
                upper_signed=upper_s,
                sandwich_quotient_ok=_sandwiched(lower_q, gap_q, upper_q),
                sandwich_signed_ok=_sandwiched(lower_s, gap_s, upper_s),
                rate_lower=rate_lower,
                rate_upper=rate_upper,
            )
        )
    return reports
