"""Auxiliary graphs, exact Cheeger constants, and combined bounds.

The quotient constant minimizes cut-weight over measure across all proper
nonempty subsets; the signed constant additionally minimizes over
orientations of the chosen subset (the subset may be everything).  Both
are exact: comparisons are done by integer cross-multiplication after
clearing denominators once.

Both constants come from one depth-first branch-and-bound over node
states, without recursion: out/+/- for the signed constant; out/in for
the quotient one, which makes every sign +1, keeps the highest node out
and values a subset at its cut over the smaller of its measure and its
complement's.  It decides nodes by descending weighted degree and bounds
a branch at the incumbent ratio (Dinkelbach): every undecided node is
charged its cheapest state against the decided ones, a bound it keeps up
to date edge by edge; the quotient also bounds the complement side.  The
witness is the lowest mask attaining the minimum and, for the signed
constant, the lowest-Gray-rank orientation of that subset.  A search that
would take more than SEARCH_BUDGET search steps raises
BruteForceGuardError.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exact import ScaledMatrix, eigenvalue, inertia
from .graded_cover import (
    GradedSignedDoubleCover,
    GuardError,
    component_correspondence,
    components,
    compute_path_weights,
    conditional_triples,
    detect_coherent,
    memoized,
    propagate_signs,
)
# eigen is not called here; the benchmark's tracer test checks this alias
from .operators import build_conditional, eigen, on_component

# Search steps one cut search may take before it gives up.  A step is one
# search node; both constants' search also counts each edge its bound
# updates (twice: apply and undo) and, per fall of the incumbent, each node.
SEARCH_BUDGET = 4_000_000


class BruteForceGuardError(GuardError):
    """Raised when a cut search would take more than SEARCH_BUDGET steps."""


class SharedMidNodeError(GuardError):
    """Raised when two faces share several mid-nodes, so the auxiliary
    edge weight (defined through the unique shared face) is undefined."""


class ChildCountError(GuardError):
    """Raised when a node of a dimension-k down-component has other than
    k+1 children, the count the combined bounds' constants assume."""


class AuxiliaryGraph(NamedTuple):
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    sign: tuple[int, ...]
    weight: tuple[Fraction, ...]
    measure: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)


class CheegerReport(NamedTuple):
    up_component: tuple[int, ...]
    down_component: tuple[int, ...]
    d_down: Fraction
    coherent: bool
    h_quotient_up: Fraction
    h_quotient_down: Fraction | None
    h_signed_up: Fraction
    h_signed_down: Fraction | None
    # the up operators on up_component; the signed one is None when coherent
    up_quotient: ScaledMatrix
    up_signed: ScaledMatrix | None
    lower_quotient: Fraction
    upper_quotient: Fraction
    lower_signed: Fraction
    upper_signed: Fraction
    sandwich_quotient_ok: bool
    sandwich_signed_ok: bool
    rate_lower: Fraction | None
    rate_upper: Fraction | None

    @property
    def gap_quotient(self) -> float:
        """1 - lambda_2, bisected on eigenvalue counts on each read: only
        printing reads it, since the sandwich flags are counts themselves."""
        return 1.0 - eigenvalue(self.up_quotient, -2)

    @property
    def gap_signed(self) -> float:
        """1 + lambda_min, likewise; 0 on a coherent pair, where coherence
        pins the gap exactly."""
        if self.up_signed is None:
            return 0.0
        return 1.0 + eigenvalue(self.up_signed, 0)


@memoized
def build_aux(cover: GradedSignedDoubleCover, component, direction: str) -> AuxiliaryGraph | None:
    """Auxiliary weighted signed graph of one up- or down-component.

    Up: nodes weighted by LP, edges by LP of the shared coface, signs by
    the product of the two incidence signs.  Down: edge weight
    LP(a) * LP(b) / LP(shared face).  None where the component has no
    auxiliary graph: a leaf singleton (up) or any singleton (down).
    """
    pw = compute_path_weights(cover)
    comp = tuple(sorted(component))
    k = cover.dims[comp[0]]
    if any(cover.dims[q] != k for q in comp):
        raise ValueError("component mixes dimensions")
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
    # after the triples, which vet the cover and the direction
    if len(comp) == 1 and (direction == "down" or cover.is_leaf(comp[0])):
        return None
    edges = sorted(mid)
    signs = [mid[e][1] for e in edges]
    if direction == "up":
        weights = [Fraction(pw.lp[mid[e][0]]) for e in edges]
    else:
        weights = [
            Fraction(pw.lp[comp[i]] * pw.lp[comp[j]], pw.lp[mid[(i, j)][0]]) for i, j in edges
        ]
    measure = tuple(Fraction(pw.lp[q]) for q in comp)
    return AuxiliaryGraph(comp, tuple(edges), tuple(signs), tuple(weights), measure)


def _down_degree_term(cover: GradedSignedDoubleCover, comp, k: int) -> Fraction:
    """k+1 - min LP(q) * sum 1/LP(child) over the dimension-k nodes q of comp."""
    pw = compute_path_weights(cover)
    return Fraction(k + 1) - min(
        pw.lp[q] * sum(Fraction(1, pw.lp[t]) for t in cover.children[q]) for q in comp
    )


def aux_laplacian(aux: AuxiliaryGraph, flavor: str) -> ScaledMatrix:
    """Measure-normalized weighted Laplacian of the auxiliary graph."""
    if flavor not in ("quotient", "signed"):
        raise ValueError("flavor must be 'quotient' or 'signed'")
    body = [Counter() for _ in range(aux.n)]
    for (i, j), s, w in zip(aux.edges, aux.sign, aux.weight):
        body[i][i] += w
        body[j][j] += w
        off = -w if flavor == "quotient" else -s * w
        body[i][j] += off
        body[j][i] += off
    inv_measure = tuple(Fraction(1) / m for m in aux.measure)
    return ScaledMatrix(inv_measure, inv_measure, body)


def _integerized(aux: AuxiliaryGraph):
    wden = lcm(*(w.denominator for w in aux.weight)) if aux.weight else 1
    mden = lcm(*(m.denominator for m in aux.measure))
    wints = [int(w * wden) for w in aux.weight]
    mints = [int(m * mden) for m in aux.measure]
    return wints, wden, mints, mden


def _over_budget() -> BruteForceGuardError:
    return BruteForceGuardError(f"cut search exceeds its budget of {SEARCH_BUDGET} search steps")


def _degree(aux: AuxiliaryGraph, wints) -> list[int]:
    degree = [0] * aux.n
    for (i, j), w in zip(aux.edges, wints):
        degree[i] += w
        degree[j] += w
    return degree


def cheeger_quotient(aux: AuxiliaryGraph):
    """Exact quotient Cheeger constant with a witness subset.

    Minimizes cut/min(mu(S), mu(V-S)) over the proper nonempty subsets S;
    ties resolve to the lowest bitmask.  One ``_cut_search`` with every
    sign +1 and the states out and in only; the highest node stays out: a
    subset and its complement have the same ratio, and the one without
    that node has the lower mask.  The incumbent starts at the best
    singleton, with that singleton's own mask.
    """
    n = aux.n
    if n < 2:
        raise ValueError("quotient Cheeger constant needs at least two nodes")
    wints, wden, mints, mden = _integerized(aux)
    degree = _degree(aux, wints)
    total = sum(mints)
    den = [min(m, total - m) for m in mints]
    best = min(range(n), key=lambda i: Fraction(degree[i], den[i]))
    unsigned = aux._replace(sign=(1,) * len(aux.edges))
    states = [2] * (n - 1) + [1]
    incumbent = degree[best], den[best], 1 << best
    N, D, mask = _cut_search(unsigned, wints, mints, degree, states, incumbent, total)
    h = Fraction(N, wden) / Fraction(D, mden)
    return h, tuple(aux.nodes[i] for i in range(n) if (mask >> i) & 1)


def _signed_best_orientation(members, pairs_in, neg):
    """The lowest-Gray-rank orientation whose within-subset negative
    weight is ``neg``, the least one.

    Orientations fix one node per connected piece of the induced graph
    (switching equivalence); the negative pair weight counts both ordered
    pairs, hence the factor 2.  The remaining free nodes are decided by a
    depth-first branch-and-bound over the Gray-code rank t of the
    orientation (node ``free[b]`` is flipped when bit b of t ^ (t >> 1) is
    set), most significant bit first and 0 before 1, so leaves come in
    ascending t.  An edge's frustrated weight is added once both ends are
    decided, and a branch whose partial weight is above ``neg`` is cut, so
    the first leaf is the lowest-rank minimizer.
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
    budget, visited = SEARCH_BUDGET, 0
    # (level just decided, its sign, its bit of t, partial weight)
    stack = [(top, 1, 0, 0)]
    while stack:
        b, v, t_above, partial = stack.pop()
        visited += 1
        if visited > budget:
            raise _over_budget()
        if partial > neg:
            continue
        if b < top:
            x[free[b]] = v
        if b == 0:
            return x
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
    raise AssertionError(f"no orientation has negative weight {neg}")


def _cut_search(aux: AuxiliaryGraph, wints, mints, degree, states, incumbent, total=None):
    """The one cut search of both constants; returns the best (N, D, mask).

    A depth-first branch-and-bound, without recursion, gives node v one of
    its first states[v] states out, +, -, deciding the nodes by descending
    integer weighted degree, the higher index first among equals; the
    first node of the subset is always + (flipping every sign keeps the
    value).  The incumbent (N, D, mask) is the caller's upper bound N/D.

    A branch is cut by a fractional-programming (Dinkelbach) bound at the
    incumbent ratio: a completion beats N/D only if its weight times D
    minus N times its measure is negative.  The decided nodes contribute
    partial*D - N*mu exactly.  An undecided node j contributes at least
    its floor min((a_j+b_j)*D, (o_j + 2*min(a_j, b_j))*D - N*m_j), the cost
    of its cheapest state against the decided nodes: out, it cuts its
    weight a_j + b_j to decided in-nodes; in, it cuts its weight o_j to
    decided out-nodes and frustrates a_j as + or b_j as -.  Edges between
    undecided nodes add nothing below zero.  Given ``total``, mu(V), a
    leaf is valued at its weight over min(mu, mu(V) - mu), and the bound
    is the larger of the one above and the complement side's
    partial*D - N*(mu(V) - mu): the weight only grows and the measure left
    out only shrinks.  A branch whose bound is positive, or zero with its
    own mask (the lowest it can reach) not below the incumbent's, is cut;
    a leaf that gets through replaces the incumbent, so the result is the
    lowest-mask minimizer in any decision order.  The bound is kept
    incrementally: deciding a node or undoing the decision updates only
    its edges to later-decided nodes, and N/D changes only at a leaf, when
    no node is undecided.  Each decision costs one search step plus two
    per such edge (apply and undo), and a fall of the incumbent n steps
    (every floor is refreshed).
    """
    n = aux.n
    N, D, best_mask = incumbent
    order = sorted(range(n), key=lambda i: (degree[i], i), reverse=True)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    # each node's edges to later-decided nodes: (other end, weight, 1 if positive)
    later: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (i, j), w, s in zip(aux.edges, wints, aux.sign):
        if rank[i] > rank[j]:
            i, j = j, i
        later[i].append((j, w, int(s == 1)))
    # per node: its weight to decided in-nodes that it frustrates as + and
    # as -, and its weight to decided out-nodes; its floor under N/D
    acc = [[0, 0, 0] for _ in range(n)]
    n_mu = [N * m for m in mints]
    floor = [-x for x in n_mu]

    def shift(v, s, dw):
        """Move v's edges to later nodes into (dw = w) or out of (dw = -w)
        the accumulators for v in state s; returns the change in their floors."""
        change = 0
        for j, w, pos in later[v]:
            t = acc[j]
            # v in: a positive edge is frustrated by j taking the other
            # sign, a negative one by j taking v's sign
            t[pos ^ (s - 1) if s else 2] += dw * w
            a, b, o = t
            low = (o + 2 * (a if a < b else b)) * D - n_mu[j]
            if (a + b) * D < low:
                low = (a + b) * D
            change += low - floor[j]
            floor[j] = low
        return change

    slack = sum(floor)  # the floors of the undecided nodes
    budget, visited = SEARCH_BUDGET, 0
    # per depth: the state of order[depth] (-1 undecided, 0 out, 1 +, 2 -)
    # and the (weight, measure in, in-mask) before it
    state = [-1] * n
    saved = [(0, 0, 0)] * n
    partial = mu = mask = 0
    depth = 0
    while depth >= 0:
        v, s = order[depth], state[depth]
        if s >= 0:
            slack += shift(v, s, -1) + floor[v]
            partial, mu, mask = saved[depth]
        s += 1
        # the first node of the subset is always +
        if s == states[v] or s == 2 and not mask:
            state[depth] = -1
            depth -= 1
            continue
        state[depth] = s
        saved[depth] = (partial, mu, mask)
        visited += 1 + 2 * len(later[v])
        if visited > budget:
            raise _over_budget()
        a, b, o = acc[v]
        if s:
            partial += o + 2 * (a if s == 1 else b)
            mu += mints[v]
            mask |= 1 << v
        else:
            partial += a + b
        slack += shift(v, s, 1) - floor[v]
        bound = partial * D - N * mu + slack
        if total is not None:
            bound = max(bound, partial * D - N * (total - mu))
        # a branch that can at best tie holds no mask below its own
        if bound > 0 or bound == 0 and mask >= best_mask:
            continue
        if depth == n - 1:
            if mask:
                # no node is undecided, so slack stays 0; every floor moves
                # to the new N/D, since undoing a decision adds one back
                N, D, best_mask = partial, mu if total is None else min(mu, total - mu), mask
                n_mu = [N * m for m in mints]
                for j, (a, b, o) in enumerate(acc):
                    floor[j] = min((a + b) * D, (o + 2 * min(a, b)) * D - n_mu[j])
                visited += n
            continue
        depth += 1
    return N, D, best_mask


def cheeger_signed(aux: AuxiliaryGraph):
    """Exact signed Cheeger constant with a (subset, orientation) witness.

    The subset may be the whole node set; the orientation outside the
    subset is irrelevant.  Zero exactly when the component is coherent
    (beta = 0 forces the full set with a balanced orientation, which is
    checked directly by sign propagation).  Otherwise one ``_cut_search``
    over the states out, +, - for every node, from a cheap upper bound
    N/D.  The orientation of the witness subset is then searched again,
    at its least frustrated weight N - cut, for the lowest Gray rank.
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
    wints, wden, mints, mden = _integerized(aux)
    degree = _degree(aux, wints)
    # the upper bound: the full set under the propagated orientation, and
    # every singleton; no mask reaches 1 << n, so a leaf that only ties it
    # still replaces it
    N, D = sum(2 * wints[e] for e in frustrated), sum(mints)
    for i in range(n):
        if degree[i] * D < N * mints[i]:
            N, D = degree[i], mints[i]
    N, D, best_mask = _cut_search(aux, wints, mints, degree, [3] * n, (N, D, 1 << n))
    members = [i for i in range(n) if (best_mask >> i) & 1]
    member_pos = {node: p for p, node in enumerate(members)}
    pairs_in = [
        (member_pos[i], member_pos[j], w, s)
        for (i, j), w, s in zip(aux.edges, wints, aux.sign)
        if (best_mask >> i) & (best_mask >> j) & 1
    ]
    cut = sum(w for (i, j), w in zip(aux.edges, wints) if (best_mask >> i ^ best_mask >> j) & 1)
    x = _signed_best_orientation(members, pairs_in, N - cut)
    h = Fraction(N, wden) / Fraction(D, mden)
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
    sides that have a constant and a positive degree (the up side always does)."""
    bounds = [side_bounds(h, d, k) for h, d in sides if h is not None and d > 0]
    return max(lower for lower, _ in bounds), min(upper for _, upper in bounds)


def _sandwiched(op: ScaledMatrix, flavor: str, lower: Fraction, upper: Fraction) -> bool:
    """lower <= gap <= upper, by eigenvalue counts of the up operator ``op``.

    Quotient: gap = 1 - lambda_2, so at most one eigenvalue lies above
    1 - lower and at least two at or above 1 - upper.  Signed: gap =
    1 + lambda_min, so none lies below lower - 1 and one at or below upper - 1.
    """
    if flavor == "quotient":
        return inertia(op, 1 - lower)[2] <= 1 and sum(inertia(op, 1 - upper)[1:]) >= 2
    return inertia(op, lower - 1)[0] == 0 and sum(inertia(op, upper - 1)[:2]) >= 1


def combined_report(cover: GradedSignedDoubleCover, k: int) -> list[CheegerReport]:
    """Combined Cheeger bounds for every paired component in dimensions k-1/k.

    Emits, per flavor, the largest lower and the smallest upper
    ``side_bounds`` of the up side (degree k) and the down side (degree
    d_down), with the shared spectral gap between them.  Coherent or
    singleton pairs get the all-zero signed triple (coherence is decided
    exactly, so no eigenvalue count backs that gap); a singleton
    down-component additionally drops the quotient down-constant.  The
    sandwich flags are exact eigenvalue counts; the float gaps are bisected
    only when read.  Raises ChildCountError
    when a down-component node has other than k+1 children.
    """
    reports = []
    for down_comp, up_comp in component_correspondence(cover, k):
        for q in down_comp:
            if len(cover.children[q]) != k + 1:
                raise ChildCountError(
                    f"combined bounds need {k + 1} children per {k}-dimensional node:"
                    f" {cover.labels[q]} has {len(cover.children[q])}"
                )
        coherent = detect_coherent(cover, down_comp, "down") is not None
        aux_down = build_aux(cover, down_comp, "down")
        d_down = _down_degree_term(cover, down_comp, k)
        # every down node has k+1 >= 2 children, all in up_comp
        aux_up = build_aux(cover, up_comp, "up")
        # the larger graph first, and the signed search first on each: a
        # search over the budget then trips before the others spend time
        sides = {"up": aux_up} if aux_down is None else {"up": aux_up, "down": aux_down}
        constants = {}
        for side in sorted(sides, key=lambda side: -sides[side].n):
            constants[side] = cheeger_signed(sides[side])[0], cheeger_quotient(sides[side])[0]
        h_s_up, h_q_up = constants["up"]
        h_s_down, h_q_down = constants.get("down", (None, None))
        up_q = on_component(cover, build_conditional(cover, k - 1, "up", "quotient"), up_comp)
        lower_q, upper_q = _combined_bounds(((h_q_up, k), (h_q_down, d_down)), k)
        # coherence is decided exactly and pins the signed gap at 0
        up_s = None
        lower_s = upper_s = Fraction(0)
        if not coherent:
            up_s = on_component(cover, build_conditional(cover, k - 1, "up", "signed"), up_comp)
            lower_s, upper_s = _combined_bounds(((h_s_up, k), (h_s_down, d_down)), k)
        rate_lower = rate_upper = None
        if not coherent and h_q_down is not None:
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
                up_quotient=up_q,
                up_signed=up_s,
                lower_quotient=lower_q,
                upper_quotient=upper_q,
                lower_signed=lower_s,
                upper_signed=upper_s,
                sandwich_quotient_ok=_sandwiched(up_q, "quotient", lower_q, upper_q),
                sandwich_signed_ok=up_s is None or _sandwiched(up_s, "signed", lower_s, upper_s),
                rate_lower=rate_lower,
                rate_upper=rate_upper,
            )
        )
    return reports


def verify_cheeger(cover: GradedSignedDoubleCover) -> dict:
    """verify's combined bounds and auxiliary-Laplacian identities on a
    strong cover, every k >= 1; returns {check: (ok, detail)}.

    A guard of ``combined_report(cover, k)`` leaves the row cheeger_k<k> in
    place of the bound rows of k; the identities of (up, k-1) and (down, k)
    run either way.  An identity's factor c is the child count of the
    mid-nodes (up) or of the component's own nodes (down), m+2 and m+1 on
    the m-faces of a simplicial complex; those nodes' children must share
    one RP (up: RP(v) = c*sqrt(RP(a)*RP(b)) for a, b under v).
    """
    report: dict[str, tuple[bool, str]] = {}
    pw = compute_path_weights(cover)
    for k in range(1, max(cover.dims) + 1):
        try:
            reports = combined_report(cover, k)
        except GuardError as exc:
            report[f"cheeger_k{k}"] = (True, f"skipped: {exc}")
            reports = []
        for rep in reports:
            tag = f"k{k}_comp{rep.down_component[0]}"
            report[f"sandwich_quotient_{tag}"] = (rep.sandwich_quotient_ok, "")
            report[f"sandwich_signed_{tag}"] = (rep.sandwich_signed_ok, "")
            if rep.h_signed_down is not None:
                report[f"signed_zero_iff_coherent_{tag}"] = (
                    (rep.h_signed_down == 0) == rep.coherent,
                    f"h_signed_down = {rep.h_signed_down}",
                )
        for direction, kk in (("up", k - 1), ("down", k)):
            quot = build_conditional(cover, kk, direction, "quotient")
            sgn = build_conditional(cover, kk, direction, "signed")
            for comp in components(cover, kk, direction):
                try:
                    aux = build_aux(cover, comp, direction)
                except SharedMidNodeError:
                    # no auxiliary weights, so no identity; a cover spec only
                    continue
                if aux is None:
                    continue
                name = f"aux_laplacian_identity_{direction}_{kk}_{comp[0]}"
                owners = comp
                if direction == "up":
                    owners = sorted({v for q in comp for v in cover.parents[q]})
                counts = {len(cover.children[v]) for v in owners}
                if len(counts) != 1:
                    report[name] = (True, "skipped: child counts differ across the component")
                    continue
                uneven = [v for v in owners if len({pw.rp[t] for t in cover.children[v]}) > 1]
                if uneven:
                    detail = f"skipped: the children of {cover.labels[uneven[0]]} differ in RP"
                    report[name] = (True, detail)
                    continue
                factor = Fraction(counts.pop())
                eye = ScaledMatrix.identity(aux.n)
                a_q, a_s = on_component(cover, quot, comp), on_component(cover, sgn, comp)
                ok = aux_laplacian(aux, "quotient").equals((eye - a_q).scale(factor)) and (
                    aux_laplacian(aux, "signed").equals((eye + a_s).scale(factor))
                )
                report[name] = (ok, f"factor {factor}")
    return report
