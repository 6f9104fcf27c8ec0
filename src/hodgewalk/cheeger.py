"""Auxiliary graphs, brute-force Cheeger constants, and combined bounds.

The quotient constant minimizes cut-weight over measure across all proper
nonempty subsets; the signed constant additionally minimizes over
orientations of the chosen subset (the subset may be everything).  Both
searches are exact: comparisons are done by integer cross-multiplication
after clearing denominators once.  Enumeration is capped at 24 nodes.

Both scans visit subsets in ascending bitmask order and carry cut weight
and measure from one mask to the next through the flipped bits, so the
witness is the lowest mask attaining the minimum.  The signed scan skips
subsets whose cross weight alone cannot win and searches the orientations
of the rest by a branch-and-bound over the Gray-code rank, budgeted by
what would still beat the incumbent; its orientation witness is the
lowest-rank minimizer, the first one a plain Gray-code walk would meet.
"""

from __future__ import annotations

import os
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

BRUTE_FORCE_CAP = 24


class BruteForceGuardError(ValueError):
    """Raised when a cut enumeration would exceed the 2**24 guard."""


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
    k: int
    up_component: tuple[int, ...]
    down_component: tuple[int, ...]
    d_up: Fraction
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
    witnesses: dict


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
    if direction == "up":
        degree_term = Fraction(k + 1)
    else:
        degree_term = Fraction(k + 1) - min(
            pw.lp[q] * sum(Fraction(1, pw.lp[t]) for t in cover.children[q]) for q in comp
        )
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


def _guard(n: int) -> None:
    if n > BRUTE_FORCE_CAP:
        raise BruteForceGuardError(
            f"component has {n} nodes; brute-force search is capped at {BRUTE_FORCE_CAP}"
        )


def _neighbours(n: int, edges, wints):
    """Per-node (other end, integer weight) lists of the auxiliary edges."""
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), w in zip(edges, wints):
        nbrs[i].append((j, w))
        nbrs[j].append((i, w))
    return nbrs


def _mask_scan(nbrs, mints, lo, hi):
    """Yield (mask, cut, mu) for the masks in [lo, hi), ascending.

    Cut weight and measure are carried from one mask to the next through
    the bits of ``mask ^ prev``: flipping node i changes the cut by the
    weight of each incident edge, in O(degree).
    """
    cur = cut = mu = 0
    for mask in range(lo, hi):
        flips = mask ^ cur
        while flips:
            low = flips & -flips
            flips ^= low
            i = low.bit_length() - 1
            cur ^= low
            inside = (cur >> i) & 1
            mu += mints[i] if inside else -mints[i]
            for j, w in nbrs[i]:
                if (cur >> j) & 1 == inside:
                    cut -= w
                else:
                    cut += w
        yield mask, cut, mu


def _quotient_scan(args):
    """Minimize cut/min-measure over masks in [lo, hi); exact integer compare."""
    nbrs, mints, total_m, lo, hi, full = args
    best_num = best_den = None
    best_mask = None
    for mask, cut, mu in _mask_scan(nbrs, mints, lo, hi):
        if mask == 0 or mask == full:
            continue
        den = min(mu, total_m - mu)
        if best_num is None or cut * best_den < best_num * den:
            best_num, best_den, best_mask = cut, den, mask
    return best_num, best_den, best_mask


def cheeger_quotient(aux: AuxiliaryGraph, threads: int = 1):
    """Exact quotient Cheeger constant with a witness subset.

    Minimizes over the 2**n - 2 proper nonempty subsets; ties resolve to
    the lexicographically smallest bitmask.  With threads > 1 the mask
    space is split across at most ``os.cpu_count()`` processes (the
    min-reduction is order-free).
    """
    n = aux.n
    if n < 2:
        raise ValueError("quotient Cheeger constant needs at least two nodes")
    _guard(n)
    wints, wden, mints, mden = _integerized(aux)
    nbrs = _neighbours(n, aux.edges, wints)
    total_m = sum(mints)
    full = (1 << n) - 1
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1 and n > 12:
        # imported here: multiprocessing stays unloaded unless a pool starts
        from concurrent.futures import ProcessPoolExecutor

        chunks = []
        step = (full + threads) // threads
        for lo in range(0, full + 1, step):
            chunks.append((nbrs, mints, total_m, lo, min(lo + step, full + 1), full))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = [r for r in pool.map(_quotient_scan, chunks) if r[0] is not None]
        best_num, best_den, best_mask = None, None, None
        for num, den, mask in results:
            if (
                best_num is None
                or num * best_den < best_num * den
                or (num * best_den == best_num * den and mask < best_mask)
            ):
                best_num, best_den, best_mask = num, den, mask
    else:
        best_num, best_den, best_mask = _quotient_scan((nbrs, mints, total_m, 0, full + 1, full))
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
    rank = {node: b for b, node in enumerate(free)}
    edges_at: list[list[tuple[int, int, int]]] = [[] for _ in free]
    for i, j, w, s in pairs_in:
        bi, bj = rank.get(i, len(free)), rank.get(j, len(free))
        if bi < bj:
            edges_at[bi].append((j, 2 * w, s))
        else:
            edges_at[bj].append((i, 2 * w, s))
    level_total = [sum(w2 for _o, w2, _s in es) for es in edges_at]
    x = [1] * len(members)
    best_neg, best_x = limit, None

    def descend(b, t_prev, partial):
        nonlocal best_neg, best_x
        if b < 0:
            best_neg, best_x = partial, list(x)
            return
        # frustrated weight added by x = +1 (x_o * s == -1); x = -1 frustrates the rest
        plus = 0
        for o, w2, s in edges_at[b]:
            if x[o] != s:
                plus += w2
        minus = level_total[b] - plus
        # Gray bit b is t_b ^ t_prev: t_b = 0 gives x = +1 exactly when t_prev is 0
        if t_prev == 0:
            children = ((0, 1, plus), (1, -1, minus))
        else:
            children = ((0, -1, minus), (1, 1, plus))
        for t_b, v, add in children:
            if partial + add < best_neg:
                x[free[b]] = v
                descend(b - 1, t_b, partial + add)

    # each branch is checked against the limit before it is entered; the
    # root has weight 0
    if limit > 0:
        descend(len(free) - 1, 0, 0)
    if best_x is None:
        return None
    return best_neg, best_x


def cheeger_signed(aux: AuxiliaryGraph, threads: int = 1):
    """Exact signed Cheeger constant with a (subset, orientation) witness.

    The subset may be the whole node set; the orientation outside the
    subset is irrelevant.  Zero exactly when the component is coherent
    (beta = 0 forces the full set with a balanced orientation, which is
    checked directly by sign propagation).  Otherwise subsets are scanned
    in ascending bitmask order with incrementally updated cut and measure.
    A subset is skipped when its cross weight alone exceeds a precomputed
    upper bound or cannot beat the incumbent; otherwise its orientation
    search is budgeted by the largest negative weight that would still
    beat the incumbent strictly (or reach the upper bound, before the
    first incumbent).  The witness is the lowest-mask minimizer with its
    lowest-Gray-rank orientation.
    """
    n = aux.n
    if n == 0:
        raise ValueError("empty auxiliary graph")
    _guard(n)
    x, _pieces, frustrated = propagate_signs(
        range(n), [(i, j, s) for (i, j), s in zip(aux.edges, aux.sign)]
    )
    if not frustrated:
        orientation = {aux.nodes[i]: (x[i] == -1) for i in range(n)}
        return Fraction(0), (tuple(aux.nodes), orientation)
    wints, wden, mints, mden = _integerized(aux)
    pairs = [(i, j, w, s) for (i, j), w, s in zip(aux.edges, wints, aux.sign)]
    nbrs = _neighbours(n, aux.edges, wints)
    # a cheap upper bound on the minimum strengthens pruning from the start:
    # the full set under the propagated orientation, and every singleton
    bound_num = sum(2 * wints[e] for e in frustrated)
    bound_den = sum(mints)
    for i in range(n):
        deg = sum(w for _j, w in nbrs[i])
        if deg * bound_den < bound_num * mints[i]:
            bound_num, bound_den = deg, mints[i]
    best_num = best_den = None
    best_x = None
    for mask, cut, mu in _mask_scan(nbrs, mints, 1, 1 << n):
        if cut * bound_den > bound_num * mu:
            continue
        if best_num is None:
            # reach the upper bound: (cut + neg) / mu <= bound
            limit = (bound_num * mu - cut * bound_den) // bound_den + 1
        elif cut * best_den >= best_num * mu:
            continue
        else:
            # beat the incumbent strictly: (cut + neg) / mu < best
            limit = -((cut * best_den - best_num * mu) // best_den)
        members = [i for i in range(n) if (mask >> i) & 1]
        member_pos = {node: p for p, node in enumerate(members)}
        pairs_in = [
            (member_pos[i], member_pos[j], w, s)
            for (i, j, w, s) in pairs
            if (mask >> i) & (mask >> j) & 1
        ]
        found = _signed_best_orientation(members, pairs_in, limit)
        if found is not None:
            best_num, best_den, best_x = cut + found[0], mu, (members, found[1])
    h = Fraction(best_num, wden) / Fraction(best_den, mden)
    members, x = best_x
    witness_nodes = tuple(aux.nodes[i] for i in members)
    witness_orientation = {aux.nodes[i]: (xi == -1) for i, xi in zip(members, x)}
    return h, (witness_nodes, witness_orientation)


def _restricted_gap(op: SymmetricOperator, flavor: str, comp) -> float:
    ev = eigen(op.restrict(comp).sm).eigenvalues
    if flavor == "quotient":
        return 1.0 - ev[-2]
    return 1.0 - (-ev[0])


def combined_report(
    cover: GradedSignedDoubleCover, k: int, threads: int = 1
) -> list[CheegerReport]:
    """Combined Cheeger bounds for every paired component in dimensions k-1/k.

    Emits, per flavor, lower bound max(h_up^2/k, h_down^2/d_down)/(2(k+1)),
    the shared spectral gap, and upper bound 2*min(h_up, h_down)/(k+1).
    Coherent or singleton pairs get the all-zero signed triple; a singleton
    down-component additionally drops the quotient down-constant.  Raises
    ChildCountError when a down-component node has other than k+1 children.
    """
    cover.require_strong()
    pw = compute_path_weights(cover)
    reports = []
    for down_comp, up_comp in component_correspondence(cover, k):
        for q in down_comp:
            if len(cover.children[q]) != k + 1:
                raise ChildCountError(
                    f"combined bounds need {k + 1} children per {k}-dimensional node:"
                    f" {cover.labels[q]} has {len(cover.children[q])}"
                )
        coherent = detect_coherent(cover, down_comp, "down") is not None
        witnesses: dict = {}
        d_up = Fraction(k + 1)
        aux_down = None
        if len(down_comp) >= 2:
            aux_down = build_aux(cover, down_comp, "down")
            d_down = aux_down.degree_term
        else:
            q = down_comp[0]
            d_down = Fraction(k + 1) - pw.lp[q] * sum(
                Fraction(1, pw.lp[t]) for t in cover.children[q]
            )
        h_q_up = h_q_down = h_s_up = h_s_down = None
        gap_q = gap_s = None
        if len(up_comp) >= 2:
            aux_up = build_aux(cover, up_comp, "up")
            h_q_up, wit = cheeger_quotient(aux_up, threads)
            witnesses["quotient_up"] = wit
            h_s_up, wit = cheeger_signed(aux_up, threads)
            witnesses["signed_up"] = wit
            up_q = build_conditional(cover, k - 1, "up", "quotient")
            gap_q = _restricted_gap(up_q, "quotient", up_comp)
            up_s = build_conditional(cover, k - 1, "up", "signed")
            gap_s = _restricted_gap(up_s, "signed", up_comp)
        if aux_down is not None:
            h_q_down, wit = cheeger_quotient(aux_down, threads)
            witnesses["quotient_down"] = wit
            h_s_down, wit = cheeger_signed(aux_down, threads)
            witnesses["signed_down"] = wit
        lower_q = upper_q = None
        options_q = []
        if h_q_up is not None:
            options_q.append((h_q_up * h_q_up / k, h_q_up))
        if h_q_down is not None and d_down > 0:
            options_q.append((h_q_down * h_q_down / d_down, h_q_down))
        if options_q:
            lower_q = max(o[0] for o in options_q) / (2 * (k + 1))
            upper_q = 2 * min(o[1] for o in options_q) / (k + 1)
        if coherent:
            lower_s = Fraction(0)
            upper_s = Fraction(0)
            gap_s = 0.0 if gap_s is None else gap_s
        else:
            options_s = [(h_s_up * h_s_up / k, h_s_up)]
            if h_s_down is not None and d_down > 0:
                options_s.append((h_s_down * h_s_down / d_down, h_s_down))
            lower_s = max(o[0] for o in options_s) / (2 * (k + 1))
            upper_s = 2 * min(o[1] for o in options_s) / (k + 1)
        sandwich_q = (
            None
            if gap_q is None or lower_q is None
            else float(lower_q) <= gap_q + 1e-9 and gap_q <= float(upper_q) + 1e-9
        )
        sandwich_s = (
            None
            if gap_s is None or lower_s is None
            else float(lower_s) <= gap_s + 1e-9 and gap_s <= float(upper_s) + 1e-9
        )
        rate_lower = rate_upper = None
        if not coherent and h_q_up is not None and h_q_down is not None:
            rate_lower = 1 - 2 * max(min(h_q_up, h_q_down), min(h_s_up, h_s_down)) / (k + 1)
            rate_upper = 1 - min(
                max(h_q_up * h_q_up / k, h_q_down * h_q_down / d_down),
                max(h_s_up * h_s_up / k, h_s_down * h_s_down / d_down),
            ) / (2 * (k + 1))
        reports.append(
            CheegerReport(
                k=k,
                up_component=up_comp,
                down_component=down_comp,
                d_up=d_up,
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
                sandwich_quotient_ok=sandwich_q,
                sandwich_signed_ok=sandwich_s,
                rate_lower=rate_lower,
                rate_upper=rate_upper,
                witnesses=witnesses,
            )
        )
    return reports
