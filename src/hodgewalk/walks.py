"""Transition matrices, stationary distributions and simulation of the
root-to-leaf path random walk and its conditional up/down variants.

All transition probabilities are exact rationals built from the LP/RP
path counts.  The simulator draws every decision from integer weights so
traces are bit-reproducible for a fixed seed; it streams the trace into
visit counts and a digest instead of storing it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from . import operators, rng
from .graded_cover import (
    GradedSignedDoubleCover,
    compute_path_weights,
    component_correspondence,
    detect_coherent,
    expected_path_length,  # re-exported: walks.expected_path_length stays public
)

if TYPE_CHECKING:
    from .exact import ScaledMatrix


class StationaryDistribution(NamedTuple):
    weights: dict[int, Fraction]
    support: tuple[int, ...]
    normalizer: Fraction

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


def _from_operator(sm: ScaledMatrix, through) -> ScaledMatrix:
    """Transition matrix of the walk operator ``sm`` of weights D = LP*RP,
    as the body of a matrix with scales (D, 1/D).

    Each walk operator is A = D^(-1/2) P^T D^(1/2), so P = D^(-1/2) A^T D^(1/2);
    the rebase is exact because every conversion factor is a ratio of LP counts.
    """
    return sm.T.rebase(through, [1 / d for d in through])


def transition_full(
    cover: GradedSignedDoubleCover,
    view: str = "quotient",
) -> ScaledMatrix:
    """Transition matrix P of the root-to-leaf path random walk, as the body
    of a matrix (entry (i, j) of P is ``rows[i].get(j, 0) / den``) whose
    rows follow the quotient nodes, or the cover nodes for the cover view.

    Quotient rows: 1/2 * LP(v)/LP(u) up, 1/2 * RP(t)/RP(u) down, with lazy
    mass 1/2 (leaf xor root) or 1 (isolated) on the diagonal.  Cover rows
    move up to the coherently oriented lift and down to the oppositely
    oriented one, with the lazy mass split over both lifts.  Derived from
    the quotient operator (resp. the bundle's cover operator).
    """
    if view not in ("quotient", "cover"):
        raise ValueError("view must be 'quotient' or 'cover'")
    pw = compute_path_weights(cover)
    through = [Fraction(pw.through(q)) for q in range(cover.n_quotient)]
    if view == "quotient":
        return _from_operator(operators.quotient_operator(cover), through)
    return _from_operator(operators.build_bundle(cover).a_cover, through * 2)


def transition_conditional(
    cover: GradedSignedDoubleCover,
    k: int,
    direction: str,
    view: str = "quotient",
) -> ScaledMatrix:
    """Transition matrix of the conditional up- or down-walk in dimension k,
    derived from the conditional operator of the matching flavor, whose
    rows it follows (``cover.nodes_by_dim[k]``, or ``cover.lifts(k)``)."""
    if view not in ("quotient", "cover"):
        raise ValueError("view must be 'quotient' or 'cover'")
    pw = compute_path_weights(cover)
    op = operators.build_conditional(cover, k, direction, view)
    nodes = cover.nodes_by_dim.get(k, ()) if view == "quotient" else cover.lifts(k)
    n = cover.n_quotient
    return _from_operator(op, [Fraction(pw.through(u % n)) for u in nodes])


def stationary(
    cover: GradedSignedDoubleCover,
    component,
    view: str = "quotient",
) -> StationaryDistribution:
    """Closed-form stationary distribution pi proportional to LP * RP.

    ``component`` is a quotient component of the full walk or of a
    conditional walk: the formula is the same.  The cover view halves each
    quotient weight over the two lifts.
    """
    pw = compute_path_weights(cover)
    comp = tuple(sorted(component))
    normalizer = Fraction(sum(pw.through(q) for q in comp))
    if view == "quotient":
        weights = {q: Fraction(pw.through(q)) / normalizer for q in comp}
        return StationaryDistribution(weights, comp, normalizer)
    if view != "cover":
        raise ValueError("view must be 'quotient' or 'cover'")
    n = cover.n_quotient
    weights: dict[int, Fraction] = {}
    for q in comp:
        w = Fraction(pw.through(q)) / (2 * normalizer)
        weights[q] = w
        weights[q + n] = w
    support = tuple(sorted(weights))
    return StationaryDistribution(weights, support, 2 * normalizer)


# A weighted move whose total is above this bisects its cumulative weights.
TABLE_CAP = 64


class _Bisected:
    """Draw table of a total above ``TABLE_CAP``: entries found by bisection, not stored."""

    def __init__(self, weights, targets):
        self.cum, self.targets = list(accumulate(weights)), targets

    def __getitem__(self, r):
        return self.targets[bisect_right(self.cum, r)]


def simulate(
    cover: GradedSignedDoubleCover,
    start: int,
    steps: int,
    seed: int,
) -> tuple[str, dict[int, Fraction]]:
    """Simulate the root-to-leaf path random walk on the cover.

    One step: the action (S, U or D according to leaf/root status, each
    with probability 1/2), then its move — S flips a fair coin between u
    and -u, U picks a parent with LP-proportional odds moving to the
    coherently oriented lift, D picks a child with RP-proportional odds
    moving to the oppositely oriented lift.

    The loop takes the words of each RNG block in turn.  An action word's
    low bit picks the move; a move of total weight 1 is taken at once,
    any other waits for its draw word, which is rejected at or above the
    move's limit and else moves the walk to ``table[w % total]``.  Each
    state's moves are built once as (limit, total, table), the table one
    target per residue below the total (bisected above ``TABLE_CAP``, so
    memory stays O(edges)).  The blocks come reduced modulo the lcm of 2
    and every total (``rng.blocks``: the same bits and draws), so on the
    annuli, whose totals are 2, 6 and 12, the words are below 12.  States
    past ``steps`` in the last block are dropped.  The walk keeps only the
    visit counts and a running SHA-256 of the state sequence (the start
    included, each state a little-endian uint64), so memory does not grow
    with ``steps``.  Returns the hex digest and the empirical distribution
    over all visited states.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = cover.n_quotient
    if not 0 <= start < 2 * n:
        raise ValueError(f"start node {start} not in cover")
    pw = compute_path_weights(cover)
    modulus = 2  # the lcm of 2 and every draw total, capped at 2**64 (no reduction)

    def pick(weights, targets):
        """A move: its target when the total weight is 1, else its draw."""
        nonlocal modulus
        total = sum(weights)
        if total == 1:
            return targets[0]
        modulus = min(lcm(modulus, total), 1 << 64)
        if total > TABLE_CAP:
            table = _Bisected(weights, targets)
        else:
            table = [t for t, w in zip(targets, weights) for _ in range(w)]
        return rng.rejection_limit(total), total, table

    # moves[u][bit]: the move that the action bit ``bit`` selects at state u
    moves = []
    for u in range(2 * n):
        q, flip = u % n, u // n
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        lazy = pick((1, 1), (q, q + n))
        up = down = None
        if not leaf:
            up = pick(
                [pw.lp[v] for v in cover.parents[q]],
                [v + n * (flip ^ (cover.sign_ref[(q, v)] == -1)) for v in cover.parents[q]],
            )
        if not root:
            down = pick(
                [pw.rp[t] for t in cover.children[q]],
                [t + n * (flip ^ (cover.sign_ref[(t, q)] == 1)) for t in cover.children[q]],
            )
        if leaf and root:
            moves.append((q, q + n))
        elif leaf:
            moves.append((lazy, down))
        elif root:
            moves.append((lazy, up))
        else:
            moves.append((up, down))

    import hashlib  # loads OpenSSL: imported only where a walk is simulated
    import numpy as np  # loads numpy: likewise

    counts = np.zeros(2 * n, dtype=np.int64)
    digest = hashlib.sha256()

    def record(trail):
        # states are small and non-negative: their little-endian int64 bytes
        # are their uint64 bytes, and bincount takes int64 on every numpy
        visited = np.array(trail, dtype="<i8")
        digest.update(visited.tobytes())
        counts[:] += np.bincount(visited, minlength=2 * n)

    record([start])
    u, left, pending = start, steps, False
    for block in rng.blocks(seed, modulus):
        trail = []
        append = trail.append
        for w in block:
            if pending:
                if w < limit:
                    u = table[w % total]
                    append(u)
                    pending = False
            else:
                move = moves[u][w & 1]
                if move.__class__ is int:
                    u = move
                    append(u)
                else:
                    limit, total, table = move
                    pending = True
        record(trail[:left])
        left -= len(trail)
        if left <= 0:
            break
    empirical = {u: Fraction(int(c), steps + 1) for u, c in enumerate(counts) if c}
    return digest.hexdigest(), empirical


def total_variation(p: dict[int, Fraction], q: dict[int, Fraction]) -> Fraction:
    keys = set(p) | set(q)
    return sum((abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0))) for k in keys), Fraction(0)) / 2


def convergence_rate(
    cover: GradedSignedDoubleCover,
    k: int,
) -> float:
    """Shared convergence rate of the dim-(k-1) up-walk and dim-k down-walk.

    max(lambda_{max-1} of the quotient up-operator, -lambda_min of the
    signed up-operator), maximized over the paired non-leaf components.
    Raises ValueError when dimensions k-1/k have no paired components (k < 1
    included), or when any paired component is coherent (the conditional
    walk is then not aperiodic).
    """
    cover.require_strong()
    pairs = component_correspondence(cover, k) if k >= 1 else []
    if not pairs:
        raise ValueError(f"no paired components in dimensions {k - 1}/{k}")
    rate = 0.0
    quot = operators.build_conditional(cover, k - 1, "up", "quotient")
    sgn = operators.build_conditional(cover, k - 1, "up", "signed")
    for _down_comp, up_comp in pairs:
        if detect_coherent(cover, up_comp, "up") is not None:
            raise ValueError("conditional walk is not aperiodic on a coherent component")
        for flavor, op in (("quotient", quot), ("signed", sgn)):
            ev = operators.eigen(operators.on_component(cover, op, up_comp))
            rate = max(rate, operators.spectral_top(ev, flavor))
    return rate
