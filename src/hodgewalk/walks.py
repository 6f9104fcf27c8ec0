"""Transition matrices, stationary distributions and simulation of the
root-to-leaf path random walk and its conditional up/down variants.

All transition probabilities are exact rationals built from the LP/RP
path counts.  The simulator draws every decision from integer weights so
traces are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import operators
from .exact import ScaledMatrix
from .graded_cover import (
    GradedSignedDoubleCover,
    compute_path_weights,
    component_correspondence,
    detect_coherent,
)
from .rng import SplitMix64, weighted_index


class CoherentComponentError(ValueError):
    """Raised when a convergence rate is requested for a coherent component."""


@dataclass(frozen=True)
class TransitionMatrix:
    entries: np.ndarray
    index: tuple[str, ...]
    nodes: tuple[int, ...]
    kind: str

    @property
    def n(self) -> int:
        return len(self.index)

    def row_sums(self) -> list[Fraction]:
        return [sum(row, Fraction(0)) for row in self.entries]


@dataclass(frozen=True)
class StationaryDistribution:
    weights: dict[int, Fraction]
    support: tuple[int, ...]
    normalizer: Fraction
    kind: str

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


@dataclass(frozen=True)
class WalkTrace:
    states: tuple[int, ...]
    seed: int
    step_rule: str


def _from_operator(sm: ScaledMatrix, through) -> np.ndarray:
    """Transition matrix of the walk operator ``sm`` of weights D = LP*RP.

    Each walk operator is A = D^(-1/2) P^T D^(1/2), so P = D^(-1/2) A^T D^(1/2);
    the rebase is exact because every conversion factor is a ratio of LP counts.
    """
    return sm.T.rebase(through, [1 / d for d in through]).body


def transition_full(
    cover: GradedSignedDoubleCover,
    view: str = "quotient",
) -> TransitionMatrix:
    """Transition matrix of the root-to-leaf path random walk.

    Quotient rows: 1/2 * LP(v)/LP(u) up, 1/2 * RP(t)/RP(u) down, with lazy
    mass 1/2 (leaf xor root) or 1 (isolated) on the diagonal.  Cover rows
    move up to the coherently oriented lift and down to the oppositely
    oriented one, with the lazy mass split over both lifts.  Derived from
    the quotient (resp. cover) operator of the bundle.
    """
    if view not in ("quotient", "cover"):
        raise ValueError("view must be 'quotient' or 'cover'")
    pw = compute_path_weights(cover)
    n = cover.n_quotient
    bundle = operators.build_bundle(cover)
    through = [Fraction(pw.through(q)) for q in range(n)]
    if view == "quotient":
        mat = _from_operator(bundle.a_quotient, through)
        return TransitionMatrix(mat, tuple(cover.labels), tuple(range(n)), "full-quotient")
    mat = _from_operator(bundle.a_cover, through * 2)
    labels = tuple(cover.cover_label(u) for u in range(2 * n))
    return TransitionMatrix(mat, labels, tuple(range(2 * n)), "full-cover")


def transition_conditional(
    cover: GradedSignedDoubleCover,
    k: int,
    direction: str,
    view: str = "quotient",
) -> TransitionMatrix:
    """Transition matrix of the conditional up- or down-walk in dimension k,
    derived from the conditional operator of the matching flavor."""
    if view not in ("quotient", "cover"):
        raise ValueError("view must be 'quotient' or 'cover'")
    pw = compute_path_weights(cover)
    op = operators.build_conditional(cover, k, direction, view)
    n = cover.n_quotient
    mat = _from_operator(op.sm, [Fraction(pw.through(u % n)) for u in op.nodes])
    return TransitionMatrix(mat, op.index, op.nodes, f"{direction}-{k}-{view}")


def stationary(
    cover: GradedSignedDoubleCover,
    component,
    walk_kind: str = "full",
    view: str = "quotient",
) -> StationaryDistribution:
    """Closed-form stationary distribution pi proportional to LP * RP.

    ``component`` is a quotient component of the matching walk kind.  The
    cover view halves each quotient weight over the two lifts.
    """
    pw = compute_path_weights(cover)
    comp = tuple(sorted(component))
    normalizer = Fraction(sum(pw.through(q) for q in comp))
    if view == "quotient":
        weights = {q: Fraction(pw.through(q)) / normalizer for q in comp}
        return StationaryDistribution(weights, comp, normalizer, f"{walk_kind}-quotient")
    if view != "cover":
        raise ValueError("view must be 'quotient' or 'cover'")
    n = cover.n_quotient
    weights: dict[int, Fraction] = {}
    for q in comp:
        w = Fraction(pw.through(q)) / (2 * normalizer)
        weights[q] = w
        weights[q + n] = w
    support = tuple(sorted(weights))
    return StationaryDistribution(weights, support, 2 * normalizer, f"{walk_kind}-cover")


def expected_path_length(
    cover: GradedSignedDoubleCover,
    component,
) -> Fraction:
    """Mean length of a uniformly sampled root-to-leaf path in the component.

    Uses the identity K = #paths * (E[len] + 1), where K is the sum of
    LP * RP over the component and #paths is the LP-sum over its roots.
    """
    pw = compute_path_weights(cover)
    comp = tuple(sorted(component))
    K = sum(pw.through(q) for q in comp)
    n_paths = sum(pw.lp[q] for q in comp if cover.is_root(q))
    return Fraction(K, n_paths) - 1


def simulate(
    cover: GradedSignedDoubleCover,
    start: int,
    steps: int,
    seed: int,
    walk_kind: str = "full",
) -> tuple[WalkTrace, dict[int, Fraction]]:
    """Simulate the root-to-leaf path random walk on the cover.

    One step: draw the action (S, U or D according to leaf/root status,
    each with probability 1/2), then resolve it — S flips a fair coin
    between u and -u, U picks a parent with LP-proportional odds moving to
    the coherently oriented lift, D picks a child with RP-proportional
    odds moving to the oppositely oriented lift.  Returns the trace and
    the empirical distribution over all visited states.
    """
    if walk_kind != "full":
        raise ValueError("only the full root-to-leaf walk is simulated")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = cover.n_quotient
    if not 0 <= start < 2 * n:
        raise ValueError(f"start node {start} not in cover")
    pw = compute_path_weights(cover)
    # status: 0 isolated, 1 leaf-only, 2 root-only, 3 interior
    status = []
    up_cum: list[list[int]] = []
    up_tgt: list[list[tuple[int, int]]] = []
    dn_cum: list[list[int]] = []
    dn_tgt: list[list[tuple[int, int]]] = []
    for q in range(n):
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        status.append(0 if (leaf and root) else 1 if leaf else 2 if root else 3)
        cum, tgt, acc = [], [], 0
        for v in cover.parents[q]:
            acc += pw.lp[v]
            cum.append(acc)
            tgt.append((v, 1 if cover.sign_ref[(q, v)] == -1 else 0))
        up_cum.append(cum)
        up_tgt.append(tgt)
        cum, tgt, acc = [], [], 0
        for t in cover.children[q]:
            acc += pw.rp[t]
            cum.append(acc)
            tgt.append((t, 1 if cover.sign_ref[(t, q)] == 1 else 0))
        dn_cum.append(cum)
        dn_tgt.append(tgt)

    rng = SplitMix64(seed)
    q, flip = start % n, 1 if start >= n else 0
    states = [q + n * flip]
    counts = [0] * (2 * n)
    counts[states[0]] = 1
    for _ in range(steps):
        st = status[q]
        if st == 0:
            flip = rng.next_bit()
        else:
            if st == 3:
                action = "U" if rng.next_bit() == 0 else "D"
            elif st == 1:
                action = "S" if rng.next_bit() == 0 else "D"
            else:
                action = "S" if rng.next_bit() == 0 else "U"
            if action == "S":
                flip = rng.next_bit()
            elif action == "U":
                i = weighted_index(up_cum[q], rng)
                v, x = up_tgt[q][i]
                q, flip = v, flip ^ x
            else:
                i = weighted_index(dn_cum[q], rng)
                t, x = dn_tgt[q][i]
                q, flip = t, flip ^ x
        u = q + n * flip
        states.append(u)
        counts[u] += 1
    total = steps + 1
    empirical = {u: Fraction(c, total) for u, c in enumerate(counts) if c}
    return WalkTrace(tuple(states), seed, "full"), empirical


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
    Raises CoherentComponentError when any paired component is coherent
    (the conditional walk is then not aperiodic).
    """
    cover.require_strong()
    pairs = component_correspondence(cover, k)
    if not pairs:
        raise ValueError(f"no paired components in dimensions {k - 1}/{k}")
    rate = 0.0
    quot = operators.build_conditional(cover, k - 1, "up", "quotient")
    sgn = operators.build_conditional(cover, k - 1, "up", "signed")
    for _down_comp, up_comp in pairs:
        if detect_coherent(cover, up_comp, "up") is not None:
            raise CoherentComponentError(
                "conditional walk is not aperiodic on a coherent component"
            )
        idx = [quot.nodes.index(q) for q in up_comp]
        ev_quot = operators.eigen(quot.sm.restrict(idx, idx).to_float()).eigenvalues
        ev_sgn = operators.eigen(sgn.sm.restrict(idx, idx).to_float()).eigenvalues
        rate = max(rate, ev_quot[-2], -ev_sgn[0])
    return rate
