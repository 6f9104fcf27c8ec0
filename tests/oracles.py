"""Independent brute-force oracles used to cross-check library results.

Everything here is written straight from the definitions (path
enumeration, exhaustive orientation search, naive double loops) and does
not share code with the library implementations it checks.  The
exceptions are the reference implementations that faster library code
replaced, kept to pin its results exactly:

- the scalar SplitMix64 generator and the per-word walk loop, which pin
  the block-drawn word stream and the walk's visit counts and digest;
- the dense Bareiss elimination, which pins the sparse rank, and the
  dense Fraction arrays (``as_object_array``) that the sparse exact
  matrices are checked against;
- the float multiset match and eigenvalue count, which cross-check the
  exact split identities and rank-based multiplicities through spectra;
- the plain ascending mask scans and the Gray-code orientation walk at
  the end, which pin the cut witnesses (lowest mask, lowest Gray rank);
  they share the weight integerization and sign propagation with the
  library.
"""

import hashlib
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import numpy as np

from hodgewalk.cheeger import _integerized
from hodgewalk.exact import ScaledMatrix
from hodgewalk.graded_cover import propagate_signs


def as_object_array(rows):
    """Dense 2-D object array of Fractions from a list of equal-length rows."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    out = np.empty((n_rows, n_cols), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            out[i, j] = Fraction(v)
    return out


def ascending_paths(cover, q):
    """All ascending paths from q to any leaf, as node tuples."""
    if cover.is_leaf(q):
        return [(q,)]
    paths = []
    for v in cover.parents[q]:
        paths.extend((q,) + p for p in ascending_paths(cover, v))
    return paths


def descending_paths(cover, q):
    if cover.is_root(q):
        return [(q,)]
    paths = []
    for t in cover.children[q]:
        paths.extend((q,) + p for p in descending_paths(cover, t))
    return paths


def root_to_leaf_paths(cover):
    paths = []
    for r in range(cover.n_quotient):
        if cover.is_root(r):
            paths.extend(tuple(p) for p in ascending_paths(cover, r))
    return paths


def coherence_by_enumeration(cover, component, direction):
    """Exhaustive 2^n orientation search for a coherence witness."""
    comp = sorted(component)
    lonely = cover.is_leaf if direction == "up" else cover.is_root
    if len(comp) == 1 and lonely(comp[0]):
        return False
    # (a, b, s_a, s_b) per pair and shared mid-node, built once
    pairs = []
    for i, a in enumerate(comp):
        for b in comp[i + 1:]:
            if direction == "up":
                for m in cover.shared_parents(a, b):
                    pairs.append((a, b, cover.sign_ref[(a, m)], cover.sign_ref[(b, m)]))
            else:
                for m in cover.shared_children(a, b):
                    pairs.append((a, b, cover.sign_ref[(m, a)], cover.sign_ref[(m, b)]))
    for flips in product((False, True), repeat=len(comp)):
        orient = dict(zip(comp, flips))
        if all(
            sa * (-1 if orient[a] else 1) == sb * (-1 if orient[b] else 1)
            for a, b, sa, sb in pairs
        ):
            return True
    return False


def naive_cheeger_quotient(aux):
    """Plain double loop over proper nonempty subsets, Fraction arithmetic."""
    n = aux.n
    best = None
    for mask in range(1, (1 << n) - 1):
        inside = [(mask >> i) & 1 for i in range(n)]
        cut = sum(
            w for (i, j), w in zip(aux.edges, aux.weight) if inside[i] != inside[j]
        )
        mu_in = sum(m for i, m in enumerate(aux.measure) if inside[i])
        mu_out = sum(aux.measure) - mu_in
        beta = Fraction(cut) / min(mu_in, mu_out)
        if best is None or beta < best:
            best = beta
    return best


def naive_cheeger_signed(aux):
    """Plain double loop over (subset, full orientation) pairs."""
    n = aux.n
    best = None
    for mask in range(1, 1 << n):
        inside = [(mask >> i) & 1 for i in range(n)]
        mu_in = sum(m for i, m in enumerate(aux.measure) if inside[i])
        cut = sum(
            w for (i, j), w in zip(aux.edges, aux.weight) if inside[i] != inside[j]
        )
        for bits in range(1 << n):
            x = [1 if (bits >> i) & 1 == 0 else -1 for i in range(n)]
            neg = sum(
                2 * w
                for (i, j), w, s in zip(aux.edges, aux.weight, aux.sign)
                if inside[i] and inside[j] and x[i] * x[j] * s == -1
            )
            beta = Fraction(cut + neg) / mu_in
            if best is None or beta < best:
                best = beta
    return best


_MASK = (1 << 64) - 1


class SplitMix64:
    """Scalar SplitMix64 generator (Steele, Lea, Flood 2014 mixing constants)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_bit(self) -> int:
        return self.next_word() & 1

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, for 1 <= n <= 2**64; a
        larger n needs more than one word and raises OverflowError."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n > 1 << 64:
            raise OverflowError(f"a draw below {n} needs more than one 64-bit word")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_word()
            if r < limit:
                return r % n


def weighted_index(cumulative, rng):
    """Pick index i with probability (cum[i] - cum[i-1]) / cum[-1]."""
    r = rng.randbelow(cumulative[-1])
    return bisect_right(cumulative, r)


def reference_walk(cover, pw, start, steps, seed):
    """The per-word walk loop the streamed simulator replaced.

    Returns (states, counts): every visited cover state, the start
    included, and the visit count of each cover state.
    """
    n = cover.n_quotient
    # status: 0 isolated, 1 leaf-only, 2 root-only, 3 interior
    status = []
    up_cum, up_tgt, dn_cum, dn_tgt = [], [], [], []
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
    return states, counts


def states_digest(states):
    """SHA-256 hex digest of a state sequence, each state a little-endian uint64."""
    return hashlib.sha256(np.asarray(states, dtype="<u8").tobytes()).hexdigest()


def bareiss_rank(mat):
    """Rank of an integer matrix by dense fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in mat]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col]
            for c in range(col, n_cols):
                m[r][c] = (p * m[r][c] - factor * m[row][c]) // prev
        prev = p
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def one_step_transition(cover, view):
    """Exact one-step transition matrix from the S/U/D action rules.

    The action is drawn by leaf/root status, each allowed action with
    probability 1/2 (S alone on an isolated node).  S moves to either lift
    with probability 1/2; U picks a parent v with odds LP(v)/LP(q) and moves
    to its lift u' with [u' : u] = +1; D picks a child t with odds
    RP(t)/RP(q) and moves to its lift u' with [u : u'] = -1.  Path counts
    come from path enumeration.  The quotient view folds the two lifts of
    each target together.
    """
    n = cover.n_quotient
    lp = [len(ascending_paths(cover, q)) for q in range(n)]
    rp = [len(descending_paths(cover, q)) for q in range(n)]
    P = np.empty((2 * n, 2 * n), dtype=object)
    P[:, :] = Fraction(0)
    for u in range(2 * n):
        q = u % n
        leaf, root = cover.is_leaf(q), cover.is_root(q)
        if leaf and root:
            actions = ("S",)
        elif leaf:
            actions = ("S", "D")
        elif root:
            actions = ("S", "U")
        else:
            actions = ("U", "D")
        p_action = Fraction(1, len(actions))
        for action in actions:
            if action == "S":
                P[u, q] += p_action / 2
                P[u, q + n] += p_action / 2
            elif action == "U":
                for v in cover.parents[q]:
                    (lift,) = [x for x in (v, v + n) if cover.cover_sign(u, x) == 1]
                    P[u, lift] += p_action * Fraction(lp[v], lp[q])
            else:
                for t in cover.children[q]:
                    (lift,) = [x for x in (t, t + n) if cover.cover_sign(x, u) == -1]
                    P[u, lift] += p_action * Fraction(rp[t], rp[q])
    if view == "cover":
        return P
    return P[:n, :n] + P[:n, n:]


def two_step_conditional(P, dims, k, direction, lonely):
    """Conditional walk matrix from the full quotient transition matrix.

    Conditioning halves each of the two steps (probability 1/2 of moving
    the required way), so the conditioned product is scaled by 4.  Lonely
    nodes (leaves for up, roots for down) keep an identity row.
    """
    nodes = [q for q, d in enumerate(dims) if d == k]
    mid_dim = k + 1 if direction == "up" else k - 1
    mids = [q for q, d in enumerate(dims) if d == mid_dim]
    m = len(nodes)
    out = np.empty((m, m), dtype=object)
    out[:, :] = Fraction(0)
    for a, qa in enumerate(nodes):
        if lonely(qa):
            out[a, a] = Fraction(1)
            continue
        for b, qb in enumerate(nodes):
            total = Fraction(0)
            for v in mids:
                total += P[qa, v] * P[v, qb]
            out[a, b] = 4 * total
    return nodes, out


def two_step_conditional_cover(P, dims, n, k, direction, lonely):
    """Cover version of the two-step conditioning oracle."""
    nodes = [q for q, d in enumerate(dims) if d == k]
    nodes = nodes + [q + n for q in nodes]
    mid_dim = k + 1 if direction == "up" else k - 1
    mids = [q for q, d in enumerate(dims) if d == mid_dim]
    mids = mids + [q + n for q in mids]
    m = len(nodes)
    out = np.empty((m, m), dtype=object)
    out[:, :] = Fraction(0)
    for a, ua in enumerate(nodes):
        if lonely(ua % n):
            flip = nodes.index(ua + n if ua < n else ua - n)
            out[a, a] = Fraction(1, 2)
            out[a, flip] = Fraction(1, 2)
            continue
        for b, ub in enumerate(nodes):
            total = Fraction(0)
            for v in mids:
                total += P[ua, v] * P[v, ub]
            out[a, b] = 4 * total
    return nodes, out


def sample_step_by_paths(cover, pw, u, rng):
    """One walk step via the uniform root-to-leaf path description.

    Draws a uniform root-to-leaf path through the quotient node, then
    follows the action rules, moving along the sampled path for U/D.
    """
    n = cover.n_quotient
    q, flip = u % n, u >= n
    leaf, root = cover.is_leaf(q), cover.is_root(q)
    through = [p for p in root_to_leaf_paths(cover) if q in p]
    path = through[rng.randbelow(len(through))]
    i = path.index(q)
    if leaf and root:
        return q + n * rng.next_bit()
    if leaf != root:
        action = ("S", "D" if leaf else "U")[rng.next_bit()]
    else:
        action = ("U", "D")[rng.next_bit()]
    if action == "S":
        return q + n * rng.next_bit()
    if action == "U":
        v = path[i + 1]
        target_flip = flip ^ (cover.sign_ref[(q, v)] == -1)
        return v + n * target_flip
    t = path[i - 1]
    target_flip = flip ^ (cover.sign_ref[(t, q)] == 1)
    return t + n * target_flip


def normalized_graph_laplacian(complex):
    """Classic symmetric normalized Laplacian of a 1-dimensional complex.

    Returned exactly as D^(-1/2) (D - A) D^(-1/2), i.e. a ScaledMatrix with
    scales 1/deg and body D - A; entries themselves are irrational.
    """
    vertices = complex.faces_by_dim[0]
    pos = {f.vertices[0]: i for i, f in enumerate(vertices)}
    nv = len(vertices)
    body = np.empty((nv, nv), dtype=object)
    body[:, :] = Fraction(0)
    deg = [Fraction(0)] * nv
    for e in complex.faces_by_dim[1]:
        i, j = pos[e.vertices[0]], pos[e.vertices[1]]
        body[i, j] = body[j, i] = Fraction(-1)
        deg[i] += 1
        deg[j] += 1
    if any(d == 0 for d in deg):
        raise ValueError("graph has an isolated vertex")
    for i in range(nv):
        body[i, i] = deg[i]
    inv = [Fraction(1) / d for d in deg]
    return from_dense(inv, inv, body)


# -- reference cut searches: the full ascending scans and Gray-code walk --


def _quotient_scan(args):
    """Minimize cut/min-measure over masks in [lo, hi); exact integer compare."""
    pairs, mints, total_m, lo, hi, full = args
    best_num = best_den = None
    best_mask = None
    for mask in range(lo, hi):
        if mask == 0 or mask == full:
            continue
        mu = 0
        m = mask
        while m:
            low = m & -m
            mu += mints[low.bit_length() - 1]
            m ^= low
        cut = 0
        for i, j, w in pairs:
            if ((mask >> i) & 1) != ((mask >> j) & 1):
                cut += w
        den = min(mu, total_m - mu)
        if best_num is None or cut * best_den < best_num * den:
            best_num, best_den, best_mask = cut, den, mask
    return best_num, best_den, best_mask


def reference_cheeger_quotient(aux):
    """(h, witness subset) by the full ascending mask scan; lowest mask wins ties."""
    n = aux.n
    wints, wden, mints, mden = _integerized(aux)
    pairs = [(i, j, w) for (i, j), w in zip(aux.edges, wints)]
    total_m = sum(mints)
    full = (1 << n) - 1
    best_num, best_den, best_mask = _quotient_scan((pairs, mints, total_m, 0, full + 1, full))
    h = Fraction(best_num, wden) / Fraction(best_den, mden)
    witness = tuple(aux.nodes[i] for i in range(n) if (best_mask >> i) & 1)
    return h, witness


def reference_signed_best_orientation(members, pairs_in):
    """Minimal within-subset negative weight over orientations, with witness.

    Orientations are enumerated per connected piece of the induced graph
    with one node fixed per piece (switching equivalence); the negative
    pair weight counts both ordered pairs, hence the factor 2.  The scan
    walks a Gray code over the free nodes, updating the frustrated weight
    incrementally through each node's incident pairs.
    """
    m = len(members)
    incident = [[] for _ in range(m)]
    for pi, (i, j, _w, _s) in enumerate(pairs_in):
        incident[i].append(pi)
        incident[j].append(pi)
    pieces = propagate_signs(range(m), [(i, j, 1) for (i, j, _w, _s) in pairs_in])[1]
    free = [x for piece in pieces for x in piece[1:]]
    x = [1] * m
    bad = [s == -1 for (_i, _j, _w, s) in pairs_in]
    neg = sum(2 * w for (_i, _j, w, _s), b in zip(pairs_in, bad) if b)
    best, best_x = neg, list(x)
    if best == 0 or not free:
        return best, best_x
    gray_prev = 0
    for t in range(1, 1 << len(free)):
        gray = t ^ (t >> 1)
        node = free[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        x[node] = -x[node]
        for pi in incident[node]:
            i, j, w, s = pairs_in[pi]
            now_bad = x[i] * x[j] * s == -1
            if now_bad != bad[pi]:
                neg += 2 * w if now_bad else -2 * w
                bad[pi] = now_bad
        if neg < best:
            best, best_x = neg, list(x)
            if best == 0:
                break
    return best, best_x


def reference_cheeger_signed(aux):
    """(h, (subset, orientation)) by the ascending mask scan with the Gray walk."""
    n = aux.n
    x, _pieces, frustrated = propagate_signs(
        range(n), [(i, j, s) for (i, j), s in zip(aux.edges, aux.sign)]
    )
    if not frustrated:
        orientation = {aux.nodes[i]: (x[i] == -1) for i in range(n)}
        return Fraction(0), (tuple(aux.nodes), orientation)
    wints, wden, mints, mden = _integerized(aux)
    pairs = [(i, j, w, s) for (i, j), w, s in zip(aux.edges, wints, aux.sign)]
    # a cheap upper bound on the minimum strengthens pruning from the start:
    # the full set under the propagated orientation, and every singleton
    bound_num = sum(2 * wints[e] for e in frustrated)
    bound_den = sum(mints)
    for i in range(n):
        deg = sum(w for (a, b, w, _s) in pairs if i in (a, b))
        if deg * bound_den < bound_num * mints[i]:
            bound_num, bound_den = deg, mints[i]
    best_num = best_den = None
    best_mask = best_x = None
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        member_pos = {node: p for p, node in enumerate(members)}
        mu = sum(mints[i] for i in members)
        cut = 0
        pairs_in = []
        for (i, j, w, s) in pairs:
            ini, inj = (mask >> i) & 1, (mask >> j) & 1
            if ini != inj:
                cut += w
            elif ini:
                pairs_in.append((member_pos[i], member_pos[j], w, s))
        if cut * bound_den > bound_num * mu:
            continue
        if best_num is not None and cut * best_den >= best_num * mu:
            continue
        neg, x = reference_signed_best_orientation(members, pairs_in)
        num = cut + neg
        if best_num is None or num * best_den < best_num * mu:
            best_num, best_den, best_mask, best_x = num, mu, mask, (members, x)
    h = Fraction(best_num, wden) / Fraction(best_den, mden)
    members, x = best_x
    witness_nodes = tuple(aux.nodes[i] for i in members)
    witness_orientation = {aux.nodes[i]: (xi == -1) for i, xi in zip(members, x)}
    return h, (witness_nodes, witness_orientation)


def multiset_match(a, b, tol=1e-8) -> bool:
    """Equality of two real multisets after sorting, within ``tol``."""
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b)))


def float_multiplicity(values, target, gap=1e-7) -> int:
    """How many of the float eigenvalues ``values`` lie within ``gap`` of ``target``."""
    return sum(1 for v in values if abs(v - target) < gap)


# -- dense Fraction references of the exact ScaledMatrix operations ----------
# A dense triple is (row scales, column scales, body as a list of rows of
# Fractions), standing for diag(rows)^(1/2) @ body @ diag(cols)^(1/2).


def exact_sqrt(x):
    """Square root of a nonnegative Fraction when it is rational, else None."""
    a, b = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(a, b) if a * a == x.numerator and b * b == x.denominator else None


def dense_of(m):
    """The dense triple of a ScaledMatrix."""
    return tuple(m.row_scale), tuple(m.col_scale), [list(row) for row in m.body]


def from_dense(row_scale, col_scale, body):
    """The ScaledMatrix over the given scales with a dense body (rows of ints or Fractions)."""
    return ScaledMatrix(row_scale, col_scale, [dict(enumerate(row)) for row in body])


def dense_matmul(a, b):
    """a @ b entry by entry; each inner factor sqrt(c_k * r_k) must be rational
    where both factors are nonzero."""
    (ra, ca, x), (rb, cb, y) = a, b
    out = [[Fraction(0)] * len(cb) for _ in ra]
    for k in range(len(ca)):
        for i in range(len(ra)):
            for j in range(len(cb)):
                if x[i][k] and y[k][j]:
                    root = exact_sqrt(ca[k] * rb[k])
                    if root is None:
                        raise ValueError("irrational inner factor")
                    out[i][j] += x[i][k] * root * y[k][j]
    return ra, cb, out


def dense_rebase(a, rows, cols):
    """The entries of a over new scales; raises where a nonzero entry's
    conversion factor is irrational."""
    ra, ca, x = a
    out = []
    for i, row in enumerate(x):
        new = []
        for j, v in enumerate(row):
            f = exact_sqrt(ra[i] * ca[j] / (rows[i] * cols[j])) if v else Fraction(0)
            if f is None:
                raise ValueError("irrational conversion factor")
            new.append(v * f)
        out.append(new)
    return tuple(rows), tuple(cols), out


def dense_sum(a, b):
    """a + b over a's scales, or over b's when b does not rebase onto a's."""
    try:
        b = dense_rebase(b, a[0], a[1])
    except ValueError:
        a = dense_rebase(a, b[0], b[1])
    return a[0], a[1], [[x + y for x, y in zip(p, q)] for p, q in zip(a[2], b[2])]


def dense_to_float(a):
    """Float mirror through float(Fraction) of every body entry."""
    ra, ca, x = a
    body = np.array([[float(v) for v in row] for row in x], dtype=float).reshape(len(ra), len(ca))
    r = np.sqrt(np.array([float(s) for s in ra]))
    c = np.sqrt(np.array([float(s) for s in ca]))
    return body * np.outer(r, c)
