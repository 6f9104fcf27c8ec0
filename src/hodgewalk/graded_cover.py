"""Double covers of graded signed graphs.

A cover is stored through its involutory quotient: an ordered list of
graded nodes, dimension-increasing edges, and one reference sign per
quotient edge.  The 2N cover nodes are indexed as q (unflipped) and
q + N (flipped); signs between arbitrary lifts follow from the
compatibility rules  [-v : u] = [v : -u] = -[v : u].

Everything derived from one parsed input (path weights, components,
operators, Laplacians, auxiliary graphs) is built by a ``memoized``
function of that cover or complex, so no caller passes such objects on.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from fractions import Fraction

from .complex_core import Face, OrientedFace, SimplicialComplex, incidence_sign


class CoverSpecError(ValueError):
    """Raised on malformed cover-spec input."""


class NonStrongGradingError(ValueError):
    """Raised when dimension-k machinery is requested on a non-strong grading."""


def memoized(fn):
    """Compute ``fn`` once per parsed input and arguments.

    The result is kept in a dict on the first argument (a cover or a
    complex), keyed by ``fn`` and the remaining arguments with their
    defaults filled in, so it lives exactly as long as that input.  Every
    caller gets the same object back and must not mutate it.  A call with
    an unhashable argument (an orientation dict) is computed afresh.  The
    builder itself stays reachable as ``uncached``; ``__wrapped__`` is not
    set, because tracers mark their own wrappers with it.
    """
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        owner, *rest = bound.arguments.values()
        key = (fn, *rest)
        try:
            hash(key)
        except TypeError:
            return fn(*args, **kwargs)
        memo = vars(owner).setdefault("_memo", {})
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    functools.update_wrapper(wrapper, fn)
    del wrapper.__wrapped__
    wrapper.__signature__ = sig
    wrapper.uncached = fn
    return wrapper


class GradedSignedDoubleCover:
    """Quotient view of a double cover of a graded signed graph."""

    def __init__(self, dims, edges, signs, labels, faces=None):
        self.dims: tuple[int, ...] = tuple(dims)
        self.labels: tuple[str, ...] = tuple(labels)
        self.faces: tuple[Face, ...] | None = tuple(faces) if faces is not None else None
        n = len(self.dims)
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        self.sign_ref: dict[tuple[int, int], int] = {}
        for (child, parent), s in zip(edges, signs):
            if self.dims[child] >= self.dims[parent]:
                raise CoverSpecError(
                    f"edge {self.labels[child]} -> {self.labels[parent]} does not increase dimension"
                )
            if s not in (1, -1):
                raise CoverSpecError(f"sign must be +1 or -1, got {s}")
            if (child, parent) in self.sign_ref:
                raise CoverSpecError(f"duplicate edge {self.labels[child]} -> {self.labels[parent]}")
            parents[child].append(parent)
            children[parent].append(child)
            self.sign_ref[(child, parent)] = s
        self.parents: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(p)) for p in parents)
        self.children: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(c)) for c in children)
        self.strong: bool = all(
            self.dims[p] == self.dims[c] + 1 for (c, p) in self.sign_ref
        )
        self.nodes_by_dim: dict[int, tuple[int, ...]] = {}
        for q, d in enumerate(self.dims):
            self.nodes_by_dim.setdefault(d, ())
        for d in self.nodes_by_dim:
            self.nodes_by_dim[d] = tuple(q for q, dq in enumerate(self.dims) if dq == d)

    # -- basic structure ------------------------------------------------

    @property
    def n_quotient(self) -> int:
        return len(self.dims)

    @property
    def n_cover(self) -> int:
        return 2 * len(self.dims)

    def is_leaf(self, q: int) -> bool:
        return not self.parents[q]

    def is_root(self, q: int) -> bool:
        return not self.children[q]

    def is_isolated(self, q: int) -> bool:
        return self.is_leaf(q) and self.is_root(q)

    def cover_label(self, u: int) -> str:
        n = self.n_quotient
        return ("-" if u >= n else "+") + self.labels[u % n]

    def cover_sign(self, child_u: int, parent_u: int) -> int:
        """Sign of the cover edge between two lifts (compatibility rules)."""
        n = self.n_quotient
        s = self.sign_ref[(child_u % n, parent_u % n)]
        if child_u >= n:
            s = -s
        if parent_u >= n:
            s = -s
        return s

    def lifts(self, k: int) -> tuple[int, ...]:
        """Cover indices of the dimension-k nodes, then of their flips."""
        nodes = self.nodes_by_dim.get(k, ())
        return nodes + tuple(q + self.n_quotient for q in nodes)

    def require_strong(self) -> None:
        if not self.strong:
            raise NonStrongGradingError("operation requires a strong grading")

    # -- dimension-k adjacency (strong gradings) -------------------------

    def shared_parents(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.parents[a]) & set(self.parents[b])))

    def shared_children(self, a: int, b: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.children[a]) & set(self.children[b])))

    def adjacency(self, k: int, direction: str) -> dict[int, set[int]]:
        """Dimension-k nodes sharing a parent ('up') or a child ('down')."""
        self.require_strong()
        adj: dict[int, set[int]] = {q: set() for q in self.nodes_by_dim.get(k, ())}
        for a, b, _v, _s in conditional_triples(self, k, direction):
            if a != b:
                adj[a].add(b)
        return adj


def conditional_triples(cover: GradedSignedDoubleCover, k: int, direction: str, near=None):
    """Two-step moves of the conditional walk in dimension k, one per mid-node.

    For each mid-node v (dimension k+1 for 'up', k-1 for 'down') and each
    ordered pair (a, b) of its k-dimensional children (resp. parents),
    a == b included, yields (a, b, v, s_a * s_b), the product of the two
    incidence signs.  Mid-nodes come in ascending order, and so do a and b.
    Given dimension-k nodes ``near`` (one component, say), only the
    mid-nodes next to them are visited, so the cost follows their size.
    """
    up = direction == "up"
    mid_dim = k + 1 if up else k - 1
    mids = cover.nodes_by_dim.get(mid_dim, ())
    if near is not None:
        links = cover.parents if up else cover.children
        mids = sorted({v for a in near for v in links[a] if cover.dims[v] == mid_dim})
    for v in mids:
        if up:
            ends = [(a, cover.sign_ref[(a, v)]) for a in cover.children[v] if cover.dims[a] == k]
        else:
            ends = [(a, cover.sign_ref[(v, a)]) for a in cover.parents[v] if cover.dims[a] == k]
        for a, sa in ends:
            for b, sb in ends:
                yield a, b, v, sa * sb


@memoized
def cover_from_complex(complex: SimplicialComplex) -> GradedSignedDoubleCover:
    """The double cover associated with a simplicial complex.

    Quotient nodes are the faces in global order, edges are the boundary
    subface pairs, and reference signs come from the incidence of the
    ascending-label orientations.  The grading is strong by construction.
    """
    faces = complex.all_faces
    index = {f: i for i, f in enumerate(faces)}
    edges, signs = [], []
    for tau in faces:
        for rho in tau.boundary():
            edges.append((index[rho], index[tau]))
            signs.append(incidence_sign(OrientedFace(tau), OrientedFace(rho)))
    return GradedSignedDoubleCover(
        dims=[f.dimension for f in faces],
        edges=edges,
        signs=signs,
        labels=[str(f) for f in faces],
        faces=faces,
    )


def parse_cover_spec(text: str) -> GradedSignedDoubleCover:
    """Parse the cover-spec format.

    Lines are ``node <id> <dim>`` or ``edge <child-id> <parent-id> <+1|-1>``;
    '#' lines and blank lines are ignored.  Nodes are ordered by
    (dimension, first appearance).
    """
    raw_nodes: list[tuple[str, int]] = []
    raw_edges: list[tuple[str, str, int]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) == 3:
            name, dim = parts[1], parts[2]
            if name in seen:
                raise CoverSpecError(f"line {lineno}: duplicate node {name!r}")
            try:
                raw_nodes.append((name, int(dim)))
            except ValueError:
                raise CoverSpecError(f"line {lineno}: bad dimension {dim!r}") from None
            seen.add(name)
        elif parts[0] == "edge" and len(parts) == 4:
            if parts[3] not in ("+1", "-1", "1"):
                raise CoverSpecError(f"line {lineno}: sign must be +1 or -1")
            raw_edges.append((parts[1], parts[2], int(parts[3])))
        else:
            raise CoverSpecError(f"line {lineno}: unrecognized line {line!r}")
    if not raw_nodes:
        raise CoverSpecError("no nodes in input")
    order = sorted(range(len(raw_nodes)), key=lambda i: (raw_nodes[i][1], i))
    names = [raw_nodes[i][0] for i in order]
    dims = [raw_nodes[i][1] for i in order]
    pos = {name: i for i, name in enumerate(names)}
    edges, signs = [], []
    for child, parent, s in raw_edges:
        if child not in pos or parent not in pos:
            missing = child if child not in pos else parent
            raise CoverSpecError(f"unknown node id {missing!r}")
        edges.append((pos[child], pos[parent]))
        signs.append(s)
    return GradedSignedDoubleCover(dims=dims, edges=edges, signs=signs, labels=names)


# -- path weights ---------------------------------------------------------


@dataclass(frozen=True)
class PathWeights:
    """Leaf-path and root-path counts per quotient node (exact integers)."""

    lp: tuple[int, ...]
    rp: tuple[int, ...]

    def h(self, q: int) -> Fraction:
        return Fraction(self.lp[q], self.rp[q])

    def through(self, q: int) -> int:
        """Number of root-to-leaf paths passing through q."""
        return self.lp[q] * self.rp[q]


@memoized
def compute_path_weights(cover: GradedSignedDoubleCover) -> PathWeights:
    """LP/RP by the defining recursions, processing nodes by dimension."""
    order = sorted(range(cover.n_quotient), key=lambda q: cover.dims[q])
    lp = [0] * cover.n_quotient
    rp = [0] * cover.n_quotient
    for q in reversed(order):
        lp[q] = 1 if cover.is_leaf(q) else sum(lp[v] for v in cover.parents[q])
    for q in order:
        rp[q] = 1 if cover.is_root(q) else sum(rp[t] for t in cover.children[q])
    return PathWeights(tuple(lp), tuple(rp))


def leaves_and_roots(cover: GradedSignedDoubleCover) -> tuple[frozenset[int], frozenset[int]]:
    leaves = frozenset(q for q in range(cover.n_quotient) if cover.is_leaf(q))
    roots = frozenset(q for q in range(cover.n_quotient) if cover.is_root(q))
    return leaves, roots


# -- components -----------------------------------------------------------

COMPONENT_KINDS = ("quotient", "quotient-up", "quotient-down")


def propagate_signs(nodes, edges):
    """Sign propagation over a signed graph (Harary's balance test).

    ``edges`` are (a, b, s) triples asking for x_a * x_b == s.  Each
    connected piece is started at its smallest member with x = +1 and the
    labels spread along a depth-first spanning forest.  Returns (x, pieces,
    frustrated): the label per node, the pieces as ascending tuples ordered
    by smallest member, and the indices of the edges the labels leave
    frustrated (none exactly when the graph is balanced).
    """
    adj: dict[int, list[tuple[int, int]]] = {q: [] for q in sorted(nodes)}
    for a, b, s in edges:
        adj[a].append((b, s))
        adj[b].append((a, s))
    x: dict[int, int] = {}
    pieces = []
    for start in adj:
        if start in x:
            continue
        x[start] = 1
        stack, piece = [start], [start]
        while stack:
            a = stack.pop()
            for b, s in adj[a]:
                if b not in x:
                    x[b] = x[a] * s
                    stack.append(b)
                    piece.append(b)
        pieces.append(tuple(sorted(piece)))
    frustrated = [i for i, (a, b, s) in enumerate(edges) if x[a] * x[b] != s]
    return x, pieces, frustrated


@memoized
def components(
    cover: GradedSignedDoubleCover,
    kind: str,
    k: int | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the requested kind, as ascending tuples
    ordered by smallest member.

    'quotient' joins nodes along the graded edges; 'quotient-up' and
    'quotient-down' join the dimension-k nodes that share a parent or a
    child.  The components of the cover are the lifts {q, q + N} of these
    quotient components: a node and its flip share every neighbour.
    """
    if kind not in COMPONENT_KINDS:
        raise ValueError(f"unknown component kind {kind!r}")
    if kind == "quotient":
        edges = [(c, p, 1) for (c, p) in cover.sign_ref]
        return tuple(propagate_signs(range(cover.n_quotient), edges)[1])
    if k is None:
        raise ValueError("up/down component kinds require a dimension k")
    adj = cover.adjacency(k, kind.split("-")[1])
    return tuple(propagate_signs(adj, [(a, b, 1) for a in adj for b in adj[a] if a < b])[1])


@memoized
def component_correspondence(cover: GradedSignedDoubleCover, k: int):
    """Pairs (down-component in dim k, up-component in dim k-1).

    Non-root down-components map to non-leaf up-components by taking all
    children, with taking all parents as the inverse.
    """
    cover.require_strong()
    if k < 1:
        raise ValueError("k must be at least 1")
    down = components(cover, "quotient-down", k)
    up = components(cover, "quotient-up", k - 1)
    up_of = {q: comp for comp in up for q in comp}
    pairs = []
    for comp in down:
        if all(cover.is_root(q) for q in comp):
            continue
        kids = sorted({t for q in comp for t in cover.children[q]})
        targets = {id(up_of[t]) for t in kids}
        if len(targets) != 1:
            raise AssertionError("down-component children span several up-components")
        up_comp = up_of[kids[0]]
        back = sorted({v for t in up_comp for v in cover.parents[t] if cover.dims[v] == k})
        if tuple(back) != comp:
            raise AssertionError("correspondence is not involutive")
        pairs.append((comp, up_comp))
    return pairs


# -- coherence ------------------------------------------------------------


def detect_coherent(cover: GradedSignedDoubleCover, component, direction: str):
    """Witness orientation making all shared-coface (or shared-face) signs equal.

    Returns a dict {quotient index -> flipped} on the component's nodes, or
    None when the component is not coherent.  Leaf (resp. root) singleton
    components are not coherent by definition; other singletons are, with
    the trivial witness.  Detection is sign propagation over the
    shared-mid-node pairs; two shared mid-nodes asking for contradictory
    pair signs leave one of their edges frustrated.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    comp = tuple(sorted(component))
    if len(comp) == 1:
        q = comp[0]
        lonely = cover.is_leaf(q) if direction == "up" else cover.is_root(q)
        return None if lonely else {q: False}
    members = set(comp)
    edges = [
        (a, b, s)
        for a, b, _v, s in conditional_triples(cover, cover.dims[comp[0]], direction, comp)
        if a < b and a in members and b in members
    ]
    x, _pieces, frustrated = propagate_signs(comp, edges)
    if frustrated:
        return None
    return {q: x[q] == -1 for q in comp}


# -- (k+1)-partitions ------------------------------------------------------


def find_partition(cover: GradedSignedDoubleCover, component):
    """Search for a (k+1)-partition of the vertices under a down-component.

    Only defined for covers of simplicial complexes.  Backtracks over
    vertex-to-class assignments in lexicographic vertex order, pruning on
    the constraint that the vertices of every member face take pairwise
    distinct classes; classes are introduced in first-use order so the
    first witness found is canonical.  The backtracking keeps its own
    cursor instead of recursing, so long vertex lists cannot exhaust the
    interpreter stack.  Returns k+1 vertex-label lists or None.
    """
    if cover.faces is None:
        raise ValueError("partitions are only defined for simplicial covers")
    comp = tuple(sorted(component))
    k = cover.dims[comp[0]]
    if any(cover.dims[q] != k for q in comp):
        raise ValueError("component mixes dimensions")
    member_faces = [cover.faces[q] for q in comp]
    vertices = sorted({v for f in member_faces for v in f.vertices})
    vpos = {v: i for i, v in enumerate(vertices)}
    face_vertexsets = [tuple(vpos[v] for v in f.vertices) for f in member_faces]
    constraints: dict[int, set[int]] = {i: set() for i in range(len(vertices))}
    for fv in face_vertexsets:
        for i, a in enumerate(fv):
            for b in fv[i + 1:]:
                constraints[a].add(b)
                constraints[b].add(a)
    n_classes = k + 1
    assign = [-1] * len(vertices)
    # used[i]: number of classes taken by the vertices before i
    used = [0] * (len(vertices) + 1)
    i = 0
    while 0 <= i < len(vertices):
        forbidden = {assign[j] for j in constraints[i] if j < i}
        cls = assign[i] + 1
        while cls in forbidden:
            cls += 1
        if cls < min(used[i] + 1, n_classes):
            assign[i] = cls
            used[i + 1] = max(used[i], cls + 1)
            i += 1
        else:
            assign[i] = -1
            i -= 1
    if i < 0:
        return None
    classes: list[list[str]] = [[] for _ in range(n_classes)]
    for i, v in enumerate(vertices):
        classes[assign[i]].append(v)
    return classes
