"""Witness graph families and the (gamma, r) graph process.

The building block is the gamma-product of a path and a perfect r-ary
tree: the two are laid side by side and every pair of vertices at equal
depth is joined by a fresh path with gamma inner vertices.  The plain
witness graph W(a) is the gamma-product of a path on ``a`` vertices with
a perfect r-ary tree on omega(a) = (r^a - 1)/(r - 1) vertices.

The starred witness graph W*(a) glues together three blocks:

* W(a) itself, on the path F1 and the r-ary tree F2;
* a second product on a path TF1 with omega(a) vertices and a perfect
  r-ary tree TF2 with omega(omega(a)) vertices;
* connector paths matching the k-th vertex of F2 in breadth-first order
  with the k-th vertex of TF1, one path per rank (the rank-bijective
  ordered product).

The product is written in one place, _Builder.join_by_depth, which wires
each tree rank to the path vertex at its depth: build_W calls it for
(F1, F2), build_W_star for (F1, F2) and (TF1, TF2), with the
rank-bijective connectors from F2 to TF1 between the two calls.

With that third block W*(1) collapses to a path on 3*gamma + 4 vertices,
and the graph process below reproduces every W*(a) exactly.

The process grows W*(1) one step at a time; which rule applies is a
function of the current vertex count alone:

* at count V(a): extend the F1 path by one vertex;
* then, for each sub-round j = 0..r^a - 1: grow one new F2 leaf and wire
  it to the new F1 end (gamma+1 vertices); extend TF1 by one vertex wired
  back to that leaf (gamma+1 vertices); grow r^{omega(a)+j} new TF2
  leaves, each wired to the new TF1 end (gamma+1 vertices each).

Tree vertices are numbered breadth-first, so vertex k > 0 of a tree hangs
off vertex (k - 1) // r; a path is the same rule with r = 1.  New process
leaves follow that rule too, which reproduces the perfect-tree numbering.

Growth walks the schedule a run of equal rules at a time, and each run is
one builder call: the r^{omega(a)+j} TF2 steps of a sub-round hang their
leaves and connectors in one loop that writes the rows directly.
process_step and process_run share that path; a step is a run of one.

The parity check has_gamma_r_property searches each W*(a) in
hotpath.search_order with nothing pinned; W*(a) and that order are built
once per (a, gamma, r) and cached, as detect.witness_pattern does for
W(a).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import DEFAULT_BUDGET, BudgetExceededError, Graph, check_budget, mask_of
from . import hotpath

ROLE_F1 = "F1"
ROLE_F2 = "F2"
ROLE_TF1 = "TF1"
ROLE_TF2 = "TF2"
ROLE_CONNECTOR = "CONN"


class WitnessError(ValueError):
    """Bad family parameters (a < 1, gamma < 0, r < 2) or malformed input."""


class ProcessError(ValueError):
    """Process state whose vertex count matches no growth rule."""


def omega(a: int, r: int) -> int:
    """Vertex count of the perfect r-ary tree of depth a - 1.

    For r = 2^s the power r^a is the shift 1 << s*a, which costs time
    linear in its bits where ** squares its way up.
    """
    if a < 0:
        raise WitnessError("a must be nonnegative")
    if r < 2:
        raise WitnessError("r must be at least 2")
    if r & (r - 1) == 0:
        return ((1 << (r.bit_length() - 1) * a) - 1) // (r - 1)
    return (r**a - 1) // (r - 1)


def _check_params(a: int, gamma: int, r: int) -> None:
    if a < 1:
        raise WitnessError("a must be at least 1")
    if gamma < 0:
        raise WitnessError("gamma must be nonnegative")
    if r < 2:
        raise WitnessError("r must be at least 2")


def w_vertex_count(a: int, gamma: int, r: int) -> int:
    return a + (gamma + 1) * omega(a, r)


def w_edge_count(a: int, gamma: int, r: int) -> int:
    return a + (gamma + 2) * omega(a, r) - 2


def w_star_vertex_count(a: int, gamma: int, r: int, tower: int | None = None) -> int:
    """V(a) = |W*(a)|; tower is omega(omega(a)), the size of TF2, when the
    caller has already built it."""
    if tower is None:
        tower = omega(omega(a, r), r)
    return a + 2 * (gamma + 1) * omega(a, r) + (gamma + 1) * tower


def w_star_edge_count(a: int, gamma: int, r: int) -> int:
    return a + 2 * (gamma + 2) * omega(a, r) + (gamma + 2) * omega(omega(a, r), r) - 4


class _Builder:
    """Writes a witness graph as int adjacency rows, with one role per
    vertex.  It starts empty or from a copy of a graph and its roles (the
    source is never mutated); connectors are paths with gamma fresh inner
    vertices (a direct edge when gamma == 0)."""

    def __init__(
        self, gamma: int, graph: Graph | None = None, roles: tuple[str, ...] = ()
    ):
        self.gamma = gamma
        self.rows: list[int] = list(graph.bits) if graph is not None else []
        self.m = graph.m if graph is not None else 0
        self.roles: list[str] = list(roles)

    def vertex(self, role: str) -> int:
        self.roles.append(role)
        self.rows.append(0)
        return len(self.rows) - 1

    def edge(self, u: int, v: int) -> None:
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u
        self.m += 1

    def connector(self, u: int, v: int) -> None:
        prev = u
        for _ in range(self.gamma):
            w = self.vertex(ROLE_CONNECTOR)
            self.edge(prev, w)
            prev = w
        self.edge(prev, v)

    def grow(self, tree: list[int], r: int, role: str) -> int:
        """Append a vertex to a breadth-first numbered tree: rank k > 0
        hangs off rank (k - 1) // r, so r = 1 grows a path."""
        v = self.vertex(role)
        if tree:
            self.edge(tree[(len(tree) - 1) // r], v)
        tree.append(v)
        return v

    def tree(self, k: int, r: int, role: str) -> list[int]:
        """The perfect-tree prefix of k vertices, breadth-first."""
        t: list[int] = []
        for _ in range(k):
            self.grow(t, r, role)
        return t

    def path(self, k: int, role: str) -> list[int]:
        return self.tree(k, 1, role)

    def join_by_depth(self, path: list[int], tree: list[int], r: int) -> None:
        """Connect each tree rank, in order, to the path vertex at its depth."""
        depth = [0] * len(tree)
        for k, v in enumerate(tree):
            if k:
                depth[k] = depth[(k - 1) // r] + 1
            self.connector(path[depth[k]], v)

    def graph(self) -> Graph:
        return Graph._from_rows(self.rows, self.m)


def _role_lines(roles: tuple[str, ...]) -> str:
    """The "vertex role" sidecar: one `v role` line per vertex."""
    return "".join(f"{v} {role}\n" for v, role in enumerate(roles))


@dataclass(frozen=True)
class WitnessGraph:
    """A witness graph with its construction bookkeeping.

    f1/tf1 hold path vertices in path order; f2/tf2 hold tree vertices in
    breadth-first order.  Roots are f1[0], f2[0], tf1[0], tf2[0].
    """

    graph: Graph
    roles: tuple[str, ...]
    a: int
    gamma: int
    r: int
    starred: bool
    f1: tuple[int, ...]
    f2: tuple[int, ...]
    tf1: tuple[int, ...] = ()
    tf2: tuple[int, ...] = ()

    def role_lines(self) -> str:
        return _role_lines(self.roles)


def build_W(a: int, gamma: int, r: int) -> WitnessGraph:
    """Witness graph W(a): gamma-product of the path on a vertices with
    the perfect r-ary tree on omega(a) vertices."""
    _check_params(a, gamma, r)
    b = _Builder(gamma)
    f1 = b.path(a, ROLE_F1)
    f2 = b.tree(omega(a, r), r, ROLE_F2)
    b.join_by_depth(f1, f2, r)
    g = b.graph()
    assert g.n == w_vertex_count(a, gamma, r)
    assert g.m == w_edge_count(a, gamma, r)
    return WitnessGraph(g, tuple(b.roles), a, gamma, r, False, tuple(f1), tuple(f2))


def build_W_star(a: int, gamma: int, r: int) -> WitnessGraph:
    """Starred witness graph W*(a): W(a) on (F1, F2), a second product on
    (TF1, TF2), and one connector path per breadth-first rank matching F2
    with TF1."""
    _check_params(a, gamma, r)
    w = omega(a, r)
    b = _Builder(gamma)
    f1 = b.path(a, ROLE_F1)
    f2 = b.tree(w, r, ROLE_F2)
    tf1 = b.path(w, ROLE_TF1)
    tf2 = b.tree(omega(w, r), r, ROLE_TF2)
    b.join_by_depth(f1, f2, r)
    for u, v in zip(f2, tf1):
        b.connector(u, v)
    b.join_by_depth(tf1, tf2, r)
    g = b.graph()
    assert g.n == w_star_vertex_count(a, gamma, r)
    assert g.m == w_star_edge_count(a, gamma, r)
    return WitnessGraph(
        g, tuple(b.roles), a, gamma, r, True,
        tuple(f1), tuple(f2), tuple(tf1), tuple(tf2),
    )


@dataclass(frozen=True)
class ProcessState:
    """Snapshot of the graph process.

    floor is the largest a with a completed W*(a) inside the snapshot;
    step counts applied growth steps.  f1/tf1 hold path vertices in path
    order and f2/tf2 tree vertices in breadth-first order, so the next
    leaf of a tree t hangs off t[(len(t) - 1) // r].
    """

    gamma: int
    r: int
    graph: Graph
    roles: tuple[str, ...]
    floor: int
    step: int
    f1: tuple[int, ...]
    f2: tuple[int, ...]
    tf1: tuple[int, ...]
    tf2: tuple[int, ...]

    def role_lines(self) -> str:
        return _role_lines(self.roles)


def process_init(gamma: int, r: int) -> ProcessState:
    """Initial state: W*(1), a path on 3 * gamma + 4 vertices."""
    ws = build_W_star(1, gamma, r)
    return ProcessState(
        gamma, r, ws.graph, ws.roles, floor=1, step=0,
        f1=ws.f1, f2=ws.f2, tf1=ws.tf1, tf2=ws.tf2,
    )


def _hang_leaves(
    b: _Builder, tree: list[int], anchor: int, r: int, role: str, k: int
) -> None:
    """Hang k new leaves on the non-empty breadth-first tree `tree`, each
    wired to anchor by a connector, numbered as k rounds of
    b.grow(tree, r, role) and b.connector(anchor, leaf) would number
    them.  The rows are written here directly and anchor's new bits are
    OR-ed into its row once, so a run of k steps is one call."""
    rows, gamma = b.rows, b.gamma
    leaf = len(rows)
    anchor_bits = 0
    for _ in range(k):
        parent = tree[(len(tree) - 1) // r]
        tree.append(leaf)
        rows[parent] |= 1 << leaf
        if gamma:
            # The connector's inner vertices leaf + 1 .. leaf + gamma run
            # from anchor to the leaf.
            anchor_bits |= 2 << leaf
            rows.append(1 << parent | 1 << (leaf + gamma))
            prev = anchor
            for w in range(leaf + 1, leaf + gamma):
                rows.append(1 << prev | 2 << w)
                prev = w
            rows.append(1 << prev | 1 << leaf)
        else:
            anchor_bits |= 1 << leaf
            rows.append(1 << parent | 1 << anchor)
        leaf += gamma + 1
    rows[anchor] |= anchor_bits
    b.roles.extend(([role] + [ROLE_CONNECTOR] * gamma) * k)
    b.m += k * (gamma + 2)


def _extend_f1(b: _Builder, trees: tuple[list[int], ...], r: int, k: int) -> None:
    for _ in range(k):
        b.grow(trees[0], 1, ROLE_F1)


def _extend_f2(b: _Builder, trees: tuple[list[int], ...], r: int, k: int) -> None:
    _hang_leaves(b, trees[1], trees[0][-1], r, ROLE_F2, k)


def _extend_tf1(b: _Builder, trees: tuple[list[int], ...], r: int, k: int) -> None:
    for _ in range(k):
        b.connector(b.grow(trees[2], 1, ROLE_TF1), trees[1][-1])


def _extend_tf2(b: _Builder, trees: tuple[list[int], ...], r: int, k: int) -> None:
    _hang_leaves(b, trees[3], trees[2][-1], r, ROLE_TF2, k)


def _stage_schedule(a: int, gamma: int, r: int):
    """The growth rules that turn W*(a) into W*(a + 1), in order, as
    (rule, repeats, vertices per step) runs: one F1 step, then r^a
    sub-rounds j of one F2 step, one TF1 step and r^(omega(a)+j) TF2
    steps.  This is the one statement of the rule order."""
    yield _extend_f1, 1, 1
    width = r ** omega(a, r)
    for _ in range(r**a):
        yield _extend_f2, 1, gamma + 1
        yield _extend_tf1, 1, gamma + 1
        yield _extend_tf2, width, gamma + 1
        width *= r


def _runs_from(v: int, floor: int, gamma: int, r: int):
    """(floor, rule, steps) runs from vertex count v on: the schedule of
    floor resumed at v, then the schedules of the later floors."""
    count = w_star_vertex_count(floor, gamma, r)
    while True:
        for rule, repeats, size in _stage_schedule(floor, gamma, r):
            start, count = count, count + repeats * size
            if start <= v < count:
                left, off = divmod(count - v, size)
                if off:
                    raise ProcessError(
                        f"vertex count {v} matches no rule at floor {floor}")
                yield floor, rule, left
                v = count
        if v != count:
            raise ProcessError(f"vertex count {v} matches no rule at floor {floor}")
        floor += 1


def _grow(
    b: _Builder, trees: tuple[list[int], ...], floor: int, r: int, steps: int
) -> int:
    """Apply `steps` growth steps to b and to the f1, f2, tf1, tf2 lists in
    trees, walking the stage schedule from the builder's vertex count with
    one rule(b, trees, r, k) call per run of k equal steps; returns the new
    floor."""
    runs = _runs_from(len(b.rows), floor, b.gamma, r)
    while steps:
        floor, rule, k = next(runs)
        k = min(k, steps)
        steps -= k
        rule(b, trees, r, k)
    if len(b.rows) == w_star_vertex_count(floor + 1, b.gamma, r):
        return floor + 1
    return floor


def _snapshot(
    b: _Builder, trees: tuple[list[int], ...], floor: int, r: int, step: int
) -> ProcessState:
    f1, f2, tf1, tf2 = trees
    return ProcessState(
        b.gamma, r, b.graph(), tuple(b.roles), floor, step,
        tuple(f1), tuple(f2), tuple(tf1), tuple(tf2),
    )


def _builder_of(state: ProcessState) -> tuple[_Builder, tuple[list[int], ...]]:
    """A builder and bookkeeping lists copied from state (never shared)."""
    trees = (list(state.f1), list(state.f2), list(state.tf1), list(state.tf2))
    return _Builder(state.gamma, state.graph, state.roles), trees


def process_step(state: ProcessState) -> ProcessState:
    """Apply the growth rule that the stage schedule gives for the current
    vertex count and return the new state (states are never mutated in
    place).

    This is process_run's growth path with a run of one step.  A step
    still copies the whole state into a builder, so it costs time linear
    in the graph size; process_run grows many steps without the copies.
    """
    b, trees = _builder_of(state)
    floor = _grow(b, trees, state.floor, state.r, 1)
    return _snapshot(b, trees, floor, state.r, state.step + 1)


def process_run(gamma: int, r: int, steps: int) -> ProcessState:
    """The state after `steps` growth steps from process_init(gamma, r).

    Equal to folding process_step `steps` times, but every step is applied
    to one builder and one set of bookkeeping lists, and a single state is
    built at the end, so a run costs time linear in its step count (plus
    the row writes themselves) instead of one copy of the graph per step.
    The run walks the stage schedule once, and each run of equal rules is
    one builder call.
    """
    if steps < 0:
        raise ProcessError(f"steps must be nonnegative, got {steps}")
    state = process_init(gamma, r)
    b, trees = _builder_of(state)
    floor = _grow(b, trees, state.floor, r, steps)
    return _snapshot(b, trees, floor, r, steps)


@dataclass(frozen=True)
class PropertyWitness:
    """Outcome of the (gamma, r) property check, truthy when it holds."""

    holds: bool
    a: int | None = None
    embedding: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


@functools.lru_cache(maxsize=64)
def _star_pattern(a: int, gamma: int, r: int) -> tuple[WitnessGraph, tuple[int, ...]]:
    """W*(a) with the order the parity check searches it in, built once
    per (a, gamma, r)."""
    ws = build_W_star(a, gamma, r)
    return ws, tuple(hotpath.search_order(ws.graph))


def has_gamma_r_property(
    g: Graph, gamma: int, r: int, budget: int = DEFAULT_BUDGET
) -> PropertyWitness:
    """True iff some even a admits an induced copy of W*(a) in g that the
    process cannot extend: no vertex outside the copy is adjacent to
    exactly the image of the F1 path end (the rule-one attachment point).

    Any induced copy of W*(a) is a valid endpoint of a process chain (all
    process edges touch new vertices only), so only the extension check
    varies over copies, and it depends only on the copy's image set and
    the image of the F1 path end.  The kernel collects one embedding per
    such pair (hotpath.embed_search with fixing), so each is checked
    once, in hotpath.search_order of W*(a) with nothing pinned.  W*(a)
    and that order are built once per (a, gamma, r) by _star_pattern.
    budget bounds each a's search, symmetry derivation included, and a
    search that needs more raises BudgetExceededError.
    """
    check_budget(budget)
    a = 2
    while w_star_vertex_count(a, gamma, r) <= g.n:
        ws, order = _star_pattern(a, gamma, r)
        va = ws.f1[-1]
        res = hotpath.embed_search(
            ws.graph, g, mode=hotpath.MODE_COLLECT, order=order, budget=budget,
            fixing=(va,),
        )
        if res.exceeded:
            raise BudgetExceededError(f"search exceeded budget of {budget} expansions")
        for emb in res.embeddings:
            mask = mask_of(emb)
            target = 1 << emb[va]
            extendable = any(
                g.bits[w] & mask == target
                for w in range(g.n)
                if not (mask >> w) & 1
            )
            if not extendable:
                return PropertyWitness(True, a, emb)
        a += 2
    return PropertyWitness(False)
