"""FO/EMSO formulas over graphs: AST, text DSL parser, and a brute-force
evaluator with builtin atomic predicates (set quantifiers under an @isoW
guard range over witness copies only).

Grammar (binding gets looser downward; '&', '|' and '<->' associate left,
'->' associates right):

    formula  := quantified | iff
    quantified := ('EX' | 'ALL') var formula | 'EXSET' Var formula
    iff      := implies ('<->' implies)*
    implies  := or ('->' implies)?
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary | '(' formula ')' | atom | quantified
    atom     := name '~' name | name '=' name | name 'in' name
              | '@' name '(' name (',' name)* ')'

Variable kind is determined by the binder: EX/ALL bind vertex variables,
EXSET binds set variables.  Builtins take the host graph plus their
resolved arguments (vertex ids or vertex-set masks) and may consult the
evaluation context only for the ambient parameters gamma and r.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import witness
from .graphs import BudgetExceededError, Graph, dominates, iter_mask, mask_of
from . import hotpath


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class BindingError(ValueError):
    """Unbound variable, kind mismatch, or builtin arity mismatch."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Adj:
    left: str
    right: str

@dataclass(frozen=True)
class Eq:
    left: str
    right: str

@dataclass(frozen=True)
class Member:
    element: str
    container: str

@dataclass(frozen=True)
class BuiltinAtom:
    name: str
    args: tuple[str, ...]

@dataclass(frozen=True)
class Not:
    body: object

@dataclass(frozen=True)
class And:
    left: object
    right: object

@dataclass(frozen=True)
class Or:
    left: object
    right: object

@dataclass(frozen=True)
class Implies:
    left: object
    right: object

@dataclass(frozen=True)
class Iff:
    left: object
    right: object

@dataclass(frozen=True)
class Exists:
    var: str
    body: object

@dataclass(frozen=True)
class Forall:
    var: str
    body: object

@dataclass(frozen=True)
class ExistsSet:
    var: str
    body: object


# ---------------------------------------------------------------------------
# Builtins.  Each spec is (kinds, func) where kinds is a tuple over 'v'
# (vertex) and 's' (set mask), or the string "s*" for one-or-more sets.

class EvalContext:
    def __init__(self, g: Graph, budget: int, gamma: int, r: int):
        self.g = g
        self.gamma = gamma
        self.r = r
        self.remaining = budget

    def charge(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError("formula evaluation budget exhausted")


def builtin_isoW(ctx: EvalContext, X: int) -> bool:
    """The induced subgraph on X is isomorphic to W(a) for some a >= 1
    (with the ambient gamma and r).  At most one a matches |X|."""
    size = X.bit_count()
    a = 1
    while True:
        s = witness.w_vertex_count(a, ctx.gamma, ctx.r)
        if s > size:
            return False
        if s == size:
            break
        a += 1
    sub = ctx.g.induced(list(iter_mask(X)))
    pattern = witness.build_W(a, ctx.gamma, ctx.r)
    if sub.m != pattern.graph.m:
        return False
    res = hotpath.embed_search(
        pattern.graph, sub, mode=hotpath.MODE_FIND, budget=ctx.remaining,
        raise_on_budget=True,
    )
    ctx.charge(res.expansions)
    return res.count > 0


def _path_components(g: Graph, mask: int) -> list[list[int]] | None:
    """Split the induced subgraph on mask into components; each must be a
    simple path, returned end to end.  None if any component is not a path."""
    todo = mask
    comps = []
    while todo:
        start = (todo & -todo).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in iter_mask(g.bits[v] & mask & ~seen):
                    seen |= 1 << w
                    nxt.append(w)
            frontier = nxt
        members = list(iter_mask(seen))
        degs = {v: (g.bits[v] & seen).bit_count() for v in members}
        if len(members) == 1:
            comps.append(members)
        else:
            ends = [v for v in members if degs[v] == 1]
            if len(ends) != 2 or any(degs[v] > 2 for v in members):
                return None
            path = [ends[0]]
            prev = -1
            while len(path) < len(members):
                nxt = next(
                    w for w in iter_mask(g.bits[path[-1]] & seen)
                    if w != prev
                )
                prev = path[-1]
                path.append(nxt)
            if path[-1] != ends[1]:
                return None
            comps.append(path)
        todo &= ~seen
    return comps


def _connector_decomposition(ctx: EvalContext, X1: int, X2: int, G: int):
    """Decompose [G] into gamma-vertex paths each attaching one end to X1
    and the other to X2, per the covering conditions.  Returns the list of
    (x1, x2) attachment pairs, or None if the structure is violated."""
    g, gamma = ctx.g, ctx.gamma
    if X1 & X2 or X1 & G or X2 & G:
        return None
    both = X1 | X2
    if gamma == 0:
        if G:
            return None
        pairs = []
        for x1 in iter_mask(X1):
            nb = g.bits[x1] & X2
            if nb.bit_count() != 1:
                return None
            pairs.append((x1, nb.bit_length() - 1))
        return pairs
    comps = _path_components(g, G)
    if comps is None:
        return None
    pairs = []
    for path in comps:
        if len(path) != gamma:
            return None
        if gamma == 1:
            v = path[0]
            a1 = g.bits[v] & X1
            a2 = g.bits[v] & X2
            if a1.bit_count() != 1 or a2.bit_count() != 1:
                return None
            pairs.append((a1.bit_length() - 1, a2.bit_length() - 1))
            continue
        for v in path[1:-1]:
            if g.bits[v] & both:
                return None
        e1, e2 = path[0], path[-1]
        n1, n2 = g.bits[e1] & both, g.bits[e2] & both
        if n1.bit_count() != 1 or n2.bit_count() != 1:
            return None
        u, w = n1.bit_length() - 1, n2.bit_length() - 1
        if (X1 >> u) & 1 and (X2 >> w) & 1:
            pairs.append((u, w))
        elif (X2 >> u) & 1 and (X1 >> w) & 1:
            pairs.append((w, u))
        else:
            return None
    return pairs


def builtin_phi_star(ctx: EvalContext, X1: int, X2: int, G: int) -> bool:
    """X1 and X2 are matched one-to-one by paths with gamma inner vertices
    drawn from G, and G consists exactly of those paths."""
    pairs = _connector_decomposition(ctx, X1, X2, G)
    if pairs is None:
        return False
    firsts = [p[0] for p in pairs]
    seconds = [p[1] for p in pairs]
    return (
        sorted(firsts) == sorted(iter_mask(X1))
        and sorted(seconds) == sorted(iter_mask(X2))
        and len(set(firsts)) == len(firsts)
        and len(set(seconds)) == len(seconds)
    )


def builtin_paths(ctx: EvalContext, X1: int, X2: int, TX1: int,
                  G1: int, G2: int) -> bool:
    """Group X2 by the X1 endpoint of its G1-connector; each group's
    G2-partners must induce a simple path inside [TX1]."""
    g = ctx.g
    pairs1 = _connector_decomposition(ctx, X2, X1, G1)
    pairs2 = _connector_decomposition(ctx, X2, TX1, G2)
    if pairs1 is None or pairs2 is None:
        return False
    to_x1 = {}
    for x2, x1 in pairs1:
        if x2 in to_x1:
            return False
        to_x1[x2] = x1
    to_tx1 = {}
    for x2, t in pairs2:
        if x2 in to_tx1:
            return False
        to_tx1[x2] = t
    if set(to_x1) != set(iter_mask(X2)) or set(to_tx1) != set(iter_mask(X2)):
        return False
    groups: dict[int, int] = {}
    for x2, x1 in to_x1.items():
        groups[x1] = groups.get(x1, 0) | (1 << to_tx1[x2])
    for mask in groups.values():
        comps = _path_components(g, mask)
        if comps is None or len(comps) != 1:
            return False
    return True


def builtin_last(ctx: EvalContext, X: int, Z: int, y: int, G: int) -> bool:
    """y marks the end of the path [X]; G decomposes into gamma-vertex
    paths whose first vertices are exactly the G-neighbors of y and whose
    last vertices pair off with Z one-to-one."""
    g, gamma = ctx.g, ctx.gamma
    if gamma < 1:
        raise BindingError("@last requires gamma >= 1")
    if (X >> y) & 1 or (Z >> y) & 1 or (G >> y) & 1:
        return False
    comps = _path_components(g, X)
    if comps is None or len(comps) != 1:
        return False
    path = comps[0]
    xnb = g.bits[y] & X
    if xnb.bit_count() != 1:
        return False
    end = xnb.bit_length() - 1
    if end not in (path[0], path[-1]):
        return False
    gcomps = _path_components(g, G)
    if gcomps is None:
        return False
    firsts, lasts = [], []
    for p in gcomps:
        if len(p) != gamma:
            return False
        cands = [v for v in (p[0], p[-1]) if (g.bits[y] >> v) & 1]
        if gamma == 1:
            if not cands:
                return False
            firsts.append(p[0])
            lasts.append(p[0])
            continue
        if len(cands) != 1:
            return False
        first = cands[0]
        last = p[-1] if first == p[0] else p[0]
        firsts.append(first)
        lasts.append(last)
    if sorted(firsts) != sorted(iter_mask(g.bits[y] & G)):
        return False
    zs = []
    for last in lasts:
        znb = g.bits[last] & Z
        if znb.bit_count() != 1:
            return False
        zs.append(znb.bit_length() - 1)
    if len(set(zs)) != len(zs):
        return False
    for z in iter_mask(Z):
        gnb = g.bits[z] & G
        if gnb.bit_count() != 1 or gnb.bit_length() - 1 not in lasts:
            return False
    return True


def builtin_leaves(ctx: EvalContext, X: int, Z: int) -> bool:
    """Z hangs off degree-<=1-in-[X] vertices: each z has exactly one
    X-neighbor, that neighbor has at most r Z-neighbors, and [Z] is
    edgeless."""
    g, r = ctx.g, ctx.r
    for z in iter_mask(Z):
        if g.bits[z] & Z:
            return False
        xnb = g.bits[z] & X
        if xnb.bit_count() != 1:
            return False
        x = xnb.bit_length() - 1
        if (g.bits[x] & X).bit_count() > 1:
            return False
    for x in iter_mask(X):
        if (g.bits[x] & Z).bit_count() > r:
            return False
    return True


def builtin_even(ctx: EvalContext, X: int) -> bool:
    return X.bit_count() % 2 == 0


def builtin_disjoint(ctx: EvalContext, *sets: int) -> bool:
    seen = 0
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


def builtin_edges(ctx: EvalContext, *sets: int) -> bool:
    """No edges run between any two of the given sets."""
    g = ctx.g
    for a, b in itertools.combinations(sets, 2):
        for v in iter_mask(a):
            if g.bits[v] & b & ~a:
                return False
    return True


def builtin_max2(ctx: EvalContext, X1: int, X2: int, TX1: int, TX2: int,
                 TY1: int, TY2: int, Z: int, TZ: int,
                 G1: int, G2: int, G3: int, G4: int, G5: int, G6: int, G7: int,
                 y: int, ty: int) -> bool:
    """Maximality of a starred-witness decomposition: three implications
    stating that, depending on which tree still has room, no outside
    vertex can start the next growth step.

    Where the source prose mixes up Z and TZ inside one bullet we use TZ
    throughout the TY2 bullet and Z throughout the X2 bullet, matching the
    process extension semantics.
    """
    g, gamma, r = ctx.g, ctx.gamma, ctx.r
    U = X1 | X2 | TX1 | TX2 | TY1 | TY2 | Z | TZ | G1 | G2 | G3 | G4 | G5 | G6 | G7
    U |= (1 << y) | (1 << ty)

    def open_leaves(tree: int, children: int, cap: int) -> list[int]:
        return [
            v for v in iter_mask(tree)
            if (g.bits[v] & tree).bit_count() <= 1
            and (g.bits[v] & children).bit_count() <= cap
        ]

    x2_open = open_leaves(X2, Z, r - 1)
    ty2_open = open_leaves(TY2, TZ, r - 1)
    x2_full = not x2_open
    ty2_full = not ty2_open

    # Bullet 1: both trees saturated -> y has no private outside neighbor.
    if x2_full and ty2_full:
        for w in range(g.n):
            if (U >> w) & 1:
                continue
            if (g.bits[y] >> w) & 1 and (g.bits[w] & U).bit_count() == 1:
                return False

    # Bullet 2: TY2 has an open leaf -> no outside vertex hangs off such a
    # leaf and reaches ty by a clean connector path.
    if ty2_open:
        open_mask = mask_of(ty2_open)
        for w in range(g.n):
            if (U >> w) & 1:
                continue
            unb = g.bits[w] & U
            if unb.bit_count() != 1 or not unb & open_mask:
                continue
            if _ext_path(ctx, w, ty, U):
                return False

    # Bullet 3: symmetric for X2 and y.
    if x2_open:
        open_mask = mask_of(x2_open)
        for w in range(g.n):
            if (U >> w) & 1:
                continue
            unb = g.bits[w] & U
            if unb.bit_count() != 1 or not unb & open_mask:
                continue
            if _ext_path(ctx, w, y, U):
                return False
    return True


def _ext_path(ctx: EvalContext, w: int, anchor: int, U: int) -> bool:
    """Induced path on gamma+2 vertices from w to anchor whose inner
    vertices lie outside U and touch U only at the anchor end (the vertex
    adjacent to the anchor may be adjacent to it alone)."""
    g, gamma = ctx.g, ctx.gamma
    length = gamma + 2

    def extend(path, pmask):
        ctx.charge()
        k = len(path)
        if k == length - 1:
            last = path[-1]
            if not (g.bits[last] >> anchor) & 1:
                return False
            if (pmask >> anchor) & 1 or (g.bits[anchor] & pmask & ~(1 << last)):
                return False
            return True
        prev_mask = mask_of(path[:-1])
        for v in iter_mask(g.bits[path[-1]] & ~U & ~pmask):
            if g.bits[v] & prev_mask:
                continue
            near_anchor = k == length - 2
            touched = g.bits[v] & U
            if near_anchor:
                if touched & ~(1 << anchor):
                    continue
            elif touched:
                continue
            if extend(path + [v], pmask | (1 << v)):
                return True
        return False

    if gamma == 0:
        return bool((g.bits[w] >> anchor) & 1)
    return extend([w], 1 << w)


BUILTINS = {
    "max": (("s",), lambda ctx, X: dominates(ctx.g, X)),
    "isoW": (("s",), builtin_isoW),
    "phi_star": (("s", "s", "s"), builtin_phi_star),
    "paths": (("s", "s", "s", "s", "s"), builtin_paths),
    "last": (("s", "s", "v", "s"), builtin_last),
    "leaves": (("s", "s"), builtin_leaves),
    "even": (("s",), builtin_even),
    "disjoint": ("s*", builtin_disjoint),
    "edges": ("s*", builtin_edges),
    "max2": (("s",) * 8 + ("s",) * 7 + ("v", "v"), builtin_max2),
}


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"\s*(?:(?P<op><->|->|[~=!&|()@,])|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)
_KEYWORDS = {"EX", "ALL", "EXSET", "in"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        else:
            name = m.group("name")
            kind = "kw" if name in _KEYWORDS else "name"
            tokens.append((kind, name, m.start("name")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, builtins: dict):
        self.tokens = _tokenize(text)
        self.i = 0
        self.builtins = builtins

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise FormulaSyntaxError(f"expected {op!r}, found {val!r}", pos)

    def expect_name(self) -> str:
        kind, val, pos = self.next()
        if kind != "name":
            raise FormulaSyntaxError(f"expected a name, found {val!r}", pos)
        return val

    def parse(self):
        node = self.formula()
        kind, val, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"trailing input {val!r}", pos)
        return node

    def formula(self):
        return self.iff()

    def iff(self):
        node = self.implies()
        while self.peek()[:2] == ("op", "<->"):
            self.next()
            node = Iff(node, self.implies())
        return node

    def implies(self):
        node = self.or_()
        if self.peek()[:2] == ("op", "->"):
            self.next()
            return Implies(node, self.implies())
        return node

    def or_(self):
        node = self.and_()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            node = Or(node, self.and_())
        return node

    def and_(self):
        node = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "!":
            self.next()
            return Not(self.unary())
        if kind == "op" and val == "(":
            self.next()
            node = self.formula()
            self.expect_op(")")
            return node
        if kind == "kw" and val in ("EX", "ALL", "EXSET"):
            self.next()
            var = self.expect_name()
            body = self.unary()
            return {"EX": Exists, "ALL": Forall, "EXSET": ExistsSet}[val](var, body)
        if kind == "op" and val == "@":
            return self.builtin(pos)
        if kind == "name":
            return self.atom()
        raise FormulaSyntaxError(f"unexpected token {val!r}", pos)

    def builtin(self, pos: int):
        self.expect_op("@")
        name = self.expect_name()
        spec = self.builtins.get(name)
        if spec is None:
            raise FormulaSyntaxError(f"unknown builtin @{name}", pos)
        self.expect_op("(")
        args = [self.expect_name()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            args.append(self.expect_name())
        self.expect_op(")")
        kinds = spec[0]
        if kinds == "s*":
            if not args:
                raise FormulaSyntaxError(f"@{name} needs at least one argument", pos)
        elif len(args) != len(kinds):
            raise FormulaSyntaxError(
                f"@{name} takes {len(kinds)} arguments, got {len(args)}", pos
            )
        return BuiltinAtom(name, tuple(args))

    def atom(self):
        left = self.expect_name()
        kind, val, pos = self.next()
        if kind == "op" and val == "~":
            return Adj(left, self.expect_name())
        if kind == "op" and val == "=":
            return Eq(left, self.expect_name())
        if kind == "kw" and val == "in":
            return Member(left, self.expect_name())
        raise FormulaSyntaxError(f"expected ~, = or 'in' after {left!r}", pos)


def _check_bindings(node, fo: frozenset, so: frozenset, builtins: dict) -> None:
    if isinstance(node, (Adj, Eq)):
        for v in (node.left, node.right):
            if v not in fo:
                raise BindingError(f"unbound vertex variable {v!r}")
    elif isinstance(node, Member):
        if node.element not in fo:
            raise BindingError(f"unbound vertex variable {node.element!r}")
        if node.container not in so:
            raise BindingError(f"unbound set variable {node.container!r}")
    elif isinstance(node, BuiltinAtom):
        kinds = builtins[node.name][0]
        if kinds == "s*":
            kinds = ("s",) * len(node.args)
        for arg, k in zip(node.args, kinds):
            pool = fo if k == "v" else so
            if arg not in pool:
                label = "vertex" if k == "v" else "set"
                raise BindingError(f"unbound {label} variable {arg!r}")
    elif isinstance(node, Not):
        _check_bindings(node.body, fo, so, builtins)
    elif isinstance(node, (And, Or, Implies, Iff)):
        _check_bindings(node.left, fo, so, builtins)
        _check_bindings(node.right, fo, so, builtins)
    elif isinstance(node, (Exists, Forall)):
        _check_bindings(node.body, fo | {node.var}, so, builtins)
    elif isinstance(node, ExistsSet):
        _check_bindings(node.body, fo, so | {node.var}, builtins)
    else:
        raise TypeError(f"unknown AST node {node!r}")


def parse_formula(text: str, builtins: dict | None = None):
    """Parse DSL text into an AST, checking bindings and builtin arities."""
    builtins = builtins or BUILTINS
    node = _Parser(text, builtins).parse()
    _check_bindings(node, frozenset(), frozenset(), builtins)
    return node


def is_emso(node) -> bool:
    """All set quantifiers are outermost existentials."""
    while isinstance(node, ExistsSet):
        node = node.body
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ExistsSet):
            return False
        if isinstance(cur, Not):
            stack.append(cur.body)
        elif isinstance(cur, (And, Or, Implies, Iff)):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, (Exists, Forall)):
            stack.append(cur.body)
    return True


def _isoW_guarded(node: ExistsSet, builtins: dict):
    """psi when node is EXSET X (@isoW(X) & psi) or EXSET X (psi & @isoW(X))
    with the default @isoW, else None."""
    body = node.body
    if not isinstance(body, And) or builtins.get("isoW", (None, None))[1] is not builtin_isoW:
        return None
    guard = BuiltinAtom("isoW", (node.var,))
    if body.left == guard:
        return body.right
    if body.right == guard:
        return body.left
    return None


def _witness_copies(ctx: EvalContext):
    """The vertex masks X on which @isoW(X) holds: the image sets of the
    induced W(a) copies in the host, for every a that fits, one per copy.
    Each a's search is charged to the budget before its copies are
    yielded."""
    a = 1
    while witness.w_vertex_count(a, ctx.gamma, ctx.r) <= ctx.g.n:
        pattern = witness.build_W(a, ctx.gamma, ctx.r)
        res = hotpath.embed_search(
            pattern.graph, ctx.g, mode=hotpath.MODE_COLLECT, budget=ctx.remaining,
            raise_on_budget=True, fixing=(),
        )
        ctx.charge(res.expansions)
        for emb in res.embeddings:
            yield mask_of(emb)
        a += 1


def evaluate(g: Graph, phi, budget: int = 10**7, gamma: int = 0, r: int = 4,
             builtins: dict | None = None) -> bool:
    """Truth of phi on g by enumeration: vertex quantifiers range over
    0..n-1, set quantifiers over all 2^n subsets in rank order.  Each
    quantifier instantiation charges one unit of budget.

    A set quantifier guarded by the default @isoW, EXSET X (@isoW(X) & psi)
    or EXSET X (psi & @isoW(X)), ranges over the witness copies instead:
    the image sets of induced W(a) copies, found by the kernel one per
    copy, are exactly the sets on which the guard holds, so the verdict is
    the exhaustive one.  The budget is charged each copy search's
    expansions and one unit per copy tried, so it runs out at other points
    than the exhaustive enumeration's.
    """
    builtins = builtins or BUILTINS
    ctx = EvalContext(g, budget, gamma, r)

    def ev(node, fo: dict, so: dict) -> bool:
        if isinstance(node, Adj):
            return g.has_edge(fo[node.left], fo[node.right])
        if isinstance(node, Eq):
            return fo[node.left] == fo[node.right]
        if isinstance(node, Member):
            return bool((so[node.container] >> fo[node.element]) & 1)
        if isinstance(node, BuiltinAtom):
            kinds = builtins[node.name][0]
            func = builtins[node.name][1]
            if kinds == "s*":
                kinds = ("s",) * len(node.args)
            vals = [
                fo[a] if k == "v" else so[a]
                for a, k in zip(node.args, kinds)
            ]
            ctx.charge()
            return func(ctx, *vals)
        if isinstance(node, Not):
            return not ev(node.body, fo, so)
        if isinstance(node, And):
            return ev(node.left, fo, so) and ev(node.right, fo, so)
        if isinstance(node, Or):
            return ev(node.left, fo, so) or ev(node.right, fo, so)
        if isinstance(node, Implies):
            return not ev(node.left, fo, so) or ev(node.right, fo, so)
        if isinstance(node, Iff):
            return ev(node.left, fo, so) == ev(node.right, fo, so)
        if isinstance(node, Exists):
            for v in range(g.n):
                ctx.charge()
                if ev(node.body, {**fo, node.var: v}, so):
                    return True
            return False
        if isinstance(node, Forall):
            for v in range(g.n):
                ctx.charge()
                if not ev(node.body, {**fo, node.var: v}, so):
                    return False
            return True
        if isinstance(node, ExistsSet):
            psi = _isoW_guarded(node, builtins)
            if psi is None:
                body, masks = node.body, range(1 << g.n)
            else:
                body, masks = psi, _witness_copies(ctx)
            for mask in masks:
                ctx.charge()
                if ev(body, fo, {**so, node.var: mask}):
                    return True
            return False
        raise TypeError(f"unknown AST node {node!r}")

    return ev(phi, {}, {})
