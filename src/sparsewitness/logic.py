"""FO/EMSO formulas over graphs: AST, text DSL parser, and a brute-force
evaluator with builtin atomic predicates (@max, @isoW, @even, @disjoint,
@edges; a set quantifier with an @isoW conjunct, in any grouping, ranges
over witness copies only).

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

The AST has one frozen node class per production: Atom(rel, left, right)
for '~', '=' and 'in'; BuiltinAtom(name, args); Not(body); Binary(op,
left, right) for the connectives; Quantifier(kind, var, body) for EX, ALL
and EXSET.

Variable kind is determined by the binder: EX/ALL bind vertex variables,
EXSET binds set variables.  Every builtin argument is a set variable.  The
parser checks bindings as it reads, against the scopes of the enclosing
quantifiers.  Builtins come from the fixed BUILTINS table; each takes the
evaluation context plus its vertex-set masks and may consult the context
only for the host graph and the ambient parameters gamma and r.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from . import detect, hotpath, witness
from .graphs import BudgetExceededError, Graph, check_budget, dominates, iter_mask, mask_of


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class BindingError(ValueError):
    """A variable that no enclosing quantifier of its kind binds."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Atom:
    rel: str  # '~' (adjacency), '=' or 'in' (right is a set variable)
    left: str
    right: str

@dataclass(frozen=True)
class BuiltinAtom:
    name: str
    args: tuple[str, ...]

@dataclass(frozen=True)
class Not:
    body: object

@dataclass(frozen=True)
class Binary:
    op: str  # a token of _BINARY
    left: object
    right: object

@dataclass(frozen=True)
class Quantifier:
    kind: str  # 'EX', 'ALL' or 'EXSET'
    var: str
    body: object


# ---------------------------------------------------------------------------
# Builtins.  Each entry is (arity, func); arity None means one or more
# sets.

class EvalContext:
    def __init__(self, g: Graph, budget: int, gamma: int, r: int):
        check_budget(budget)
        self.g = g
        self.gamma = gamma
        self.r = r
        self.budget = budget
        self.remaining = budget

    def charge(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(f"evaluation exceeded budget of {self.budget}")


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
    if sub.m != witness.w_edge_count(a, ctx.gamma, ctx.r):
        return False
    res = detect.find_induced_W(sub, a, ctx.gamma, ctx.r, budget=ctx.remaining)
    ctx.charge(res.expansions)
    return bool(res)


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


BUILTINS = {
    "max": (1, lambda ctx, X: dominates(ctx.g, X)),
    "isoW": (1, builtin_isoW),
    "even": (1, builtin_even),
    "disjoint": (None, builtin_disjoint),
    "edges": (None, builtin_edges),
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


# The binary connectives, loosest first; all but '->' associate left.
_BINARY = ("<->", "->", "|", "&")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.scopes: dict[str, list[str]] = {"vertex": [], "set": []}
        # The first unbound variable, raised once the text has parsed so
        # that a syntax error anywhere is reported first.
        self.unbound: str | None = None

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

    def bound_name(self, kind: str) -> str:
        name = self.expect_name()
        if self.unbound is None and name not in self.scopes[kind]:
            self.unbound = f"unbound {kind} variable {name!r}"
        return name

    def parse(self):
        node = self.formula()
        kind, val, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"trailing input {val!r}", pos)
        if self.unbound is not None:
            raise BindingError(self.unbound)
        return node

    def formula(self, level: int = 0):
        # The connectives of _BINARY[level:], loosest first.
        if level == len(_BINARY):
            return self.unary()
        op = _BINARY[level]
        node = self.formula(level + 1)
        while self.peek()[:2] == ("op", op):
            self.next()
            if op == "->":
                return Binary(op, node, self.formula(level))
            node = Binary(op, node, self.formula(level + 1))
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
            scope = self.scopes["set" if val == "EXSET" else "vertex"]
            scope.append(var)
            body = self.unary()
            scope.pop()
            return Quantifier(val, var, body)
        if kind == "op" and val == "@":
            return self.builtin(pos)
        if kind == "name":
            return self.atom()
        raise FormulaSyntaxError(f"unexpected token {val!r}", pos)

    def builtin(self, pos: int):
        self.expect_op("@")
        name = self.expect_name()
        if name not in BUILTINS:
            raise FormulaSyntaxError(f"unknown builtin @{name}", pos)
        self.expect_op("(")
        args = [self.bound_name("set")]
        while self.peek()[:2] == ("op", ","):
            self.next()
            args.append(self.bound_name("set"))
        self.expect_op(")")
        arity = BUILTINS[name][0]
        if arity is not None and len(args) != arity:
            raise FormulaSyntaxError(
                f"@{name} takes {arity} arguments, got {len(args)}", pos
            )
        return BuiltinAtom(name, tuple(args))

    def atom(self):
        left = self.bound_name("vertex")
        _, val, pos = self.next()
        if val in ("~", "=", "in"):
            return Atom(val, left, self.bound_name("set" if val == "in" else "vertex"))
        raise FormulaSyntaxError(f"expected ~, = or 'in' after {left!r}", pos)


def parse_formula(text: str):
    """Parse DSL text into an AST, checking bindings and builtin arities.
    A syntax error anywhere is raised ahead of a BindingError, which names
    the first unbound variable in source order."""
    return _Parser(text).parse()


def is_emso(node) -> bool:
    """All set quantifiers are outermost existentials."""
    while isinstance(node, Quantifier) and node.kind == "EXSET":
        node = node.body
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Not):
            stack.append(cur.body)
        elif isinstance(cur, Binary):
            stack.extend((cur.left, cur.right))
        elif isinstance(cur, Quantifier):
            if cur.kind == "EXSET":
                return False
            stack.append(cur.body)
    return True


def _conjuncts(node) -> list:
    """The operands of node's '&' chain, in any grouping, left to right."""
    if isinstance(node, Binary) and node.op == "&":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _isoW_guarded(node: Quantifier):
    """psi when node is EXSET X (C1 & ... & Ck), grouped in any way, with
    some Ci = @isoW(X): the conjunction of the other conjuncts in their
    order.  None otherwise, and for a body that is the guard alone."""
    conjuncts = _conjuncts(node.body)
    guard = BuiltinAtom("isoW", (node.var,))
    if len(conjuncts) < 2 or guard not in conjuncts:
        return None
    conjuncts.remove(guard)
    return functools.reduce(functools.partial(Binary, "&"), conjuncts)


def _witness_copies(ctx: EvalContext):
    """The vertex masks X on which @isoW(X) holds: the image sets of the
    induced W(a) copies in the host, for every a that fits, one per copy.
    Each a's search is charged to the budget before its copies are
    yielded, and each search takes detect's order."""
    a = 1
    while witness.w_vertex_count(a, ctx.gamma, ctx.r) <= ctx.g.n:
        ws, order = detect.witness_pattern(a, ctx.gamma, ctx.r)
        res = hotpath.embed_search(
            ws.graph, ctx.g, mode=hotpath.MODE_COLLECT, order=order,
            budget=ctx.remaining, fixing=(),
        )
        ctx.charge(res.expansions)
        for emb in res.embeddings:
            yield mask_of(emb)
        a += 1


def evaluate(g: Graph, phi, budget: int = 10**7, gamma: int = 0, r: int = 4) -> bool:
    """Truth of phi on g by enumeration: vertex quantifiers range over
    0..n-1, set quantifiers over all 2^n subsets in rank order.  Each
    quantifier instantiation charges one unit of budget.

    A set quantifier whose body is a conjunction, grouped in any way, with
    @isoW(X) among its conjuncts ranges over the witness copies
    instead, and the other conjuncts are checked on each in their order:
    the image sets of induced W(a) copies, found by the kernel one per
    copy, are exactly the sets on which the guard holds, so the verdict is
    the exhaustive one.  The budget is charged each copy search's
    expansions and one unit per copy tried, so it runs out at other points
    than the exhaustive enumeration's.  Running out raises
    BudgetExceededError, and a negative budget ValueError.
    """
    ctx = EvalContext(g, budget, gamma, r)

    def ev(node, fo: dict, so: dict) -> bool:
        if isinstance(node, Atom):
            if node.rel == "~":
                return g.has_edge(fo[node.left], fo[node.right])
            if node.rel == "=":
                return fo[node.left] == fo[node.right]
            return bool((so[node.right] >> fo[node.left]) & 1)
        if isinstance(node, BuiltinAtom):
            ctx.charge()
            return BUILTINS[node.name][1](ctx, *(so[a] for a in node.args))
        if isinstance(node, Not):
            return not ev(node.body, fo, so)
        if isinstance(node, Binary):
            left = ev(node.left, fo, so)
            if node.op == "&":
                return left and ev(node.right, fo, so)
            if node.op == "|":
                return left or ev(node.right, fo, so)
            if node.op == "->":
                return not left or ev(node.right, fo, so)
            return left == ev(node.right, fo, so)
        if isinstance(node, Quantifier):
            body, values = node.body, range(g.n)
            if node.kind == "EXSET":
                psi = _isoW_guarded(node)
                if psi is None:
                    values = range(1 << g.n)
                else:
                    body, values = psi, _witness_copies(ctx)
            # EX and EXSET stop at the first true body, ALL at the first
            # false one.
            stop = node.kind != "ALL"
            for value in values:
                ctx.charge()
                if node.kind == "EXSET":
                    holds = ev(body, fo, {**so, node.var: value})
                else:
                    holds = ev(body, {**fo, node.var: value}, so)
                if bool(holds) is stop:
                    return stop
            return not stop
        raise TypeError(f"unknown AST node {node!r}")

    return ev(phi, {}, {})
