"""Formula DSL: parser, binding checks, and the evaluator's semantics."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, mc_grid_host, path
from sparsewitness import detect, gnp, logic
from sparsewitness.graphs import BudgetExceededError, Graph
from sparsewitness.hotpath import MODE_COLLECT, embed_search
from sparsewitness.logic import (
    Atom,
    Binary,
    BindingError,
    EvalContext,
    FormulaSyntaxError,
    Quantifier,
    evaluate,
    is_emso,
    parse_formula,
)
from sparsewitness.witness import build_W, w_vertex_count


def ev(g, text, **kw):
    return evaluate(g, parse_formula(text), **kw)


# --------------------------------------------------------------- parsing

def test_parse_rejects_syntax_errors():
    for bad in ["EX x", "x ~ y)", "EX x (x ~", "@nosuch(x)", "EX x x + y",
                "EXSET X @phi_star(X, X, X)"]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


def test_parse_rejects_unbound_variables():
    with pytest.raises(BindingError):
        parse_formula("EX x x ~ y")
    with pytest.raises(BindingError):
        parse_formula("EX x x in X")
    with pytest.raises(BindingError):
        # Binder kind decides the variable kind: X here is a set.
        parse_formula("EXSET X EX y X ~ y")


def test_variable_is_out_of_scope_after_its_quantifier():
    parse_formula("(EX x x = x) & EX x x = x")
    with pytest.raises(BindingError, match="unbound vertex variable 'x'"):
        parse_formula("(EX x x = x) & x = x")


def test_syntax_error_is_reported_ahead_of_an_unbound_variable():
    # x and y are unbound before the stray ')' is read.
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x ~ y)")


def test_first_unbound_variable_in_source_order_is_named():
    with pytest.raises(BindingError) as info:
        parse_formula("EX x (y ~ x & z ~ x)")
    assert str(info.value) == "unbound vertex variable 'y'"


def test_parse_checks_builtin_arity():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("EXSET X @max(X, X)")


def test_operator_precedence_and_associativity():
    # -> is right-associative and binds looser than & and |.
    g = path(2)
    # (false -> false) -> false  is false; false -> (false -> false) is true.
    falsum = "EX x ! x = x"
    assert ev(g, f"({falsum}) -> (({falsum}) -> ({falsum}))")
    assert ev(g, f"{falsum} -> {falsum} -> {falsum}")


@pytest.mark.parametrize("op, connective, left_assoc", [
    ("&", "And", True), ("|", "Or", True), ("<->", "Iff", True), ("->", "Implies", False),
])
def test_binary_connective_associativity(op, connective, left_assoc):
    # '&', '|' and '<->' group to the left; '->' groups to the right.
    a, b, c = Atom("=", "x", "y"), Atom("=", "y", "z"), Atom("=", "z", "x")
    phi = parse_formula(f"EX x EX y EX z (x = y {op} y = z {op} z = x)")
    if left_assoc:
        want = Binary(op, Binary(op, a, b), c)
    else:
        want = Binary(op, a, Binary(op, b, c))
    assert phi == Quantifier("EX", "x", Quantifier("EX", "y", Quantifier("EX", "z", want))), connective


def test_is_emso():
    assert is_emso(parse_formula("EXSET X EX x x in X"))
    assert is_emso(parse_formula("EX x x = x"))
    assert not is_emso(parse_formula("EX x EXSET X x in X"))


# ------------------------------------------------------------- semantics

def test_fo_basics():
    p3, c3 = path(3), cycle(3)
    has_nonedge = "EX x EX y (! x = y & ! x ~ y)"
    assert ev(p3, has_nonedge)
    assert not ev(c3, has_nonedge)
    # A dominating vertex exists in P_3 but not in P_5.
    dom = "EX x ALL y (x = y | x ~ y)"
    assert ev(p3, dom)
    assert not ev(path(5), dom)


def test_adjacency_is_irreflexive_and_symmetric():
    g = path(4)
    assert not ev(g, "EX x x ~ x")
    assert ev(g, "ALL x ALL y (x ~ y <-> y ~ x)")


def test_set_quantifier_semantics():
    g = path(4)
    # Some set is exactly the endpoints: both endpoints in, inner out.
    phi = (
        "EXSET X ALL v (v in X <-> ! EX u EX w "
        "(! u = w & u ~ v & w ~ v))"
    )
    assert ev(g, phi)


def test_builtin_max_and_isoW():
    g = path(5)
    # {1, 3} dominates P_5, so an EMSO dominating-set sentence holds.
    assert ev(g, "EXSET X @max(X)")
    # gamma=1, r=4: the witness graph at a=1 is P_3, present in P_5.
    assert ev(g, "EXSET X @isoW(X)", gamma=1, r=4)
    # No subset of C_4 induces a P_3-shaped witness plus domination fails:
    assert not ev(Graph(3, []), "EXSET X (@isoW(X) & @max(X))", gamma=1, r=4)


def test_builtin_even_parity():
    g = path(4)
    assert ev(g, "EXSET X (@even(X) & EX x x in X)")
    # The empty set is even, a singleton is not.
    assert not ev(Graph(1, []), "EXSET X (@even(X) & EX x x in X)")


def test_builtin_disjoint_and_edges():
    g = path(3)
    assert ev(g, "EXSET X EXSET Y (@disjoint(X, Y) & EX x x in X & EX y y in Y)")
    # Nonempty, mutually non-adjacent sets exist in P_3 ({0} and {2})...
    free = "EXSET X EXSET Y (@edges(X, Y) & @disjoint(X, Y) & EX x x in X & EX y y in Y)"
    assert ev(g, free)
    # ...but not in a triangle.
    assert not ev(cycle(3), free)


def test_budget_is_enforced():
    from sparsewitness.graphs import BudgetExceededError

    g = path(6)
    # A contradiction forces full enumeration of both set variables.
    falsum = "EXSET X EXSET Y (@disjoint(X, Y) & ! @disjoint(X, Y))"
    with pytest.raises(BudgetExceededError):
        ev(g, falsum, budget=50)
    # A negative budget is bad input, not a search that ran out.
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        ev(g, "EX x x = x", budget=-1)


@pytest.mark.parametrize("graph, text, least_budget, verdict", [
    ("p3", "EX x EX y x ~ y", 3, True),
    ("p3", "ALL x EX y x ~ y", 8, True),
    ("p3", "EX x ALL y (x = y | x ~ y)", 8, True),
    ("p3", "ALL x (x ~ x & x = x)", 1, False),
    ("p3", "ALL x (x ~ x -> x = x)", 3, True),
    ("p3", "EX x ! (x = x <-> x ~ x)", 1, True),
    ("p3", "EXSET X ALL x x in X", 22, True),
    ("k23", "EXSET X (@isoW(X) & @max(X))", 15, True),
    ("k23", "EXSET X (@even(X) & @max(X))", 10, True),
])
def test_budget_use_per_node_kind(graph, text, least_budget, verdict):
    # The least budget at which evaluate returns pins what each node kind
    # charges and where it stops: '&', '|' and '->' may skip their right
    # operand, '<->' evaluates both, EX stops at the first true body and
    # ALL at the first false one.  K_{2,3} is W(2, 0, 2).
    g = path(3) if graph == "p3" else build_W(2, 0, 2).graph
    phi = parse_formula(text)
    with pytest.raises(BudgetExceededError):
        evaluate(g, phi, budget=least_budget - 1, gamma=0, r=2)
    assert evaluate(g, phi, budget=least_budget, gamma=0, r=2) is verdict


def test_evaluate_agrees_with_brute_force_domination():
    import itertools

    from sparsewitness.graphs import is_dominating

    phi = parse_formula("EXSET X (@even(X) & @max(X))")
    for n, edges in [
        (4, [(0, 1), (1, 2), (2, 3)]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        (3, []),
        (6, [(i, (i + 1) % 6) for i in range(6)]),
    ]:
        g = Graph(n, edges)
        expect = any(
            is_dominating(g, comb) and len(comb) % 2 == 0
            for k in range(n + 1)
            for comb in itertools.combinations(range(n), k)
        )
        assert evaluate(g, phi) == expect


def test_max_is_first_order_domination():
    # X dominates iff every vertex is in X or has a neighbour in it.
    verdicts = set()
    for g in [path(4), path(5), cycle(5), Graph(3, []), Graph(4, [(0, 1), (0, 2), (0, 3)])]:
        for prefix in ("", "@even(X) & "):
            via_fo = f"EXSET X ({prefix}ALL x (x in X | EX y (y in X & x ~ y)))"
            verdict = ev(g, via_fo)
            assert verdict == ev(g, f"EXSET X ({prefix}@max(X))")
            verdicts.add(verdict)
    assert verdicts == {False, True}
    with pytest.raises(BindingError):
        # Builtins take set variables only.
        parse_formula("EXSET X EX x @max(x)")


# ------------------------------------------- set quantifiers under @isoW

# (gamma, r) with W(1) and W(2) of at most 10 vertices.
SMALL_WITNESSES = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]


@st.composite
def psi(draw, bound=(), depth=0):
    """A formula in X built from @max, membership and adjacency atoms,
    with at most two nested vertex quantifiers."""
    kinds = ["max"] + (["member", "adjacent"] if bound else [])
    if depth < 3:
        kinds += ["not", "and", "or"] + (["exists", "forall"] if len(bound) < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "max":
        return "@max(X)"
    if kind == "member":
        return f"{draw(st.sampled_from(bound))} in X"
    if kind == "adjacent":
        return f"{draw(st.sampled_from(bound))} ~ {draw(st.sampled_from(bound))}"
    if kind == "not":
        return f"!({draw(psi(bound, depth + 1))})"
    if kind in ("and", "or"):
        op = "&" if kind == "and" else "|"
        return f"({draw(psi(bound, depth + 1))}) {op} ({draw(psi(bound, depth + 1))})"
    var = f"v{len(bound)}"
    quantifier = "EX" if kind == "exists" else "ALL"
    return f"{quantifier} {var} ({draw(psi(bound + (var,), depth + 1))})"


@st.composite
def guarded_instances(draw):
    gamma, r = draw(st.sampled_from(SMALL_WITNESSES))
    n = draw(st.integers(0, 10))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.2, 0.4, 0.6]))
    edges = {e for e in itertools.combinations(range(n), 2) if rnd.random() < p}
    fits = [a for a in (1, 2) if w_vertex_count(a, gamma, r) <= n]
    if fits and draw(st.booleans()):
        # Plant an induced W(a) copy, so the guard holds somewhere.
        pattern = build_W(draw(st.sampled_from(fits)), gamma, r).graph
        image = rnd.sample(range(n), pattern.n)
        edges = {(u, v) for u, v in edges if not (u in image and v in image)}
        edges |= {tuple(sorted((image[u], image[v]))) for u, v in pattern.edges()}
    body = draw(psi())
    text = draw(st.sampled_from([f"EXSET X (@isoW(X) & ({body}))",
                                 f"EXSET X (({body}) & @isoW(X))",
                                 f"EXSET X ((@isoW(X) & ({body})) & EX x x in X)",
                                 f"EXSET X (EX x x in X & (({body}) & @isoW(X)))"]))
    return Graph(n, sorted(edges)), text, gamma, r


@settings(max_examples=150, deadline=None)
@given(guarded_instances())
def test_guarded_set_quantifier_matches_exhaustive(instance):
    g, text, gamma, r = instance
    guarded = evaluate(g, parse_formula(text), gamma=gamma, r=r)
    # !!@isoW(X) is not an @isoW conjunct, so the reference enumerates all
    # 2^n subsets.
    reference = text.replace("@isoW(X)", "!!@isoW(X)")
    exhaustive = evaluate(g, parse_formula(reference), gamma=gamma, r=r)
    assert guarded == exhaustive


def test_guarded_set_quantifier_visits_each_copy_once():
    # K_{3,3} at gamma = 0, r = 2: W(1) is an edge and W(2) is K_{2,3}
    # (|Aut| = 12).  The guarded quantifier ranges over these copies: nine
    # edges and six induced K_{2,3}s, each yielded once.
    g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    copies = list(logic._witness_copies(EvalContext(g, 10**6, 0, 2)))
    assert len(set(copies)) == len(copies)
    assert sorted(X.bit_count() for X in copies) == [2] * 9 + [5] * 6


def test_guarded_set_quantifier_runs_on_the_budget():
    # Every copy in K_{3,3} dominates, so all of them are tried.
    g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    phi = parse_formula("EXSET X (@isoW(X) & ! @max(X))")
    assert not evaluate(g, phi, gamma=0, r=2)
    with pytest.raises(BudgetExceededError):
        evaluate(g, phi, gamma=0, r=2, budget=10)


def test_budget_error_names_the_budget_given():
    # The guarded search runs on what is left after the two vertex
    # quantifiers' charges, but the error names the whole budget.
    k23 = build_W(2, 0, 2).graph
    phi = parse_formula("EX x EX y EXSET X (@isoW(X) & @max(X))")
    with pytest.raises(BudgetExceededError) as info:
        evaluate(k23, phi, gamma=0, r=2, budget=10)
    assert str(info.value) == "evaluation exceeded budget of 10"


def test_witness_copies_search_in_detect_order():
    # Each a's collection takes the order detect searches W(a) in, so the
    # charge is exactly the sum of those searches' expansions; the default
    # order would spend 15,056 here.
    g = gnp.sample_gnp(gnp.SamplerConfig(n=30, p=0.3, seed=1,
                                         stream=gnp.derive_stream(1, 0)))
    ctx = EvalContext(g, 10**9, 1, 4)
    copies = list(logic._witness_copies(ctx))
    expected = 0
    for a in (1, 2):
        ws, order = detect.witness_pattern(a, 1, 4)
        expected += embed_search(ws.graph, g, mode=MODE_COLLECT, order=order,
                                 fixing=()).expansions
    assert w_vertex_count(3, 1, 4) > g.n
    assert 10**9 - ctx.remaining == expected == 4821
    assert len(copies) == len(set(copies)) == 653


def test_dominating_witness_sentence_matches_detect_on_mc_grid_hosts():
    # Criterion 4's logic-detect equivalence in the Monte Carlo grid's
    # regime (n = 25 and 40, p = n^-0.3), where the 2^n subsets cannot be
    # enumerated: every W(a) that fits the host is searched by both.
    # The guard is found in any grouping of the conjunction.
    phis = [parse_formula(text) for text in (
        "EXSET X (@isoW(X) & @max(X))",
        "EXSET X ((@isoW(X) & @max(X)) & EX x x in X)",
        "EXSET X (EX x x in X & (@max(X) & @isoW(X)))",
    )]
    verdicts = set()
    for n in (25, 40):
        a_max = max(a for a in range(1, 5) if w_vertex_count(a, 0, 4) <= n)
        for trial in range(6):
            g = mc_grid_host(n, 7, trial)
            via_detect = bool(detect.find_dominating_induced_W(g, 0, 4, (1, a_max)))
            for phi in phis:
                via_logic = evaluate(g, phi, gamma=0, r=4)
                assert via_logic == via_detect, (n, trial, phi)
                verdicts.add(via_logic)
    assert verdicts == {False, True}
