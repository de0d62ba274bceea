"""Formula DSL: parser, binding checks, and the evaluator's semantics."""

import pytest

from sparsewitness.graphs import Graph
from sparsewitness.logic import (
    BindingError,
    FormulaSyntaxError,
    evaluate,
    is_emso,
    parse_formula,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ev(g, text, **kw):
    return evaluate(g, parse_formula(text), **kw)


# --------------------------------------------------------------- parsing

def test_parse_rejects_syntax_errors():
    for bad in ["EX x", "x ~ y)", "EX x (x ~", "@nosuch(x)", "EX x x + y"]:
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
