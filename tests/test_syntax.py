from __future__ import annotations

import gc
import random
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from typing import get_args

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fln.parser import parse_formula
from fln.syntax import (
    NODE_FIELDS,
    Apply,
    Conj,
    Const,
    Disj,
    Exists,
    FALSUM,
    Forall,
    Formula,
    HedgeApp,
    Iff,
    Imp,
    Max,
    Min,
    Multiple,
    Neg,
    NotSubstitutableError,
    Power,
    Pred,
    Symbols,
    Term,
    TruthConst,
    Var,
    children,
    collect_symbols,
    expand,
    format_formula,
    format_term,
    format_truth_constant,
    free_vars,
    is_expanded,
    rebuild,
    subformula_universe,
    subformulas,
    substitute,
    term_vars,
    truth_constants_in,
)
from genformulas import SIG_DH, SIG_H, VARS, random_formula

F = Fraction
P = Pred("P")
Q = Pred("Q")


def test_expand_negation():
    assert expand(Neg(P)) == Imp(P, FALSUM)


def test_expand_conjunction():
    # A & B == ~(A -> ~B) == (A -> (B -> #0)) -> #0
    assert expand(Conj(P, Q)) == Imp(Imp(P, Imp(Q, FALSUM)), FALSUM)


def test_expand_max_is_double_implication():
    assert expand(Max(P, Q)) == Imp(Imp(Q, P), P)


def test_expand_min():
    assert expand(Min(P, Q)) == Imp(Imp(Imp(Q, P), Imp(Q, FALSUM)), FALSUM)


def test_expand_exists():
    px = Pred("P", (Var("x"),))
    assert expand(Exists("x", px)) == Imp(Forall("x", Imp(px, FALSUM)), FALSUM)


def test_expand_only_core_nodes():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, SIG_DH)
        assert is_expanded(expand(f))


def test_expand_idempotent_and_preserves_free_vars():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, SIG_H)
        e = expand(f)
        assert expand(e) == e
        assert free_vars(e) == free_vars(f)


def test_free_vars_examples():
    assert free_vars(Pred("P", (Var("x"), Var("y")))) == {"x", "y"}
    assert free_vars(Forall("x", Pred("P", (Var("x"), Var("y"))))) == {"y"}
    assert free_vars(TruthConst(F(1, 2))) == frozenset()


def test_substitute_simple():
    assert substitute(Pred("P", (Var("x"),)), "x", Const("u")) == Pred("P", (Const("u"),))


def test_substitute_capture_raises():
    a = Forall("y", Pred("Q", (Var("x"), Var("y"))))
    with pytest.raises(NotSubstitutableError) as err:
        substitute(a, "x", Apply("f", (Var("y"),)))
    assert err.value.variable == "y"


def test_substitute_vacuous_under_same_binder():
    a = Forall("x", Pred("P", (Var("x"),)))
    assert substitute(a, "x", Const("u")) == a


def test_substitute_inside_function_terms():
    a = Pred("R", (Apply("f", (Var("x"), Var("y"))),))
    out = substitute(a, "x", Const("u"))
    assert out == Pred("R", (Apply("f", (Const("u"), Var("y"))),))


def test_substitute_commutes_with_expand():
    rng = random.Random(23)
    t = Const("u1")
    done = 0
    while done < 150:
        f = random_formula(rng, SIG_H)
        if "x" not in free_vars(f):
            continue
        assert expand(substitute(f, "x", t)) == substitute(expand(f), "x", t)
        done += 1


def test_subformulas_of_implication():
    f = Imp(P, Q)
    assert set(subformulas(f)) == {f, P, Q}


def test_universe_depth_zero_is_subformula_closure():
    u = subformula_universe([Imp(P, Q)])
    assert set(u) == {Imp(P, Q), P, Q}


def test_universe_adds_constant_implications():
    u = subformula_universe([P], consts={F(1, 2)}, depth=1)
    assert Imp(TruthConst(F(1, 2)), P) in u
    assert TruthConst(F(1, 2)) in u


def test_universe_adds_generalizations():
    px = Pred("P", (Var("x"),))
    u = subformula_universe([px], depth=1)
    assert Forall("x", px) in u


def test_universe_monotone_in_depth():
    rng = random.Random(3)
    seeds = [random_formula(rng, SIG_H, depth=2) for _ in range(5)]
    consts = {F(1, 2), F(0)}
    sizes = []
    previous: set = set()
    for depth in range(3):
        u = set(subformula_universe(seeds, consts, depth))
        assert previous <= u
        sizes.append(len(u))
        previous = u
    assert sizes == sorted(sizes)


def test_universe_is_duplicate_free_and_ordered():
    u = subformula_universe([Imp(P, Q), P])
    assert len(u) == len(set(u))
    assert u[0] == Imp(P, Q)


@given(st.integers(min_value=0, max_value=2))
def test_universe_formulas_are_expanded(depth):
    u = subformula_universe([Conj(P, Neg(Q))], depth=depth)
    assert all(is_expanded(f) for f in u)


# ---------------------------------------------------------------------------
# The node table and its two helpers


P_X = Pred("R", (Var("x"),))
ONE_OF_EACH_KIND = (
    TruthConst(F(1, 2)), P_X, Imp(P, Q), Forall("x", P_X), HedgeApp("s1", P), Neg(P),
    Conj(P, Q), Disj(P, Q), Min(P, Q), Max(P, Q), Iff(P, Q), Exists("x", P_X),
    Power(P, 3), Multiple(2, Q),
)


def test_node_table_matches_the_node_classes():
    assert set(NODE_FIELDS) == set(get_args(Formula)) | set(get_args(Term))
    for cls, names in NODE_FIELDS.items():
        assert names == tuple(f.name for f in fields(cls)), cls
    assert {type(f) for f in ONE_OF_EACH_KIND} == set(get_args(Formula))


def test_rebuild_from_own_children_is_the_same_object():
    for f in ONE_OF_EACH_KIND:
        assert rebuild(f, children(f)) is f
        assert rebuild(f, list(children(f))) is f


def test_rebuild_replaces_only_the_subformulas():
    assert rebuild(Imp(P, Q), [Q, P]) == Imp(Q, P)
    assert rebuild(Power(P, 3), [Q]) == Power(Q, 3)
    assert rebuild(Multiple(2, Q), [P]) == Multiple(2, P)
    assert rebuild(Forall("x", P_X), [P]) == Forall("x", P)
    assert rebuild(HedgeApp("s1", P), [Q]) == HedgeApp("s1", Q)
    assert children(Iff(P, Q)) == (P, Q) and children(P_X) == ()


def _nodes(node) -> list:
    """``node`` and every formula and term node below it, outermost first."""
    out = [node]
    for name in NODE_FIELDS[node.__class__]:
        value = getattr(node, name)
        for v in value if isinstance(value, tuple) else (value,):
            if v.__class__ in NODE_FIELDS:
                out += _nodes(v)
    return out


def test_node_hash_is_structural_and_survives_replace():
    rng = random.Random(23)
    for sig in (SIG_H, SIG_DH):
        for _ in range(150):
            f, g = random_formula(rng, sig, depth=4), random_formula(rng, sig, depth=4)
            text = format_formula(f)
            a, b = parse_formula(text, sig), parse_formula(text, sig)
            assert a is not b and a == b and hash(a) == hash(b) == hash(f)
            expand(a)  # fills the expansion slots of a, not of b
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            assert not hasattr(a, "__dict__") and not hasattr(b, "__dict__")
            donors = {}
            for node in _nodes(g):
                donors.setdefault(node.__class__, node)
            for node in _nodes(a):
                assert not hasattr(node, "__dict__")
                cls, names = node.__class__, NODE_FIELDS[node.__class__]
                # the hash a frozen dataclass computes from its fields
                assert hash(node) == hash(tuple(getattr(node, n) for n in names))
                donor = donors.get(cls, node)
                name = rng.choice(names)
                changed = replace(node, **{name: getattr(donor, name)})
                fresh = cls(*(getattr(donor if n == name else node, n) for n in names))
                assert changed == fresh and hash(changed) == hash(fresh)
                assert replace(node) == node and hash(replace(node)) == hash(node)


def test_expanding_again_walks_nothing(monkeypatch):
    import fln.syntax

    calls = []
    real = fln.syntax.children
    monkeypatch.setattr(fln.syntax, "children", lambda f: calls.append(f) or real(f))
    text = " & ".join(f"(s1 P{i} -> Q{i})" if i % 2 else f"P{i}" for i in range(55))
    f = parse_formula(text, SIG_H)
    e = expand(f)
    assert 250 <= len(subformulas(e)) <= 350 and calls
    calls.clear()
    assert expand(f) is e and expand(e) is e
    assert calls == []
    # the slots make no node refer to itself, so expanding creates no cycles
    for node in _nodes(f) + _nodes(e):
        assert all(r is not node for r in gc.get_referents(node))


def test_expand_of_a_core_formula_is_the_same_object():
    rng = random.Random(41)
    for sig in (SIG_H, SIG_DH):
        for _ in range(150):
            e = expand(random_formula(rng, sig, depth=4))
            for g in subformulas(e):
                assert expand(g) is g


# ---------------------------------------------------------------------------
# Reference oracle: the hand-written traversals the node table replaced,
# copied verbatim; the public names are renamed reference_*.


_QUANT, _IMP, _IFF, _DISJ, _MAX, _MIN, _CONJ, _UNARY, _POSTFIX, _ATOM = range(10)


def reference_format_formula(f: Formula, recover_negation: bool = False) -> str:
    """Canonical text of a formula; minimal parentheses.

    ``parse_formula(format_formula(f))`` reconstructs ``f`` exactly.  With
    ``recover_negation`` the pattern ``A -> #0`` prints as ``~A``; that is a
    readability aid and intentionally not round-trip safe.
    """

    def fmt(g: Formula, level: int) -> str:
        if recover_negation and isinstance(g, Imp) and g.right == FALSUM:
            g = Neg(g.left)
        text, own = _render(g)
        if own < level:
            return "(" + text + ")"
        return text

    def _render(g: Formula) -> tuple[str, int]:
        match g:
            case TruthConst(v):
                return format_truth_constant(v), _ATOM
            case Pred(name, args):
                if args:
                    return name + "(" + ",".join(format_term(a) for a in args) + ")", _ATOM
                return name, _ATOM
            case Imp(l, r):
                return fmt(l, _IFF) + " -> " + fmt(r, _QUANT), _IMP
            case Iff(l, r):
                return fmt(l, _IFF) + " <-> " + fmt(r, _DISJ), _IFF
            case Disj(l, r):
                return fmt(l, _DISJ) + " + " + fmt(r, _MAX), _DISJ
            case Max(l, r):
                return fmt(l, _MAX) + " \\/ " + fmt(r, _MIN), _MAX
            case Min(l, r):
                return fmt(l, _MIN) + " /\\ " + fmt(r, _CONJ), _MIN
            case Conj(l, r):
                return fmt(l, _CONJ) + " & " + fmt(r, _UNARY), _CONJ
            case Neg(b):
                return "~" + fmt(b, _UNARY), _UNARY
            case HedgeApp(h, b):
                return h + " " + fmt(b, _UNARY), _UNARY
            case Multiple(n, b):
                return f"{n}*" + fmt(b, _UNARY), _UNARY
            case Power(b, n):
                return fmt(b, _POSTFIX) + f"^{n}", _POSTFIX
            case Forall(x, b):
                return f"forall {x}. " + fmt(b, _QUANT), _QUANT
            case Exists(x, b):
                return f"exists {x}. " + fmt(b, _QUANT), _QUANT
        raise TypeError(f"not a formula: {g!r}")

    return fmt(f, _QUANT)


def reference_expanded_not(f: Formula) -> Formula:
    return Imp(f, FALSUM)


def reference_expanded_conj(l: Formula, r: Formula) -> Formula:
    # A & B  ==  ~(A -> ~B)
    return reference_expanded_not(Imp(l, reference_expanded_not(r)))


def reference_expanded_max(l: Formula, r: Formula) -> Formula:
    # A \/ B  ==  (B -> A) -> A
    return Imp(Imp(r, l), l)


def reference_expanded_min(l: Formula, r: Formula) -> Formula:
    # A /\ B  ==  ~((B -> A) -> ~B)
    return reference_expanded_not(Imp(Imp(r, l), reference_expanded_not(r)))


def reference_expand(f: Formula) -> Formula:
    """Rewrite every sugared connective into the core language.

    Idempotent; preserves free variables; evaluation of the result agrees
    with direct evaluation of the sugar.
    """
    match f:
        case TruthConst() | Pred():
            return f
        case Imp(l, r):
            return Imp(reference_expand(l), reference_expand(r))
        case Forall(x, b):
            return Forall(x, reference_expand(b))
        case HedgeApp(h, b):
            return HedgeApp(h, reference_expand(b))
        case Neg(b):
            return reference_expanded_not(reference_expand(b))
        case Conj(l, r):
            return reference_expanded_conj(reference_expand(l), reference_expand(r))
        case Disj(l, r):
            # A + B  ==  ~(~A & ~B)
            el, er = reference_expand(l), reference_expand(r)
            return reference_expanded_not(reference_expanded_conj(reference_expanded_not(el), reference_expanded_not(er)))
        case Max(l, r):
            return reference_expanded_max(reference_expand(l), reference_expand(r))
        case Min(l, r):
            return reference_expanded_min(reference_expand(l), reference_expand(r))
        case Iff(l, r):
            el, er = reference_expand(l), reference_expand(r)
            return reference_expanded_min(Imp(el, er), Imp(er, el))
        case Exists(x, b):
            return reference_expanded_not(Forall(x, reference_expanded_not(reference_expand(b))))
        case Power(b, n):
            eb = reference_expand(b)
            out = eb
            for _ in range(n - 1):
                out = reference_expanded_conj(out, eb)
            return out
        case Multiple(n, b):
            eb = reference_expand(b)
            out = eb
            for _ in range(n - 1):
                neg = reference_expanded_not
                out = neg(reference_expanded_conj(neg(out), neg(eb)))
            return out
    raise TypeError(f"not a formula: {f!r}")


def reference_is_expanded(f: Formula) -> bool:
    match f:
        case TruthConst() | Pred():
            return True
        case Imp(l, r):
            return reference_is_expanded(l) and reference_is_expanded(r)
        case Forall(_, b) | HedgeApp(_, b):
            return reference_is_expanded(b)
    return False


def reference_free_vars(f: Formula) -> frozenset[str]:
    match f:
        case TruthConst():
            return frozenset()
        case Pred(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= term_vars(a)
            return out
        case Imp(l, r) | Conj(l, r) | Disj(l, r) | Min(l, r) | Max(l, r) | Iff(l, r):
            return reference_free_vars(l) | reference_free_vars(r)
        case Forall(x, b) | Exists(x, b):
            return reference_free_vars(b) - {x}
        case HedgeApp(_, b) | Neg(b) | Power(b, _):
            return reference_free_vars(b)
        case Multiple(_, b):
            return reference_free_vars(b)
    raise TypeError(f"not a formula: {f!r}")


def reference_subst_term(t: Term, x: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.name == x else t
    if isinstance(t, Apply):
        return Apply(t.func, tuple(reference_subst_term(a, x, repl) for a in t.args))
    return t


def reference_substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of ``x`` in ``f`` by the term ``t``.

    Classical substitutability is enforced: if a free occurrence of ``x``
    sits inside a quantifier binding a variable of ``t``, the substitution
    would capture it and :class:`NotSubstitutableError` names the offending
    quantifier variable.
    """
    tv = term_vars(t)

    def go(g: Formula) -> Formula:
        match g:
            case TruthConst():
                return g
            case Pred(name, args):
                return Pred(name, tuple(reference_subst_term(a, x, t) for a in args))
            case Imp(l, r):
                return Imp(go(l), go(r))
            case Conj(l, r):
                return Conj(go(l), go(r))
            case Disj(l, r):
                return Disj(go(l), go(r))
            case Min(l, r):
                return Min(go(l), go(r))
            case Max(l, r):
                return Max(go(l), go(r))
            case Iff(l, r):
                return Iff(go(l), go(r))
            case Neg(b):
                return Neg(go(b))
            case HedgeApp(h, b):
                return HedgeApp(h, go(b))
            case Power(b, n):
                return Power(go(b), n)
            case Multiple(n, b):
                return Multiple(n, go(b))
            case Forall(y, b):
                if y == x:
                    return g
                if y in tv and x in reference_free_vars(b):
                    raise NotSubstitutableError(y)
                return Forall(y, go(b))
            case Exists(y, b):
                if y == x:
                    return g
                if y in tv and x in reference_free_vars(b):
                    raise NotSubstitutableError(y)
                return Exists(y, go(b))
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


def reference_subformulas(f: Formula) -> list[Formula]:
    """All subformulas of an expanded formula, outermost first."""
    out: list[Formula] = []
    seen: set[Formula] = set()

    def go(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        out.append(g)
        match g:
            case Imp(l, r):
                go(l)
                go(r)
            case Forall(_, b) | HedgeApp(_, b):
                go(b)
            case TruthConst() | Pred():
                pass
            case _:
                raise ValueError("subformulas expects an expanded formula")

    go(f)
    return out


def reference_truth_constants_in(f: Formula) -> frozenset[Fraction]:
    match f:
        case TruthConst(v):
            return frozenset((v,))
        case Pred():
            return frozenset()
        case Imp(l, r) | Conj(l, r) | Disj(l, r) | Min(l, r) | Max(l, r) | Iff(l, r):
            return reference_truth_constants_in(l) | reference_truth_constants_in(r)
        case Forall(_, b) | Exists(_, b) | HedgeApp(_, b) | Neg(b) | Power(b, _) | Multiple(_, b):
            return reference_truth_constants_in(b)
    raise TypeError(f"not a formula: {f!r}")


def reference_collect_symbols(formulas: "list[Formula] | tuple[Formula, ...]") -> Symbols:
    syms = Symbols.empty()

    def walk_term(t: Term) -> None:
        if isinstance(t, Const):
            syms.consts.add(t.name)
        elif isinstance(t, Apply):
            syms.merge_func(t.func, len(t.args))
            for a in t.args:
                walk_term(a)

    def walk(f: Formula) -> None:
        match f:
            case TruthConst():
                pass
            case Pred(name, args):
                syms.merge_pred(name, len(args))
                for a in args:
                    walk_term(a)
            case Imp(l, r) | Conj(l, r) | Disj(l, r) | Min(l, r) | Max(l, r) | Iff(l, r):
                walk(l)
                walk(r)
            case Forall(_, b) | Exists(_, b):
                syms.has_quantifier = True
                walk(b)
            case HedgeApp(_, b) | Neg(b) | Power(b, _) | Multiple(_, b):
                walk(b)
            case _:
                raise TypeError(f"not a formula: {f!r}")

    for f in formulas:
        walk(f)
    return syms


# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotSubstitutableError as exc:
        return ("not substitutable", exc.variable)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _symbols(fn, formulas):
    out = _outcome(fn, formulas)
    if isinstance(out, Symbols):
        return (out.preds, out.funcs, out.consts, out.has_quantifier)
    return out


def _clash(node, rng):
    """Rename S to R and g to f at random, so that arities clash."""
    if isinstance(node, tuple):
        return tuple(_clash(a, rng) for a in node)
    if not is_dataclass(node):
        return node
    changes = {f.name: _clash(getattr(node, f.name), rng) for f in fields(node)}
    if isinstance(node, Pred) and node.name == "S" and rng.random() < 0.5:
        changes["name"] = "R"
    if isinstance(node, Apply) and node.func == "g" and rng.random() < 0.5:
        changes["func"] = "f"
    return replace(node, **changes)


SUBSTITUTION_TERMS = (Const("u1"), Var("x"), Var("y"), Apply("f", (Var("z"),)), Apply("g", (Var("x"), Const("u2"))))


@pytest.mark.parametrize("sig", [SIG_H, SIG_DH], ids=["h", "dh"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_traversals_agree_with_reference(sig, depth):
    rng = random.Random(1000 * depth + len(sig.hedges))
    clashes = captures = 0
    for _ in range(400 if depth < 5 else 200):
        f = random_formula(rng, sig, depth)
        e = expand(f)
        assert e == reference_expand(f)
        again = expand(f)  # answered from the slots the first call filled
        assert again is e and again == reference_expand(f)
        assert expand(parse_formula(format_formula(f), sig)) == e
        for g in (f, e):
            assert is_expanded(g) == reference_is_expanded(g)
            assert free_vars(g) == reference_free_vars(g)
            assert truth_constants_in(g) == reference_truth_constants_in(g)
            assert format_formula(g) == reference_format_formula(g)
            assert format_formula(g, True) == reference_format_formula(g, True)
            assert _outcome(subformulas, g) == _outcome(reference_subformulas, g)
            x = rng.choice(VARS)
            t = rng.choice(SUBSTITUTION_TERMS)
            got = _outcome(substitute, g, x, t)
            assert got == _outcome(reference_substitute, g, x, t)
            captures += isinstance(got, tuple) and got[0] == "not substitutable"
        clashing = [f, _clash(f, rng)]
        got = _symbols(collect_symbols, clashing)
        assert got == _symbols(reference_collect_symbols, clashing)
        clashes += got[0] == "ValueError"  # got is a tuple either way
    assert depth < 3 or (clashes > 0 and captures > 0)
