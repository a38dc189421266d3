import random
from fractions import Fraction
from itertools import product

import pytest

from fln.deduction import provability_lower_bound
from fln.hedges import HedgeModel, IDENTITY, PL_SQUARE
from fln.mv import MVChain, ONE, ZERO, chain_values, luk_imp
from fln.parser import parse_formula, parse_theory
from fln.semantics import (
    EvalError,
    OpenFormulaError,
    SpaceGuardError,
    Structure,
    check_equivalence_lemma,
    count_structures,
    enumerate_structures,
    eval_formula,
    eval_term,
    is_model,
    sem_degree,
    tautology_degree,
)
from fln.syntax import (
    Apply,
    Conj,
    Const,
    Disj,
    Exists,
    Forall,
    HedgeApp,
    HedgeMode,
    HedgeSignature,
    Iff,
    Imp,
    Max,
    Min,
    Multiple,
    Neg,
    Power,
    Pred,
    Symbols,
    TruthConst,
    Var,
    collect_symbols,
    expand,
)
from fln.theory import Theory

F = Fraction


def two_point_structure():
    return Structure(
        domain=("d1", "d2"),
        preds={"P": {("d1",): F(2, 5), ("d2",): F(9, 10)}},
        consts={"u": "d1"},
    )


def test_eval_term_constant_function_variable():
    s = Structure(
        domain=("d1", "d2"),
        preds={},
        funcs={"f": {("d1",): "d2", ("d2",): "d2"}},
        consts={"u": "d1"},
    )
    assert eval_term(s, Const("u"), {}) == "d1"
    assert eval_term(s, Apply("f", (Const("u"),)), {}) == "d2"
    assert eval_term(s, Var("x"), {"x": "d2"}) == "d2"
    with pytest.raises(EvalError, match="unbound variable"):
        eval_term(s, Var("y"), {})
    with pytest.raises(EvalError, match="undeclared"):
        eval_term(s, Const("w"), {})


def test_eval_quantifiers_min_max():
    s = two_point_structure()
    px = Pred("P", (Var("x"),))
    assert eval_formula(s, Forall("x", px)) == F(2, 5)
    assert eval_formula(s, Exists("x", px)) == F(9, 10)


def test_eval_negation_and_hedge():
    s = Structure(
        domain=("d1",),
        preds={"P": {("d1",): F(3, 10)}},
        consts={"u": "d1"},
        hedges=HedgeModel(HedgeSignature(HedgeMode.H, ("s1",), ()), {"s1": IDENTITY}),
    )
    pu = Pred("P", (Const("u"),))
    assert eval_formula(s, Neg(pu)) == F(7, 10)
    assert eval_formula(s, HedgeApp("s1", pu)) == F(3, 10)


def test_eval_undeclared_predicate():
    s = two_point_structure()
    with pytest.raises(EvalError, match="undeclared predicate"):
        eval_formula(s, Pred("Nope"))


def prop_structure(vp, vq):
    return Structure(domain=("d1",), preds={"P": {(): vp}, "Q": {(): vq}})


def test_sugar_evaluation_matches_expansion_exhaustively():
    p, q = Pred("P"), Pred("Q")
    connectives = [Conj(p, q), Disj(p, q), Min(p, q), Max(p, q), Iff(p, q), Imp(p, q)]
    unaries = [Neg(p), Power(p, 2), Power(p, 3), Multiple(2, p), Multiple(3, p)]
    for vp in chain_values(10):
        for vq in chain_values(10):
            s = prop_structure(vp, vq)
            for f in connectives:
                assert eval_formula(s, f) == eval_formula(s, expand(f)), f
            for f in unaries:
                assert eval_formula(s, f) == eval_formula(s, expand(f)), f


def test_quantified_sugar_matches_expansion():
    rng = random.Random(31)
    rx = Pred("R", (Var("x"),))
    f = Exists("x", rx)
    for _ in range(50):
        table = {("d1",): rng.choice(chain_values(10)), ("d2",): rng.choice(chain_values(10))}
        s = Structure(domain=("d1", "d2"), preds={"R": table})
        assert eval_formula(s, f) == eval_formula(s, expand(f))
        assert eval_formula(s, f) == ONE - eval_formula(s, Forall("x", Neg(rx)))


# ---------------------------------------------------------------------------
# Model checking


def test_is_model_boundary_cases():
    theory = parse_theory("4/5 : P('u)\n")
    good = Structure(domain=("d1",), preds={"P": {("d1",): F(4, 5)}}, consts={"u": "d1"})
    bad = Structure(domain=("d1",), preds={"P": {("d1",): F(3, 5)}}, consts={"u": "d1"})
    assert is_model(good, theory).ok
    check = is_model(bad, theory)
    assert not check.ok
    assert check.failed_axiom == Pred("P", (Const("u"),))


def test_is_model_vacuous_theory():
    assert is_model(two_point_structure(), Theory()).ok


def test_is_model_rejects_open_axioms():
    theory = Theory.build([(F(1, 2), Pred("P", (Var("x"),)))])
    with pytest.raises(OpenFormulaError):
        is_model(two_point_structure(), theory)


def test_is_model_requires_valid_hedge_functions():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    s = Structure(
        domain=("d1",),
        preds={"P": {("d1",): F(1, 2)}},
        hedges=HedgeModel(sig, {"s1": PL_SQUARE}),
    )
    check = is_model(s, Theory(sig, {}, HedgeModel(sig, {"s1": PL_SQUARE})), MVChain(10))
    assert not check.ok
    assert not check.hedge_report.passed


# ---------------------------------------------------------------------------
# Enumeration


def test_count_structures_propositional():
    syms = collect_symbols([Pred("P"), Pred("Q")])
    assert count_structures(syms, MVChain(10), 3) == 121


def test_enumeration_is_deterministic_and_total():
    syms = collect_symbols([Pred("P", (Var("x"),))])
    chain = MVChain(2)
    first = [s.preds for s in enumerate_structures(syms, chain, 2, HedgeModel.empty())]
    second = [s.preds for s in enumerate_structures(syms, chain, 2, HedgeModel.empty())]
    assert first == second
    # 3 tables on one element plus 9 on two elements
    assert len(first) == 3 + 9


def test_space_guard_triggers():
    f = parse_formula("forall x. forall y. (S1(x,y) & S2(x,y) & S3(x,y))")
    with pytest.raises(SpaceGuardError):
        sem_degree(Theory(), f, MVChain(10), max_domain=2)


# ---------------------------------------------------------------------------
# Consequence degrees


def test_sem_degree_minimal_model_attains_grade():
    theory = parse_theory("4/5 : P('u)\n")
    res = sem_degree(theory, parse_formula("P('u)"), MVChain(10), max_domain=1)
    assert res.degree == F(4, 5)
    assert res.witness is not None


def test_sem_degree_mp_matches_enumeration_oracle():
    best = None
    for vp in chain_values(10):
        if vp < F(4, 5):
            continue
        for vq in chain_values(10):
            if luk_imp(vp, vq) < F(9, 10):
                continue
            best = vq if best is None else min(best, vq)
    assert best == F(7, 10)
    theory = parse_theory("4/5 : P\n9/10 : P -> Q\n")
    res = sem_degree(theory, Pred("Q"), MVChain(10))
    assert res.degree == best
    assert res.witness.preds["P"][()] == F(4, 5)
    assert res.witness.preds["Q"][()] == F(7, 10)
    assert eval_formula(res.witness, parse_formula("P -> Q")) == F(9, 10)


def test_sem_degree_requires_closed_goal():
    with pytest.raises(OpenFormulaError):
        sem_degree(Theory(), Pred("P", (Var("x"),)), MVChain(2))


def test_sem_degree_empty_model_class_gives_one():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    theory = Theory(sig, {}, HedgeModel(sig, {"s1": PL_SQUARE}))
    res = sem_degree(theory, parse_formula("s1 P -> P", sig), MVChain(10))
    assert res.degree == ONE
    assert res.witness is None


def test_sem_degree_unsatisfiable_axioms_give_one():
    theory = parse_theory("1 : P & ~P\n")
    res = sem_degree(theory, Pred("Q"), MVChain(10))
    assert res.degree == ONE
    assert res.witness is None


def test_sem_degree_monotone_in_axiom_grades():
    previous = ZERO
    for g in chain_values(10):
        theory = Theory.build([(g, Pred("P")), (F(9, 10), parse_formula("P -> Q"))])
        degree = sem_degree(theory, Pred("Q"), MVChain(10)).degree
        assert degree >= previous
        previous = degree


def test_sem_degree_propositional_domain_independent():
    theory = parse_theory("4/5 : P\n9/10 : P -> Q\n")
    one = sem_degree(theory, Pred("Q"), MVChain(10), max_domain=1)
    three = sem_degree(theory, Pred("Q"), MVChain(10), max_domain=3)
    assert one.degree == three.degree
    assert one.structures_checked == three.structures_checked


def test_sem_degree_refinement_monotone():
    rng = random.Random(13)
    atoms = [Pred("P"), Pred("Q")]
    for _ in range(10):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(atoms), rng.choice(atoms)
            f = rng.choice([a, Imp(a, b), Neg(a)])
            pairs.append((rng.choice(chain_values(10)), f))
        theory = Theory.build(pairs)
        goal = rng.choice(atoms)
        coarse = sem_degree(theory, goal, MVChain(10)).degree
        fine = sem_degree(theory, goal, MVChain(20)).degree
        assert fine <= coarse


def test_soundness_bridge_on_random_theories():
    rng = random.Random(55)
    atoms = [Pred("P"), Pred("Q"), Pred("R")]
    for _ in range(25):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(atoms), rng.choice(atoms)
            f = rng.choice([a, Imp(a, b), Neg(a), Conj(a, b)])
            pairs.append((rng.choice(chain_values(10)), f))
        theory = Theory.build(pairs)
        goal = rng.choice(atoms)
        bound = provability_lower_bound(theory, goal, depth=1, budget=50).bound
        degree = sem_degree(theory, goal, MVChain(10)).degree
        assert bound <= degree


# ---------------------------------------------------------------------------
# Tautology degrees and the entailment lemma


def test_tautology_degree_t1_instance():
    f = parse_formula("(forall x. R(x)) -> R('u)")
    assert tautology_degree(f, MVChain(10), max_domain=2) == ONE


def test_tautology_degree_lone_atom():
    assert tautology_degree(Pred("P"), MVChain(10)) == ZERO


def test_tautology_degree_constant():
    assert tautology_degree(TruthConst(F(1, 2)), MVChain(10)) == F(1, 2)


def test_equivalence_lemma_strong_conjunction_left_projection():
    p, q = Pred("P"), Pred("Q")
    res = check_equivalence_lemma(Conj(p, q), p, MVChain(10))
    assert res.entailed
    assert res.witness is None


def test_equivalence_lemma_conjunction_not_idempotent():
    p = Pred("P")
    res = check_equivalence_lemma(p, Conj(p, p), MVChain(10))
    assert not res.entailed
    w = res.witness
    assert w is not None
    assert eval_formula(w, p) > eval_formula(w, Conj(p, p))


def test_equivalence_lemma_reflexive():
    f = parse_formula("P -> Q")
    res = check_equivalence_lemma(f, f, MVChain(10))
    assert res.entailed


def random_propositional(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((Pred("P"), Pred("Q"), TruthConst(F(1, 2))))
    op = rng.choice((Imp, Conj, Disj, Min, Max, Iff, Neg))
    if op is Neg:
        return Neg(random_propositional(rng, depth - 1))
    return op(random_propositional(rng, depth - 1), random_propositional(rng, depth - 1))


def test_equivalence_lemma_agrees_with_tautology_degree():
    p, q = Pred("P"), Pred("Q")
    chain = MVChain(10)
    cases = [(Conj(p, q), p, None), (p, Conj(p, p), None), (Imp(p, q), Imp(p, q), None)]
    rng = random.Random(11)
    cases += [(random_propositional(rng, 3), random_propositional(rng, 3), None) for _ in range(40)]
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    failing = HedgeModel(sig, {"s1": PL_SQUARE})
    assert not is_model(Structure(("d1",), {}, hedges=failing), Theory(sig, {}, failing), chain).ok
    cases += [(p, HedgeApp("s1", p), failing), (p, HedgeApp("s1", p), HedgeModel(sig, {"s1": IDENTITY}))]
    entailed = set()
    for a, b, model in cases:
        res = check_equivalence_lemma(a, b, chain, hedge_model=model)
        assert res.entailed == (tautology_degree(Imp(a, b), chain, hedge_model=model) == ONE), (a, b)
        assert (res.witness is None) == res.entailed
        entailed.add(res.entailed)
    assert entailed == {True, False}
    assert check_equivalence_lemma(p, HedgeApp("s1", p), chain, hedge_model=failing).entailed
