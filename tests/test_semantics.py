from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Iterator

import pytest

from fln.deduction import provability_lower_bound
from fln.hedges import HedgeFunction, HedgeKernel, HedgeModel, IDENTITY, PL_SQRT, PL_SQUARE, blend, validate_axioms
from fln.mv import MVChain, ONE, ZERO, biresiduum, chain_values, join, luk_and, luk_imp, luk_neg, luk_or, meet
from fln.mv import multiple as mv_multiple, power as mv_power
from fln.parser import format_structure, parse_formula, parse_theory
from fln.semantics import (
    DEFAULT_STRUCTURE_LIMIT,
    EntailmentResult,
    EvalError,
    OpenFormulaError,
    SemDegreeResult,
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
    Formula,
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
    Term,
    TruthConst,
    Var,
    collect_symbols,
    expand,
    format_formula,
    free_vars,
)
from fln.theory import Theory
from genformulas import SIG_DH, SIG_H, VARS, random_formula, random_term, reference_eval_hedge

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


# ---------------------------------------------------------------------------
# The compiled evaluator against the match-based one it replaced.  The
# reference_* functions are verbatim copies of the previous fln.semantics
# code (renamed, with the structure-enumeration helpers they call); they
# are the oracle for values, error texts, witnesses and search counts.

Valuation = dict


def reference_eval_term(structure: Structure, term: Term, env: Valuation) -> str:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise EvalError(f"unbound variable '{term.name}'") from None
    if isinstance(term, Const):
        try:
            return structure.consts[term.name]
        except KeyError:
            raise EvalError(f"undeclared object constant '{term.name}'") from None
    table = structure.funcs.get(term.func)
    if table is None:
        raise EvalError(f"undeclared function '{term.func}'")
    key = tuple(reference_eval_term(structure, a, env) for a in term.args)
    try:
        return table[key]
    except KeyError:
        raise EvalError(f"function table {term.func} has no entry for {key}") from None


def reference_eval_formula(structure: Structure, formula: Formula, env: Valuation | None = None) -> Fraction:
    """Truth value of ``formula`` in ``structure`` under ``env``.

    Sugared connectives are evaluated directly through their truth
    functions; this agrees with evaluating the expansion.
    """
    e: dict[str, str] = dict(env) if env else {}

    def ev(g: Formula, e: dict[str, str]) -> Fraction:
        match g:
            case TruthConst(v):
                return v
            case Pred(name, args):
                table = structure.preds.get(name)
                if table is None:
                    raise EvalError(f"undeclared predicate '{name}'")
                key = tuple(reference_eval_term(structure, t, e) for t in args)
                try:
                    return table[key]
                except KeyError:
                    raise EvalError(f"predicate table {name} has no entry for {key}") from None
            case Imp(l, r):
                return luk_imp(ev(l, e), ev(r, e))
            case Forall(x, b):
                return min(ev(b, {**e, x: d}) for d in structure.domain)
            case Exists(x, b):
                return max(ev(b, {**e, x: d}) for d in structure.domain)
            case HedgeApp(h, b):
                try:
                    fn = structure.hedges.function_for(h)
                except KeyError as exc:
                    raise EvalError(str(exc)) from None
                return reference_eval_hedge(fn, ev(b, e))
            case Neg(b):
                return luk_neg(ev(b, e))
            case Conj(l, r):
                return luk_and(ev(l, e), ev(r, e))
            case Disj(l, r):
                return luk_or(ev(l, e), ev(r, e))
            case Min(l, r):
                return meet(ev(l, e), ev(r, e))
            case Max(l, r):
                return join(ev(l, e), ev(r, e))
            case Iff(l, r):
                return biresiduum(ev(l, e), ev(r, e))
            case Power(b, n):
                return mv_power(ev(b, e), n)
            case Multiple(n, b):
                return mv_multiple(ev(b, e), n)
        raise TypeError(f"not a formula: {g!r}")

    return ev(formula, e)


def _is_propositional(syms: Symbols) -> bool:
    return (
        not syms.funcs
        and not syms.consts
        and not syms.has_quantifier
        and all(arity == 0 for arity in syms.preds.values())
    )


def reference_count_structures(syms: Symbols, chain: MVChain, max_domain: int) -> int:
    sizes = (1,) if _is_propositional(syms) else tuple(range(1, max_domain + 1))
    total = 0
    for m in sizes:
        c = len(chain) ** sum(m**a for a in syms.preds.values())
        for a in syms.funcs.values():
            c *= m ** (m**a)
        c *= m ** len(syms.consts)
        total += c
    return total


def reference_enumerate_structures(
    syms: Symbols,
    chain: MVChain,
    max_domain: int,
    hedge_model: HedgeModel,
    limit: int = DEFAULT_STRUCTURE_LIMIT,
) -> Iterator[Structure]:
    """All chain-valued structures for the symbols, domain sizes ascending,
    tables in lexicographic order.  Purely propositional symbol sets are
    enumerated over a single-element domain, which loses nothing."""
    if max_domain < 1:
        raise ValueError("max_domain must be >= 1")
    required = reference_count_structures(syms, chain, max_domain)
    if required > limit:
        raise SpaceGuardError(required, limit)
    sizes = (1,) if _is_propositional(syms) else tuple(range(1, max_domain + 1))
    pred_names = sorted(syms.preds)
    func_names = sorted(syms.funcs)
    const_names = sorted(syms.consts)
    values = chain.values()
    for m in sizes:
        elements = tuple(f"d{i}" for i in range(1, m + 1))
        pred_keys = {p: list(product(elements, repeat=syms.preds[p])) for p in pred_names}
        func_keys = {f: list(product(elements, repeat=syms.funcs[f])) for f in func_names}
        for const_choice in product(elements, repeat=len(const_names)):
            consts = dict(zip(const_names, const_choice))
            for func_choice in product(*(product(elements, repeat=len(func_keys[f])) for f in func_names)):
                funcs = {
                    f: dict(zip(func_keys[f], vals)) for f, vals in zip(func_names, func_choice)
                }
                for pred_choice in product(*(product(values, repeat=len(pred_keys[p])) for p in pred_names)):
                    preds = {
                        p: dict(zip(pred_keys[p], vals)) for p, vals in zip(pred_names, pred_choice)
                    }
                    yield Structure(elements, preds, funcs, consts, hedge_model)


def reference_sem_degree(
    theory: Theory,
    goal: Formula,
    chain: MVChain,
    max_domain: int = 2,
    limit: int = DEFAULT_STRUCTURE_LIMIT,
) -> SemDegreeResult:
    """Minimum truth value of ``goal`` over every enumerated model of the
    theory; the first structure attaining it is returned as witness.

    An empty model class (over-graded axioms, or hedge functions failing
    the hedge axioms on this chain) yields degree 1 and no witness.
    """
    goal_e = expand(goal)
    if free_vars(goal_e):
        raise OpenFormulaError("the goal must be closed")
    for f in theory.special_axioms:
        if free_vars(f):
            raise OpenFormulaError(f"special axiom {format_formula(f)} is open")
    syms = collect_symbols(list(theory.special_axioms) + [goal_e])
    if not validate_axioms(theory.hedge_model, chain).passed:
        return SemDegreeResult(ONE, None, 0)
    sax_items = list(theory.special_axioms.items())
    best: Fraction | None = None
    witness: Structure | None = None
    checked = 0
    for s in reference_enumerate_structures(syms, chain, max_domain, theory.hedge_model, limit):
        checked += 1
        if any(reference_eval_formula(s, f) < g for f, g in sax_items):
            continue
        v = reference_eval_formula(s, goal_e)
        if best is None or v < best:
            best, witness = v, s
            if best == ZERO:
                break
    if best is None:
        return SemDegreeResult(ONE, None, checked)
    return SemDegreeResult(best, witness, checked)


def reference_check_equivalence_lemma(
    a: Formula,
    b: Formula,
    chain: MVChain,
    max_domain: int = 2,
    hedge_model: HedgeModel | None = None,
    limit: int = DEFAULT_STRUCTURE_LIMIT,
) -> EntailmentResult:
    """Decide whether ``a -> b`` is a 1-tautology by comparing the values
    of ``a`` and ``b`` pointwise over the enumerated structures.

    On a negative answer the witness structure makes ``a`` truer than
    ``b``.  Hedge functions failing the hedge axioms on the chain admit no
    structure, so the answer is then positive, as for the tautology degree.
    """
    model = hedge_model or HedgeModel.empty()
    ae, be = expand(a), expand(b)
    if free_vars(ae) or free_vars(be):
        raise OpenFormulaError("equivalence check needs closed formulas")
    if validate_axioms(model, chain).passed:
        syms = collect_symbols([ae, be])
        for s in reference_enumerate_structures(syms, chain, max_domain, model, limit):
            if reference_eval_formula(s, ae) > reference_eval_formula(s, be):
                return EntailmentResult(False, s)
    return EntailmentResult(True, None)


def outcome(fn, *args):
    """The result, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle comparison covers every exception
        return type(exc), str(exc)


def shape(s: Structure | None):
    """Everything of a structure, with the order of every table."""
    if s is None:
        return None
    return (
        s.domain,
        [(p, list(t.items())) for p, t in s.preds.items()],
        [(f, list(t.items())) for f, t in s.funcs.items()],
        list(s.consts.items()),
        s.hedges,
    )


def lifted(rng: random.Random) -> HedgeFunction:
    """Random breakpoints with mixed denominators, endpoints anywhere."""
    q = rng.choice((5, 7, 12, 16))
    xs = sorted(rng.sample([F(i, 12) for i in range(1, 12)], rng.randint(0, 3)))
    ends = [F(rng.randint(0, q), q) for _ in range(2)]
    return HedgeFunction(((ZERO, ends[0]), *((x, F(rng.randint(0, q), q)) for x in xs), (ONE, ends[1])))


SHAPES = (IDENTITY, PL_SQUARE, PL_SQRT, blend(PL_SQUARE, F(1, 3)), blend(PL_SQRT, F(2, 5)))


def random_hedges(rng: random.Random, sig: HedgeSignature) -> HedgeModel:
    return HedgeModel(sig, {h: rng.choice(SHAPES) if rng.random() < 0.5 else lifted(rng) for h in sig.hedges})


def random_structure(rng: random.Random, sig: HedgeSignature) -> Structure:
    """Tables over the genformulas symbols with values on and off the chain
    of tenths; sometimes a symbol is missing, a table has a hole or a
    function maps outside the domain."""
    dom = tuple(f"d{i}" for i in range(1, rng.randint(1, 3) + 1))
    q = rng.choice((10, 10, 3, 7, 12))

    def val():
        return F(rng.randint(0, q), q)

    preds = {
        "P": {(): val()},
        "Q": {(): val()},
        "R": {(d,): val() for d in dom},
        "S": {k: val() for k in product(dom, repeat=2)},
    }
    funcs = {"f": {(d,): rng.choice(dom) for d in dom}, "g": {k: rng.choice(dom) for k in product(dom, repeat=2)}}
    consts = {"u1": rng.choice(dom), "u2": rng.choice(dom)}
    r = rng.random()
    if r < 0.05:
        del preds[rng.choice(sorted(preds))]
    elif r < 0.1:
        del funcs[rng.choice(sorted(funcs))]
    elif r < 0.15:
        del consts[rng.choice(sorted(consts))]
    elif r < 0.2:
        table = rng.choice((preds["R"], preds["S"], funcs["f"], funcs["g"]))
        del table[rng.choice(sorted(table))]
    elif r < 0.25:
        table = rng.choice((funcs["f"], funcs["g"]))
        table[rng.choice(sorted(table))] = "elsewhere"
    model_sig = sig if rng.random() < 0.9 else rng.choice((SIG_H, SIG_DH, HedgeSignature()))
    return Structure(dom, preds, funcs, consts, random_hedges(rng, model_sig))


def sprinkle_constants(rng: random.Random, f: Formula) -> Formula:
    """Mix in truth constants off every chain the tests use."""
    c = TruthConst(rng.choice((F(1, 3), F(2, 7), F(5, 9))))
    return rng.choice((f, Imp(c, f), Conj(f, c), Max(c, f)))


@pytest.mark.parametrize("sig", [SIG_H, SIG_DH], ids=["h", "dh"])
def test_eval_formula_agrees_with_reference(sig):
    rng = random.Random(4099 if sig is SIG_H else 4111)
    values = 0
    errors = set()
    for depth in (1, 2, 3, 4, 5):
        for _ in range(300):
            f = sprinkle_constants(rng, random_formula(rng, sig, depth))
            s = random_structure(rng, sig)
            names = list(s.domain) + ["elsewhere"] * (rng.random() < 0.05)
            env = {x: rng.choice(names) for x in VARS if rng.random() < 0.8}
            t = random_term(rng, 2)
            assert outcome(eval_term, s, t, env) == outcome(reference_eval_term, s, t, env), (t, s, env)
            for g in (f, expand(f)):
                want = outcome(reference_eval_formula, s, g, env)
                assert outcome(eval_formula, s, g, env) == want, (g, s, env)
            if isinstance(want, tuple):
                errors.add(" ".join(want[1].strip('"').split()[:2]))
            else:
                values += 1
    assert values > 1000
    assert errors >= {
        "unbound variable",
        "undeclared predicate",
        "undeclared function",
        "undeclared object",
        "undeclared hedge",
        "predicate table",
        "function table",
    }


def test_eval_formula_agrees_with_reference_on_malformed_input():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    hedges = HedgeModel(sig, {"s1": PL_SQUARE})
    rx = Pred("R", (Var("x"),))
    structures = [
        Structure((), {"R": {}}),
        Structure(("d1", "d1", "d2"), {"R": {("d1",): F(1, 2), ("d2",): ZERO}}),
        Structure(("d1", "d2"), {"R": {("d1",): F(3, 2), ("d2",): F(-1, 2)}}, hedges=hedges),
        Structure(("d1", "d2"), {"R": {("d1",): ZERO, ("d2",): ONE, (): F(1, 3)}}),
        Structure(("d1", "d2"), {"R": {("d1",): ZERO}}),
    ]
    formulas = [
        Forall("x", rx),
        Exists("x", rx),
        Forall("x", HedgeApp("s1", rx)),
        Forall("x", Imp(TruthConst(F(3, 2)), rx)),
        Exists("x", Conj(TruthConst(F(-1, 2)), rx)),
        Imp(Pred("R"), Forall("x", rx)),
        Power(rx, 0),
        Multiple(0, Pred("R")),
    ]
    for s in structures:
        for f in formulas:
            assert outcome(eval_formula, s, f, {"x": "d1"}) == outcome(reference_eval_formula, s, f, {"x": "d1"})


def chain_lifted(rng: random.Random, k: int) -> HedgeFunction:
    """The identity at the points of the chain of k, anything between them,
    so the hedge axioms hold on the chain and hedges of off-chain values
    leave it."""
    q = rng.choice((3, 5, 8))
    bps = [(F(i, k), F(i, k)) for i in range(k + 1)]
    mids = [(F(2 * i + 1, 2 * k), F(rng.randint(0, q), q)) for i in range(k)]
    return HedgeFunction(tuple(sorted(bps + rng.sample(mids, rng.randint(0, k)))))


def closed(rng: random.Random, f: Formula) -> Formula:
    for x in sorted(free_vars(f)):
        f = rng.choice((Forall, Exists))(x, f)
    return f


GRADES = (ONE, F(4, 5), F(1, 2), F(7, 10), F(1, 3), F(5, 9), F(11, 20))


def random_theories(seed: int, chains: tuple[int, ...], budget: int):
    """Theories of 1-3 random closed axioms with grades on and off the
    chain, and a goal, on each chain with max_domain 1 or 2, kept when the
    enumeration has at most ``budget`` structures."""
    rng = random.Random(seed)
    for k in chains:
        chain = MVChain(k)
        kept = 0
        while kept < 12:
            sig = rng.choice((SIG_H, SIG_DH, HedgeSignature()))
            if rng.random() < 0.1:
                model = random_hedges(rng, sig)  # usually fails the hedge axioms
            else:
                model = HedgeModel(sig, {h: chain_lifted(rng, k) for h in sig.hedges})
            axioms = [
                (rng.choice(GRADES), closed(rng, sprinkle_constants(rng, random_formula(rng, sig, rng.randint(1, 3)))))
                for _ in range(rng.randint(1, 3))
            ]
            goal = closed(rng, sprinkle_constants(rng, random_formula(rng, sig, rng.randint(1, 3))))
            max_domain = rng.randint(1, 2)
            theory = Theory.build(axioms, sig, model)
            syms = collect_symbols([*theory.special_axioms, goal])
            if count_structures(syms, chain, max_domain) <= budget:
                kept += 1
                yield theory, goal, chain, max_domain


def test_sem_degree_agrees_with_reference():
    seen = set()
    # Degree 0 on one element, with a second domain size left to search.
    stops = (parse_theory("1/2 : P\n"), parse_formula("forall x. R(x) & P"), MVChain(3), 2)
    for theory, goal, chain, max_domain in [*random_theories(71, (1, 2, 3, 7, 10), 600), stops]:
        got = sem_degree(theory, goal, chain, max_domain)
        want = reference_sem_degree(theory, goal, chain, max_domain)
        assert got.degree == want.degree, (theory, goal, chain, max_domain)
        assert got.structures_checked == want.structures_checked
        assert shape(got.witness) == shape(want.witness)
        if want.witness is not None:
            assert format_structure(got.witness) == format_structure(want.witness)
        syms = collect_symbols([*theory.special_axioms, goal])
        seen.add(("degree", want.degree not in chain))
        seen.add(("witness", want.witness is not None))
        seen.add(("stopped early", want.structures_checked < count_structures(syms, chain, max_domain)))
        seen.add(("stopped below max_domain", want.degree == 0 and len(want.witness.domain) < max_domain))
        seen.add(("funcs", bool(syms.funcs)))
        seen.add(("consts", bool(syms.consts)))
        seen.add(("hedges", bool(theory.signature.hedges)))
    assert all((kind, flag) in seen for kind, _ in seen for flag in (True, False))


def test_equivalence_lemma_and_enumeration_agree_with_reference():
    for theory, goal, chain, max_domain in random_theories(72, (1, 2, 3, 7, 10), 300):
        a = next(iter(theory.special_axioms))
        model = theory.hedge_model
        got = check_equivalence_lemma(a, goal, chain, max_domain, model)
        want = reference_check_equivalence_lemma(a, goal, chain, max_domain, model)
        assert (got.entailed, shape(got.witness)) == (want.entailed, shape(want.witness))
        syms = collect_symbols([a, goal])
        got_all = [shape(s) for s in enumerate_structures(syms, chain, max_domain, model)]
        assert got_all == [shape(s) for s in reference_enumerate_structures(syms, chain, max_domain, model)]
        assert len(got_all) == count_structures(syms, chain, max_domain) == reference_count_structures(
            syms, chain, max_domain
        )


def counting_kernel(monkeypatch) -> dict[str, int]:
    """Count the hedge kernels derived and the values read from them."""
    counts = {"derived": 0, "lookups": 0}
    init, at = HedgeKernel.__init__, HedgeKernel.at

    def counted_init(self, f, d):
        counts["derived"] += 1
        init(self, f, d)

    def counted_at(self, i):
        counts["lookups"] += 1
        return at(self, i)

    monkeypatch.setattr(HedgeKernel, "__init__", counted_init)
    monkeypatch.setattr(HedgeKernel, "at", counted_at)
    return counts


def test_deep_hedge_nesting_costs_one_evaluation_per_level(monkeypatch):
    # Each pl-square level multiplies the denominator by up to 16, so 300
    # levels over the chain of 60 need a denominator near 60·16^300.  A
    # compiler that tabulated a hedge over its input denominator could never
    # finish; this one derives one kernel per level, whose cost does not
    # grow with the denominator, and reads one value per level.
    counts = counting_kernel(monkeypatch)
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    model = HedgeModel(sig, {"s1": PL_SQUARE})
    f = Pred("P")
    for _ in range(300):
        f = HedgeApp("s1", f)
    for i in (0, 1, 17, 30, 59, 60):
        s = Structure(("d1",), {"P": {(): F(i, 60)}}, hedges=model)
        counts.update(derived=0, lookups=0)
        value = eval_formula(s, f)
        assert counts["derived"] <= 300
        assert counts["lookups"] <= 300
        assert value == reference_eval_formula(s, f)
    assert value == ONE


def test_hedge_argument_outside_the_unit_interval_raises_as_the_oracle():
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    s = Structure(("d1",), {"P": {(): F(-1, 2)}}, hedges=HedgeModel(sig, {"s1": PL_SQUARE}))
    for formula, arg in (
        (HedgeApp("s1", TruthConst(F(3, 2))), "3/2"),
        (HedgeApp("s1", Pred("P")), "-1/2"),
        (HedgeApp("s1", HedgeApp("s1", Pred("P"))), "-1/2"),
    ):
        for evaluate in (eval_formula, reference_eval_formula):
            with pytest.raises(ValueError, match=rf"^hedge argument {arg} outside \[0, 1\]$"):
                evaluate(s, formula)


def test_quantifiers_stop_once_the_value_is_decided(monkeypatch):
    counts = counting_kernel(monkeypatch)
    sig = HedgeSignature(HedgeMode.H, ("s1",), ())
    hedges = HedgeModel(sig, {"s1": IDENTITY})
    body = HedgeApp("s1", Pred("R", (Var("x"),)))
    s = Structure(("d1", "d2", "d3"), {"R": {("d1",): F(1, 2), ("d2",): ZERO, ("d3",): F(1, 5)}}, hedges=hedges)
    assert eval_formula(s, Forall("x", body)) == ZERO
    assert counts["lookups"] == 2
    counts["lookups"] = 0
    assert eval_formula(s, Exists("x", body)) == F(1, 2)
    assert counts["lookups"] == 3
    t = Structure(("d1", "d2", "d3"), {"R": {("d1",): F(1, 2), ("d2",): ONE, ("d3",): F(1, 5)}}, hedges=hedges)
    counts["lookups"] = 0
    assert eval_formula(t, Exists("x", body)) == ONE
    assert counts["lookups"] == 2
    # A missing entry behind the deciding element still raises.
    u = Structure(("d1", "d2"), {"R": {("d1",): ZERO}}, hedges=hedges)
    with pytest.raises(EvalError, match=r"predicate table R has no entry for \('d2',\)"):
        eval_formula(u, Forall("x", body))
