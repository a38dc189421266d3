"""Finite-structure semantics: interpretation of terms and formulas, model
checking, and brute-force consequence degrees over finite chains.

The enumerated model class (chain-valued tables, bounded domain) is a
subset of all structures, so the minimum computed here is an upper bound
on the [0,1] truth degree; where tests claim exact values they derive them
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .hedges import HedgeModel, ValidationReport, eval_hedge, validate_axioms
from .mv import MVChain, ONE, ZERO, biresiduum, join, luk_and, luk_imp, luk_neg, luk_or, meet
from .mv import multiple as mv_multiple, power as mv_power
from .syntax import (
    Apply,
    Conj,
    Const,
    Disj,
    Exists,
    Forall,
    Formula,
    HedgeApp,
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
from .theory import Theory

DEFAULT_STRUCTURE_LIMIT = 200_000

Valuation = Mapping[str, str]


class EvalError(ValueError):
    """Unbound variable or undeclared symbol during interpretation."""


class OpenFormulaError(ValueError):
    """A closed formula was required."""


class SpaceGuardError(RuntimeError):
    def __init__(self, required: int, limit: int):
        super().__init__(f"search space of {required} structures exceeds the limit of {limit}")
        self.required = required
        self.limit = limit


@dataclass
class Structure:
    """Finite interpretation: named domain elements, chain-valued predicate
    tables, function tables, constant designations and the hedge functions.
    Treat instances as immutable."""

    domain: tuple[str, ...]
    preds: dict[str, dict[tuple[str, ...], Fraction]]
    funcs: dict[str, dict[tuple[str, ...], str]] = field(default_factory=dict)
    consts: dict[str, str] = field(default_factory=dict)
    hedges: HedgeModel = field(default_factory=HedgeModel.empty)

    def validate(self) -> None:
        """Check table totality and range; raises ValueError on defects."""
        if not self.domain:
            raise ValueError("the domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain element names must be unique")
        for name, table in self.preds.items():
            arity = _table_arity(name, table)
            expected = set(product(self.domain, repeat=arity))
            if set(table) != expected:
                raise ValueError(f"predicate table {name} is not total over the domain")
            for v in table.values():
                if not (ZERO <= v <= ONE):
                    raise ValueError(f"predicate {name} has value {v} outside [0, 1]")
        for name, table in self.funcs.items():
            arity = _table_arity(name, table)
            expected = set(product(self.domain, repeat=arity))
            if set(table) != expected:
                raise ValueError(f"function table {name} is not total over the domain")
            for v in table.values():
                if v not in self.domain:
                    raise ValueError(f"function {name} maps outside the domain")
        for cname, target in self.consts.items():
            if target not in self.domain:
                raise ValueError(f"constant '{cname} designates unknown element {target}")


def _table_arity(name: str, table: dict) -> int:
    if not table:
        raise ValueError(f"empty table for {name}")
    return len(next(iter(table)))


def eval_term(structure: Structure, term: Term, env: Valuation) -> str:
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
    key = tuple(eval_term(structure, a, env) for a in term.args)
    try:
        return table[key]
    except KeyError:
        raise EvalError(f"function table {term.func} has no entry for {key}") from None


def eval_formula(structure: Structure, formula: Formula, env: Valuation | None = None) -> Fraction:
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
                key = tuple(eval_term(structure, t, e) for t in args)
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
                return eval_hedge(fn, ev(b, e))
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


# ---------------------------------------------------------------------------
# Model checking


@dataclass
class ModelCheck:
    ok: bool
    failed_axiom: Formula | None
    hedge_report: ValidationReport


def default_validation_chain(structure: Structure) -> MVChain:
    """Chain spanned by every rational in the structure's tables and hedge
    breakpoints; exact for the axiom instances at those points."""
    dens = [1]
    for table in structure.preds.values():
        dens.extend(v.denominator for v in table.values())
    for fn in structure.hedges.functions.values():
        for x, y in fn.breakpoints:
            dens.extend((x.denominator, y.denominator))
    return MVChain(math.lcm(*dens))


def is_model(structure: Structure, theory: Theory, chain: MVChain | None = None) -> ModelCheck:
    """Does the structure satisfy every special axiom at its grade?

    Also requires the structure's hedge functions to pass the hedge axioms
    on the evaluation chain, so the admitted valuations really dominate the
    fuzzy set of logical axioms there.
    """
    for f in theory.special_axioms:
        if free_vars(f):
            raise OpenFormulaError(f"special axiom {format_formula(f)} is open")
    report = validate_axioms(structure.hedges, chain or default_validation_chain(structure))
    if not report.passed:
        return ModelCheck(False, None, report)
    for f, g in theory.special_axioms.items():
        if eval_formula(structure, f) < g:
            return ModelCheck(False, f, report)
    return ModelCheck(True, None, report)


# ---------------------------------------------------------------------------
# Structure enumeration


def _is_propositional(syms: Symbols) -> bool:
    return (
        not syms.funcs
        and not syms.consts
        and not syms.has_quantifier
        and all(arity == 0 for arity in syms.preds.values())
    )


def count_structures(syms: Symbols, chain: MVChain, max_domain: int) -> int:
    sizes = (1,) if _is_propositional(syms) else tuple(range(1, max_domain + 1))
    total = 0
    for m in sizes:
        c = len(chain) ** sum(m**a for a in syms.preds.values())
        for a in syms.funcs.values():
            c *= m ** (m**a)
        c *= m ** len(syms.consts)
        total += c
    return total


def enumerate_structures(
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
    required = count_structures(syms, chain, max_domain)
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


# ---------------------------------------------------------------------------
# Consequence degrees


@dataclass
class SemDegreeResult:
    degree: Fraction
    witness: Structure | None
    structures_checked: int


def sem_degree(
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
    for s in enumerate_structures(syms, chain, max_domain, theory.hedge_model, limit):
        checked += 1
        if any(eval_formula(s, f) < g for f, g in sax_items):
            continue
        v = eval_formula(s, goal_e)
        if best is None or v < best:
            best, witness = v, s
            if best == ZERO:
                break
    if best is None:
        return SemDegreeResult(ONE, None, checked)
    return SemDegreeResult(best, witness, checked)


def tautology_degree(
    formula: Formula,
    chain: MVChain,
    max_domain: int = 2,
    hedge_model: HedgeModel | None = None,
    limit: int = DEFAULT_STRUCTURE_LIMIT,
) -> Fraction:
    """Degree to which ``formula`` holds in every enumerated structure."""
    model = hedge_model or HedgeModel.empty()
    th = Theory(model.signature, {}, model)
    return sem_degree(th, formula, chain, max_domain, limit).degree


@dataclass
class EntailmentResult:
    entailed: bool
    witness: Structure | None


def check_equivalence_lemma(
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
        for s in enumerate_structures(syms, chain, max_domain, model, limit):
            if eval_formula(s, ae) > eval_formula(s, be):
                return EntailmentResult(False, s)
    return EntailmentResult(True, None)
