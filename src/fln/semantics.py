"""Finite-structure semantics: interpretation of terms and formulas, model
checking, and brute-force consequence degrees over finite chains.

Evaluation is compiled.  A structure is laid out as a flat vector of
integer cells (:class:`_Layout`): constants and function tables hold
element indices, predicate tables hold numerators over one common
denominator (k for structures valued in the chain {0, 1/k, ..., 1}).
:func:`_compile` turns a formula, once per layout, into a closure
``run(vals, env) -> int`` that returns the formula's value as a numerator
over a denominator fixed at compile time.  Each node's denominator is the
lcm of its children's, and a hedge node reads the integer kernel
:class:`~fln.hedges.HedgeKernel` derived once for its input denominator,
so truth constants and hedge values off the chain stay exact; the
Łukasiewicz connectives are integer clamps.  ``Fraction`` appears only at
the boundary (returned truth values and degrees, decoded structures).

:func:`sem_degree`, :func:`tautology_degree` and
:func:`check_equivalence_lemma` compile the axioms and the goal once per
domain size and walk every cell vector of the enumeration; a
:class:`Structure` is decoded only for a witness.

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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .hedges import HedgeFunction, HedgeKernel, HedgeModel, ValidationReport, axiom_violations, eval_hedge
from .hedges import validate_axioms
from .mv import MVChain, ONE, ZERO
from .mv import multiple as mv_multiple, power as mv_power
from .syntax import (
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


# ---------------------------------------------------------------------------
# Flat integer layout of a structure


class _Layout:
    """Where each table cell of a structure lives in a flat vector.

    Elements are known by their index in ``names``; quantifiers range over
    the first ``size`` of them (the domain).  Cells come in the order
    constants, function tables, predicate tables, each table keyed by
    (name, arity) and holding ``len(names) ** arity`` cells in the order of
    ``product(range(len(names)), repeat=arity)``.  Constant and function
    cells hold element indices, predicate cells numerators over ``den``.
    A table starting at a cell in ``holes`` has a missing (None) entry;
    ``bounded`` says every predicate cell lies in [0, den].
    """

    def __init__(
        self,
        names: tuple[str, ...],
        size: int,
        den: int,
        hedges: HedgeModel,
        consts: Iterable[str],
        funcs: Iterable[tuple[str, int]],
        preds: Iterable[tuple[str, int]],
    ):
        self.names, self.size, self.den, self.hedges = names, size, den, hedges
        self.index = {x: i for i, x in enumerate(names)}
        self.holes: set[int] = set()
        self.bounded = True
        self.consts = {c: i for i, c in enumerate(consts)}
        self.funcs, self.pred_start = _place(funcs, len(self.consts), len(names))
        self.preds, self.length = _place(preds, self.pred_start, len(names))

    def cell(self, start: int, key: Iterable[str]) -> int:
        i = 0
        for x in key:
            i = i * len(self.names) + self.index[x]
        return start + i

    def decode(self, vals: tuple[int, ...], values: tuple[Fraction, ...]) -> Structure:
        """The structure with cells ``vals``; predicate numerator i is the
        truth value ``values[i]``.  One arity per table."""
        names = self.names

        def tables(blocks: dict[str, dict[int, int]], read) -> dict:
            out = {}
            for name, arities in blocks.items():
                ((arity, start),) = arities.items()
                cells = vals[start:start + len(names) ** arity]
                out[name] = dict(zip(product(names, repeat=arity), map(read, cells)))
            return out

        consts = {c: names[vals[i]] for c, i in self.consts.items()}
        return Structure(
            names, tables(self.preds, values.__getitem__), tables(self.funcs, names.__getitem__), consts, self.hedges
        )


def _place(tables: Iterable[tuple[str, int]], cell: int, n: int) -> tuple[dict[str, dict[int, int]], int]:
    """First cell of each (name, arity) table from ``cell`` on, and the cell after them."""
    blocks: dict[str, dict[int, int]] = {}
    for name, arity in tables:
        blocks.setdefault(name, {})[arity] = cell
        cell += n**arity
    return blocks, cell


def _encode(structure: Structure, extra: Iterable[str] = ()) -> tuple[_Layout, list]:
    """Layout and cell vector of a given structure.

    Besides the domain, every element name the tables, the constants or
    ``extra`` mention gets an index (quantifiers never reach it), so a
    table that is not total or maps outside the domain reads as the
    dictionaries do: a missing entry is a None cell.
    """
    names = dict.fromkeys(structure.domain)
    size = len(names)
    for table in structure.funcs.values():
        for key, x in table.items():
            names.update(dict.fromkeys((*key, x)))
    for table in structure.preds.values():
        for key in table:
            names.update(dict.fromkeys(key))
    names.update(dict.fromkeys((*structure.consts.values(), *extra)))
    values = [v for table in structure.preds.values() for v in table.values()]
    den = math.lcm(1, *(v.denominator for v in values))

    def blocks(tables: dict[str, dict]) -> list[tuple[str, int]]:
        return [(name, arity) for name, table in tables.items() for arity in dict.fromkeys(map(len, table))]

    layout = _Layout(
        tuple(names), size, den, structure.hedges, structure.consts, blocks(structure.funcs), blocks(structure.preds)
    )
    for tables, blocks_of in ((structure.funcs, layout.funcs), (structure.preds, layout.preds)):
        for name in tables:
            blocks_of.setdefault(name, {})  # an empty table is declared all the same
    vals: list = [None] * layout.length
    for c, x in structure.consts.items():
        vals[layout.consts[c]] = layout.index[x]
    for name, table in structure.funcs.items():
        for key, x in table.items():
            vals[layout.cell(layout.funcs[name][len(key)], key)] = layout.index[x]
    for name, table in structure.preds.items():
        for key, v in table.items():
            vals[layout.cell(layout.preds[name][len(key)], key)] = v.numerator * (den // v.denominator)
    for tables in (layout.funcs, layout.preds):
        for arities in tables.values():
            for arity, start in arities.items():
                if None in vals[start:start + len(names) ** arity]:
                    layout.holes.add(start)
    layout.bounded = all(ZERO <= v <= ONE for v in values)
    return layout, vals


# ---------------------------------------------------------------------------
# The formula compiler

Run = Callable[[Sequence, list], int]


def _fail(kind: type, text: str) -> Run:
    def run(vals, env):
        raise kind(text)

    return run


def _constant(num: int) -> Run:
    def run(vals, env):
        return num

    run.num = num  # type: ignore[attr-defined]
    return run


def _scaled(run: Run, factor: int) -> Run:
    if factor == 1:
        return run
    num = getattr(run, "num", None)
    if num is not None:  # a truth constant, such as the #0 of an expanded negation
        return _constant(num * factor)
    return lambda vals, env: run(vals, env) * factor


class _Compiler:
    """Compiles formulas and terms for structures laid out by ``layout``.

    A compiled term returns an element index, a compiled formula a
    numerator over its denominator.  ``env`` holds the element index of
    every variable in scope at the slot the compiler gave it; ``slots`` is
    the length it needs.  An error the evaluation meets (undeclared symbol,
    unbound variable, missing table entry) is raised by the closure when
    evaluation reaches it, in left-to-right order, never by the compiler.
    """

    def __init__(self, layout: _Layout, slots: int):
        self.layout = layout
        self.slots = slots
        # Nodes that may fail at run time or leave [0, 1]; a quantifier over
        # a body without any stops as soon as its value is decided.
        self.irregular = 0

    def term(self, t: Term, scope: Mapping[str, int]) -> Run:
        layout = self.layout
        if isinstance(t, Var):
            slot = scope.get(t.name)
            if slot is None:
                return _fail(EvalError, f"unbound variable '{t.name}'")
            return lambda vals, env: env[slot]
        if isinstance(t, Const):
            cell = layout.consts.get(t.name)
            if cell is None:
                return _fail(EvalError, f"undeclared object constant '{t.name}'")
            return lambda vals, env: vals[cell]
        arities = layout.funcs.get(t.func)
        if arities is None:
            return _fail(EvalError, f"undeclared function '{t.func}'")
        return self._lookup(f"function table {t.func}", arities, [self.term(a, scope) for a in t.args])

    def _lookup(self, table: str, arities: dict[int, int], args: list[Run]) -> Run:
        """Read the cell at the arguments' indices."""
        start = arities.get(len(args))
        n = len(self.layout.names)
        if start is None or start in self.layout.holes:
            self.irregular += 1
            names = self.layout.names

            def checked(vals, env):
                idx = [t(vals, env) for t in args]
                v = None
                if start is not None:
                    cell = 0
                    for i in idx:
                        cell = cell * n + i
                    v = vals[start + cell]
                if v is None:
                    raise EvalError(f"{table} has no entry for {tuple(names[i] for i in idx)}")
                return v

            return checked
        if not args:
            return lambda vals, env: vals[start]
        if len(args) == 1:
            (t,) = args
            return lambda vals, env: vals[start + t(vals, env)]
        if len(args) == 2:
            t, u = args
            return lambda vals, env: vals[start + t(vals, env) * n + u(vals, env)]

        def read(vals, env):
            i = 0
            for t in args:
                i = i * n + t(vals, env)
            return vals[start + i]

        return read

    def formula(self, g: Formula, scope: Mapping[str, int]) -> tuple[Run, int]:
        """``(run, den)``: ``run(vals, env)`` is g's value times ``den``."""
        layout = self.layout
        cls = g.__class__
        if cls is TruthConst:
            v = g.value
            if not ZERO <= v <= ONE:
                self.irregular += 1
            return _constant(v.numerator), v.denominator
        if cls is Pred:
            arities = layout.preds.get(g.name)
            if arities is None:
                return _fail(EvalError, f"undeclared predicate '{g.name}'"), 1
            if not layout.bounded:
                self.irregular += 1
            args = [self.term(t, scope) for t in g.args]
            return self._lookup(f"predicate table {g.name}", arities, args), layout.den
        if cls is Forall or cls is Exists:
            return self._quantifier(g, scope)
        if cls is HedgeApp:
            try:
                fn = layout.hedges.function_for(g.hedge)
            except KeyError as exc:
                return _fail(EvalError, str(exc)), 1
            return self._hedge(fn, *self.formula(g.body, scope))
        if cls is Neg:
            b, den = self.formula(g.body, scope)
            return (lambda vals, env: den - b(vals, env)), den
        if cls is Power or cls is Multiple:
            return self._repeat(g, *self.formula(g.body, scope))
        (l, dl), (r, dr) = self.formula(g.left, scope), self.formula(g.right, scope)
        den = math.lcm(dl, dr)
        l, r = _scaled(l, den // dl), _scaled(r, den // dr)
        if cls is Imp and hasattr(r, "num"):  # A -> #c, among them every expanded negation
            top = den + r.num

            def run(vals, env):
                s = top - l(vals, env)
                return s if s < den else den

        elif cls is Imp:

            def run(vals, env):
                s = den - l(vals, env) + r(vals, env)
                return s if s < den else den

        elif cls is Conj:

            def run(vals, env):
                s = l(vals, env) + r(vals, env) - den
                return s if s > 0 else 0

        elif cls is Disj:

            def run(vals, env):
                s = l(vals, env) + r(vals, env)
                return s if s < den else den

        elif cls is Min:

            def run(vals, env):
                a, b = l(vals, env), r(vals, env)
                return a if a <= b else b

        elif cls is Max:

            def run(vals, env):
                a, b = l(vals, env), r(vals, env)
                return a if a >= b else b

        elif cls is Iff:

            def run(vals, env):
                return den - abs(l(vals, env) - r(vals, env))

        else:
            raise TypeError(f"not a formula: {g!r}")
        return run, den

    def _quantifier(self, g: Forall | Exists, scope: Mapping[str, int]) -> tuple[Run, int]:
        slot = max(scope.values(), default=-1) + 1  # a fresh slot, even when g.var shadows
        self.slots = max(self.slots, slot + 1)
        mark = self.irregular
        body, den = self.formula(g.body, {**scope, g.var: slot})
        elements = range(self.layout.size)
        if self.irregular != mark or not elements:
            # Evaluate the body at every element, as the definition reads, so
            # a failing lookup or an empty domain raises.
            pick = min if g.__class__ is Forall else max

            def every(vals, env):
                out = []
                for i in elements:
                    env[slot] = i
                    out.append(body(vals, env))
                return pick(out)

            return every, den
        if g.__class__ is Forall:

            def forall(vals, env):
                best = den
                for i in elements:
                    env[slot] = i
                    v = body(vals, env)
                    if v < best:
                        if not v:
                            return 0
                        best = v
                return best

            return forall, den

        def exists(vals, env):
            best = 0
            for i in elements:
                env[slot] = i
                v = body(vals, env)
                if v > best:
                    if v == den:
                        return den
                    best = v
            return best

        return exists, den

    def _hedge(self, fn: HedgeFunction, body: Run, d: int) -> tuple[Run, int]:
        kernel = HedgeKernel(fn, d)
        at = kernel.at

        def run(vals, env):
            i = body(vals, env)
            if 0 <= i <= d:
                return at(i)
            return eval_hedge(fn, Fraction(i, d))  # raises: outside [0, 1]

        return run, kernel.den

    def _repeat(self, g: Power | Multiple, body: Run, den: int) -> tuple[Run, int]:
        n = g.count
        if n < 1:  # the truth function rejects the count once the body is evaluated
            op = mv_power if g.__class__ is Power else mv_multiple
            return (lambda vals, env: op(Fraction(body(vals, env), den), n)), den
        if g.__class__ is Power:
            floor = (n - 1) * den

            def power(vals, env):
                s = n * body(vals, env) - floor
                return s if s > 0 else 0

            return power, den

        def multiple(vals, env):
            s = n * body(vals, env)
            return s if s < den else den

        return multiple, den


def _compile(formula: Formula, layout: _Layout, scope: Mapping[str, int] | None = None) -> tuple[Run, int, int]:
    """``(run, den, slots)`` for ``formula`` on ``layout``: ``run(vals, env)``
    is its value times ``den`` in the structure with cells ``vals``, where
    ``env`` is a list of ``slots`` element indices whose first entries hold
    the variables of ``scope`` (name -> slot)."""
    scope = dict(scope or {})
    c = _Compiler(layout, len(scope))
    run, den = c.formula(formula, scope)
    return run, den, c.slots


def _environment(layout: _Layout, env: Valuation, slots: int) -> list[int]:
    cells = [layout.index[x] for x in env.values()]
    return cells + [0] * (slots - len(cells))


def eval_term(structure: Structure, term: Term, env: Valuation) -> str:
    layout, vals = _encode(structure, env.values())
    run = _Compiler(layout, len(env)).term(term, {x: i for i, x in enumerate(env)})
    return layout.names[run(vals, _environment(layout, env, len(env)))]


def eval_formula(structure: Structure, formula: Formula, env: Valuation | None = None) -> Fraction:
    """Truth value of ``formula`` in ``structure`` under ``env``.

    Sugared connectives are evaluated directly through their truth
    functions; this agrees with evaluating the expansion.
    """
    env = dict(env) if env else {}
    layout, vals = _encode(structure, env.values())
    run, den, slots = _compile(formula, layout, {x: i for i, x in enumerate(env)})
    return Fraction(run(vals, _environment(layout, env, slots)), den)


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


def _domain_sizes(syms: Symbols, max_domain: int) -> tuple[int, ...]:
    """Purely propositional symbol sets are enumerated over a single-element
    domain, which loses nothing; the others over 1..max_domain elements."""
    propositional = (
        not syms.funcs
        and not syms.consts
        and not syms.has_quantifier
        and all(arity == 0 for arity in syms.preds.values())
    )
    return (1,) if propositional else tuple(range(1, max_domain + 1))


def count_structures(syms: Symbols, chain: MVChain, max_domain: int) -> int:
    total = 0
    for m in _domain_sizes(syms, max_domain):
        c = len(chain) ** sum(m**a for a in syms.preds.values())
        for a in syms.funcs.values():
            c *= m ** (m**a)
        c *= m ** len(syms.consts)
        total += c
    return total


def _enumeration(
    syms: Symbols, chain: MVChain, max_domain: int, hedge_model: HedgeModel, limit: int
) -> Iterator[tuple[_Layout, Iterator[tuple[int, ...]]]]:
    """Per domain size, ascending: its layout and every cell vector, the
    last cell varying fastest.  Constants, then function tables, then
    predicate tables, each sorted by name and in lexicographic key order.
    This is the one definition of the enumeration order."""
    if max_domain < 1:
        raise ValueError("max_domain must be >= 1")
    required = count_structures(syms, chain, max_domain)
    if required > limit:
        raise SpaceGuardError(required, limit)
    for m in _domain_sizes(syms, max_domain):
        layout = _Layout(
            tuple(f"d{i}" for i in range(1, m + 1)),
            m,
            chain.k,
            hedge_model,
            sorted(syms.consts),
            sorted(syms.funcs.items()),
            sorted(syms.preds.items()),
        )
        elements = [range(m)] * layout.pred_start
        values = [range(chain.k + 1)] * (layout.length - layout.pred_start)
        yield layout, product(*elements, *values)


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
    values = chain.values()
    for layout, cells in _enumeration(syms, chain, max_domain, hedge_model, limit):
        for vals in cells:
            yield layout.decode(vals, values)


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
    if free_vars(goal):
        raise OpenFormulaError("the goal must be closed")
    for f in theory.special_axioms:
        if free_vars(f):
            raise OpenFormulaError(f"special axiom {format_formula(f)} is open")
    syms = collect_symbols([*theory.special_axioms, goal])
    if next(axiom_violations(theory.hedge_model, chain), None) is not None:
        return SemDegreeResult(ONE, None, 0)
    best: int | None = None
    witness = None
    checked = 0
    for layout, cells in _enumeration(syms, chain, max_domain, theory.hedge_model, limit):
        # An axiom of grade g holds when its numerator n over den has
        # n/den >= g, that is n >= ceil(g·den).
        axioms = []
        slots = 0
        for f, g in theory.special_axioms.items():
            run, d, n = _compile(f, layout)
            axioms.append((run, math.ceil(g * d)))
            slots = max(slots, n)
        # The goal's denominator depends on the chain only, not on the
        # domain size, so numerators compare across layouts.
        value, den, n = _compile(goal, layout)
        env = [0] * max(slots, n)
        for vals in cells:
            checked += 1
            for run, need in axioms:
                if run(vals, env) < need:
                    break
            else:
                v = value(vals, env)
                if best is None or v < best:
                    best, witness = v, (layout, vals)
                    if not v:
                        break
        if best == 0:
            break
    if best is None:
        return SemDegreeResult(ONE, None, checked)
    layout, vals = witness
    return SemDegreeResult(Fraction(best, den), layout.decode(vals, chain.values()), checked)


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
    if free_vars(a) or free_vars(b):
        raise OpenFormulaError("equivalence check needs closed formulas")
    if next(axiom_violations(model, chain), None) is None:
        syms = collect_symbols([a, b])
        for layout, cells in _enumeration(syms, chain, max_domain, model, limit):
            ra, da, na = _compile(a, layout)
            rb, db, nb = _compile(b, layout)
            env = [0] * max(na, nb)
            for vals in cells:
                if ra(vals, env) * db > rb(vals, env) * da:
                    return EntailmentResult(False, layout.decode(vals, chain.values()))
    return EntailmentResult(True, None)
