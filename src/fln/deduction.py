"""Graded proof calculus: logical-axiom matching, the three inference rules,
proof objects and checking, and forward-chaining saturation.

Logical-axiom schemas are templates, core formulas with placeholders, and
one unifier matches them all, so matching and instantiation agree by
construction.  Only B1 (the constant equation), T1 (substitutability), T2
(x not free in A) and H6/DH11 (a declared hedge) carry a side condition;
the hedge-chain schemas get one template per declared hedge index.

Provability degrees are suprema over infinitely many proofs and are not
computable in general.  Saturation therefore works inside a finite formula
universe and yields certified lower bounds; when it reaches a fixpoint the
bound is exact for the universe-restricted calculus.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .mv import ONE, ZERO, as_truth, luk_and, luk_imp
from .syntax import (
    CORE,
    FALSUM,
    NODE_FIELDS,
    VERUM,
    Forall,
    Formula,
    HedgeApp,
    HedgeMode,
    HedgeSignature,
    Iff,
    Imp,
    TruthConst,
    Var,
    NotSubstitutableError,
    expand,
    expanded_not,
    format_formula,
    free_vars,
    subformula_universe,
    substitute,
    truth_constants_in,
)
from .theory import Theory

DEFAULT_DEPTH = 1
DEFAULT_BUDGET = 100


@dataclass(frozen=True)
class EvaluatedFormula:
    """A graded formula a/A: the syntactic evaluation a paired with A."""

    grade: Fraction
    formula: Formula


@dataclass(frozen=True)
class LogicalAxiomMatch:
    schema: str
    bindings: dict[str, object]
    template: Formula


# ---------------------------------------------------------------------------
# Logical axiom schemas, matched on expanded formulas (where ~X is Imp(X, #0)).


@dataclass(frozen=True)
class Meta:
    """Template placeholder; every occurrence of one name binds one value."""

    name: str


def _unify(t: object, f: object, b: dict[str, object]) -> bool:
    """Extend ``b`` so that the template ``t`` filled from ``b`` equals ``f``."""
    cls = t.__class__
    if cls is Imp:
        return f.__class__ is Imp and _unify(t.left, f.left, b) and _unify(t.right, f.right, b)
    if cls is Meta:
        if t.name in b:
            return b[t.name] == f
        b[t.name] = f
        return True
    if cls is tuple:
        if f.__class__ is not tuple or len(t) != len(f):
            return False
        for ti, fi in zip(t, f):
            if not _unify(ti, fi, b):
                return False
        return True
    names = NODE_FIELDS.get(cls)
    if names is None:
        return t == f
    if f.__class__ is not cls:
        return False
    for n in names:
        if not _unify(getattr(t, n), getattr(f, n), b):
            return False
    return True


def _fill(t: object, b: dict[str, object]) -> object:
    cls = t.__class__
    if cls is Meta:
        return b[t.name]
    names = NODE_FIELDS.get(cls)
    if names is None:
        return t
    return cls(*(_fill(getattr(t, n), b) for n in names))


def _t1_proviso(b: dict[str, object]) -> bool:
    """Bind t so that A[t/x] is the right-hand side, without capture."""
    body, x, rhs = b["A"], b["x"], b["A[t/x]"]
    if not _unify(substitute(body, x, Meta("t")), rhs, b):
        return False
    try:
        return substitute(body, x, b.setdefault("t", Var(x))) == rhs
    except NotSubstitutableError:
        return False


_X, _A, _B, _C = Meta("x"), Meta("A"), Meta("B"), Meta("C")
_BASE_TEMPLATES = (
    ("R1", Imp(_A, Imp(_B, _A)), None),
    ("R2", Imp(Imp(_A, _B), Imp(Imp(_B, _C), Imp(_A, _C))), None),
    ("R3", Imp(Imp(expanded_not(_B), expanded_not(_A)), Imp(_A, _B)), None),
    ("R4", Imp(Imp(Imp(_A, _B), _B), Imp(Imp(_B, _A), _A)), None),
    (
        "B1",
        expand(Iff(Imp(TruthConst(Meta("a")), TruthConst(Meta("b"))), TruthConst(Meta("c")))),
        lambda b: b["c"] == luk_imp(b["a"], b["b"]),
    ),
    ("T1", Imp(Forall(_X, _A), Meta("A[t/x]")), _t1_proviso),
    (
        "T2",
        Imp(Forall(_X, Imp(_A, _B)), Imp(_A, Forall(_X, _B))),
        lambda b: b["x"] not in free_vars(b["A"]),
    ),
)
_CONST_TEMPLATE = ("CONST", TruthConst(Meta("a")), None)
_HEDGE_SCHEMA_NAMES = {
    HedgeMode.H: ("H6", "H7", "H8", "H9", "H10"),
    HedgeMode.DH: ("DH11", "DH12", "DH13", "DH14", "DH15"),
}
_BASE_NAMES = tuple(name for name, _, _ in _BASE_TEMPLATES + (_CONST_TEMPLATE,))


_Entry = tuple[str, Formula, object]


class _Schemas(NamedTuple):
    table: tuple[_Entry, ...]
    buckets: dict[tuple[type, ...], tuple[_Entry, ...]]
    names: frozenset[str]


def _shape(f: Formula) -> tuple[type, ...]:
    """The head shape matching dispatches on: the class of ``f`` and, for an
    implication, the classes of its two sides.  In a template a
    placeholder's class is :class:`Meta`, which fits any class."""
    if f.__class__ is Imp:
        return Imp, f.left.__class__, f.right.__class__
    return (f.__class__,)


def _fits(pattern: tuple[type, ...], shape: tuple[type, ...]) -> bool:
    return all(p is Meta or p is c for p, c in zip(pattern, shape))


def schema_table(sig: HedgeSignature) -> tuple[_Entry, ...]:
    """(name, template, side condition or None) for ``sig``, in matching order.

    Hedge schemas get one template per declared index, with s_0 A = A and
    d_0 A = A: s_i A -> s_{i-1} A, s_top #1, d_{i-1} A -> d_i A, then
    ~(d_top #0) in mode H or d_i A -> ~(s_i ~A) in mode DH.
    """
    return _schemas(sig).table


@lru_cache(maxsize=32)
def _schemas(sig: HedgeSignature) -> _Schemas:
    """The schema table of ``sig``, its valid schema names, and for every
    shape of an expanded formula the templates that can fit it, in table
    order, so that matching a bucket finds the same first match as
    matching the whole table."""
    mono, s_chain, s_top, d_chain, last = _HEDGE_SCHEMA_NAMES[sig.mode]
    s, d, h = sig.stressers, sig.depressers, Meta("h")
    s_at = (_A,) + tuple(HedgeApp(name, _A) for name in s)  # s_at[i] is s_i A
    d_at = (_A,) + tuple(HedgeApp(name, _A) for name in d)
    out = [(mono, Imp(Imp(_A, _B), Imp(HedgeApp(h, _A), HedgeApp(h, _B))), lambda b: sig.is_hedge(b["h"]))]
    out += [(s_chain, Imp(s_at[i], s_at[i - 1]), None) for i in range(1, len(s_at))]
    out += [(s_top, HedgeApp(s[-1], VERUM), None)] if s else []
    out += [(d_chain, Imp(d_at[i - 1], d_at[i]), None) for i in range(1, len(d_at))]
    if sig.mode is HedgeMode.H:
        out += [(last, expanded_not(HedgeApp(d[-1], FALSUM)), None)] if d else []
    else:
        for dn, sn in zip(d, s):
            out.append((last, Imp(HedgeApp(dn, _A), expanded_not(HedgeApp(sn, expanded_not(_A)))), None))
    table = _BASE_TEMPLATES + tuple(out) + (_CONST_TEMPLATE,)
    shapes = [(c,) for c in CORE if c is not Imp] + [(Imp, l, r) for l in CORE for r in CORE]
    buckets = {k: tuple(e for e in table if _fits(_shape(e[1]), k)) for k in shapes}
    return _Schemas(table, buckets, frozenset(_BASE_NAMES + _HEDGE_SCHEMA_NAMES[sig.mode]))


def _first_match(f: Formula, entries: Iterable[_Entry]) -> LogicalAxiomMatch | None:
    for name, template, cond in entries:
        b: dict[str, object] = {}
        if _unify(template, f, b) and (cond is None or cond(b)):
            return LogicalAxiomMatch(name, b, template)
    return None


def match_schema(schema: str, f: Formula, sig: HedgeSignature) -> LogicalAxiomMatch | None:
    f = expand(f)
    schemas = _schemas(sig)
    if schema not in schemas.names:
        raise ValueError(f"unknown axiom schema '{schema}'")
    return _first_match(f, (e for e in schemas.buckets[_shape(f)] if e[0] == schema))


def lax_grade(f: Formula, sig: HedgeSignature) -> tuple[Fraction, LogicalAxiomMatch | None]:
    """Membership grade of ``f`` in the fuzzy set of logical axioms.

    Grade 1 with a match for instances of the enabled schemas, grade a for
    the truth constant #a, grade 0 otherwise.
    """
    f = expand(f)
    m = _first_match(f, _schemas(sig).buckets[_shape(f)])
    if m is None:
        return ZERO, None
    return (m.bindings["a"] if m.schema == "CONST" else ONE), m


def instantiate_match(m: LogicalAxiomMatch, sig: HedgeSignature) -> Formula:
    """Rebuild the formula matched by ``m`` from its template; ``sig`` is unused."""
    return _fill(m.template, m.bindings)


# ---------------------------------------------------------------------------
# Inference rules

RULE_MP = "MP"
RULE_G = "G"
RULE_LC = "LC"


class RuleApplicationError(ValueError):
    """Premises or parameters do not fit the rule."""


def apply_rule(rule: str, premises: list[EvaluatedFormula], param: object = None) -> EvaluatedFormula:
    """Apply one inference rule to evaluated premises.

    MP: a/A, b/(A -> B)  gives  a⊗b / B
    G:  a/A              gives  a / forall x. A   (param: variable x)
    LC: b/A              gives  a⇒b / #a -> A     (param: rational a)
    """
    if rule == RULE_MP:
        if len(premises) != 2:
            raise RuleApplicationError("modus ponens takes two premises")
        minor, major = premises
        mf = expand(major.formula)
        if not isinstance(mf, Imp) or mf.left != expand(minor.formula):
            raise RuleApplicationError("modus ponens premises do not match")
        return EvaluatedFormula(luk_and(minor.grade, major.grade), mf.right)
    if rule == RULE_G:
        if len(premises) != 1:
            raise RuleApplicationError("generalization takes one premise")
        if not isinstance(param, str) or not param:
            raise RuleApplicationError("generalization needs a variable parameter")
        p = premises[0]
        return EvaluatedFormula(p.grade, Forall(param, expand(p.formula)))
    if rule == RULE_LC:
        if len(premises) != 1:
            raise RuleApplicationError("constant introduction takes one premise")
        try:
            a = as_truth(param)
        except (TypeError, ValueError) as exc:
            raise RuleApplicationError(f"constant-introduction parameter: {exc}") from None
        p = premises[0]
        return EvaluatedFormula(luk_imp(a, p.grade), Imp(TruthConst(a), expand(p.formula)))
    raise RuleApplicationError(f"unknown rule '{rule}'")


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class LaxLeaf:
    schema: str


@dataclass(frozen=True)
class SaxLeaf:
    pass


@dataclass(frozen=True)
class RuleApp:
    rule: str
    premises: tuple[int, ...]
    param: object = None


Justification = LaxLeaf | SaxLeaf | RuleApp


@dataclass(frozen=True)
class ProofStep:
    conclusion: EvaluatedFormula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a proof needs at least one step")

    def value(self) -> Fraction:
        return self.steps[-1].conclusion.grade


class ProofCheckError(ValueError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


def check_proof(proof: Proof, theory: Theory) -> Fraction:
    """Re-verify every step and return the proof's value.

    Logical-axiom leaves must claim exactly their axiom grade; special
    leaves may claim anything up to max(SAx, LAx); rule steps are
    recomputed and must reproduce the claimed formula and grade.
    """
    sig = theory.signature
    checked: list[EvaluatedFormula] = []
    for idx, step in enumerate(proof.steps):
        n = idx + 1
        f = expand(step.conclusion.formula)
        claimed = step.conclusion.grade
        just = step.justification
        if isinstance(just, LaxLeaf):
            m = match_schema(just.schema, f, sig)
            if m is None:
                raise ProofCheckError(n, f"schema match failure ({just.schema})")
            expected = f.value if just.schema == "CONST" else ONE  # type: ignore[union-attr]
            if claimed != expected:
                raise ProofCheckError(n, "grade mismatch")
        elif isinstance(just, SaxLeaf):
            cap = max(theory.special_axioms.get(f, ZERO), lax_grade(f, sig)[0])
            if claimed > cap:
                raise ProofCheckError(n, "grade mismatch")
        else:
            for i in just.premises:
                if i < 0:
                    raise ProofCheckError(n, "invalid step index")
                if i >= idx:
                    raise ProofCheckError(n, "forward reference")
            prems = [checked[i] for i in just.premises]
            try:
                out = apply_rule(just.rule, prems, just.param)
            except RuleApplicationError as exc:
                raise ProofCheckError(n, str(exc)) from None
            if out.formula != f:
                raise ProofCheckError(n, "conclusion mismatch")
            if out.grade != claimed:
                raise ProofCheckError(n, "grade mismatch")
        checked.append(EvaluatedFormula(claimed, f))
    return checked[-1].grade


# ---------------------------------------------------------------------------
# Saturation


@dataclass(frozen=True)
class ProvLeaf:
    formula: Formula
    grade: Fraction
    kind: str  # "lax" | "sax"
    schema: str | None = None


@dataclass(frozen=True)
class ProvRule:
    formula: Formula
    grade: Fraction
    rule: str
    param: object
    premises: tuple["ProvNode", ...]


ProvNode = ProvLeaf | ProvRule


@dataclass
class SaturationResult:
    grades: dict[Formula, Fraction]
    provenance: dict[Formula, ProvNode]
    fixpoint: bool
    rounds: int
    # The grades as saturation held them: integer numerators over one
    # denominator, grades[f] == numerators[f] / denominator.
    numerators: dict[Formula, int] = field(default_factory=dict)
    denominator: int = 1


def saturate(theory: Theory, universe, budget: int = DEFAULT_BUDGET) -> SaturationResult:
    """Raise grades over a finite universe to a least fixpoint of the rules.

    Grades start from max(SAx, LAx) and only ever increase; the merge is a
    per-formula maximum, so the fixpoint does not depend on the processing
    order.  ``budget`` caps the number of full sweeps; if it runs out
    before a sweep makes no change, the result is flagged non-fixpoint.
    Every reported grade is a certified lower provability bound.

    Each sweep visits the formulas that some rule concludes, in universe
    order, and updates a grade in place as soon as it rises, so later
    formulas of the same sweep see it.  A formula's candidates are its MP
    edges (in the universe order of the implication), then LC, then G; the
    first strictly best one wins.  Grades are integer numerators over one
    denominator D, the lcm of the denominators of the initial grades and
    the LC constants.  That set is closed under the rules (MP gives
    a+b-D, LC gives min(D, D-c+b), G copies), so the arithmetic is exact,
    and a ``Fraction`` is made only for a raised grade and for the result.
    A (formula, grade) pair therefore has exactly one provenance object.
    """
    if budget < 1:
        raise ValueError("saturation budget must be >= 1")
    index: dict[Formula, int] = {}
    univ: list[Formula] = []
    for f in universe:
        ef = expand(f)
        if ef not in index:
            index[ef] = len(univ)
            univ.append(ef)

    sig = theory.signature
    start: list[Fraction] = []
    prov: list[ProvNode] = []
    for f in univ:
        sax = theory.special_axioms.get(f, ZERO)
        lg, m = lax_grade(f, sig)
        if m is not None and lg >= sax:
            start.append(lg)
            prov.append(ProvLeaf(f, lg, "lax", m.schema))
        else:
            start.append(sax)
            prov.append(ProvLeaf(f, sax, "sax"))

    # Rule edges by conclusion index: MP as (minor, major), LC as
    # (constant, body), G as (variable, body).
    mp_edges: dict[int, list[tuple[int, int]]] = {}
    lc_edges: dict[int, tuple[Fraction, int]] = {}
    gen_edges: dict[int, tuple[str, int]] = {}
    for i, g in enumerate(univ):
        if isinstance(g, Imp):
            right = index.get(g.right)
            if right is None:
                continue
            left = index.get(g.left)
            if left is not None:
                mp_edges.setdefault(right, []).append((left, i))
            if isinstance(g.left, TruthConst):
                lc_edges[i] = (g.left.value, right)
        elif isinstance(g, Forall):
            body = index.get(g.body)
            if body is not None:
                gen_edges[i] = (g.var, body)
    den = lcm(*(v.denominator for v in start), *(c.denominator for c, _ in lc_edges.values()))
    grades = [v.numerator * (den // v.denominator) for v in start]
    # (i, MP edges, LC as (constant, D minus its numerator, body) or None,
    # G or None) for every formula i that some rule concludes, in order.
    rules = []
    for i in sorted(mp_edges.keys() | lc_edges.keys() | gen_edges.keys()):
        lc = lc_edges.get(i)
        if lc is not None:
            c, body = lc
            lc = (c, den - c.numerator * (den // c.denominator), body)
        rules.append((i, mp_edges.get(i, ()), lc, gen_edges.get(i)))

    fixpoint = False
    rounds = 0
    while rounds < budget:
        rounds += 1
        changed = False
        for i, mps, lc, gen in rules:
            best = grades[i]
            action = None
            for a, ab in mps:
                # max(0, a + b - D); a raise is never to 0, so no clamp
                cand = grades[a] + grades[ab] - den
                if cand > best:
                    best, action = cand, (RULE_MP, None, (a, ab))
            if lc is not None:
                c, top, body = lc
                cand = top + grades[body]
                if cand > den:
                    cand = den
                if cand > best:
                    best, action = cand, (RULE_LC, c, (body,))
            if gen is not None:
                x, body = gen
                cand = grades[body]
                if cand > best:
                    best, action = cand, (RULE_G, x, (body,))
            if action is not None:
                rule, param, prems = action
                grades[i] = best
                prov[i] = ProvRule(univ[i], Fraction(best, den), rule, param, tuple(prov[p] for p in prems))
                changed = True
        if not changed:
            fixpoint = True
            break
    final = {f: p.grade for f, p in zip(univ, prov)}
    return SaturationResult(final, dict(zip(univ, prov)), fixpoint, rounds, dict(zip(univ, grades)), den)


def extract_proof(node: ProvNode) -> Proof:
    """Linearize a provenance DAG into a checkable proof.

    A provenance object reached twice becomes one step that later steps
    refer to: repeats are shared by identity, which is safe because
    :func:`saturate` makes exactly one provenance object per (formula,
    grade).  Looking nodes up by their structural hash instead would walk
    the DAG as a tree, exponential in the depth of shared premises.
    """
    steps: list[ProofStep] = []
    index: dict[int, int] = {}

    def emit(n: ProvNode) -> int:
        if id(n) in index:
            return index[id(n)]
        if isinstance(n, ProvRule):
            prem_idx = tuple(emit(c) for c in n.premises)
            just: Justification = RuleApp(n.rule, prem_idx, n.param)
        elif n.kind == "lax":
            just = LaxLeaf(n.schema or "CONST")
        else:
            just = SaxLeaf()
        steps.append(ProofStep(EvaluatedFormula(n.grade, n.formula), just))
        index[id(n)] = len(steps) - 1
        return index[id(n)]

    emit(node)
    return Proof(tuple(steps))


# ---------------------------------------------------------------------------
# Provability bounds and contradiction search


@dataclass
class BoundResult:
    bound: Fraction
    proof: Proof
    fixpoint: bool
    universe_size: int


def goal_universe(theory: Theory, goal: Formula, depth: int = DEFAULT_DEPTH) -> tuple[list[Formula], Formula]:
    goal_e = expand(goal)
    seed = list(theory.special_axioms) + [goal_e]
    consts = set(theory.grade_constants()) | set(truth_constants_in(goal_e))
    return subformula_universe(seed, consts, depth), goal_e


def provability_lower_bound(
    theory: Theory, goal: Formula, depth: int = DEFAULT_DEPTH, budget: int = DEFAULT_BUDGET
) -> BoundResult:
    """Certified lower bound on the provability degree of ``goal``, with a
    witness proof whose checked value equals the bound."""
    univ, goal_e = goal_universe(theory, goal, depth)
    res = saturate(theory, univ, budget)
    bound = res.grades[goal_e]
    proof = extract_proof(res.provenance[goal_e])
    return BoundResult(bound, proof, res.fixpoint, len(univ))


@dataclass
class ContradictionWitness:
    formula: Formula
    degree: Fraction
    proof_pos: Proof
    proof_neg: Proof


@dataclass
class ConsistencyResult:
    witness: ContradictionWitness | None
    fixpoint: bool


def detect_contradiction(
    theory: Theory, depth: int = DEFAULT_DEPTH, budget: int = DEFAULT_BUDGET
) -> ConsistencyResult:
    """Search the universe for A with bound(A) ⊗ bound(~A) > 0.

    The universe is the axiom universe closed under one application of
    negation.  A miss certifies only universe-relative consistency.
    Special-axiom formulas are scanned first (in declaration order), then
    the rest in canonical text order with bare truth constants last, so the
    reported witness is deterministic.
    """
    seed = list(theory.special_axioms)
    base = subformula_universe(seed, set(theory.grade_constants()), depth)
    # Every universe formula paired with its negation, in universe order.
    neg = {f: expanded_not(f) for f in base}
    for g in [nf for nf in neg.values() if nf not in neg] + [FALSUM]:
        if g not in neg:
            neg[g] = expanded_not(g)
    univ = list(neg)
    res = saturate(theory, univ, budget)
    nums, den = res.numerators, res.denominator

    def positive(f: Formula) -> bool:
        """bound(f) ⊗ bound(¬f) > 0, that is a + b > D on the numerators."""
        b = nums.get(neg[f])
        return b is not None and nums[f] + b > den

    # Distinct formulas print differently, so the minimum by the text key
    # is the first witness of the sorted scan, and only positive formulas
    # need printing.
    f = next((f for f in theory.special_axioms if positive(f)), None)
    if f is None:
        rest = [f for f in univ if f not in theory.special_axioms and positive(f)]
        if not rest:
            return ConsistencyResult(None, res.fixpoint)
        f = min(rest, key=lambda f: (isinstance(f, TruthConst), format_formula(f)))
    nf = neg[f]
    witness = ContradictionWitness(
        f, luk_and(res.grades[f], res.grades[nf]), extract_proof(res.provenance[f]), extract_proof(res.provenance[nf])
    )
    return ConsistencyResult(witness, res.fixpoint)
