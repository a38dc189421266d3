"""Terms, formulas and hedge signatures of the graded first-order language.

The core language has truth constants, predicate applications, implication,
the universal quantifier and prefix hedge connectives.  Everything else
(``~ & + /\\ \\/ <-> ^n n* exists``) is definable sugar: :func:`expand`
rewrites it away, and all axiom-schema matching and deduction work on
expanded forms.  Sugar nodes are kept in the AST so parsed input prints
back exactly as written.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .mv import ONE, ZERO


class HedgeMode(enum.Enum):
    H = "h"
    DH = "dh"


@dataclass(frozen=True)
class HedgeSignature:
    """Declared hedge connectives, listed weakest first.

    ``stressers[i-1]`` is the i-th truth stresser and ``depressers[j-1]``
    the j-th truth depresser.  The identity hedges (index 0) are implicit
    and never declared.  Dual mode requires equally many of each.
    """

    mode: HedgeMode = HedgeMode.H
    stressers: tuple[str, ...] = ()
    depressers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = self.stressers + self.depressers
        if len(set(names)) != len(names):
            raise ValueError("hedge names must be unique")
        if self.mode is HedgeMode.DH and len(self.stressers) != len(self.depressers):
            raise ValueError("dual-hedge signatures need equally many stressers and depressers")

    @property
    def hedges(self) -> tuple[str, ...]:
        return self.stressers + self.depressers

    def is_hedge(self, name: str) -> bool:
        return name in self.stressers or name in self.depressers

    def stresser_index(self, name: str) -> int:
        """1-based strength index of a stresser."""
        return self.stressers.index(name) + 1

    def depresser_index(self, name: str) -> int:
        return self.depressers.index(name) + 1

    @staticmethod
    def empty() -> "HedgeSignature":
        return HedgeSignature()


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    """Object constant; written ``'name`` in concrete syntax."""

    name: str


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple["Term", ...]


Term = Var | Const | Apply


# ---------------------------------------------------------------------------
# Formulas.  The first five are the core; the rest are sugar.


@dataclass(frozen=True)
class TruthConst:
    value: Fraction


@dataclass(frozen=True)
class Pred:
    name: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class HedgeApp:
    hedge: str
    body: "Formula"


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class Conj:
    """Strong conjunction, written ``&``."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Disj:
    """Strong disjunction, written ``+``."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Min:
    """Lattice conjunction, written ``/\\``."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Max:
    """Lattice disjunction, written ``\\/``."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Power:
    """n-fold strong conjunction of the body, written ``A^n``."""

    body: "Formula"
    count: int


@dataclass(frozen=True)
class Multiple:
    """n-fold strong disjunction of the body, written ``n*A``."""

    count: int
    body: "Formula"


Formula = (
    TruthConst | Pred | Imp | Forall | HedgeApp
    | Neg | Conj | Disj | Min | Max | Iff | Exists | Power | Multiple
)

FALSUM = TruthConst(ZERO)
VERUM = TruthConst(ONE)


class NotSubstitutableError(Exception):
    """Substituting the term would capture one of its variables."""

    def __init__(self, variable: str):
        super().__init__(f"substitution would be captured by the quantifier binding '{variable}'")
        self.variable = variable


# ---------------------------------------------------------------------------
# Printing.  Binding strength, loosest to tightest:
#   quantifiers < -> < <-> < + < \/ < /\ < & < prefix (~, hedges, n*) < ^ < atoms
# `->` is right-associative, the other binary connectives left-associative.

_QUANT, _IMP, _IFF, _DISJ, _MAX, _MIN, _CONJ, _UNARY, _POSTFIX, _ATOM = range(10)


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return "'" + t.name
    return t.func + "(" + ",".join(format_term(a) for a in t.args) + ")"


def format_truth_constant(v: Fraction) -> str:
    if v == ZERO:
        return "#0"
    if v == ONE:
        return "#1"
    return f"#({v})"


def format_formula(f: Formula, recover_negation: bool = False) -> str:
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


def formula_sort_key(f: Formula) -> str:
    """Deterministic ordering key, used wherever output order matters."""
    return format_formula(f)


# ---------------------------------------------------------------------------
# Expansion into the core language


def expanded_not(f: Formula) -> Formula:
    return Imp(f, FALSUM)


def _expanded_conj(l: Formula, r: Formula) -> Formula:
    # A & B  ==  ~(A -> ~B)
    return expanded_not(Imp(l, expanded_not(r)))


def _expanded_max(l: Formula, r: Formula) -> Formula:
    # A \/ B  ==  (B -> A) -> A
    return Imp(Imp(r, l), l)


def _expanded_min(l: Formula, r: Formula) -> Formula:
    # A /\ B  ==  ~((B -> A) -> ~B)
    return expanded_not(Imp(Imp(r, l), expanded_not(r)))


def expand(f: Formula) -> Formula:
    """Rewrite every sugared connective into the core language.

    Idempotent; preserves free variables; evaluation of the result agrees
    with direct evaluation of the sugar.
    """
    match f:
        case TruthConst() | Pred():
            return f
        case Imp(l, r):
            return Imp(expand(l), expand(r))
        case Forall(x, b):
            return Forall(x, expand(b))
        case HedgeApp(h, b):
            return HedgeApp(h, expand(b))
        case Neg(b):
            return expanded_not(expand(b))
        case Conj(l, r):
            return _expanded_conj(expand(l), expand(r))
        case Disj(l, r):
            # A + B  ==  ~(~A & ~B)
            el, er = expand(l), expand(r)
            return expanded_not(_expanded_conj(expanded_not(el), expanded_not(er)))
        case Max(l, r):
            return _expanded_max(expand(l), expand(r))
        case Min(l, r):
            return _expanded_min(expand(l), expand(r))
        case Iff(l, r):
            el, er = expand(l), expand(r)
            return _expanded_min(Imp(el, er), Imp(er, el))
        case Exists(x, b):
            return expanded_not(Forall(x, expanded_not(expand(b))))
        case Power(b, n):
            eb = expand(b)
            out = eb
            for _ in range(n - 1):
                out = _expanded_conj(out, eb)
            return out
        case Multiple(n, b):
            eb = expand(b)
            out = eb
            for _ in range(n - 1):
                neg = expanded_not
                out = neg(_expanded_conj(neg(out), neg(eb)))
            return out
    raise TypeError(f"not a formula: {f!r}")


def is_expanded(f: Formula) -> bool:
    match f:
        case TruthConst() | Pred():
            return True
        case Imp(l, r):
            return is_expanded(l) and is_expanded(r)
        case Forall(_, b) | HedgeApp(_, b):
            return is_expanded(b)
    return False


# ---------------------------------------------------------------------------
# Variables and substitution


def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Apply):
        out: frozenset[str] = frozenset()
        for a in t.args:
            out |= term_vars(a)
        return out
    return frozenset()


def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case TruthConst():
            return frozenset()
        case Pred(_, args):
            out: frozenset[str] = frozenset()
            for a in args:
                out |= term_vars(a)
            return out
        case Imp(l, r) | Conj(l, r) | Disj(l, r) | Min(l, r) | Max(l, r) | Iff(l, r):
            return free_vars(l) | free_vars(r)
        case Forall(x, b) | Exists(x, b):
            return free_vars(b) - {x}
        case HedgeApp(_, b) | Neg(b) | Power(b, _):
            return free_vars(b)
        case Multiple(_, b):
            return free_vars(b)
    raise TypeError(f"not a formula: {f!r}")


def _subst_term(t: Term, x: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.name == x else t
    if isinstance(t, Apply):
        return Apply(t.func, tuple(_subst_term(a, x, repl) for a in t.args))
    return t


def substitute(f: Formula, x: str, t: Term) -> Formula:
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
                return Pred(name, tuple(_subst_term(a, x, t) for a in args))
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
                if y in tv and x in free_vars(b):
                    raise NotSubstitutableError(y)
                return Forall(y, go(b))
            case Exists(y, b):
                if y == x:
                    return g
                if y in tv and x in free_vars(b):
                    raise NotSubstitutableError(y)
                return Exists(y, go(b))
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Subformula closure and the finite search universe


def subformulas(f: Formula) -> list[Formula]:
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


def truth_constants_in(f: Formula) -> frozenset[Fraction]:
    match f:
        case TruthConst(v):
            return frozenset((v,))
        case Pred():
            return frozenset()
        case Imp(l, r) | Conj(l, r) | Disj(l, r) | Min(l, r) | Max(l, r) | Iff(l, r):
            return truth_constants_in(l) | truth_constants_in(r)
        case Forall(_, b) | Exists(_, b) | HedgeApp(_, b) | Neg(b) | Power(b, _) | Multiple(_, b):
            return truth_constants_in(b)
    raise TypeError(f"not a formula: {f!r}")


def subformula_universe(
    seed: "list[Formula] | set[Formula] | tuple[Formula, ...]",
    consts: "set[Fraction] | frozenset[Fraction] | tuple[Fraction, ...]" = (),
    depth: int = 0,
) -> list[Formula]:
    """Finite formula universe: the subformula closure of the expanded seed,
    grown ``depth`` times by the constant-implications ``#a -> A`` and the
    generalizations ``forall x. A`` for free x.

    Returns an insertion-ordered duplicate-free list so downstream
    processing is deterministic.
    """
    if depth < 0:
        raise ValueError("universe depth must be >= 0")
    ordered: dict[Formula, None] = {}

    def add_closed(f: Formula) -> None:
        for g in subformulas(f):
            ordered.setdefault(g, None)

    for f in seed:
        add_closed(expand(f))
    const_list = sorted(set(consts))
    for _ in range(depth):
        current = list(ordered)
        for f in current:
            for a in const_list:
                add_closed(Imp(TruthConst(a), f))
            for x in sorted(free_vars(f)):
                add_closed(Forall(x, f))
    return list(ordered)


# ---------------------------------------------------------------------------
# Symbol inventory (used by parsing and by model enumeration)


@dataclass
class Symbols:
    """Predicate/function arities and object constants in use."""

    preds: dict[str, int]
    funcs: dict[str, int]
    consts: set[str]
    has_quantifier: bool = False

    @staticmethod
    def empty() -> "Symbols":
        return Symbols({}, {}, set(), False)

    def merge_pred(self, name: str, arity: int) -> None:
        known = self.preds.setdefault(name, arity)
        if known != arity:
            raise ValueError(f"predicate {name} used with arity {arity}, earlier {known}")

    def merge_func(self, name: str, arity: int) -> None:
        known = self.funcs.setdefault(name, arity)
        if known != arity:
            raise ValueError(f"function {name} used with arity {arity}, earlier {known}")


def collect_symbols(formulas: "list[Formula] | tuple[Formula, ...]") -> Symbols:
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
