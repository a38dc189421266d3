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
from operator import attrgetter, is_
from typing import get_args

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
# Nodes.  Every term and formula kind is a frozen slotted dataclass under
# one base class whose two slots cache the structural hash and the
# expansion.


class Node:
    """Base of the term and formula nodes.

    The hash equals the one a frozen dataclass would compute from the
    fields, but it is computed on the first ``hash`` call and kept in the
    slot ``_h``, so hashing a deep formula again costs nothing.  It is not
    filled at construction, so building a node never hashes its fields.

    The slot ``_e`` is filled by :func:`expand` in the same lazy way: it
    holds the node's expansion, or ``None`` for a node that is already
    core (never the node itself, so no node refers to itself).  Neither
    slot is a dataclass field, so ``==``, ``repr``, ``fields`` and
    ``replace`` do not see them.
    """

    __slots__ = ("_h", "_e")

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash(tuple([getattr(self, n) for n in self.__match_args__]))
            object.__setattr__(self, "_h", h)
            return h


def _node(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass that keeps :class:`Node`'s hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Node.__hash__
    return cls


# ---------------------------------------------------------------------------
# Terms


@_node
class Var(Node):
    name: str


@_node
class Const(Node):
    """Object constant; written ``'name`` in concrete syntax."""

    name: str


@_node
class Apply(Node):
    func: str
    args: tuple["Term", ...]


Term = Var | Const | Apply


# ---------------------------------------------------------------------------
# Formulas.  The first five are the core; the rest are sugar.


@_node
class TruthConst(Node):
    value: Fraction


@_node
class Pred(Node):
    name: str
    args: tuple[Term, ...] = ()


@_node
class Imp(Node):
    left: "Formula"
    right: "Formula"


@_node
class Forall(Node):
    var: str
    body: "Formula"


@_node
class HedgeApp(Node):
    hedge: str
    body: "Formula"


@_node
class Neg(Node):
    body: "Formula"


@_node
class Conj(Node):
    """Strong conjunction, written ``&``."""

    left: "Formula"
    right: "Formula"


@_node
class Disj(Node):
    """Strong disjunction, written ``+``."""

    left: "Formula"
    right: "Formula"


@_node
class Min(Node):
    """Lattice conjunction, written ``/\\``."""

    left: "Formula"
    right: "Formula"


@_node
class Max(Node):
    """Lattice disjunction, written ``\\/``."""

    left: "Formula"
    right: "Formula"


@_node
class Iff(Node):
    left: "Formula"
    right: "Formula"


@_node
class Exists(Node):
    var: str
    body: "Formula"


@_node
class Power(Node):
    """n-fold strong conjunction of the body, written ``A^n``."""

    body: "Formula"
    count: int


@_node
class Multiple(Node):
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
# The node table.  Every formula and term kind with its fields in
# constructor order; the fields named left, right and body hold
# subformulas.  The traversals below and the schema unifier in
# fln.deduction read this table instead of spelling out every kind.

NODE_FIELDS: dict[type, tuple[str, ...]] = {
    TruthConst: ("value",),
    Pred: ("name", "args"),
    Imp: ("left", "right"),
    Forall: ("var", "body"),
    HedgeApp: ("hedge", "body"),
    Neg: ("body",),
    Conj: ("left", "right"),
    Disj: ("left", "right"),
    Min: ("left", "right"),
    Max: ("left", "right"),
    Iff: ("left", "right"),
    Exists: ("var", "body"),
    Power: ("body", "count"),
    Multiple: ("count", "body"),
    Var: ("name",),
    Const: ("name",),
    Apply: ("func", "args"),
}
_SUBFORMULA_FIELDS = {
    cls: tuple(n for n in NODE_FIELDS[cls] if n in ("left", "right", "body")) for cls in get_args(Formula)
}
CORE = (TruthConst, Pred, Imp, Forall, HedgeApp)


def _getter(names: tuple[str, ...]):
    if len(names) == 1:  # attrgetter of one name returns the bare value
        get = attrgetter(names[0])
        return lambda f: (get(f),)
    return attrgetter(*names) if names else lambda f: ()


_CHILDREN = {cls: _getter(names) for cls, names in _SUBFORMULA_FIELDS.items()}


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f`` in field order."""
    try:
        get = _CHILDREN[f.__class__]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return get(f)


def rebuild(f: Formula, kids: "list[Formula] | tuple[Formula, ...]") -> Formula:
    """``f`` with its subformulas replaced by ``kids``; ``f`` itself when
    every kid is the object already in its place."""
    if all(map(is_, kids, children(f))):
        return f
    it = iter(kids)
    cls = f.__class__
    return cls(*[next(it) if n in _SUBFORMULA_FIELDS[cls] else getattr(f, n) for n in NODE_FIELDS[cls]])


# ---------------------------------------------------------------------------
# Printing.  Binding strength, loosest to tightest:
#   quantifiers < -> < <-> < + < \/ < /\ < & < prefix (~, hedges, n*) < ^ < atoms
# `->` is right-associative, the other binary connectives left-associative.

_QUANT, _IMP, _IFF, _DISJ, _MAX, _MIN, _CONJ, _UNARY, _POSTFIX, _ATOM = range(10)

# The binary connectives, loosest first: class, operator text, precedence.
# The parser reads the same table.
BINARY_OPS: tuple[tuple[type, str, int], ...] = (
    (Imp, "->", _IMP),
    (Iff, "<->", _IFF),
    (Disj, "+", _DISJ),
    (Max, "\\/", _MAX),
    (Min, "/\\", _MIN),
    (Conj, "&", _CONJ),
)
_BINARY = {cls: (" " + op + " ", level) for cls, op, level in BINARY_OPS}


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
        binary = _BINARY.get(g.__class__)
        if binary is not None:
            op, own = binary
            # `->` takes a whole formula on its right; the others bind their
            # right operand one level tighter.
            left, right = (own + 1, _QUANT) if isinstance(g, Imp) else (own, own + 1)
            return fmt(g.left, left) + op + fmt(g.right, right), own
        match g:
            case TruthConst(v):
                return format_truth_constant(v), _ATOM
            case Pred(name, args):
                if args:
                    return name + "(" + ",".join(format_term(a) for a in args) + ")", _ATOM
                return name, _ATOM
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


# ---------------------------------------------------------------------------
# Expansion into the core language


def expanded_not(f: Formula) -> Formula:
    return Imp(f, FALSUM)


def _expanded_conj(l: Formula, r: Formula) -> Formula:
    # A & B  ==  ~(A -> ~B)
    return expanded_not(Imp(l, expanded_not(r)))


def _expanded_min(l: Formula, r: Formula) -> Formula:
    # A /\ B  ==  ~((B -> A) -> ~B)
    return expanded_not(Imp(Imp(r, l), expanded_not(r)))


def _expanded_disj(l: Formula, r: Formula) -> Formula:
    # A + B  ==  ~(~A & ~B)
    return expanded_not(_expanded_conj(expanded_not(l), expanded_not(r)))


def _repeat(op, b: Formula, n: int) -> Formula:
    out = b
    for _ in range(n - 1):
        out = op(out, b)
    return out


# Each sugar kind's core form, built from the node and its expanded kids.
_SUGAR = {
    Neg: lambda f, b: expanded_not(b),
    Conj: lambda f, l, r: _expanded_conj(l, r),
    Disj: lambda f, l, r: _expanded_disj(l, r),
    # A \/ B  ==  (B -> A) -> A
    Max: lambda f, l, r: Imp(Imp(r, l), l),
    Min: lambda f, l, r: _expanded_min(l, r),
    Iff: lambda f, l, r: _expanded_min(Imp(l, r), Imp(r, l)),
    Exists: lambda f, b: expanded_not(Forall(f.var, expanded_not(b))),
    Power: lambda f, b: _repeat(_expanded_conj, b, f.count),
    Multiple: lambda f, b: _repeat(_expanded_disj, b, f.count),
}


def expand(f: Formula) -> Formula:
    """Rewrite every sugared connective into the core language.

    Idempotent; preserves free variables; evaluation of the result agrees
    with direct evaluation of the sugar.  A formula that is already core
    comes back as the same object.  The result is kept on every node
    visited and on the result itself, so expanding any of them again is
    one slot read.
    """
    try:
        e = f._e
    except AttributeError:
        pass
    else:
        return f if e is None else e
    kids = []
    for g in children(f):
        kids.append(expand(g))
    sugar = _SUGAR.get(f.__class__)
    e = rebuild(f, kids) if sugar is None else sugar(f, *kids)
    if e is f:
        object.__setattr__(f, "_e", None)
    else:
        object.__setattr__(f, "_e", e)
        object.__setattr__(e, "_e", None)
    return e


def is_expanded(f: Formula) -> bool:
    if not isinstance(f, CORE):
        return False
    for g in children(f):
        if not is_expanded(g):
            return False
    return True


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
    out: frozenset[str] = frozenset()
    if isinstance(f, Pred):
        for a in f.args:
            out |= term_vars(a)
        return out
    for g in children(f):
        out |= free_vars(g)
    if isinstance(f, (Forall, Exists)):
        return out - {f.var}
    return out


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
        if isinstance(g, Pred):
            return Pred(g.name, tuple(_subst_term(a, x, t) for a in g.args))
        if isinstance(g, (Forall, Exists)):
            if g.var == x:
                return g
            if g.var in tv and x in free_vars(g.body):
                raise NotSubstitutableError(g.var)
        kids = []
        for h in children(g):
            kids.append(go(h))
        return rebuild(g, kids)

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
        if not isinstance(g, CORE):
            raise ValueError("subformulas expects an expanded formula")
        for h in children(g):
            go(h)

    go(f)
    return out


def truth_constants_in(f: Formula) -> frozenset[Fraction]:
    if isinstance(f, TruthConst):
        return frozenset((f.value,))
    out: frozenset[Fraction] = frozenset()
    for g in children(f):
        out |= truth_constants_in(g)
    return out


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
        # ``ordered`` is subformula-closed, so a node already in it brings
        # nothing new; the order is that of :func:`subformulas`.
        if f in ordered:
            return
        ordered[f] = None
        for g in children(f):
            add_closed(g)

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
        if isinstance(f, Pred):
            syms.merge_pred(f.name, len(f.args))
            for a in f.args:
                walk_term(a)
        elif isinstance(f, (Forall, Exists)):
            syms.has_quantifier = True
        for g in children(f):
            walk(g)

    for f in formulas:
        walk(f)
    return syms
