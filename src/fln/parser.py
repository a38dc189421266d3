"""Concrete syntax.

Formula grammar (loosest to tightest): ``forall x. A`` / ``exists x. A``
scope to the right; ``->`` (right-associative); ``<->``; ``+`` (strong
disjunction); ``\\/`` (max); ``/\\`` (min); ``&`` (strong conjunction);
prefix ``~``, hedge names and ``n*``; postfix ``^n``; atoms.  Predicates
are capitalized, variables and functions lowercase, object constants
quoted like ``'u1``, truth constants ``#0``, ``#1``, ``#(p/q)``.

File formats share one line discipline: ``%`` starts a comment and blank
lines are ignored.  Theory files hold a signature block (``mode h|dh``,
``stressers ...``, ``depressers ...``), optional hedge assignments
(``s1 = identity | preset NAME | pl { (x,y) ... }``) and graded axioms
``grade : formula``.  Structure files declare ``domain``, ``pred``/``fun``
tables, ``const`` designations and an optional ``hedges <file>`` line.
Proof files number their steps ``n. grade / formula ; justification``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

from .deduction import (
    EvaluatedFormula,
    LaxLeaf,
    Proof,
    ProofStep,
    RuleApp,
    RULE_G,
    RULE_LC,
    RULE_MP,
    SaxLeaf,
)
from .hedges import HedgeFunction, HedgeModel, IDENTITY, PRESETS
from .mv import ONE, ZERO, as_truth
from .semantics import Structure
from .syntax import (
    BINARY_OPS,
    Apply,
    Const,
    Exists,
    Forall,
    Formula,
    HedgeApp,
    HedgeMode,
    HedgeSignature,
    Multiple,
    Neg,
    Power,
    Pred,
    Symbols,
    Term,
    TruthConst,
    Var,
    format_formula,
    format_truth_constant,
)
from .theory import Theory


class FlnSyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.message = message
        self.position = position
        self.line = line
        text = message
        if position is not None:
            text += f" (offset {position})"
        if line is not None:
            text = f"line {line}: " + text
        super().__init__(text)

    def at_line(self, line: int) -> "FlnSyntaxError":
        return FlnSyntaxError(self.message, self.position, line)


_KEYWORDS = ("forall", "exists")
_DIRECTIVES = ("mode", "stressers", "depressers")


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int
    value: object = None


_OPERATORS = "|".join(re.escape(op) for _, op, _ in BINARY_OPS)
_TOKEN_RE = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<op>{_OPERATORS})
    | (?P<tconst>\#(?:0|1|\(\d+/\d+\)))
    | (?P<qconst>'[A-Za-z_][A-Za-z0-9_]*)
    | (?P<nat>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[~^*().,])
    """,
    re.VERBOSE,
)


def _truth_constant_value(text: str, pos: int) -> Fraction:
    if text == "#0":
        return ZERO
    if text == "#1":
        return ONE
    num, den = text[2:-1].split("/")
    if int(den) == 0:
        raise FlnSyntaxError("zero denominator in truth constant", position=pos)
    v = Fraction(int(num), int(den))
    if v > ONE:
        raise FlnSyntaxError(f"truth constant {v} outside [0, 1]", position=pos)
    return v


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise FlnSyntaxError(f"unexpected character {text[i]!r}", position=i)
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            value: object = None
            if kind == "tconst":
                value = _truth_constant_value(m.group(), i)
            elif kind == "nat":
                value = int(m.group())
            tokens.append(_Token(kind, m.group(), i, value))
        i = m.end()
    tokens.append(_Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Formula parser


class _FormulaParser:
    def __init__(self, tokens: list[_Token], signature: HedgeSignature, symbols: Symbols):
        self.toks = tokens
        self.i = 0
        self.sig = signature
        self.symbols = symbols

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        raise FlnSyntaxError(message, position=(tok or self.peek()).pos)

    def is_punct(self, ch: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "punct" and t.text == ch

    def expect_punct(self, ch: str) -> None:
        if not self.is_punct(ch):
            t = self.peek()
            got = "end of input" if t.kind == "eof" else repr(t.text)
            self.fail(f"expected {ch!r}, found {got}", t)
        self.advance()

    def parse(self) -> Formula:
        f = self.formula()
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected trailing input {t.text!r}", t)
        return f

    def formula(self) -> Formula:
        t = self.peek()
        if t.kind == "ident" and t.text in _KEYWORDS:
            self.advance()
            v = self.advance()
            if v.kind != "ident" or v.text in _KEYWORDS or not v.text[0].islower():
                self.fail("expected a variable name after the quantifier", v)
            if not self.is_punct("."):
                self.fail("expected '.' after the quantified variable")
            self.advance()
            body = self.formula()
            return Forall(v.text, body) if t.text == "forall" else Exists(v.text, body)
        imp, arrow, _ = BINARY_OPS[0]
        left = self.binary(1)
        if self.peek().text == arrow:
            self.advance()
            return imp(left, self.formula())
        return left

    def binary(self, i: int) -> Formula:
        """A left-associative chain of ``BINARY_OPS[i]``; one frame per level."""
        cls, op, _ = BINARY_OPS[i]
        tighter = i + 1 < len(BINARY_OPS)
        left = self.binary(i + 1) if tighter else self.unary()
        while self.peek().text == op:
            self.advance()
            left = cls(left, self.binary(i + 1) if tighter else self.unary())
        return left

    def unary(self) -> Formula:
        t = self.peek()
        if self.is_punct("~"):
            self.advance()
            return Neg(self.unary())
        if t.kind == "nat" and self.is_punct("*", 1):
            self.advance()
            self.advance()
            n = int(t.value)  # type: ignore[arg-type]
            if n < 1:
                self.fail("multiple count must be >= 1", t)
            return Multiple(n, self.unary())
        if t.kind == "ident" and self.sig.is_hedge(t.text):
            self.advance()
            return HedgeApp(t.text, self.unary())
        return self.postfix()

    def postfix(self) -> Formula:
        f = self.atom()
        while self.is_punct("^"):
            self.advance()
            n = self.advance()
            if n.kind != "nat":
                self.fail("expected an exponent after '^'", n)
            if int(n.value) < 1:  # type: ignore[arg-type]
                self.fail("power exponent must be >= 1", n)
            f = Power(f, int(n.value))  # type: ignore[arg-type]
        return f

    def atom(self) -> Formula:
        t = self.peek()
        if self.is_punct("("):
            self.advance()
            f = self.formula()
            self.expect_punct(")")
            return f
        if t.kind == "tconst":
            self.advance()
            return TruthConst(t.value)  # type: ignore[arg-type]
        if t.kind == "ident":
            if t.text in _KEYWORDS:
                self.fail("quantifiers must be parenthesized inside connectives", t)
            if t.text[0].isupper():
                return self.predicate()
            self.fail(f"unknown hedge '{t.text}'", t)
        if t.kind == "eof":
            self.fail("unexpected end of input", t)
        self.fail(f"expected a formula, found {t.text!r}", t)
        raise AssertionError  # fail always raises

    def predicate(self) -> Formula:
        t = self.advance()
        args: tuple[Term, ...] = ()
        if self.is_punct("("):
            args = self.term_list()
        try:
            self.symbols.merge_pred(t.text, len(args))
        except ValueError as exc:
            self.fail(str(exc), t)
        return Pred(t.text, args)

    def term_list(self) -> tuple[Term, ...]:
        self.expect_punct("(")
        terms = [self.term()]
        while self.is_punct(","):
            self.advance()
            terms.append(self.term())
        self.expect_punct(")")
        return tuple(terms)

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "qconst":
            self.advance()
            name = t.text[1:]
            self.symbols.consts.add(name)
            return Const(name)
        if t.kind == "ident" and t.text not in _KEYWORDS and t.text[0].islower():
            self.advance()
            if self.is_punct("("):
                args = self.term_list()
                try:
                    self.symbols.merge_func(t.text, len(args))
                except ValueError as exc:
                    self.fail(str(exc), t)
                return Apply(t.text, args)
            return Var(t.text)
        if t.kind == "eof":
            self.fail("expected a term", t)
        self.fail(f"expected a term, found {t.text!r}", t)
        raise AssertionError


def parse_formula(
    text: str, signature: HedgeSignature | None = None, symbols: Symbols | None = None
) -> Formula:
    """Parse one formula; ``symbols`` accumulates arities across calls."""
    sig = signature or HedgeSignature.empty()
    syms = symbols if symbols is not None else Symbols.empty()
    return _FormulaParser(_lex(text), sig, syms).parse()


def parse_term(text: str, symbols: Symbols | None = None) -> Term:
    syms = symbols if symbols is not None else Symbols.empty()
    p = _FormulaParser(_lex(text), HedgeSignature.empty(), syms)
    t = p.term()
    if p.peek().kind != "eof":
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return t


# ---------------------------------------------------------------------------
# Rationals in file positions


_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_rational(text: str, line: int | None = None) -> Fraction:
    t = text.strip()
    m = _RATIONAL_RE.match(t)
    if m is None:
        raise FlnSyntaxError(f"malformed rational {text.strip()!r}", line=line)
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise FlnSyntaxError("zero denominator", line=line)
    return Fraction(num, den)


def _grade(text: str, line: int) -> Fraction:
    v = parse_rational(text, line)
    if v > ONE:
        raise FlnSyntaxError(f"grade {v} outside [0, 1]", line=line)
    return v


# ---------------------------------------------------------------------------
# Line discipline shared by the file formats


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for n, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("%")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if line:
            out.append((n, line))
    return out


def _merge_braced(lines: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Join physical lines until every '{' is closed."""
    merged: list[tuple[int, str]] = []
    buf = ""
    start = 0
    depth = 0
    for n, line in lines:
        if not buf:
            start = n
        buf = (buf + " " + line).strip()
        depth = buf.count("{") - buf.count("}")
        if depth < 0:
            raise FlnSyntaxError("unbalanced '}'", line=n)
        if depth == 0:
            merged.append((start, buf))
            buf = ""
    if buf:
        raise FlnSyntaxError("unterminated '{' block", line=start)
    return merged


_NAME_RE = re.compile(r"^[a-z_][A-Za-z0-9_]*$")
_ASSIGN_RE = re.compile(r"^([a-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


def _parse_signature_block(
    lines: list[tuple[int, str]],
) -> tuple[HedgeSignature | None, list[tuple[int, str, str]], list[tuple[int, str]]]:
    mode: HedgeMode | None = None
    stressers: tuple[str, ...] | None = None
    depressers: tuple[str, ...] | None = None
    assigns: list[tuple[int, str, str]] = []
    rest: list[tuple[int, str]] = []

    def names(parts: list[str], n: int) -> tuple[str, ...]:
        for name in parts:
            if not _NAME_RE.match(name) or name in _KEYWORDS or name in _DIRECTIVES:
                raise FlnSyntaxError(f"bad hedge name {name!r}", line=n)
        return tuple(parts)

    for n, line in lines:
        head = line.split(maxsplit=1)[0]
        if head == "mode":
            parts = line.split()
            if len(parts) != 2 or parts[1] not in ("h", "dh"):
                raise FlnSyntaxError("expected 'mode h' or 'mode dh'", line=n)
            if mode is not None:
                raise FlnSyntaxError("duplicate mode line", line=n)
            mode = HedgeMode(parts[1])
        elif head == "stressers":
            if stressers is not None:
                raise FlnSyntaxError("duplicate stressers line", line=n)
            stressers = names(line.split()[1:], n)
        elif head == "depressers":
            if depressers is not None:
                raise FlnSyntaxError("duplicate depressers line", line=n)
            depressers = names(line.split()[1:], n)
        else:
            m = _ASSIGN_RE.match(line)
            if m and m.group(1) not in _KEYWORDS:
                assigns.append((n, m.group(1), m.group(2)))
            else:
                rest.append((n, line))

    if mode is None and stressers is None and depressers is None:
        return None, assigns, rest
    try:
        sig = HedgeSignature(mode or HedgeMode.H, stressers or (), depressers or ())
    except ValueError as exc:
        raise FlnSyntaxError(str(exc)) from None
    return sig, assigns, rest


_PL_RE = re.compile(r"^pl\s*\{(.*)\}$", re.S)
_PAIR_RE = re.compile(r"\(\s*(\d+(?:/\d+)?)\s*,\s*(\d+(?:/\d+)?)\s*\)")


def _parse_hedge_rhs(rhs: str, line: int) -> HedgeFunction:
    rhs = rhs.strip()
    if rhs == "identity":
        return IDENTITY
    if rhs.startswith("preset"):
        parts = rhs.split(maxsplit=1)
        if len(parts) != 2 or parts[1].strip() not in PRESETS:
            raise FlnSyntaxError(f"unknown preset in {rhs!r}", line=line)
        return PRESETS[parts[1].strip()]
    m = _PL_RE.match(rhs)
    if m:
        body = m.group(1)
        pairs = _PAIR_RE.findall(body)
        if _PAIR_RE.sub("", body).strip():
            raise FlnSyntaxError("malformed breakpoint list", line=line)
        try:
            bps = tuple(
                (as_truth(parse_rational(x, line)), as_truth(parse_rational(y, line)))
                for x, y in pairs
            )
            return HedgeFunction(bps)
        except ValueError as exc:
            raise FlnSyntaxError(str(exc), line=line) from None
    raise FlnSyntaxError(
        "hedge assignment must be 'identity', 'preset NAME' or 'pl { (x,y) ... }'", line=line
    )


def _signature_and_model(
    lines: list[tuple[int, str]], signature: HedgeSignature | None
) -> tuple[HedgeSignature, HedgeModel, list[tuple[int, str]]]:
    file_sig, assigns, rest = _parse_signature_block(lines)
    if file_sig is not None and signature is not None and file_sig != signature:
        raise FlnSyntaxError("signature in file conflicts with the provided signature")
    sig = file_sig or signature or HedgeSignature.empty()
    functions = {name: IDENTITY for name in sig.hedges}
    for n, name, rhs in assigns:
        if name not in functions:
            raise FlnSyntaxError(f"assignment to undeclared hedge '{name}'", line=n)
        functions[name] = _parse_hedge_rhs(rhs, n)
    return sig, HedgeModel(sig, functions), rest


def parse_theory(text: str, signature: HedgeSignature | None = None) -> Theory:
    """Parse a theory file: signature block, hedge assignments and graded
    axioms ``grade : formula``.  Duplicate formulas merge by maximum."""
    sig, model, rest = _signature_and_model(_merge_braced(_logical_lines(text)), signature)
    syms = Symbols.empty()
    pairs: list[tuple[Fraction, Formula]] = []
    for n, line in rest:
        if ":" not in line:
            raise FlnSyntaxError("expected 'grade : formula'", line=n)
        gtext, ftext = line.split(":", 1)
        grade = _grade(gtext, n)
        try:
            f = parse_formula(ftext, sig, syms)
        except FlnSyntaxError as exc:
            raise exc.at_line(n) from None
        pairs.append((grade, f))
    return Theory.build(pairs, signature=sig, hedge_model=model)


def parse_hedge_model(text: str, signature: HedgeSignature | None = None) -> HedgeModel:
    """Parse a hedge-model file; unassigned hedges default to identity."""
    _, model, rest = _signature_and_model(_merge_braced(_logical_lines(text)), signature)
    if rest:
        n, line = rest[0]
        raise FlnSyntaxError(f"unexpected line in hedge file: {line!r}", line=n)
    return model


def load_signature(text: str) -> HedgeSignature:
    """Extract the signature from any theory/hedge/signature file."""
    sig, _, _ = _parse_signature_block(_merge_braced(_logical_lines(text)))
    return sig or HedgeSignature.empty()


# ---------------------------------------------------------------------------
# Structure files


_TABLE_RE = re.compile(r"^(pred|fun)\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*\{(.*)\}$", re.S)
_CONST_RE = re.compile(r"^const\s+'([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)$")


def parse_structure(text: str, base_dir: "Path | str | None" = None) -> Structure:
    lines = _merge_braced(_logical_lines(text))
    domain: tuple[str, ...] | None = None
    preds: dict[str, dict[tuple[str, ...], Fraction]] = {}
    funcs: dict[str, dict[tuple[str, ...], str]] = {}
    consts: dict[str, str] = {}
    hedges = HedgeModel.empty()

    def parse_table(n: int, kind: str, name: str, arity: int, body: str) -> dict:
        entries = [e.strip() for e in body.split(",") if e.strip()]
        table: dict = {}
        for entry in entries:
            if arity == 0:
                key: tuple[str, ...] = ()
                vtext = entry
                if ":" in entry:
                    raise FlnSyntaxError(f"0-ary table takes a bare value, got {entry!r}", line=n)
            else:
                if ":" not in entry:
                    raise FlnSyntaxError(f"expected 'elems: value' in {entry!r}", line=n)
                ktext, vtext = entry.split(":", 1)
                key = tuple(ktext.split())
                if len(key) != arity:
                    raise FlnSyntaxError(f"key {ktext.strip()!r} does not match arity {arity}", line=n)
            if key in table:
                raise FlnSyntaxError(f"duplicate table entry for {key}", line=n)
            if kind == "pred":
                v = parse_rational(vtext, n)
                if v > ONE:
                    raise FlnSyntaxError(f"predicate value {v} outside [0, 1]", line=n)
                table[key] = v
            else:
                table[key] = vtext.strip()
        return table

    for n, line in lines:
        head = line.split(maxsplit=1)[0]
        if head == "domain":
            if domain is not None:
                raise FlnSyntaxError("duplicate domain line", line=n)
            names = line.split()[1:]
            if not names or len(set(names)) != len(names):
                raise FlnSyntaxError("domain needs a nonempty list of distinct names", line=n)
            domain = tuple(names)
        elif head in ("pred", "fun"):
            m = _TABLE_RE.match(line)
            if m is None:
                raise FlnSyntaxError(f"malformed {head} declaration", line=n)
            kind, name, arity_text, body = m.groups()
            if kind == "pred" and not name[0].isupper():
                raise FlnSyntaxError("predicate names are capitalized", line=n)
            if kind == "fun" and not name[0].islower():
                raise FlnSyntaxError("function names are lowercase", line=n)
            target = preds if kind == "pred" else funcs
            if name in target:
                raise FlnSyntaxError(f"duplicate table for {name}", line=n)
            target[name] = parse_table(n, kind, name, int(arity_text), body)
        elif head == "const":
            m = _CONST_RE.match(line)
            if m is None:
                raise FlnSyntaxError("expected \"const 'name = element\"", line=n)
            consts[m.group(1)] = m.group(2)
        elif head == "hedges":
            ref = line.split(maxsplit=1)
            if len(ref) != 2:
                raise FlnSyntaxError("expected 'hedges <file>'", line=n)
            path = Path(ref[1])
            if not path.is_absolute() and base_dir is not None:
                path = Path(base_dir) / path
            try:
                hedges = parse_hedge_model(path.read_text())
            except OSError as exc:
                raise FlnSyntaxError(f"cannot read hedge file: {exc}", line=n) from None
        else:
            raise FlnSyntaxError(f"unknown directive {head!r}", line=n)

    if domain is None:
        raise FlnSyntaxError("structure file needs a domain line")
    s = Structure(domain, preds, funcs, consts, hedges)
    try:
        s.validate()
    except ValueError as exc:
        raise FlnSyntaxError(str(exc)) from None
    return s


def format_structure(s: Structure) -> str:
    """Structure-file text; inverse of :func:`parse_structure` up to the
    hedges reference, which is not serialized."""
    lines = ["domain " + " ".join(s.domain)]

    def table_lines(kind: str, tables: dict, render) -> None:
        for name in sorted(tables):
            table = tables[name]
            arity = len(next(iter(table)))
            if arity == 0:
                body = render(table[()])
            else:
                keys = product(s.domain, repeat=arity)
                body = ", ".join(" ".join(k) + ": " + render(table[k]) for k in keys)
            lines.append(f"{kind} {name}/{arity} {{ {body} }}")

    table_lines("pred", s.preds, str)
    table_lines("fun", s.funcs, str)
    for cname in sorted(s.consts):
        lines.append(f"const '{cname} = {s.consts[cname]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Proof files


_STEP_RE = re.compile(r"^(\d+)\.\s*(.*)$")
_JUST_LAX_RE = re.compile(r"^lax\((\w+)\)$")
_JUST_MP_RE = re.compile(r"^mp\((\d+)\s*,\s*(\d+)\)$")
_JUST_GEN_RE = re.compile(r"^gen\((\d+)\s*,\s*([a-z_][A-Za-z0-9_]*)\)$")
_JUST_LC_RE = re.compile(r"^lc\((\d+)\s*,\s*(\#(?:0|1|\(\d+/\d+\)))\)$")


def _parse_justification(text: str, line: int):
    t = text.strip()
    if t == "sax":
        return SaxLeaf()
    m = _JUST_LAX_RE.match(t)
    if m:
        return LaxLeaf(m.group(1))
    m = _JUST_MP_RE.match(t)
    if m:
        return RuleApp(RULE_MP, (int(m.group(1)) - 1, int(m.group(2)) - 1))
    m = _JUST_GEN_RE.match(t)
    if m:
        return RuleApp(RULE_G, (int(m.group(1)) - 1,), m.group(2))
    m = _JUST_LC_RE.match(t)
    if m:
        return RuleApp(RULE_LC, (int(m.group(1)) - 1,), _truth_constant_value(m.group(2), 0))
    raise FlnSyntaxError(f"malformed justification {text.strip()!r}", line=line)


def parse_proof(text: str, signature: HedgeSignature | None = None) -> Proof:
    sig = signature or HedgeSignature.empty()
    syms = Symbols.empty()
    steps: list[ProofStep] = []
    for n, line in _logical_lines(text):
        m = _STEP_RE.match(line)
        if m is None:
            raise FlnSyntaxError("expected 'n. grade / formula ; justification'", line=n)
        if int(m.group(1)) != len(steps) + 1:
            raise FlnSyntaxError(f"steps must be numbered consecutively from 1", line=n)
        rest = m.group(2)
        sep = rest.find(" / ")
        if sep < 0:
            raise FlnSyntaxError("missing ' / ' between grade and formula", line=n)
        gtext, tail = rest[:sep], rest[sep + 3 :]
        jsep = tail.find(";")
        if jsep < 0:
            raise FlnSyntaxError("missing ';' before the justification", line=n)
        ftext, jtext = tail[:jsep], tail[jsep + 1 :]
        grade = _grade(gtext, n)
        try:
            formula = parse_formula(ftext, sig, syms)
        except FlnSyntaxError as exc:
            raise exc.at_line(n) from None
        steps.append(ProofStep(EvaluatedFormula(grade, formula), _parse_justification(jtext, n)))
    if not steps:
        raise FlnSyntaxError("empty proof file")
    return Proof(tuple(steps))


def format_proof(proof: Proof) -> str:
    lines = []
    for i, step in enumerate(proof.steps, start=1):
        j = step.justification
        if isinstance(j, SaxLeaf):
            jt = "sax"
        elif isinstance(j, LaxLeaf):
            jt = f"lax({j.schema})"
        elif j.rule == RULE_MP:
            jt = f"mp({j.premises[0] + 1},{j.premises[1] + 1})"
        elif j.rule == RULE_G:
            jt = f"gen({j.premises[0] + 1},{j.param})"
        else:
            jt = f"lc({j.premises[0] + 1},{format_truth_constant(j.param)})"  # type: ignore[arg-type]
        lines.append(f"{i}. {step.conclusion.grade} / {format_formula(step.conclusion.formula)} ; {jt}")
    return "\n".join(lines)
