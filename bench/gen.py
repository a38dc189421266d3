"""Seeded inputs for the fln benchmark (standard library only; imports no fln code).

Every query is one ``fln`` command line.  Input files appear in a query's
argv as :class:`File` objects, which the runner writes to disk and replaces
by their paths; :data:`PREVIOUS_PROOF` stands for a file holding the proof
that the query just before it printed.

Pools and passes
----------------
A workload is a list of *slots*.  A slot fixes the kind and the size of its
inputs and owns a few variants, each built from a fixed seed, so the pool
of queries the benchmark can ask is finite and its expected outputs are
recorded once (``expected.json``, written by ``record.py``).  A *pass* asks
the whole pool once, in an order drawn from the run seed.  The runner times
whole passes, so runs with different seeds do the same work in different
orders.  A slot's *unit* is the queries about one input, kept together and
in order: ``prove`` is followed by ``check-proof`` on the proof it printed,
and the queries after the first reuse its theory.

Workloads: size knobs and query mix of one pass
------------------------------------------------
deduce (library, ``fln.cli.main`` in process)
    wide theories, 10/15/20 rules at ``--depth 1`` and 8/12 rules at
    ``--depth 2``: unary predicates over two individuals, facts, ground
    implication chains and quantified hedged rules; dual (dh) or
    independent (h) hedges.  deep theories, 10/20/30/40-link implication
    chains with hedge steps, axioms listed in reverse so saturation needs
    about one sweep per link.  small propositional dh theories with 3 and 4
    atoms.  Each theory gets 1-3 goals (``prove`` then ``check-proof``) and
    one ``consistency``.  11 slots x 3 variants, 153 queries.
models (library)
    ``sem-degree`` at ``--chain 10 --max-domain 2`` on first-order theories
    over the symbol sets R, R+P, R+f, R+'c, R+'c+P, R+f+P and R+T (132 to
    14,762 structures) and over S/2 at ``--chain 6`` (2,408); ``tautology`` over R+P and R+T; propositional
    ``sem-degree`` at ``--chain 20`` over 2 and 3 atoms; ``eval`` on a
    3-element structure.  13 slots x 3 variants, 39 queries.
hedges (library)
    ``validate-hedges`` at chains 20/30/40/60/100 and ``boundaries`` at
    20/40/60/80/100 on dual preset pairs, blend chains, crossing chains and
    identity models; ``sem-degree`` on one-predicate propositional hedged
    theories at chains 20/30/40/60.  14 slots x 4 variants, 56 queries.
cli (a fresh ``python -m fln`` process per query)
    small inputs for all nine commands, 19 slots x 5 variants, 115 queries,
    plus 6 malformed or extreme inputs (5%) with a documented exit code 2, 3
    or 4.  Three of those six exit 1 with a ``RecursionError`` traceback in
    the fln version ``expected.json`` was recorded from (``known_defect``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 3
HEDGES_VARIANTS = 4
CLI_VARIANTS = 5


@dataclass(frozen=True)
class File:
    """An input file, named by the hash of its text."""

    text: str

    @property
    def name(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16] + ".fln"


PREVIOUS_PROOF = "<previous-proof>"


@dataclass(frozen=True)
class Query:
    argv: tuple
    slot: str
    theory: File | None = None  # the theory the query is about (repeat counting, oracles)
    goal: str | None = None
    # Exit code the documentation promises for a malformed or extreme input;
    # ``None`` means the recorded output is the expectation.
    documented_exit: tuple[int, ...] | None = None
    known_defect: bool = False  # exits 1 with a traceback in the recorded fln version
    chain: int | None = None  # --chain of a sem-degree query


@dataclass(frozen=True)
class Slot:
    name: str
    build: object  # (random.Random) -> list[Query], the unit
    variants: int = VARIANTS
    units: list = field(default_factory=list, compare=False)


def _rng(*key: object) -> random.Random:
    return random.Random("/".join(map(str, key)))


# ---------------------------------------------------------------------------
# Shared text helpers

SIG_DH = "mode dh\nstressers very extremely\ndepressers rather slightly\n"
SIG_H = "mode h\nstressers very extremely\ndepressers slightly\n"
HEDGES_DH = ("very ", "extremely ", "rather ", "slightly ")
HEDGES_H = ("very ", "extremely ", "slightly ")
GRADES = ("1", "1", "19/20", "9/10", "4/5")
UNARY = ("Young", "Tall", "Rich", "Happy", "Smart", "Kind", "Calm", "Brave")


def _theory(header: str, axioms: list[str]) -> File:
    return File(header + "".join(a + "\n" for a in axioms))


def _deduce_unit(theory: File, goals: list[str], depth: int, slot: str) -> list[Query]:
    flags = ("--depth", str(depth))
    out: list[Query] = []
    for g in goals:
        out.append(Query(("prove", "--theory", theory, "--goal", g) + flags, slot, theory, g))
        out.append(Query(("check-proof", "--theory", theory, PREVIOUS_PROOF), slot, theory, g))
    out.append(Query(("consistency", "--theory", theory) + flags, slot, theory))
    return out


# ---------------------------------------------------------------------------
# deduce


def wide(rng: random.Random, rules: int, depth: int, slot: str) -> list[Query]:
    dual = rng.random() < 0.6
    header, hedges = (SIG_DH, HEDGES_DH) if dual else (SIG_H, HEDGES_H)
    preds = rng.sample(UNARY, 6)
    form = {p: rng.choice(("",) + hedges) for p in preds}

    def atom(p: str, t: str) -> str:
        return f"{form[p]}{p}({t})"

    people = ("'u1", "'u2")
    axioms: list[str] = []
    reached: list[tuple[str, str]] = []
    for _ in range(2):
        p, u = rng.choice(preds), rng.choice(people)
        axioms.append(f"{rng.choice(GRADES)} : {atom(p, u)}")
        reached.append((p, u))
    derived: list[tuple[str, str]] = []
    while len(axioms) < rules:
        if rng.random() < 0.4:
            a, u = rng.choice(reached)
            b = rng.choice([p for p in preds if p != a])
            axioms.append(f"{rng.choice(GRADES)} : {atom(a, u)} -> {atom(b, u)}")
            reached.append((b, u))
            derived.append((b, u))
        else:
            a, b = rng.sample(preds, 2)
            body = f"{atom(a, 'x')} -> {atom(b, 'x')}"
            if rng.random() < 0.3:
                c = rng.choice([p for p in preds if p not in (a, b)])
                body = f"{atom(a, 'x')} & {atom(c, 'x')} -> {atom(b, 'x')}"
            axioms.append(f"{rng.choice(GRADES)} : forall x. ({body})")
    goals: list[str] = []
    for _ in range(rng.randint(1, 3)):
        if derived and rng.random() < 0.7:
            p, u = rng.choice(derived)
            goals.append(atom(p, u))
        else:
            a, b = rng.sample(preds, 2)
            u = rng.choice(people)
            goals.append(f"(forall x. ({atom(a, 'x')} -> {atom(b, 'x')})) -> {atom(a, u)} -> {atom(b, u)}")
    rng.shuffle(axioms)
    return _deduce_unit(_theory(header, axioms), goals, depth, slot)


def deep(rng: random.Random, links: int, slot: str) -> list[Query]:
    steps = [rng.choice(("", "", "very ", "rather ")) + f"P{i}" for i in range(links + 1)]
    weak = set(rng.sample(range(links), rng.randint(0, 3)))
    axioms = [f"{rng.choice(('1', '9/10'))} : {steps[0]}"]
    for i in range(links):
        axioms.append(f"{'19/20' if i in weak else '1'} : {steps[i]} -> {steps[i + 1]}")
    axioms.reverse()
    goals = [steps[links]] + [steps[rng.randint(1, links - 1)] for _ in range(rng.randint(0, 2))]
    return _deduce_unit(_theory(SIG_DH, axioms), goals, 1, slot)


def _prop_formula(rng: random.Random, atoms: list[str], hedges: tuple[str, ...], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    kind = rng.choice(("imp", "imp", "conj", "min", "max", "neg") + (("hedge",) if hedges else ()))
    sub = lambda: _prop_formula(rng, atoms, hedges, depth - 1)  # noqa: E731
    if kind == "imp":
        return f"({sub()} -> {sub()})"
    if kind == "conj":
        return f"({sub()} & {sub()})"
    if kind == "min":
        return f"({sub()} /\\ {sub()})"
    if kind == "max":
        return f"({sub()} \\/ {sub()})"
    if kind == "neg":
        return f"~{sub()}"
    return f"{rng.choice(hedges)}{sub()}"


def prop(rng: random.Random, n_atoms: int, slot: str) -> list[Query]:
    atoms = ["P", "Q", "R", "S"][:n_atoms]
    axioms = [f"{rng.choice(GRADES)} : {rng.choice(HEDGES_DH + ('',))}{a}" for a in rng.sample(atoms, 2)]
    for _ in range(rng.randint(2, 4)):
        axioms.append(f"{rng.choice(GRADES)} : {_prop_formula(rng, atoms, HEDGES_DH, 2)}")
    goals = [_prop_formula(rng, atoms, HEDGES_DH, 2) for _ in range(rng.randint(1, 3))]
    return _deduce_unit(_theory(SIG_DH, axioms), goals, 1, slot)


def deduce_slots() -> list[Slot]:
    slots = [Slot(f"wide1-{n}", lambda r, n=n, s=f"wide1-{n}": wide(r, n, 1, s)) for n in (10, 15, 20)]
    slots += [Slot(f"wide2-{n}", lambda r, n=n, s=f"wide2-{n}": wide(r, n, 2, s)) for n in (8, 12)]
    slots += [Slot(f"deep-{n}", lambda r, n=n, s=f"deep-{n}": deep(r, n, s)) for n in (10, 20, 30, 40)]
    slots += [Slot(f"prop-{n}", lambda r, n=n, s=f"prop-{n}": prop(r, n, s)) for n in (3, 4)]
    return slots


# ---------------------------------------------------------------------------
# models: first-order formulas over a fixed symbol set

SYMBOL_SETS = {
    # name: (0-ary preds, unary preds, binary preds, unary functions, constants)
    "R": ((), ("R",), (), (), ()),
    "RP": (("P",), ("R",), (), (), ()),
    "Rf": ((), ("R",), (), ("f",), ()),
    "Rc": ((), ("R",), (), (), ("'c",)),
    "RcP": (("P",), ("R",), (), (), ("'c",)),
    "RfP": (("P",), ("R",), (), ("f",), ()),
    "RT": ((), ("R", "T"), (), (), ()),
    "S": ((), (), ("S",), (), ()),
}


def _fo_term(rng: random.Random, scope: list[str], funcs, consts) -> str:
    options = list(scope) + list(consts)
    t = rng.choice(options)
    if funcs and rng.random() < 0.3:
        t = f"{rng.choice(funcs)}({t})"
    return t


def _fo_atom(rng: random.Random, scope: list[str], syms) -> str:
    props, unary, binary, funcs, consts = syms
    choices = list(props)
    if scope or consts:
        choices += list(unary) + list(binary)
    p = rng.choice(choices)
    if p in props:
        return p
    if p in unary:
        return f"{p}({_fo_term(rng, scope, funcs, consts)})"
    return f"{p}({_fo_term(rng, scope, funcs, consts)},{_fo_term(rng, scope, funcs, consts)})"


def _fo_formula(rng: random.Random, scope: list[str], syms, depth: int) -> str:
    props, unary, binary, funcs, consts = syms
    needs_var = not props and not consts
    if not scope and needs_var or (rng.random() < 0.3 and depth > 0 and len(scope) < 2):
        x = ("x", "y")[len(scope)] if len(scope) < 2 else "x"
        q = rng.choice(("forall", "exists"))
        return f"({q} {x}. {_fo_formula(rng, scope + [x], syms, depth - 1)})"
    if depth <= 0 or rng.random() < 0.25:
        return _fo_atom(rng, scope, syms)
    kind = rng.choice(("imp", "imp", "conj", "min", "max", "neg", "disj"))
    sub = lambda: _fo_formula(rng, scope, syms, depth - 1)  # noqa: E731
    if kind == "imp":
        return f"({sub()} -> {sub()})"
    if kind == "conj":
        return f"({sub()} & {sub()})"
    if kind == "disj":
        return f"({sub()} + {sub()})"
    if kind == "min":
        return f"({sub()} /\\ {sub()})"
    if kind == "max":
        return f"({sub()} \\/ {sub()})"
    return f"~{sub()}"


def _uses_all(text: str, syms) -> bool:
    props, unary, binary, funcs, consts = syms
    bare = (*props, *consts)
    return all(s in text for s in bare) and all(s + "(" in text for s in (*unary, *binary, *funcs))


def _fo_theory_and_goal(rng: random.Random, syms, axioms: int) -> tuple[list[str], str]:
    """Closed formulas that together use every symbol of the set, so the
    enumeration covers exactly that set."""
    while True:
        fs = [_fo_formula(rng, [], syms, 2) for _ in range(axioms + 1)]
        if _uses_all(" ".join(fs), syms):
            return fs[:-1], fs[-1]


def sem_fo(rng: random.Random, set_name: str, slot: str, chain: int = 10) -> list[Query]:
    axioms, goal = _fo_theory_and_goal(rng, SYMBOL_SETS[set_name], rng.randint(1, 3))
    theory = _theory("", [f"{rng.choice(('1', '4/5', '7/10', '1/2'))} : {a}" for a in axioms])
    argv = ("sem-degree", "--theory", theory, "--goal", goal, "--chain", str(chain), "--max-domain", "2")
    return [Query(argv, slot, theory, goal, chain=chain)]


def taut_fo(rng: random.Random, set_name: str, slot: str) -> list[Query]:
    _, goal = _fo_theory_and_goal(rng, SYMBOL_SETS[set_name], 0)
    return [Query(("tautology", "--goal", goal, "--chain", "10", "--max-domain", "2"), slot, None, goal)]


def sem_prop20(rng: random.Random, n_atoms: int, slot: str) -> list[Query]:
    atoms = ["P", "Q", "R"][:n_atoms]
    while True:
        fs = [_prop_formula(rng, atoms, (), 2) for _ in range(3)]
        if all(a in " ".join(fs) for a in atoms):
            break
    theory = _theory("", [f"{rng.choice(('1', '4/5', '3/5'))} : {f}" for f in fs[:-1]])
    argv = ("sem-degree", "--theory", theory, "--goal", fs[-1], "--chain", "20")
    return [Query(argv, slot, theory, fs[-1], chain=20)]


def _structure(rng: random.Random, size: int, chain: int) -> str:
    dom = [f"d{i}" for i in range(1, size + 1)]
    val = lambda: str(Fraction(rng.randint(0, chain), chain))  # noqa: E731
    lines = ["domain " + " ".join(dom), f"pred P/0 {{ {val()} }}"]
    for p in ("R", "T"):
        lines.append(f"pred {p}/1 {{ " + ", ".join(f"{d}: {val()}" for d in dom) + " }")
    lines.append("pred S/2 { " + ", ".join(f"{a} {b}: {val()}" for a in dom for b in dom) + " }")
    lines.append("fun f/1 { " + ", ".join(f"{d}: {rng.choice(dom)}" for d in dom) + " }")
    lines.append(f"const 'c = {rng.choice(dom)}")
    return "\n".join(lines) + "\n"


def eval_fo(rng: random.Random, size: int, slot: str) -> list[Query]:
    structure = File(_structure(rng, size, 10))
    syms = (("P",), ("R", "T"), ("S",), ("f",), ("'c",))
    goal = _fo_formula(rng, [], syms, 3)
    return [Query(("eval", "--structure", structure, "--goal", goal), slot, None, goal)]


def models_slots() -> list[Slot]:
    # The binary predicate runs at chain 6 (2,408 structures); at chain 10
    # it would take 14,652, as many as R+T, and double the pass time.
    chains = {"S": 6}
    slots = [Slot(f"sem-{s}", lambda r, s=s: sem_fo(r, s, f"sem-{s}", chains.get(s, 10))) for s in SYMBOL_SETS]
    slots += [Slot(f"taut-{s}", lambda r, s=s: taut_fo(r, s, f"taut-{s}")) for s in ("RP", "RT")]
    slots += [Slot(f"prop20-{n}", lambda r, n=n: sem_prop20(r, n, f"prop20-{n}")) for n in (2, 3)]
    slots.append(Slot("eval-3", lambda r: eval_fo(r, 3, "eval-3")))
    return slots


# ---------------------------------------------------------------------------
# hedges: truth functions as piecewise-linear breakpoint lists

SQUARE = ((0, 0), (Fraction(1, 4), Fraction(1, 16)), (Fraction(1, 2), Fraction(1, 4)), (Fraction(3, 4), Fraction(9, 16)), (1, 1))
SQRT = ((0, 0), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(7, 10)), (Fraction(3, 4), Fraction(7, 8)), (1, 1))


def _pl(points) -> str:
    return "pl { " + " ".join(f"({Fraction(x)},{Fraction(y)})" for x, y in points) + " }"


def _blend(points, lam: Fraction):
    return tuple((x, (1 - lam) * x + lam * Fraction(y)) for x, y in points)


def hedge_model(rng: random.Random, kind: str) -> str:
    """Hedge-model text.  ``kind``: dual preset pair, blend chain (h or dh),
    crossing chain, or identity functions only."""
    if kind == "presets":
        return "mode dh\nstressers s1\ndepressers d1\ns1 = preset pl-square\nd1 = preset pl-sqrt\n"
    if kind == "identity":
        n = rng.randint(1, 2)
        s = " ".join(f"s{i}" for i in range(1, n + 1))
        d = " ".join(f"d{i}" for i in range(1, n + 1))
        return f"mode {rng.choice(('h', 'dh'))}\nstressers {s}\ndepressers {d}\n"
    n = rng.randint(2, 3)
    lams = sorted(Fraction(rng.randint(1, 9), 10) for _ in range(n))
    if kind == "crossing":
        lams.reverse()  # strengths out of order: the chain axioms fail
    mode = rng.choice(("h", "dh"))
    lines = [f"mode {mode}", "stressers " + " ".join(f"s{i}" for i in range(1, n + 1))]
    lines.append("depressers " + " ".join(f"d{i}" for i in range(1, n + 1)))
    for i, lam in enumerate(lams, start=1):
        lines.append(f"s{i} = {_pl(_blend(SQUARE, lam))}")
        lines.append(f"d{i} = {_pl(_blend(SQRT, lam))}")
    return "\n".join(lines) + "\n"


MODEL_KINDS = ("presets", "blend", "crossing", "identity")


def validate_unit(rng: random.Random, chain: int, slot: str) -> list[Query]:
    model = File(hedge_model(rng, MODEL_KINDS[rng.randrange(len(MODEL_KINDS))]))
    return [Query(("validate-hedges", "--hedges", model, "--chain", str(chain)), slot)]


def boundaries_unit(rng: random.Random, chain: int, slot: str) -> list[Query]:
    while True:
        text = hedge_model(rng, rng.choice(MODEL_KINDS))
        if text.startswith("mode dh"):
            break
    return [Query(("boundaries", "--hedges", File(text), "--chain", str(chain)), slot)]


def hedged_sem_unit(rng: random.Random, chain: int, slot: str) -> list[Query]:
    header = "mode dh\nstressers very\ndepressers rather\n"
    if rng.random() < 0.5:
        header += rng.choice(("very = preset pl-square\n", "rather = preset pl-sqrt\n"))
    hedges = ("very ", "rather ", "")
    axioms = [f"{rng.choice(('1', '3/5', '9/10'))} : {_prop_formula(rng, ['P'], hedges, 2)}" for _ in range(2)]
    goal = _prop_formula(rng, ["P"], hedges, 2)
    theory = _theory(header, axioms)
    argv = ("sem-degree", "--theory", theory, "--goal", goal, "--chain", str(chain))
    return [Query(argv, slot, theory, goal, chain=chain)]


def hedges_slots() -> list[Slot]:
    slots = [Slot(f"validate-{k}", lambda r, k=k: validate_unit(r, k, f"validate-{k}"), HEDGES_VARIANTS)
              for k in (20, 30, 40, 60, 100)]
    slots += [Slot(f"boundaries-{k}", lambda r, k=k: boundaries_unit(r, k, f"boundaries-{k}"), HEDGES_VARIANTS)
               for k in (20, 40, 60, 80, 100)]
    slots += [Slot(f"semdeg-{k}", lambda r, k=k: hedged_sem_unit(r, k, f"semdeg-{k}"), HEDGES_VARIANTS)
               for k in (20, 30, 40, 60)]
    return slots


# ---------------------------------------------------------------------------
# cli: small inputs for every command, plus malformed and extreme ones

SMALL_THEORIES = (
    "4/5 : P\n9/10 : P -> Q\n",
    SIG_DH + "9/10 : very Young('u1)\n1 : very Young('u1) -> Tall('u1)\n",
    SIG_H + "3/5 : P\n1 : P -> extremely Q\n4/5 : extremely Q -> R\n",
    "1 : P\n1 : P -> #0\n",
)


def cli_prove(rng: random.Random, slot: str) -> list[Query]:
    i = rng.randrange(len(SMALL_THEORIES))
    theory = File(SMALL_THEORIES[i])
    goal = ("Q", "Tall('u1)", "R", "Q")[i]
    return [
        Query(("prove", "--theory", theory, "--goal", goal), slot, theory, goal),
        Query(("check-proof", "--theory", theory, PREVIOUS_PROOF), slot, theory, goal),
    ]


def cli_simple(rng: random.Random, command: str, slot: str) -> list[Query]:
    if command == "parse":
        text = _prop_formula(rng, ["P", "Q", "R"], HEDGES_DH, 3)
        flags = rng.choice(((), ("--no-sugar",), ("--format", "tsv")))
        return [Query(("parse", "--sig", File(SIG_DH)) + flags + (text,), slot)]
    if command == "consistency":
        theory = File(rng.choice(SMALL_THEORIES))
        return [Query(("consistency", "--theory", theory), slot, theory)]
    if command == "eval":
        structure = File(_structure(rng, 2, 10))
        goal = _fo_formula(rng, [], (("P",), ("R", "T"), ("S",), ("f",), ("'c",)), 2)
        return [Query(("eval", "--structure", structure, "--goal", goal), slot, None, goal)]
    if command == "sem-degree":
        q = sem_fo(rng, rng.choice(("R", "Rc")), slot)[0]
        return [q]
    if command == "tautology":
        goal = _prop_formula(rng, ["P", "Q"], (), 2)
        return [Query(("tautology", "--goal", goal, "--chain", "5"), slot, None, goal)]
    if command == "validate-hedges":
        model = File(hedge_model(rng, rng.choice(MODEL_KINDS)))
        return [Query(("validate-hedges", "--hedges", model, "--chain", "10"), slot)]
    # boundaries
    while True:
        text = hedge_model(rng, rng.choice(MODEL_KINDS))
        if text.startswith("mode dh"):
            break
    return [Query(("boundaries", "--hedges", File(text), "--chain", "10", "--format", "tsv"), slot)]


EMPTY_THEORY = File("% no axioms\n")


def malformed(slot: str) -> list[list[Query]]:
    """Malformed or extreme inputs, one unit each, with a documented exit
    code.  The first three exit 1 with a ``RecursionError`` traceback in the
    recorded fln version; fixed, they may print a result (exit 0) or refuse
    the input (exit 2)."""
    deep_chain = deep(_rng("cli", slot, "deep"), 12, slot)[0].theory
    known = dict(documented_exit=(0, 2), known_defect=True)
    cases = [
        Query(("prove", "--theory", EMPTY_THEORY, "--goal", "P^400"), slot, **known),
        Query(("parse", "(" * 200 + "P" + ")" * 200), slot, **known),
        Query(("parse", "~" * 3000 + "P"), slot, **known),
        Query(("parse", "P("), slot, documented_exit=(2,)),
        Query(("prove", "--theory", deep_chain, "--goal", "P12", "--budget", "1"), slot, documented_exit=(3,)),
        Query(("sem-degree", "--theory", File("1 : forall x. exists y. S(x,y)\n"), "--goal", "S('c,'c)",
               "--max-domain", "3"), slot, documented_exit=(4,)),
    ]
    return [[q] for q in cases]


CLI_COMMANDS = ("parse", "parse", "parse", "consistency", "consistency", "eval", "eval", "sem-degree",
                "sem-degree", "tautology", "tautology", "validate-hedges", "validate-hedges",
                "boundaries", "boundaries")


def cli_slots() -> list[Slot]:
    slots = [Slot(f"prove-{i}", lambda r, i=i: cli_prove(r, f"prove-{i}"), CLI_VARIANTS) for i in range(4)]
    slots += [Slot(f"{c}-{i}", lambda r, c=c, s=f"{c}-{i}": cli_simple(r, c, s), CLI_VARIANTS)
              for i, c in enumerate(CLI_COMMANDS)]
    malformed_units = malformed("malformed")
    slots.append(Slot("malformed", None, len(malformed_units), malformed_units))
    return slots


# ---------------------------------------------------------------------------
# Pools and passes

WORKLOADS = {"deduce": deduce_slots, "models": models_slots, "hedges": hedges_slots, "cli": cli_slots}


def pool(workload: str) -> list[list[Query]]:
    """Every unit of the workload: each slot's variants, built from fixed
    seeds."""
    units = []
    for s in WORKLOADS[workload]():
        if not s.units:
            s.units.extend(s.build(_rng(workload, s.name, v)) for v in range(s.variants))
        units.extend(s.units)
    return units


def passes(units: list[list[Query]], seed: int):
    """Endless sequence of passes for ``seed``: each the whole pool, its
    units in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        order = list(units)
        rng.shuffle(order)
        yield [q for unit in order for q in unit]
