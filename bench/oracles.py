"""Output checks for one query, made outside the timed region.

Every query's exit code and stdout must match what was recorded for it in
``expected.json``; malformed and extreme inputs must instead end with an exit
code the documentation promises and a clean stderr.  On top of that:

* a ``prove`` proof re-parses and re-checks to exactly its ``BOUND``;
* on propositional theories small enough to enumerate, the ``prove`` bound
  is at most the ``sem-degree`` value (soundness);
* a ``sem-degree`` witness is a model of the theory, and the goal takes
  the reported degree in it.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

SOUNDNESS_STRUCTURES = 3000  # largest enumeration the soundness check makes


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stderr_clean(text: str) -> bool:
    """Empty, or a single ``error: ...`` line."""
    lines = text.splitlines()
    return not lines or (len(lines) == 1 and lines[0].startswith("error: "))


def check(query, argv, outcome, expected) -> str | None:
    """Return a description of the first problem, or None."""
    if outcome.exit is None:
        return "raised or timed out"
    if not stderr_clean(outcome.stderr):
        return f"exit {outcome.exit} with stderr beyond one 'error:' line"
    if query.documented_exit is not None:
        if outcome.exit not in query.documented_exit:
            return f"exit {outcome.exit}, documented {query.documented_exit}"
        if outcome.exit == 0 and not outcome.stdout:
            return "exit 0 without output"
        return None
    if expected is None:
        return "no recorded output for this query"
    if [outcome.exit, digest(outcome.stdout)] != expected:
        return f"exit {outcome.exit} or stdout differs from the recorded output"
    if outcome.exit == 0 and argv[0] == "prove":
        return check_prove(query.theory.text, query.goal, outcome.stdout)
    if outcome.exit == 0 and argv[0] == "sem-degree":
        return check_sem_degree(query.theory.text, query.goal, query.chain, outcome.stdout)
    return None


def check_prove(theory_text: str, goal_text: str, stdout: str) -> str | None:
    from fln.deduction import ProofCheckError, check_proof
    from fln.parser import parse_formula, parse_proof, parse_theory

    lines = stdout.splitlines()
    bound = Fraction(lines[0].removeprefix("BOUND "))
    theory = parse_theory(theory_text)
    try:
        value = check_proof(parse_proof("\n".join(lines[2:]), theory.signature), theory)
    except ProofCheckError as exc:
        return f"printed proof does not check: {exc}"
    if value != bound:
        return f"proof checks to {value}, BOUND says {bound}"
    goal = parse_formula(goal_text, theory.signature)
    degree = small_sem_degree(theory, goal)
    if degree is not None and bound > degree:
        return f"BOUND {bound} above sem-degree {degree}"
    return None


def small_sem_degree(theory, goal):
    """sem-degree on the finest chain (up to 10) whose propositional
    enumeration stays small; None if the theory is not propositional or
    too large even on the two-element chain."""
    from fln.mv import MVChain
    from fln.semantics import sem_degree
    from fln.syntax import collect_symbols, expand

    syms = collect_symbols(list(theory.special_axioms) + [expand(goal)])
    if syms.funcs or syms.consts or syms.has_quantifier or any(syms.preds.values()):
        return None
    for k in range(10, 0, -1):
        if (k + 1) ** len(syms.preds) <= SOUNDNESS_STRUCTURES:
            return sem_degree(theory, goal, MVChain(k), 1).degree
    return None


def check_sem_degree(theory_text: str, goal_text: str, chain: int, stdout: str) -> str | None:
    from fln.mv import MVChain
    from fln.parser import parse_formula, parse_structure, parse_theory
    from fln.semantics import Structure, eval_formula, is_model

    lines = stdout.splitlines()
    degree = Fraction(lines[0].removeprefix("DEGREE "))
    if len(lines) == 1:
        return None if degree == 1 else f"DEGREE {degree} without a witness"
    theory = parse_theory(theory_text)
    s = parse_structure("\n".join(lines[2:]))
    witness = Structure(s.domain, s.preds, s.funcs, s.consts, theory.hedge_model)
    if not is_model(witness, theory, MVChain(chain)).ok:
        return "witness is not a model"
    value = eval_formula(witness, parse_formula(goal_text, theory.signature))
    if value != degree:
        return f"goal is {value} in the witness, DEGREE says {degree}"
    return None
