"""Batch command-line front end.

Exit codes are a stable contract: 0 pass, 1 semantic violation or
contradiction or invalid proof, 2 parse/input error (also input nested too
deeply, and any other exception, reported as the single stderr line
``error: internal error: <type>: <message>`` instead of a traceback),
3 budget exhaustion, 4 search-space guard exceeded.  With ``--format tsv``
each command emits exactly one tab-separated record per result; identical
inputs give byte-identical output.  Output the reader of stdout no longer
takes (``fln ... | head``) is dropped silently; the exit code stays the same.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .deduction import (
    ProofCheckError,
    check_proof,
    detect_contradiction,
    provability_lower_bound,
)
from .hedges import HedgeModel, HedgeTables, validate_shape
from .mv import MVChain
from .parser import (
    format_proof,
    format_structure,
    load_signature,
    parse_formula,
    parse_hedge_model,
    parse_proof,
    parse_structure,
    parse_theory,
)
from .semantics import (
    SpaceGuardError,
    eval_formula,
    sem_degree,
    tautology_degree,
)
from .syntax import HedgeMode, HedgeSignature, expand, format_formula, free_vars
from .theory import Theory

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_SPACE = 4


class CliInputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliInputError(str(exc)) from None


def _load_theory(args) -> Theory:
    if not args.theory:
        raise CliInputError("--theory is required for this command")
    theory = parse_theory(_read(args.theory))
    if args.hedges:
        model = parse_hedge_model(_read(args.hedges))
        if model.signature != theory.signature:
            raise CliInputError("hedge file signature differs from the theory signature")
        theory = Theory(theory.signature, theory.special_axioms, model)
    return theory


def _load_signature(args) -> HedgeSignature:
    for path in (args.theory, args.hedges, args.sig):
        if path:
            return load_signature(_read(path))
    return HedgeSignature.empty()


def _load_hedge_model(args) -> HedgeModel:
    if args.hedges:
        return parse_hedge_model(_read(args.hedges))
    return HedgeModel.identity_model(_load_signature(args))


def _goal(args, signature: HedgeSignature, require_closed: bool = True):
    if not args.goal:
        raise CliInputError("--goal is required for this command")
    f = parse_formula(args.goal, signature)
    if require_closed and free_vars(f):
        raise CliInputError("the goal must be a closed formula")
    return f


def _print_report(report, out) -> None:
    for v in report.violations:
        print(v.machine_line(), file=out)


# ---------------------------------------------------------------------------
# Commands


def cmd_parse(args, out) -> int:
    sig = _load_signature(args)
    f = parse_formula(args.text, sig)
    text = format_formula(expand(f)) if args.no_sugar else format_formula(f)
    if args.format == "tsv":
        print(f"parse\t{text}", file=out)
    else:
        print(text, file=out)
    return EXIT_OK


def cmd_prove(args, out) -> int:
    theory = _load_theory(args)
    goal = _goal(args, theory.signature)
    res = provability_lower_bound(theory, goal, args.depth, args.budget)
    fix = "yes" if res.fixpoint else "no"
    if args.format == "tsv":
        print(f"prove\t{res.bound}\t{fix}", file=out)
    else:
        print(f"BOUND {res.bound}", file=out)
        print(f"FIXPOINT {fix}", file=out)
        print(format_proof(res.proof), file=out)
    if not res.fixpoint and res.bound == 0:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_check_proof(args, out) -> int:
    signature = _load_signature(args)
    theory = parse_theory(_read(args.theory)) if args.theory else Theory(signature)
    proof = parse_proof(_read(args.prooffile), theory.signature)
    try:
        value = check_proof(proof, theory)
    except ProofCheckError as exc:
        if args.format == "tsv":
            print(f"check-proof\tinvalid\t{exc.step}\t{exc.reason}", file=out)
        else:
            print(f"INVALID step {exc.step}: {exc.reason}", file=out)
        return EXIT_VIOLATION
    if args.format == "tsv":
        print(f"check-proof\t{value}", file=out)
    else:
        print(f"VAL {value}", file=out)
    return EXIT_OK


def cmd_eval(args, out) -> int:
    if not args.structure:
        raise CliInputError("--structure is required for this command")
    structure = parse_structure(_read(args.structure), Path(args.structure).parent)
    goal = _goal(args, structure.hedges.signature)
    value = eval_formula(structure, goal)
    if args.format == "tsv":
        print(f"eval\t{value}", file=out)
    else:
        print(f"DEGREE {value}", file=out)
    return EXIT_OK


def cmd_sem_degree(args, out) -> int:
    theory = _load_theory(args)
    goal = _goal(args, theory.signature)
    res = sem_degree(theory, goal, MVChain(args.chain), args.max_domain)
    if args.format == "tsv":
        print(f"sem-degree\t{res.degree}", file=out)
    else:
        print(f"DEGREE {res.degree}", file=out)
        if res.witness is not None:
            print("WITNESS", file=out)
            print(format_structure(res.witness), file=out)
    return EXIT_OK


def cmd_tautology(args, out) -> int:
    model = _load_hedge_model(args)
    goal = _goal(args, model.signature)
    degree = tautology_degree(goal, MVChain(args.chain), args.max_domain, model)
    if args.format == "tsv":
        print(f"tautology\t{degree}", file=out)
    else:
        print(f"DEGREE {degree}", file=out)
    return EXIT_OK


def cmd_validate_hedges(args, out) -> int:
    if not args.hedges:
        raise CliInputError("--hedges is required for this command")
    model = parse_hedge_model(_read(args.hedges))
    sig = model.signature
    tsv = args.format == "tsv"
    violations = 0
    for name, kind in [(s, "stresser") for s in sig.stressers] + [(d, "depresser") for d in sig.depressers]:
        rep = validate_shape(model.function_for(name), kind, name)
        violations += len(rep.violations)
        if not tsv:
            print(f"SHAPE {name} {rep.verdict}", file=out)
            _print_report(rep, out)
    # The axiom and envelope checks yield integer records: TSV only counts
    # them, and each human section is written whole once its check has run.
    tables = HedgeTables(model, MVChain(args.chain))
    sections = [("AXIOMS", tables.axiom_records())]
    if sig.mode is HedgeMode.DH:
        sections.append(("ENVELOPES", tables.envelope_records(tables.envelopes())))
    for title, records in sections:
        if tsv:
            violations += sum(1 for _ in records)
            continue
        lines = tables.lines(records)
        violations += len(lines)
        out.write(f"{title} {'fail' if lines else 'pass'}\n" + "".join(lines))
    verdict = "pass" if violations == 0 else "fail"
    if tsv:
        print(f"validate-hedges\t{verdict}\t{violations}", file=out)
    else:
        print(f"RESULT {verdict}", file=out)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_boundaries(args, out) -> int:
    if not args.hedges:
        raise CliInputError("--hedges is required for this command")
    tables = HedgeTables(parse_hedge_model(_read(args.hedges)), MVChain(args.chain))
    envelopes = tables.envelopes()
    x, v = tables.point_texts, tables.value_texts
    if args.format == "tsv":
        row = "boundaries\t{}\t{}\t{}\t{}\n".format
    else:
        row = "BOUNDARY {} {} [{}, {}]\n".format
    text = [
        row(name, x[i], v[lo], v[hi])
        for name, lower, upper in envelopes
        for i, (lo, hi) in enumerate(zip(lower, upper))
    ]
    records = tables.envelope_records(envelopes)
    if args.format == "tsv":
        failed = next(records, None) is not None
    else:
        lines = tables.lines(records)
        failed = bool(lines)
        text += lines
    out.write("".join(text))
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_consistency(args, out) -> int:
    theory = _load_theory(args)
    res = detect_contradiction(theory, args.depth, args.budget)
    if res.witness is not None:
        w = res.witness
        name = format_formula(w.formula)
        if args.format == "tsv":
            print(f"consistency\tcontradictory\t{name}\t{w.degree}", file=out)
        else:
            print(f"CONTRADICTORY {name} deg {w.degree}", file=out)
            print("PROOF POS", file=out)
            print(format_proof(w.proof_pos), file=out)
            print("PROOF NEG", file=out)
            print(format_proof(w.proof_neg), file=out)
        return EXIT_VIOLATION
    if res.fixpoint:
        if args.format == "tsv":
            print("consistency\tconsistent", file=out)
        else:
            print("CONSISTENT (universe-relative)", file=out)
        return EXIT_OK
    if args.format == "tsv":
        print("consistency\tunknown", file=out)
    else:
        print("UNKNOWN (budget exhausted)", file=out)
    return EXIT_BUDGET


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sig", help="signature file (any file with a signature block)")
    sub.add_argument("--theory", help="theory file")
    sub.add_argument("--hedges", help="hedge-model file")
    sub.add_argument("--structure", help="structure file")
    sub.add_argument("--goal", help="goal formula")
    sub.add_argument("--chain", type=int, default=10, metavar="K", help="chain granularity (default 10)")
    sub.add_argument("--max-domain", type=int, default=2, dest="max_domain", metavar="M")
    sub.add_argument("--depth", type=int, default=1, help="universe growth depth (default 1)")
    sub.add_argument("--budget", type=int, default=100, help="saturation sweep budget (default 100)")
    sub.add_argument("--format", choices=("human", "tsv"), default="human")
    sub.add_argument("--no-sugar", action="store_true", dest="no_sugar", help="print expanded core forms")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The ``fln`` parser, built on the first call and shared by every later
    one, so repeated ``main`` calls in one process do not rebuild it.
    Reuse is safe: ``prog`` is fixed, ``parse_args`` returns a new namespace
    each time, no option has a mutable default or an ``append`` action, and
    help text is formatted (and ``COLUMNS`` read) when it is printed."""
    top = argparse.ArgumentParser(prog="fln", description=__doc__)
    subs = top.add_subparsers(dest="command", required=True)

    handlers = {
        "parse": cmd_parse,
        "prove": cmd_prove,
        "check-proof": cmd_check_proof,
        "eval": cmd_eval,
        "sem-degree": cmd_sem_degree,
        "tautology": cmd_tautology,
        "validate-hedges": cmd_validate_hedges,
        "consistency": cmd_consistency,
        "boundaries": cmd_boundaries,
    }
    for name, handler in handlers.items():
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "parse":
            sub.add_argument("text", help="formula text")
        if name == "check-proof":
            sub.add_argument("prooffile", help="proof file")
        sub.set_defaults(handler=handler)
    return top


def _check_config(args) -> None:
    if args.chain < 1:
        raise CliInputError("--chain must be >= 1")
    if args.max_domain < 1:
        raise CliInputError("--max-domain must be >= 1")
    if args.depth < 0:
        raise CliInputError("--depth must be >= 0")
    if args.budget < 1:
        raise CliInputError("--budget must be >= 1")


def _quiet(op, *args) -> None:
    """A write or flush of the process's stdout.  Once the reader of the pipe
    has gone, the descriptor points at ``os.devnull``: the rest of the output
    and the final flush vanish, and the command runs on to its exit code."""
    try:
        op(*args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _Stdout:
    """The process's stdout as a command's ``out``; see :func:`_quiet`."""

    def write(self, text: str) -> None:
        _quiet(sys.stdout.write, text)


def main(argv: "list[str] | None" = None, out=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _check_config(args)
        return args.handler(args, out or _Stdout())
    except SpaceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPACE
    except ValueError as exc:  # parse errors, CliInputError, OpenFormulaError, EvalError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        if not out:
            _quiet(sys.stdout.flush)


if __name__ == "__main__":
    sys.exit(main())
