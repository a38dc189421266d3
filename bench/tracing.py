"""Traced runs: wrap fln's public functions from outside and record spans.

A span record is one call path within one query: its name, the record of
its caller (``parent``), the query id, the start of its first call and the
end of its last.  Repeated calls along the same path merge into one record
that keeps the number of calls and their summed duration, so memory grows
with the number of distinct call paths, not with the number of calls.
Records stay in memory and are written out when the run ends.

A function that calls itself through its module-level name (``expand``)
opens no nested span: its time is one span per outer call.  Counts that
the benchmark derives from arguments and results are computed with the
clock paused, so they add to the overhead but to no span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    qid: int
    parent: int | None
    start: float
    end: float
    calls: int = 0
    dur: float = 0.0  # summed duration of the merged calls


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each record's duration minus the time its
    child records cover.  Calls nest in one thread, so children never
    overlap and the covered time is the sum of their durations."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.dur - covered[s.sid]
    return dict(out)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.index: dict[tuple, Span] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.qid = 0
        self.paused = 0.0
        self.installed: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.goal = None  # expanded goal of the current sem-degree query
        self.last_model = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def enter(self, name: str) -> tuple[Span, float]:
        parent = self.stack[-1] if self.stack else None
        key = (parent.sid if parent else -1, self.qid, name)
        span = self.index.get(key)
        t = self.now()
        if span is None:
            span = Span(len(self.spans), name, self.qid, parent.sid if parent else None, t, t)
            self.spans.append(span)
            self.index[key] = span
        self.stack.append(span)
        return span, t

    def exit(self, span: Span, t0: float) -> None:
        t = self.now()
        span.calls += 1
        span.dur += t - t0
        span.end = t
        self.stack.pop()

    def observe(self, observer, *args) -> None:
        """Run ``observer`` with the clock stopped."""
        t = time.perf_counter()
        try:
            observer(self, *args)
        finally:
            self.paused += time.perf_counter() - t

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    # -- installation -----------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Bind ``replacement`` wherever an fln module binds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "fln" and not modname.startswith("fln."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.installed.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def wrap(self, original, name: str, observer=None) -> None:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.stack and tracer.stack[-1].name == name:
                return original(*args, **kwargs)
            span, t0 = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(span, t0)
            if observer is not None:
                tracer.observe(observer, args, kwargs, result)
            return result

        self.originals[name] = original
        self._replace(original, traced)

    def count_calls(self, original, counter: str) -> None:
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return original(*args)

        self._replace(original, counted)

    def install(self) -> None:
        import fln.cli  # noqa: F401  (loads every fln module)
        from fln import cli, deduction, hedges, mv, parser, semantics, syntax

        self.wrap(cli.main, "cli.main")
        for fn in ("parse_theory", "parse_formula", "parse_proof", "parse_hedge_model", "parse_structure"):
            self.wrap(getattr(parser, fn), f"parser.{fn}", _parsed_chars)
        for fn in ("format_proof", "format_structure"):
            self.wrap(getattr(parser, fn), f"parser.{fn}")
        self.wrap(syntax.expand, "syntax.expand")
        self.wrap(syntax.subformula_universe, "syntax.subformula_universe", _universe)
        self.wrap(syntax.format_formula, "syntax.format_formula")
        self.wrap(deduction.saturate, "deduction.saturate", _saturation)
        self.wrap(deduction.lax_grade, "deduction.lax_grade")
        self.wrap(deduction.extract_proof, "deduction.extract_proof", _proof_steps)
        self.wrap(deduction.check_proof, "deduction.check_proof")
        self.wrap(deduction.detect_contradiction, "deduction.detect_contradiction")
        self.wrap(semantics.sem_degree, "semantics.sem_degree", _sem_degree)
        self.wrap(semantics.eval_formula, "semantics.eval_formula", _model_count)
        self.wrap(hedges.validate_axioms, "hedges.validate_axioms", _axiom_instances)
        self.wrap(hedges.validate_shape, "hedges.validate_shape")
        self.wrap(hedges.boundaries, "hedges.boundaries")
        for fn in ("luk_and", "luk_imp", "luk_neg", "luk_or", "meet", "join", "biresiduum", "power", "multiple"):
            self.count_calls(getattr(mv, fn), "mv.ops")

    def restore(self) -> None:
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed.clear()

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Observers: counts derived from arguments and results


def _parsed_chars(tr: Tracer, args, kwargs, result) -> None:
    # A parse_formula call made by parse_theory reads text already counted.
    if not (tr.parent_name() or "").startswith("parser.") and args and isinstance(args[0], str):
        tr.counts["parser.chars"] += len(args[0])


def _universe(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["syntax.universe_size"] += len(result)


def _saturation(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["deduction.sweeps"] += result.rounds
    tr.counts["deduction.fixpoints"] += bool(result.fixpoint)
    tr.counts["deduction.rule_edges"] += rule_edges(args[1] if len(args) > 1 else kwargs["universe"])


def rule_edges(universe) -> int:
    """MP, LC and G edges saturation builds over an expanded universe."""
    from fln.syntax import Forall, Imp, TruthConst

    seen = set(universe)
    n = 0
    for g in seen:
        if isinstance(g, Imp):
            n += g.left in seen and g.right in seen
            n += isinstance(g.left, TruthConst) and g.right in seen
        elif isinstance(g, Forall):
            n += g.body in seen
    return n


def _proof_steps(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["deduction.proof_steps"] += len(result.steps)


def _sem_degree(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["semantics.structures_checked"] += result.structures_checked


def _model_count(tr: Tracer, args, kwargs, result) -> None:
    """A structure is a model when sem_degree goes on to evaluate the goal
    in it, after every axiom held."""
    if tr.parent_name() != "semantics.sem_degree" or tr.goal is None:
        return
    structure, formula = args[0], args[1]
    if structure is not tr.last_model and formula == tr.goal:
        tr.last_model = structure
        tr.counts["semantics.models"] += 1


def _axiom_instances(tr: Tracer, args, kwargs, result) -> None:
    model, chain = args[0], args[1]
    sig = model.signature
    k = len(chain)
    n = len(sig.hedges) * k * k + len(sig.stressers) * k + (1 if sig.stressers else 0)
    n += len(sig.depressers) * k
    if sig.mode.value == "h":
        n += 1 if sig.depressers else 0
    else:
        n += len(sig.depressers) * k
    tr.counts["hedges.axiom_instances"] += n
    tr.counts["hedges.violations"] += len(result.violations)


def set_goal(tr: Tracer, argv: list[str]) -> None:
    """Tell the model counter which expanded goal a ``sem-degree`` or
    ``tautology`` command line evaluates.  Call before the query."""
    tr.goal = tr.last_model = None
    if argv[0] not in ("sem-degree", "tautology") or "--goal" not in argv:
        return
    from fln.parser import load_signature

    t = time.perf_counter()
    sig_text = ""
    for flag in ("--theory", "--hedges"):
        if flag in argv:
            with open(argv[argv.index(flag) + 1]) as fh:
                sig_text = fh.read()
            break
    parse_formula = tr.originals["parser.parse_formula"]
    expand = tr.originals["syntax.expand"]
    try:
        tr.goal = expand(parse_formula(argv[argv.index("--goal") + 1], load_signature(sig_text)))
    except (ValueError, RecursionError):
        tr.goal = None
    finally:
        tr.paused += time.perf_counter() - t
