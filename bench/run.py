"""The fln benchmark: one named workload, one seed, every output checked.

    python3 bench/run.py --workload deduce --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout (``src/fln`` must exist).  The
load is a closed loop with one client and one query at a time; no threads
and no parallel processes.  ``deduce``, ``models`` and ``hedges`` call
``fln.cli.main(argv, out=...)`` in this process; ``cli`` runs every query in
a fresh ``python -m fln``.  The loop times whole passes over the workload's
query pool (see ``gen.py``) until ``--seconds`` have passed and at least
100 queries ran.

``--trace 0`` prints the end-to-end metrics: median and 90th-percentile
query latency (wall clock), completed queries per second of the timed loop,
``ok_frac`` (the share of queries that passed every check, that is one
minus the failed fraction), ``setup_s`` (median seconds for a fresh
interpreter to import ``fln.cli``, sampled between queries through the
loop) and the peak resident memory of this process, or of the largest
child for ``cli``.  ``--trace 1`` runs one pass untraced, then the same
pass with every public layer function wrapped (``tracing.py``), and prints
the per-layer metrics: self times and counts summed over the traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
note with the machine, the sample counts and the problems found.  Every
query that fails a check counts in ``failed``.  ``correct`` is false when
any query other than a known defect (``gen.Query.known_defect``) failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
from gen import PREVIOUS_PROOF, File, Query  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
MIN_QUERIES = 100
MAX_LOOP_S = 120.0  # hard stop for the timed loop, so a run ends within 180 s
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
REF_NOMINAL_S = 0.01  # about the reference loop's time on a 2-core Intel Xeon, Python 3.11
LIBRARY_WORKLOADS = ("deduce", "models", "hedges")
MODULES = ("cli", "parser", "syntax", "deduction", "semantics", "hedges", "mv", "theory")

IMPORT_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import fln.cli; "
    "sys.stdout.write(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Running one query


class Outcome:
    __slots__ = ("exit", "stdout", "stderr", "seconds")

    def __init__(self, exit, stdout, stderr, seconds):
        self.exit, self.stdout, self.stderr, self.seconds = exit, stdout, stderr, seconds


def call_library(argv: list[str]) -> Outcome:
    import fln.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = fln.cli.main(argv, out=out)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a query that raises is a failed query, not a failed run
            traceback.print_exc(file=err)
            code = None
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def call_process(argv: list[str], entry: list[str] | None = None) -> Outcome:
    cmd = [sys.executable] + (entry or ["-m", "fln"]) + argv
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        return Outcome(None, exc.stdout or "", "timeout", time.perf_counter() - t0)
    return Outcome(p.returncode, p.stdout, p.stderr, time.perf_counter() - t0)


class Inputs:
    """Writes the pool's input files under a work directory inside the
    checkout and turns a query into an argv of paths plus a recording key."""

    def __init__(self, workdir: Path) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, f: File) -> str:
        p = self.dir / f.name
        if not p.exists():
            p.write_text(f.text)
        return str(p)

    def resolve(self, q: Query, previous_stdout: str) -> tuple[list[str], str]:
        argv, keyed = [], []
        for a in q.argv:
            if isinstance(a, File):
                argv.append(self.path(a))
                keyed.append("file:" + a.name)
            elif a == PREVIOUS_PROOF:
                proof = File(proof_text(previous_stdout))
                argv.append(self.path(proof))
                keyed.append("file:" + proof.name)
            else:
                argv.append(a)
                keyed.append(a)
        return argv, hashlib.sha256(json.dumps(keyed).encode()).hexdigest()[:24]


def proof_text(prove_stdout: str) -> str:
    return "\n".join(prove_stdout.splitlines()[2:]) + "\n"


# ---------------------------------------------------------------------------
# Timed loop


class Record:
    __slots__ = ("query", "key", "argv", "outcome", "digest", "head", "loop_s")

    def __init__(self, query, key, argv, outcome):
        self.query, self.key, self.argv, self.outcome = query, key, argv, outcome
        self.digest = oracles.digest(outcome.stdout)
        self.head = outcome.stdout.split("\n", 1)[0]


def run_passes(workload: str, passes, inputs: Inputs, stop, tracer=None, calibration=None) -> tuple[list[Record], float, int]:
    """Run whole passes until ``stop(elapsed, queries, passes)``; returns the
    records, the loop's wall time and the number of passes.  A
    ``calibration`` does its work before every query; that time is left out
    of the loop's wall time and of ``Record.loop_s``."""
    records: list[Record] = []
    seen: set[str] = set()
    previous = ""
    n_passes = 0
    wall = 0.0
    for batch in passes:
        for q in batch:
            if calibration is not None:
                calibration.before_query()
            t0 = time.perf_counter()
            argv, key = inputs.resolve(q, previous)
            if workload in LIBRARY_WORKLOADS:
                if tracer is not None:
                    from tracing import set_goal

                    tracer.qid = len(records)
                    set_goal(tracer, argv)
                outcome = call_library(argv)
            elif tracer is not None:
                spans = inputs.dir / f"trace-{len(records)}.json"
                entry = [str(HERE / "child.py"), str(spans), str(len(records))]
                outcome = call_process(argv, entry)
            else:
                outcome = call_process(argv)
            record = Record(q, key, argv, outcome)
            records.append(record)
            previous = outcome.stdout
            if key in seen:
                outcome.stdout = ""  # the checks read the first output of each query only
            seen.add(key)
            record.loop_s = time.perf_counter() - t0
            wall += record.loop_s
        n_passes += 1
        if stop(wall, len(records), n_passes):
            break
    return records, wall, n_passes


def reference_loop() -> float:
    """Seconds for a fixed mix of rational arithmetic and tuple hashing
    that uses no fln code."""
    t = time.perf_counter()
    table = {}
    a = Fraction(1, 3)
    for i in range(1500):
        a = (a + Fraction(i % 7, 11)) / 2 if i % 50 else Fraction(1, 3)
        table[i % 97, (a, i)] = a
    return time.perf_counter() - t


def import_seconds() -> float:
    """Seconds for a fresh interpreter to import fln.cli."""
    p = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise BenchError(f"cannot import fln.cli: {p.stderr.strip().splitlines()[-1:]}")
    return float(p.stdout)


class Calibration:
    """Measurements taken between the queries of the timed loop.

    A shared host runs this benchmark at a speed that other tenants change
    by up to half within seconds, far more than the bounds a later change
    is judged by.  So, with ``reference`` on, a fixed reference loop
    (:func:`reference_loop`, no fln code) is timed before every query, and
    each query's time is divided by its *speed factor*: the median
    reference time of the 11 queries around it over ``REF_NOMINAL_S``.  The
    end-to-end timings are then seconds at the reference speed; the raw
    wall-clock figures go into the run's note.  The ``cli`` workload runs
    its queries in child processes, whose speed this loop does not track
    (its spreads grew when scaled), so it keeps raw wall-clock times.
    About every ``every`` seconds a set-up sample is taken (a fresh
    interpreter imports fln.cli), scaled the same way.
    """

    def __init__(self, every: float, reference: bool) -> None:
        import_seconds()  # warm-up: writes the bytecode cache
        self.every = every
        self.use_reference = reference
        self.reference: list[float] = []
        self.setup: list[tuple[float, int]] = []  # (seconds, index of the query it preceded)
        self.queries = 0
        self.last = float("-inf")

    def before_query(self) -> None:
        if self.use_reference:
            self.reference.append(reference_loop())
        if time.perf_counter() - self.last >= self.every:
            self.setup.append((import_seconds(), self.queries))
            self.last = time.perf_counter()
        self.queries += 1

    def speed(self, i: int) -> float:
        """Speed factor at query ``i``: above 1 while the machine runs slower
        than the reference speed."""
        if not self.use_reference:
            return 1.0
        window = self.reference[max(0, i - 5): i + 6]
        return statistics.median(window) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# Checks, made after the timed loop


def check_records(records: list[Record], expected: dict) -> tuple[list[bool], list[str]]:
    """Per record: did it pass every check?  Also a list of problems."""
    verdict: dict[str, str | None] = {}
    first: dict[str, Record] = {}
    problems: list[str] = []
    oks: list[bool] = []
    for r in records:
        if r.key not in verdict:
            first[r.key] = r
            verdict[r.key] = oracles.check(r.query, r.argv, r.outcome, expected.get(r.key))
        problem = verdict[r.key]
        if problem is None and r.digest != first[r.key].digest:
            problem = "stdout differs between repeats of one query"
        if problem is not None:
            problems.append(f"{r.query.slot} {' '.join(r.query.argv[:1])}: {problem}")
        oks.append(problem is None)
    return oks, problems


# ---------------------------------------------------------------------------
# Set-up time and memory


def import_seconds() -> float:
    """Seconds for a fresh interpreter to import fln.cli."""
    p = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise BenchError(f"cannot import fln.cli: {p.stderr.strip().splitlines()[-1:]}")
    return float(p.stdout)


def import_times() -> dict[str, float]:
    """Median ``-X importtime`` figures: cumulative for fln.cli, self time
    for every fln module."""
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fln.cli"], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True, timeout=60)
        for line in p.stderr.splitlines():
            parts = [x.strip() for x in line.split(":", 1)[-1].split("|")]
            if len(parts) != 3 or not parts[2].startswith("fln"):
                continue
            mod = parts[2]
            if mod == "fln.cli":
                runs.setdefault("cli.import_s", []).append(int(parts[1]) / 1e6)
            if mod.startswith("fln."):
                runs.setdefault(f"{mod[4:]}.import_self_s", []).append(int(parts[0]) / 1e6)
    return {k: statistics.median(v) for k, v in runs.items()}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_note() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


# ---------------------------------------------------------------------------
# Metrics


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def repeat_theory_frac(records: list[Record]) -> float:
    """Share of theory-bearing queries whose theory an earlier query of the
    run already used."""
    seen: set[str] = set()
    repeats = total = 0
    for r in records:
        t = r.query.theory
        if t is None:
            continue
        total += 1
        repeats += t.name in seen
        seen.add(t.name)
    return repeats / total if total else 0.0


def end_to_end(records, oks, speed, setup) -> dict:
    """End-to-end metrics; every time is divided by ``speed(i)``, the speed
    factor at query ``i`` (see :class:`Calibration`)."""
    lat = [r.outcome.seconds / speed(i) for i, r in enumerate(records)]
    busy = sum(r.loop_s / speed(i) for i, r in enumerate(records))
    return {
        "query_p50_s": (statistics.median(lat), "s"),
        "query_p90_s": (p90(lat), "s"),
        "queries_per_s": (len(records) / busy, "1/s"),
        "ok_frac": (sum(oks) / len(oks), "frac"),
        "setup_s": (statistics.median(x / speed(i) for x, i in setup), "s"),
    }


def per_layer(records, traced_wall, untraced_wall, trace_data, imports) -> dict:
    from tracing import Span, self_times

    spans = [Span(**s) for s in trace_data["spans"]]
    counts = trace_data["counts"]
    own = self_times(spans)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + s.calls
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.dur

    def t(name):
        return (own.get(name, 0.0), "s")

    def c(name):
        return (calls.get(name, 0), "count")

    def n(name):
        return (counts.get(name, 0), "count")

    def frac(a, b):
        return (a / b if b else 0.0, "frac")

    prove = [r for r in records if r.query.argv[0] == "prove" and r.head.startswith("BOUND ")]
    nonzero = sum(r.head != "BOUND 0" for r in prove)
    structures = counts.get("semantics.structures_checked", 0)
    sem_time = inclusive.get("semantics.sem_degree", 0.0)
    m = {
        "cli.import_s": (imports.get("cli.import_s", 0.0), "s"),
        "cli.main.s": t("cli.main"),
    }
    for fn in ("parse_theory", "parse_formula", "parse_proof", "parse_hedge_model", "parse_structure",
               "format_proof", "format_structure"):
        m[f"parser.{fn}.s"] = t(f"parser.{fn}")
    m["parser.chars"] = n("parser.chars")
    m.update({
        "syntax.expand.s": t("syntax.expand"),
        "syntax.expand.calls": c("syntax.expand"),
        "syntax.subformula_universe.s": t("syntax.subformula_universe"),
        "syntax.universe_size": n("syntax.universe_size"),
        "syntax.format_formula.s": t("syntax.format_formula"),
        "syntax.format_formula.calls": c("syntax.format_formula"),
        "deduction.saturate.s": t("deduction.saturate"),
        "deduction.saturate.calls": c("deduction.saturate"),
        "deduction.sweeps": n("deduction.sweeps"),
        "deduction.rule_edges": n("deduction.rule_edges"),
        "deduction.lax_grade.s": t("deduction.lax_grade"),
        "deduction.lax_grade.calls": c("deduction.lax_grade"),
        "deduction.extract_proof.s": t("deduction.extract_proof"),
        "deduction.proof_steps": n("deduction.proof_steps"),
        "deduction.check_proof.s": t("deduction.check_proof"),
        "deduction.detect_contradiction.s": t("deduction.detect_contradiction"),
        "deduction.fixpoint_frac": frac(counts.get("deduction.fixpoints", 0), calls.get("deduction.saturate", 0)),
        "deduction.nonzero_bound_frac": frac(nonzero, len(prove)),
        "semantics.sem_degree.s": t("semantics.sem_degree"),
        "semantics.eval_formula.s": t("semantics.eval_formula"),
        "semantics.eval_formula.calls": c("semantics.eval_formula"),
        "semantics.structures_checked": (structures, "count"),
        "semantics.structures_per_s": (structures / sem_time if sem_time else 0.0, "1/s"),
        "semantics.model_frac": frac(counts.get("semantics.models", 0), structures),
        "hedges.validate_axioms.s": t("hedges.validate_axioms"),
        "hedges.validate_axioms.calls": c("hedges.validate_axioms"),
        "hedges.axiom_instances": n("hedges.axiom_instances"),
        "hedges.violations": n("hedges.violations"),
        "hedges.validate_shape.s": t("hedges.validate_shape"),
        "hedges.boundaries.s": t("hedges.boundaries"),
        "mv.ops": n("mv.ops"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
        "trace.queries": (len(records), "count"),
        "trace.query_s": (sum(r.outcome.seconds for r in records), "s"),
        "bench.repeat_theory_frac": (repeat_theory_frac(records), "frac"),
    })
    for mod in MODULES[1:]:
        m[f"{mod}.import_self_s"] = (imports.get(f"{mod}.import_self_s", 0.0), "s")
    return m


# ---------------------------------------------------------------------------
# Driver


def traced_pass(workload: str, batch: list, inputs: Inputs) -> tuple[list[Record], float, dict]:
    """Run one pass with tracing on; return records, wall time and the
    merged span records and counts."""
    from tracing import Tracer

    stop = lambda e, q, n: True  # noqa: E731
    tracer = Tracer()
    if workload in LIBRARY_WORKLOADS:
        tracer.install()
        try:
            records, wall, _ = run_passes(workload, [batch], inputs, stop, tracer)
        finally:
            tracer.restore()
        return records, wall, tracer.dump()
    # Each child process traces its own query (child.py) and writes its spans.
    records, wall, _ = run_passes(workload, [batch], inputs, stop, tracer)
    merged: dict = {"spans": [], "counts": {}}
    for i in range(len(records)):
        path = inputs.dir / f"trace-{i}.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        offset = len(merged["spans"])
        for s in data["spans"]:
            s["sid"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
            merged["spans"].append(s)
        for k, v in data["counts"].items():
            merged["counts"][k] = merged["counts"].get(k, 0) + v
    return records, wall, merged


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "fln" / "cli.py").is_file():
        raise BenchError(f"no fln sources under {SRC}; run from the root of a checkout")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED.name}; run bench/record.py")
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text())
    units = gen.pool(workload)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    inputs = Inputs(workdir)
    try:
        if trace:
            imports = import_times()
            batch = next(gen.passes(units, seed))
            plain, plain_wall, _ = run_passes(workload, [batch], inputs, lambda e, q, n: True)
            records, wall, data = traced_pass(workload, batch, inputs)
            oks, problems = check_records(plain + records, expected)
            metrics = per_layer(records, wall, plain_wall, data, imports)
            shape = {"passes": 1, "queries": len(records), "traced_wall_s": wall,
                     "untraced_wall_s": plain_wall}
        else:
            calibration = Calibration(seconds / SETUP_SAMPLES, reference=workload in LIBRARY_WORKLOADS)
            stop = lambda e, q, n: e >= MAX_LOOP_S or (e >= seconds and q >= MIN_QUERIES)  # noqa: E731
            records, wall, n_passes = run_passes(workload, gen.passes(units, seed), inputs, stop,
                                                 calibration=calibration)
            while len(calibration.setup) < SETUP_SAMPLES:
                calibration.last = float("-inf")
                calibration.before_query()
            rss_probe = peak_rss_mb(workload)
            oks, problems = check_records(records, expected)
            metrics = end_to_end(records, oks, calibration.speed, calibration.setup)
            raw = end_to_end(records, oks, lambda i: 1.0, calibration.setup)
            metrics["peak_rss_mb"] = (rss_probe, "MB")
            lat = [r.outcome.seconds for r in records]
            shape = {"passes": n_passes, "queries": len(records), "timed_wall_s": wall,
                     "latency_samples": len(lat),
                     "samples_above_p90": sum(x > raw["query_p90_s"][0] for x in lat),
                     "setup_samples": len(calibration.setup),
                     "repeat_theory_frac": repeat_theory_frac(records),
                     "speed_factor": statistics.median(calibration.speed(i) for i in range(len(records))),
                     "raw": {k: v for k, (v, _) in raw.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed_records = [r for r, ok in zip(plain + records if trace else records, oks) if not ok]
    unexpected = [r for r in failed_records if not r.query.known_defect]
    note = {"workload": workload, "seed": seed, "trace": int(trace), **shape,
            "failed_frac": len(failed_records) / len(oks),
            "known_defect_failures": len(failed_records) - len(unexpected),
            "problems": sorted(set(problems))[:20], "machine": machine_note()}
    print(json.dumps(note))
    return {
        "correct": not unexpected,
        "attempted": len(oks),
        "failed": len(failed_records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
