"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Run from the root of a source checkout; the smoke runs need ``src/fln`` and
``bench/expected.json``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_queries(workload):
    first = next(gen.passes(gen.pool(workload), 7))
    again = next(gen.passes(gen.pool(workload), 7))
    other = next(gen.passes(gen.pool(workload), 8))
    assert first == again
    assert first != other
    assert sorted(map(repr, first)) == sorted(map(repr, other))  # same pool, another order


def test_pool_has_every_recorded_output(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    inputs = run.Inputs(tmp_path)
    for workload in gen.WORKLOADS:
        for unit in gen.pool(workload):
            for q in unit:
                if q.documented_exit is None and gen.PREVIOUS_PROOF not in q.argv:
                    assert inputs.resolve(q, "")[1] in expected, (workload, q.slot)


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "cli.main", 0, None, 0.0, 10.0, 1, 10.0),
        Span(1, "deduction.saturate", 0, 0, 1.0, 6.0, 2, 4.0),
        Span(2, "parser.parse_theory", 0, 0, 6.5, 9.5, 1, 3.0),
        Span(3, "syntax.expand", 0, 1, 1.5, 5.0, 7, 1.5),
        Span(4, "cli.main", 1, None, 20.0, 22.0, 1, 2.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({
        "cli.main": (10.0 - 4.0 - 3.0) + 2.0,
        "deduction.saturate": 4.0 - 1.5,
        "parser.parse_theory": 3.0,
        "syntax.expand": 1.5,
    })
    assert sum(own.values()) == pytest.approx(12.0)  # self times add up to the roots


def _fln_bindings():
    import fln.cli  # noqa: F401

    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "fln" or name.startswith("fln.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracing_restores_every_function(tmp_path):
    before = _fln_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _fln_bindings()
        assert during["fln.deduction", "expand"] is not before["fln.deduction", "expand"]
        assert during["fln.syntax", "expand"] is during["fln.deduction", "expand"]
        theory = tmp_path / "t.fln"
        theory.write_text("4/5 : P\n9/10 : P -> Q\n")
        outcome = run.call_library(["prove", "--theory", str(theory), "--goal", "Q"])
    finally:
        tracer.restore()
    after = _fln_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert outcome.exit == 0 and outcome.stdout.startswith("BOUND 7/10")
    by_id = {s.sid: s for s in tracer.spans}
    span = next(s for s in tracer.spans if s.name == "deduction.saturate")
    path = [span.name]
    while span.parent is not None:
        span = by_id[span.parent]
        path.append(span.name)
    assert path[-1] == "cli.main" and len(path) > 1
    roots = sum(s.dur for s in tracer.spans if s.parent is None)
    assert sum(self_times(tracer.spans).values()) == pytest.approx(roots)
    assert tracer.counts["deduction.sweeps"] >= 1 and tracer.counts["mv.ops"] > 0


def _small_pool(original):
    def pool(workload):
        units = original(workload)
        if workload == "cli":
            return units[:2] + [u for u in units if u[0].documented_exit is not None]
        return units[:: max(1, len(units) // 4)][:4]
    return pool


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "MIN_QUERIES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(gen, "pool", _small_pool(gen.pool))
    result = run.run(workload, seed=5, seconds=0, trace=bool(trace))
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = gen.pool(workload)
    queries = [q for unit in units for q in unit]
    known = sum(q.known_defect for q in queries) / len(queries)
    assert result["correct"]
    assert result["failed"] / result["attempted"] == pytest.approx(known)
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - known)
    note = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert note["machine"]["nproc"] >= 1


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "deduce", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
