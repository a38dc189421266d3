"""Record the expected exit code and stdout of every query the benchmark
can ask, into ``expected.json``.

    python3 bench/record.py

Run it from the root of a source checkout after a change to ``gen.py``,
never to make a changed program pass.  Each recorded output must pass the
oracles in ``oracles.py`` first; library queries run in process, ``cli``
queries in a fresh ``python -m fln``.
"""

import json
import sys

import gen
import oracles
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected: dict[str, list] = {}
    inputs = run.Inputs(run.ROOT / ".bench_work" / "record")
    bad = 0
    for workload in gen.WORKLOADS:
        for unit in gen.pool(workload):
            previous = ""
            for q in unit:
                argv, key = inputs.resolve(q, previous)
                if workload in run.LIBRARY_WORKLOADS:
                    outcome = run.call_library(argv)
                else:
                    outcome = run.call_process(argv)
                previous = outcome.stdout
                if q.documented_exit is None:
                    expected[key] = [outcome.exit, oracles.digest(outcome.stdout)]
                problem = oracles.check(q, argv, outcome, expected.get(key))
                if problem and not q.known_defect:
                    bad += 1
                    print(f"{workload} {q.slot} {argv[0]}: {problem}", file=sys.stderr)
        print(f"{workload}: {len(expected)} outputs recorded so far", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
