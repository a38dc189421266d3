"""Run one fln command line with tracing on; the cli workload's traced run.

    python3 bench/child.py SPANFILE QUERY_ID ARG...

Behaves like ``python -m fln ARG...`` (same stdout, stderr and exit code)
and writes the span records and counts to SPANFILE when the command ends.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer, set_goal


def main() -> int:
    spanfile, qid, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    import fln.cli

    tracer = Tracer()
    tracer.qid = qid
    tracer.install()
    try:
        set_goal(tracer, argv)
        return fln.cli.main(argv)
    finally:
        tracer.restore()
        spanfile.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
