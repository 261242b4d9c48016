"""Run one `ldga` CLI command under tracing, for the traced cli-small run.

usage: python3 perfbench/clichild.py <ldga CLI arguments...>

Behaves like `python -m ldga.cli`; in addition it times the `ldga` import
and every traced entry point, and writes the spans and counters as the last
line of stderr, after `SPANS_MARK`.  Times come from the monotonic clock the
parent benchmark process also reads.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from tracing import SPANS_MARK, Tracer  # noqa: E402  (sibling file; imports no ldga module)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ldga.cli
    with tracer.installed():
        code = ldga.cli.main(argv)
    sys.stdout.flush()
    print(SPANS_MARK + json.dumps({"spans": tracer.spans, "counts": tracer.counts}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
