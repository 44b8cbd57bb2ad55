"""Expected answers for a list of operations, computed in a process of its own.

Reads the operations as JSON on stdin and writes one expected answer per
operation as a JSON list on stdout.  run.py calls it before timing, so the
oracles' time and memory stay out of the measured process.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    ops = json.load(sys.stdin)
    try:
        st = workloads.load_snowteam()
    except workloads.CheckoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    json.dump([workloads.expected_answer(op, st) for op in ops], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
