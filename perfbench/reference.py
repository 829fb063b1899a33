"""A fixed reference task that times the machine, not the program.

``python3 perfbench/reference.py ROWS SOLVES``
    Import numpy and the scipy modules qdetnoise imports, run
    ``kernel(ROWS, SOLVES)`` and exit. The CLI workloads time this process
    from spawn to exit, just as they time a ``python -m qdetnoise`` process.

The lib-network worker calls ``kernel`` in-process. The benchmark times the
reference next to every operation. On a shared host whose speed swings for
a minute at a time, the ratio of operation time to reference time stays
steady where either time alone does not. Nothing here imports qdetnoise, so
no change to the program changes the reference.
"""

import json
import sys

import numpy as np

MODES = 16


def kernel(rows: int, solves: int) -> float:
    """The work the program's layers do, at a fixed size: format a table of
    floats as CSV text and parse it back, encode it as JSON (the CLI's
    writers and readers), and solve a batch of 16-mode complex linear
    systems (the engine's resolvent). Returns a checksum."""
    rng = np.random.default_rng(20160509)
    table = rng.normal(size=(rows, 8))
    text = "\n".join(",".join(repr(v) for v in row) for row in table.tolist())
    parsed = [[float(x) for x in line.split(",")] for line in text.splitlines()]
    size = len(json.dumps(parsed))
    eye = np.eye(MODES)
    a = rng.normal(size=(solves, MODES, MODES)) + 1j * rng.normal(size=(solves, MODES, MODES))
    a += 2.0 * MODES * eye
    x = np.linalg.solve(a, np.broadcast_to(eye, a.shape))
    return float(size + np.abs(x).sum())


def main() -> int:
    rows, solves = int(sys.argv[1]), int(sys.argv[2])
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    kernel(rows, solves)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
