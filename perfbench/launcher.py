"""Child-process entry points for the benchmark's CLI workloads.

``python3 perfbench/launcher.py --probe``
    Import qdetnoise the way ``python -m qdetnoise`` does, print ``ready``
    and exit. The benchmark's set-up time is spawn-to-``ready``.

``python3 -X importtime perfbench/launcher.py --trace SPANS OP -- ARGV...``
    Time the import, wrap every layer's public functions, run
    ``qdetnoise.cli.main(ARGV)``, write the spans and the import time to the
    JSON file SPANS, and exit with the command's exit code.

Both need the program's ``src`` directory on ``PYTHONPATH``.
"""

import sys
import time


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        import qdetnoise.__main__  # noqa: F401
        print("ready", flush=True)
        return 0
    if len(sys.argv) < 5 or sys.argv[1] != "--trace" or sys.argv[4] != "--":
        print("usage: launcher.py --probe | --trace SPANS OP -- ARGV...", file=sys.stderr)
        return 2
    spans_path, op, argv = sys.argv[2], int(sys.argv[3]), sys.argv[5:]
    start = time.perf_counter()
    import qdetnoise.__main__  # noqa: F401
    import_s = time.perf_counter() - start

    from tracing import Tracer
    from qdetnoise import cli

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    rc = 1
    try:
        rc = cli.main(argv)
    except SystemExit as exc:      # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path, import_s=import_s, rc=rc)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
