"""Record the SHA-256 of every default-seed CLI artifact in digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose artifacts are the reference. The
traced run reports ``cli.artifact_changed``, the number of default-seed
artifacts whose digest differs from the ones recorded here. Every artifact
must pass its oracle before it is recorded.
"""

import json
import sys

import run
import workloads


def main() -> int:
    q = run.load_program()
    digests = {}
    for name in ("cli-small", "cli-bulk"):
        with run.workspace(name) as workdir:
            bench = run.CliBench(q, name, workloads.DEFAULT_SEED, 0.0, False, workdir)
            cycle = workloads.build(name, workloads.DEFAULT_SEED)
            bench.write_inputs(cycle)
            with bench.spawning():
                recs = [bench.cli_op(op, cycle.seed) for op in cycle.ops]
        failed = [r for r in recs if not r["ok"]]
        if failed:
            for rec in failed:
                print(f"FAIL {name} {rec['key']}: {rec['reason']}", file=sys.stderr)
            return 1
        digests[name] = {rec["key"]: rec["digest"] for rec in recs}
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
