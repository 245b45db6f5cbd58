"""Write bench/goldens.json: exit code and stdout digest of every command.

    python3 bench/capture_goldens.py

Runs each workload once at the default seed, untraced, and records each
command's exit code and SHA-256 of stdout.  It refuses to write when a
command fails its seed-independent invariants.  Goldens are the fixed
reference: capture them only from a commit whose outputs are known good.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    goldens = {}
    for name, build in workloads.WORKLOADS.items():
        commands = build(workloads.DEFAULT_SEED)
        result = run.run_workload(commands, 0, False, goldens={})
        for command, (sample,) in zip(commands, result.plain):
            if not sample.ok:
                print(f"{name}: {command.key}: {'; '.join(sample.problems)}",
                      file=sys.stderr)
                return 1
            goldens[command.golden_key] = {
                "exit": 0, "sha256": workloads.digest(sample.stdout),
                "bytes": len(sample.stdout)}
            print(f"{name}: {command.key[:60]} {sample.report['wall']:.2f} s")
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
