#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 ctsperf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `ctsperf` package in release mode, then runs the named workload
in its own process; the last line of standard output is the JSON result.
Without --workload, every workload runs, each in its own process, and a
summary table follows. Run it from the repository root.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["route-scale", "dse-sweep", "service-mix"]


def build():
    """Builds the bench binary; returns its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "ctsperf")
    return binary if os.path.isfile(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    if "--workload" in argv:
        return subprocess.run([binary] + argv).returncode

    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run([binary, "--workload", workload] + argv,
                              stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((workload, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    print(f"\n{'metric':<30}" + "".join(f"{w:>16}" for w, _ in rows) + "  unit")
    for name in names:
        unit = rows[0][1]["metrics"][name]["unit"]
        values = "".join(f"{r['metrics'][name]['value']:>16.6g}" for _, r in rows)
        print(f"{name:<30}{values}  {unit}")
    print(f"{'correct':<30}" + "".join(f"{str(r['correct']):>16}" for _, r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
