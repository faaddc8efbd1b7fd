#!/usr/bin/env python3
"""Guard the in-tree bench artifacts (repo-root BENCH_E16–E23.json).

CI regenerates target/BENCH_*.json on every run and copies them to the
repo root; the committed repo-root copies are the tracked perf
trajectory. This check reads the freshly copied repo-root files and
fails when their *deterministic* fields (simulated wall ticks, per-stage
attribution, executing-stage occupancy, storage bytes, WAL/snapshot
record counts, per-swap reports — everything seed-derived) drift from
what is committed at HEAD, meaning the committed artifacts are stale and
must be refreshed with
`cp target/BENCH_E{16,17,18,19,20,21,22,23}.json .` and committed.
Host-dependent timings (elapsed_ms, swaps_per_sec, offers_per_sec,
cycles_per_sec, tx_per_sec, speedup_at_1e5, speedup_vs_fresh,
journal_spread, wal_off_ms, wal_on_ms, wal_overhead, recover_ms,
recovery_speedup, host_parallelism) are ignored, so the check is
reproducible across machines.
"""

import json
import subprocess
import sys

ARTIFACTS = (
    "BENCH_E16.json",
    "BENCH_E17.json",
    "BENCH_E18.json",
    "BENCH_E19.json",
    "BENCH_E20.json",
    "BENCH_E21.json",
    "BENCH_E22.json",
    "BENCH_E23.json",
)
HOST_DEPENDENT = {
    "elapsed_ms",
    "swaps_per_sec",
    "offers_per_sec",
    "cycles_per_sec",
    "tx_per_sec",
    "speedup_at_1e5",
    "speedup_vs_fresh",
    "journal_spread",
    "wal_off_ms",
    "wal_on_ms",
    "wal_overhead",
    "recover_ms",
    "recovery_speedup",
    "host_parallelism",
}


def deterministic(node):
    """Strip host-dependent fields, recursively."""
    if isinstance(node, dict):
        return {k: deterministic(v) for k, v in node.items() if k not in HOST_DEPENDENT}
    if isinstance(node, list):
        return [deterministic(item) for item in node]
    return node


def main():
    ok = True
    for name in ARTIFACTS:
        with open(name) as f:
            fresh = deterministic(json.load(f))
        committed = subprocess.run(
            ["git", "show", f"HEAD:{name}"], capture_output=True, text=True
        )
        if committed.returncode != 0:
            print(f"{name}: not tracked at HEAD — commit the repo-root copy")
            ok = False
            continue
        if deterministic(json.loads(committed.stdout)) != fresh:
            print(f"{name}: deterministic fields drifted — refresh the committed artifact")
            ok = False
        else:
            print(f"{name}: deterministic fields match the committed artifact")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
