#!/usr/bin/env python3
"""Compare two benchmark artifacts metric by metric.

    python3 perfbench/compare.py .bench_work/artifacts/A.json .bench_work/artifacts/B.json

Refuses (exit 2) when the artifacts were taken on different core counts
or Ray CPU counts, or on different workloads: such numbers are not like
with like.  Prints each metric of A and B with B's change relative to A.
"""

from __future__ import annotations

import json
import sys

_MUST_MATCH = ("cores", "ray_cpus", "workload", "trace")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(p)) for p in argv)
    for key in _MUST_MATCH:
        if a.get(key) != b.get(key):
            print(f"refusing to compare: {key} is {a.get(key)!r} in {argv[0]} "
                  f"and {b.get(key)!r} in {argv[1]}", file=sys.stderr)
            return 2
    for side, art in (("A", a), ("B", b)):
        print(f"{side}: sha {art.get('git_sha') or '-'} source {art.get('source_sha')} "
              f"seed {art.get('seed')} cores {art.get('cores')} ray_cpus {art.get('ray_cpus')} "
              f"loadavg {art['stamp_start']['loadavg'][0]:.2f}->{art['stamp_end']['loadavg'][0]:.2f}")
    ma, mb = a["all_metrics"], b["all_metrics"]
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name), mb.get(name)
        delta = f"{(vb - va) / va:+.1%}" if va and vb is not None else ""
        print(f"{name:50s} {va!s:>22} {vb!s:>22} {delta:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
