"""Checkpoint manifest: per-partition-group lineage records (JSONL).

One record per *completed* partition group (FIXTURES.md F6): input
files, per-stage row counts, output directory, wall time.  A killed run
resumes by skipping groups already recorded — at-least-once semantics
with output isolation per group (each group writes only under its own
``group=<id>/`` directory, so partial runs never interleave).
"""

from __future__ import annotations

import json
import os

__all__ = ["Manifest"]


class Manifest:
    """Append-only JSONL.  A crash mid-append can leave a torn last
    record with no trailing newline, so the bytes after the last
    newline are never a record: :meth:`records` ignores them (that
    group simply reruns) and :meth:`append` cuts them off before
    writing, so they never glue onto the next record.  Any other
    malformed line raises."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def records(self) -> list:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as f:
            lines = f.read().split(b"\n")[:-1]
        return [json.loads(line) for line in lines if line.strip()]

    def done_groups(self) -> set:
        return {r["group_id"] for r in self.records() if r.get("status") == "done"}

    def append(self, record: dict) -> None:
        with open(self.path, "a+b") as f:           # writes go to the end
            f.seek(0)
            f.truncate(f.read().rfind(b"\n") + 1)
            f.write((json.dumps(record, sort_keys=True) + "\n").encode())
            f.flush()
            os.fsync(f.fileno())
