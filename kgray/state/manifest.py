"""Checkpoint manifest: per-partition-group lineage records (JSONL).

One record per *completed* partition group (FIXTURES.md F6): input
files, per-stage row counts, output directory, wall time.  A killed run
resumes by skipping groups already recorded — at-least-once semantics
with output isolation per group (each group writes only under its own
``group=<id>/`` directory, so partial runs never interleave).

``run_kg`` streams all of its pending groups through one ordered
Dataset, and :func:`completed_groups` folds that stream's per-slice
counts into records: they commit in stream order, each group once a
row of a later group arrives or the stream ends.  A record's
``wall_sec`` is the time since the previous commit (or since the
stream started), so the group times sum to the stream phase.
"""

from __future__ import annotations

import json
import os

__all__ = ["Manifest", "completed_groups", "GroupOrderError"]


class GroupOrderError(RuntimeError):
    """A stream row belongs to a group that is not planned or has
    already been committed."""


def completed_groups(planned: list, rows):
    """Fold ordered ``{"group", "sentences", "triples"}`` rows into
    completed groups: yield ``(gid, sentences, triples)`` for each id
    of ``planned`` in order — a group as soon as a row of a later group
    arrives, the rest when ``rows`` ends.  A planned group with no rows
    yields zeros.  A row of an earlier (already yielded) or unplanned
    group raises :class:`GroupOrderError`; no count is yielded twice."""
    pos = {gid: i for i, gid in enumerate(planned)}
    i = sentences = triples = 0
    for row in rows:
        j = pos.get(row["group"])
        if j is None or j < i:
            raise GroupOrderError(
                f"a row of group {row['group']!r} is out of stream order: "
                f"the groups still open are {planned[i:]}")
        while i < j:
            yield planned[i], sentences, triples
            i, sentences, triples = i + 1, 0, 0
        sentences += row["sentences"]
        triples += row["triples"]
    while i < len(planned):
        yield planned[i], sentences, triples
        i, sentences, triples = i + 1, 0, 0


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
