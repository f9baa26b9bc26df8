"""Distributed top-k: per group (the ``ROW_NUMBER() OVER (PARTITION BY
g ORDER BY v DESC, tiebreak) ≤ k`` window pattern — Ray Data has no
window functions), global (``ORDER BY ... LIMIT k``) and per query over
a scored scan (:func:`scored_topk`, the plan of every exact retrieval
path).

Same discipline as the other exchange stages: range-partition sort on
``(group, order_col desc, tiebreak asc)`` makes each group's rows a
contiguous run already in rank order; per sorted block every interior
run emits its first k rows with their rank; boundary-key runs (may
continue in a neighboring block) route through one small driver-side
pass.  The sorted input is materialized (pinned by the sort barrier
anyway); the top-k output streams.

Determinism: ``tiebreak`` must be a key unique within its group, so
ranks are total and reproducible (mirrors the SQL oracle's ORDER BY).
Null group keys form ONE group of their own (SQL ``PARTITION BY``
semantics), handled null-safely by the shared run helpers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._runs import edge_interior_exchange, nullsafe_sort
from ._runs import edge_mask as _null_safe_edge_mask
from ._runs import run_starts
from ..functions.veccol import col_vector

__all__ = ["grouped_topk", "global_topk", "row_topk", "scored_topk",
           "to_table"]


def grouped_topk(ds, group: str, order_col: str, tiebreak: str, k: int,
                 descending: bool = True):
    """Top-k rows per ``group`` by ``order_col`` (ties broken by
    ``tiebreak`` ascending), with a 1-based ``rank`` column appended.
    Returns a Dataset with the input columns plus ``rank``.
    """
    import ray

    schema = ds.schema()
    out_cols = list(schema.names) + ["rank"]
    types = dict(zip(schema.names, schema.types))
    types["rank"] = pa.int64()

    n_part = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    srt = nullsafe_sort(ds.repartition(n_part),
                        [group, order_col, tiebreak],
                        descending=[False, descending, False]).materialize()

    def _edge_mask(batch: pa.Table):
        return _null_safe_edge_mask(batch.column(group))

    def _heads(t: pa.Table) -> pa.Table:
        """First k rows (+rank) of each complete group run; rows are
        already in rank order within runs."""
        if t.num_rows == 0:
            return _empty(out_cols, types)
        starts = run_starts(t.column(group))
        ends = np.append(starts[1:], t.num_rows)
        take, ranks = [], []
        for s, e in zip(starts, ends):
            n = min(k, e - s)
            take.append(np.arange(s, s + n))
            ranks.append(np.arange(1, n + 1))
        idx = np.concatenate(take)
        out = t.take(pa.array(idx, type=pa.int64()))
        return out.append_column(
            "rank", pa.array(np.concatenate(ranks), type=pa.int64()))

    def edge_rows(batch: pa.Table) -> pa.Table:
        """Boundary-run rows, capped at k per run per block: blocks are
        in global rank order, so the global first-k of a multi-block run
        is contained in the union of each block's first-k of that run —
        a hot group never ships more than 2k rows per block to the
        driver."""
        if batch.num_rows == 0:
            return batch
        edge = batch.filter(_edge_mask(batch))
        if edge.num_rows == 0:
            return edge
        starts = run_starts(edge.column(group))
        ends = np.append(starts[1:], edge.num_rows)
        take = np.concatenate([np.arange(s, min(s + k, e))
                               for s, e in zip(starts, ends)])
        return edge.take(pa.array(take, type=pa.int64()))

    def interior(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty(out_cols, types)
        return _heads(batch.filter(pc.invert(_edge_mask(batch))))

    def merge(edge_tables) -> pa.Table:
        et = pa.concat_tables(edge_tables, promote_options="permissive")
        idx = pc.sort_indices(et, sort_keys=[
            (group, "ascending"),
            (order_col, "descending" if descending else "ascending"),
            (tiebreak, "ascending")])
        return _heads(et.take(idx))

    return edge_interior_exchange(srt, edge_rows, interior, merge)


def _empty(out_cols, types) -> pa.Table:
    return pa.table({c: pa.array([], type=types[c]) for c in out_cols})


def global_topk(ds, keys, k: int):
    """Distributed GLOBAL top-k: the first ``k`` rows of ``ds`` under the
    total order ``keys = [(col, "ascending"|"descending"), ...]``.

    The scale shape for ``ORDER BY ... LIMIT k`` when k ≪ rows: each
    block ships only its own local top-k (Arrow C++ ``sort_by`` +
    slice — never a Python row loop), so the driver merges at most
    k·n_blocks survivor rows instead of running a full all-to-all sort
    the way ``ds.sort().limit(k)`` would.  ``keys`` must form a total
    order (include a unique tiebreak column) so the result is
    deterministic and matches a SQL ``ORDER BY ... LIMIT k`` oracle
    bit-for-bit.  Nulls sort last (Arrow default) — callers with
    nullable keys should filter or coalesce first if SQL NULLS FIRST
    semantics are needed.

    Returns a ``pyarrow.Table`` (result-sized: ≤ k rows).
    """
    keys = [(c, o) for c, o in keys]

    def _local(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        return b.sort_by(keys).slice(0, k)

    # survivors are ≤ k rows/block — driver merge is result-sized
    top = to_table(ds.map_batches(_local, batch_format="pyarrow",
                                  zero_copy_batch=True))
    if top.num_rows == 0:
        return ds.schema().base_schema.empty_table()
    return top.sort_by(keys).slice(0, k)


def row_topk(S: np.ndarray, ids: np.ndarray, k: int, q_ids=None,
             valid=None, descending: bool = True):
    """Each row's best ``k`` columns of the score matrix ``S``
    (``[queries × candidates]``) by score, ties broken by the column's
    ``ids`` ascending.  Cells where ``valid`` is False are never picked,
    nor, when ``q_ids`` is given, the cell whose column id is the row's
    own query id.  One ``np.lexsort`` along the rows, no per-row Python.

    Returns ``(rows, cols)``: flat indices, row-major, each row's cells
    in rank order."""
    kk = min(k, S.shape[1])
    drop = np.zeros(S.shape, dtype=bool) if valid is None else ~valid
    if q_ids is not None:
        drop |= ids[None, :] == np.asarray(q_ids)[:, None]
    cols = np.lexsort((np.broadcast_to(ids, S.shape), -S if descending else S,
                       drop), axis=1)[:, :kk].reshape(-1)
    rows = np.repeat(np.arange(S.shape[0]), kk)
    keep = ~drop[rows, cols]
    return rows[keep], cols[keep]


def scored_topk(ds, score, k: int, score_col: str,
                descending: bool = True, exclude_self: bool = True):
    """Per-query top-k over a scan: ``score(batch)`` returns ``(q_ids,
    cand, S, valid)`` — the query ids, a table of the batch's candidate
    rows whose FIRST column is the candidate id (the ascending
    tiebreak), their ``[queries × candidates]`` scores and a cell mask
    (or None).  Each batch keeps every query's best k cells through
    :func:`row_topk` (the query's own id skipped when ``exclude_self``);
    the driver sorts the survivors once and ranks each query's first k.
    Survivors are at most k rows per query per batch, so the merge is
    result-sized, as in :func:`global_topk`; a ``groupby`` exchange
    would add a fixed all-to-all to every call.

    Returns a ``pyarrow.Table`` ``(query_id, rank, *cand columns,
    score_col)`` sorted by query and rank."""
    def local(batch: pa.Table) -> pa.Table:
        q_ids, cand, S, valid = score(batch)
        q_ids = np.asarray(q_ids, dtype=np.int64)
        rows, cols = row_topk(S, col_vector(cand.column(0), np.int64), k,
                              q_ids if exclude_self else None, valid,
                              descending)
        out = cand.take(pa.array(cols, type=pa.int64()))
        return (out.add_column(0, "query_id", pa.array(q_ids[rows]))
                   .append_column(score_col, pa.array(S[rows, cols])))

    t = to_table(ds.map_batches(local, batch_format="pyarrow",
                                zero_copy_batch=True))
    t = t.sort_by([("query_id", "ascending"),
                   (score_col, "descending" if descending else "ascending"),
                   (t.column_names[1], "ascending")])
    starts = run_starts(t.column("query_id"))
    rank = np.arange(t.num_rows) + 1 - np.repeat(
        starts, np.diff(np.append(starts, t.num_rows)))
    keep = rank <= k
    return t.filter(keep).add_column(1, "rank", pa.array(rank[keep]))


def to_table(ds) -> pa.Table:
    """A result-sized Dataset as one table, rows in block order.  The
    Dataset is materialized first: a lazy Dataset's ``to_arrow_refs()``
    runs its plan once for the blocks and again for the schema."""
    import ray

    ds = ds.materialize()
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if tabs:
        return pa.concat_tables(tabs, promote_options="permissive")
    schema = ds.schema()
    return schema.base_schema.empty_table() if schema else pa.table({})
