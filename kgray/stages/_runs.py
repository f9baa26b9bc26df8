"""Shared helpers for the sorted-run exchange stages (aggregate, join,
asof, topk, quantile, semijoin): null-safe run boundary detection over
a sorted key column.

``pc.equal``/``pc.not_equal`` return null when either operand is null,
and non-Kleene boolean ops propagate that null straight into a
``Table.filter`` mask, which silently DROPS those positions — the
null-poisoning bug class.  These helpers treat null as a real key value
(SQL GROUP BY / PARTITION BY semantics: one null group) and never
return a null mask.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["run_starts", "edge_mask", "edge_interior_exchange",
           "nullsafe_sort"]

_NN = "__nn_"


def _fill_default(t: pa.DataType):
    """A valid in-domain placeholder for nulls during the sort (the
    value is never observed: the null flag column outranks it and the
    decode step restores the null)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return ""
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return b""
    if pa.types.is_boolean(t):
        return False
    return 0        # ints, floats, timestamps, dates (all numeric-backed)


def nullsafe_sort(ds, keys, descending=False):
    """``ds.sort(keys)`` that never feeds null key values to Ray's range
    partitioner.

    Ray 2.49's sort samples block boundaries and bins rows with
    ``np.searchsorted`` over the RAW key values
    (``ray/data/_internal/util.py:find_partition_index``); a null key
    becomes NaN (numeric: rows silently land in TWO partitions —
    duplicated output rows) or None (strings: ``TypeError: '<' not
    supported``).  Reproduced in tests/test_nullsafe_sort.py.

    Encoding: each key column ``c`` is paired with ``__nn_c`` =
    ``is_null(c)`` as int8 (sorted ascending, so null keys form ONE
    contiguous run at the end — Ray's observed ascending placement and
    DuckDB's default NULLS LAST) and ``c`` itself is null-filled with a
    type default for the sort only; after the sort the flag restores
    the nulls and is dropped.  Value order within the null run follows
    ``descending`` like any other run.  NaN float keys (not null) are
    out of scope — no pipeline sorts on NaN-able keys.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if isinstance(descending, bool):
        desc = [descending] * len(keys)
    else:
        desc = list(descending)
    schema = ds.schema()
    if schema is None:                      # empty dataset: nothing to sort
        return ds
    types = dict(zip(schema.names, schema.types))

    def encode(batch: pa.Table) -> pa.Table:
        cols = {n: batch.column(n) for n in batch.schema.names}
        for k in keys:
            col = batch.column(k)
            cols[_NN + k] = pc.cast(pc.is_null(col), pa.int8())
            cols[k] = pc.fill_null(
                col, pa.scalar(_fill_default(types[k]), type=types[k]))
        return pa.table(cols)

    sort_cols, sort_desc = [], []
    for k, d in zip(keys, desc):
        sort_cols += [_NN + k, k]
        sort_desc += [False, d]

    def decode(batch: pa.Table) -> pa.Table:
        cols = {}
        for n in batch.schema.names:
            if n.startswith(_NN):
                continue
            if n in keys:
                flag = pc.equal(batch.column(_NN + n), 1)
                cols[n] = pc.if_else(
                    flag, pa.scalar(None, type=types[n]), batch.column(n))
            else:
                cols[n] = batch.column(n)
        return pa.table(cols)

    return (ds.map_batches(encode, batch_format="pyarrow",
                           zero_copy_batch=True)
            .sort(sort_cols, descending=sort_desc)
            .map_batches(decode, batch_format="pyarrow",
                         zero_copy_batch=True))


def edge_interior_exchange(srt, edge_fn, interior_fn, merge_fn):
    """The shared tail of every sorted-run exchange stage (aggregate,
    join, semijoin, topk, quantile): consume the materialized sorted
    Dataset ``srt`` twice zero-copy —

    1. ``edge_fn`` per block extracts/reduces boundary-run shipments;
       the non-empty results collect to the driver (bounded by each
       stage's cap/partial contract, never raw run size),
    2. ``interior_fn`` per block resolves complete interior runs and
       STREAMS into downstream consumers,
    3. ``merge_fn(edge_tables)`` resolves the collected boundary
       shipments in one driver-side pass (may return None/empty).

    Returns ``interior ∪ merged`` as a Dataset.
    """
    import ray
    import ray.data as rd

    # Two consumers of the same blocks: the dataset MUST be pinned, or a
    # re-executed upstream sort can split blocks differently between the
    # passes (rows edge in one pass, interior in the other — silently
    # dropped or doubled).  materialize() on an already-materialized
    # dataset is a no-op.
    srt = srt.materialize()
    edge_refs = srt.map_batches(edge_fn, batch_format="pyarrow",
                                zero_copy_batch=True) \
        .materialize().to_arrow_refs()
    edge_tables = [t for t in ray.get(edge_refs) if t.num_rows]
    interior_ds = srt.map_batches(interior_fn, batch_format="pyarrow",
                                  zero_copy_batch=True)
    if not edge_tables:
        return interior_ds
    merged = merge_fn(edge_tables)
    if merged is None or merged.num_rows == 0:
        return interior_ds
    return interior_ds.union(rd.from_arrow(merged))


def run_starts(keys) -> np.ndarray:
    """Start indices of contiguous equal-key runs in a sorted column,
    null-safe: consecutive nulls belong to ONE run (null == null for
    grouping purposes).  Returns an int64 index array; empty input →
    empty array."""
    n = len(keys)
    if n == 0:
        return np.array([], dtype=np.int64)
    a = keys.slice(1, n - 1)
    b = keys.slice(0, n - 1)
    neq = pc.fill_null(pc.not_equal(a, b), False).to_numpy(zero_copy_only=False)
    va = pc.is_valid(a).to_numpy(zero_copy_only=False)
    vb = pc.is_valid(b).to_numpy(zero_copy_only=False)
    change = neq | (va != vb)
    return np.flatnonzero(np.r_[True, change]).astype(np.int64)


def edge_mask(keys) -> pa.Array:
    """Boolean (never-null) mask of rows whose key equals the block's
    first or last key — rows whose run may continue in a neighboring
    block.  Null keys compare equal to null boundary keys."""
    first = keys[0]
    last = keys[len(keys) - 1]

    def _eq(scalar):
        if not scalar.is_valid:
            return pc.is_null(keys)
        return pc.fill_null(pc.equal(keys, scalar), False)

    m = pc.or_(_eq(first), _eq(last))
    return m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m
