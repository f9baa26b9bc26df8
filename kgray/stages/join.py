"""Distributed large×large equi-join without broadcasting either side.

Same co-location trick as ``stages/aggregate.py``: union both sides
with a side tag, range-partition **sort** on the join key(s) (equal keys
become contiguous), then join per sorted block with a vectorized pandas
merge.  Keys equal to a block's first/last key may continue in a
neighboring block, so their rows are routed to one small driver-side
merge instead (edge rows ≤ 2 keys × blocks).

``on`` may be a single column name or a list of columns (composite
key): the sort runs on the column tuple and run/edge detection ANDs the
per-column equality masks — the same multi-column-sort discipline as
``stages/topk.py:grouped_topk``.

Scale note: the **sorted input** is materialized (it is pinned by the
sort's all-to-all barrier anyway, and bounded by |L|+|R|), never the
join *output* — a many-to-many fact×fact output can be far larger than
its inputs and must stream straight into downstream consumers.  The
materialized sorted blocks are consumed twice zero-copy: once by a
cheap edge-row extraction (key columns only decide the mask) and once
by the streaming interior join.

Null join keys never match (SQL semantics; for a composite key a null
in ANY key column disqualifies the row): for ``how='inner'`` both
sides' null-key rows are dropped; ``how='left'`` emits null-key left
rows with null right columns; ``how='outer'`` additionally emits
null-key right rows with null left columns.

Skew: all rows of one key land in one sort partition — salt hot keys
upstream if a single key's rows exceed a block (same rule as the salted
canonicalization).

For dimension-sized sides prefer the broadcast pattern
(``ray.put`` + dict lookup in ``map_batches``) used throughout
``pipelines/relational/`` — this operator is for the fact×fact case.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._runs import edge_interior_exchange, nullsafe_sort

__all__ = ["sorted_merge_join", "auto_join"]


def _any_null(batch: pa.Table, on: list) -> pa.ChunkedArray:
    """True where ANY key column is null (SQL: the row can't match)."""
    m = pc.is_null(batch.column(on[0]))
    for c in on[1:]:
        m = pc.or_(m, pc.is_null(batch.column(c)))
    return m


def sorted_merge_join(left, right, on, how: str = "inner"):
    """Inner/left/full-outer equi-join of two Datasets on ``on`` — one
    column name or a list (composite key).  (``how="outer"``; a right
    join is ``how="left"`` with the sides swapped.)

    Column sets of left/right must be disjoint apart from ``on``.
    Returns a Dataset with left columns then right columns (minus the
    duplicate keys).
    """
    import ray

    assert how in ("inner", "left", "outer")
    on = [on] if isinstance(on, str) else list(on)
    l_schema = left.schema()
    r_schema = right.schema()
    l_cols = list(l_schema.names)
    r_cols = [c for c in r_schema.names if c not in on]
    overlap = (set(l_cols) - set(on)) & set(r_cols)
    assert not overlap, f"overlapping non-key columns: {overlap}"
    missing = [c for c in on if c not in l_cols or c not in r_schema.names]
    assert not missing, f"join key(s) missing from a side: {missing}"
    out_cols = l_cols + r_cols
    types = {}
    for n, t in zip(l_schema.names, l_schema.types):
        types[n] = t
    for n, t in zip(r_schema.names, r_schema.types):
        types.setdefault(n, t)

    def tag(side_val):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for c in out_cols:
                if c in batch.schema.names:
                    cols[c] = batch.column(c)
                else:
                    cols[c] = pa.nulls(batch.num_rows, type=types[c])
            cols["__side"] = pa.array([side_val] * batch.num_rows, type=pa.int8())
            return pa.table(cols)
        return fn

    n_part = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    unioned = (left.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True)
               .union(right.map_batches(tag(1), batch_format="pyarrow",
                                        zero_copy_batch=True))
               .repartition(n_part))     # bound sort-partition fixed costs

    # Input-sized pin; the join output below streams.  nullsafe_sort:
    # Ray 2.49's range partitioner duplicates/crashes on null key
    # values (see stages/_runs.py) — and it co-locates null-key rows,
    # so their left/outer passthrough happens IN-BLOCK below instead of
    # flooding the driver on null-heavy data.
    sorted_ds = nullsafe_sort(unioned, on).materialize()

    def _edge_mask(batch: pa.Table):
        """Rows whose key tuple equals the block's first or last key
        (they may continue in a neighboring block).  Null comparisons
        fill False — null keys are routed explicitly, never through the
        merge."""
        first_m = None
        last_m = None
        for c in on:
            key = batch.column(c)
            fm = pc.fill_null(pc.equal(key, key[0]), False)
            lm = pc.fill_null(pc.equal(key, key[-1]), False)
            first_m = fm if first_m is None else pc.and_(first_m, fm)
            last_m = lm if last_m is None else pc.and_(last_m, lm)
        return pc.or_(first_m, last_m)

    # Pass 1 (cheap, collects only non-null boundary rows — ≤ 2 keys
    # per block by construction, independent of data size; null-key
    # rows never reach the driver).
    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        mask = pc.and_(_edge_mask(batch),
                       pc.invert(_any_null(batch, on)))
        return batch.filter(mask)

    # Pass 2 (streaming): join interior rows per block; null-key rows
    # resolve HERE too (they never match — no cross-block state needed):
    # left/outer pass the appropriate side through unmatched, inner
    # drops them.  Output is never materialized here.
    def join_interior(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_out(out_cols, types)
        null_mask = _any_null(batch, on)
        keep = pc.and_(pc.invert(_edge_mask(batch)), pc.invert(null_mask))
        interior = batch.filter(keep)
        parts = []
        if interior.num_rows:
            parts.append(_pd_join(interior, on, l_cols, r_cols, types, how))
        if how in ("left", "outer"):
            # null-key left rows survive a SQL left/full join unmatched
            side_mask = pc.equal(batch.column("__side"), 0)
            if how == "outer":
                # null-key right rows survive a full join unmatched too
                # (their left columns are already null padding from tag)
                side_mask = pc.or_(side_mask,
                                   pc.equal(batch.column("__side"), 1))
            nulls = batch.filter(pc.and_(null_mask, side_mask))
            if nulls.num_rows:
                parts.append(nulls.select(out_cols))
        if not parts:
            return _empty_out(out_cols, types)
        return pa.concat_tables(parts, promote_options="permissive")

    def merge(edge_tables) -> pa.Table | None:
        edge_all = pa.concat_tables(edge_tables, promote_options="permissive")
        if edge_all.num_rows == 0:
            return None
        return _pd_join(edge_all, on, l_cols, r_cols, types, how)

    return edge_interior_exchange(sorted_ds, edge_rows, join_interior, merge)


def _empty_out(out_cols, types) -> pa.Table:
    return pa.table({c: pa.array([], type=types[c]) for c in out_cols})


def _pd_join(t: pa.Table, on: list, l_cols, r_cols, types, how: str) -> pa.Table:
    # split sides in Arrow BEFORE pandas so the null padding of the
    # other side never touches a column (ints would degrade to float64
    # and lose exactness past 2^53); after a left merge, unmatched
    # right columns are NaN-filled by pandas, degrading ints to
    # float64 — rebuild every column at its declared Arrow type
    # (from_pandas=True maps NaN back to null)
    side = t.column("__side")
    ldf = t.filter(pc.equal(side, 0)).select(l_cols).to_pandas()
    rdf = t.filter(pc.equal(side, 1)).select(on + r_cols).to_pandas()
    out = ldf.merge(rdf, on=on, how=how)
    cols = l_cols + r_cols
    return pa.table({c: pa.array(out[c], type=types[c], from_pandas=True)
                     for c in cols})


def auto_join(left, right, on, how: str = "inner",
              broadcast_rows: int = 200_000, payload=None):
    """Adaptive join planning — the broadcast-vs-shuffle rule as a
    first-class operator (LSH bucket pairing and verification,
    `dedup._bucket_pairs` / `dedup._verify_pairs`, join through it).

    Counts the right side (metadata-cheap for pure parquet reads); at
    or below ``broadcast_rows`` with a UNIQUE key the right side
    materializes once and broadcasts (`ray.put`, zero shuffle of the
    big side), otherwise — too large, or fan-out duplicate keys — the
    distributed sorted-merge exchange runs.  Composite keys
    (``on=[...]``) always take the sorted-merge exchange (the broadcast
    kernel is single-key).  Both plans are value-identical (pinned by
    test); the threshold is the worker-heap knob: broadcast_rows × row
    width × pool size must fit memory."""
    import ray

    from .broadcast import broadcast_join

    composite = not isinstance(on, str)
    n = right.count()
    if not composite and n <= broadcast_rows:
        tabs = [t for t in ray.get(right.to_arrow_refs()) if t.num_rows]
        if tabs:
            dim = pa.concat_tables(tabs, promote_options="permissive")
        else:
            dim = right.schema().base_schema.empty_table()
        keys = dim.column(on) if dim.num_rows else None
        unique = (dim.num_rows == 0
                  or pc.count_distinct(keys).as_py() == dim.num_rows)
        if unique and how in ("inner", "left"):
            return broadcast_join(left, dim, on=on, how=how,
                                  payload=payload)
    if payload is not None:
        # keep the two plans schema-identical (ADVICE r2): the broadcast
        # path projects right to on+payload, so the shuffle fallback
        # must too — otherwise a dup-key or oversized right side would
        # silently return ALL right columns
        on_list = [on] if isinstance(on, str) else list(on)
        keep = on_list + [c for c in payload if c not in on_list]
        right = right.map_batches(
            lambda b, _k=tuple(keep): b.select(list(_k)),
            batch_format="pyarrow", zero_copy_batch=True)
    return sorted_merge_join(left, right, on=on, how=how)
