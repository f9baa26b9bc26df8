"""Skew-split join: the hot/cold two-plan join for skewed keys.

A sorted-merge (shuffle) join co-locates equal keys in one sort
partition — a key holding 30% of a 100 TB fact table lands 30 TB on a
single node.  The classic mitigation splits the key space:

* **hot keys** (few keys, many rows): their right-side rows broadcast
  (``ray.put`` once); the left side's hot rows join IN-BLOCK with a
  vectorized fan-out (two ``np.searchsorted`` + the position-explode
  trick) — those rows never enter any exchange;
* **cold keys** (the long tail): the normal distributed
  ``sorted_merge_join`` exchange.

The output is the bag-semantics INNER join, value-identical to a plain
``sorted_merge_join`` for ANY hot-key set (the split is a plan choice,
not a semantic one — pinned by test), so hot-key *detection* only needs
to be good, not perfect:

* ``detect="exact"``: one count-aggregate exchange over the left key
  column (distinct-key-sized — tiny next to the row payload join).
  Deterministic H; use when the key column is cheap to re-scan.
* ``detect="sketch"``: per-block Arrow ``value_counts`` keeps only keys
  with ≥ ``sketch_block_min`` rows in that block; partials merge on the
  driver.  Never overcounts; may miss a thinly-spread key (which then
  just takes the cold path).  Zero extra exchange.

Cost note: the left side is scanned twice (hot pass + cold pass) —
Ray Data streams cannot fork into two differently-shaped outputs.  For
a parquet-backed left this is two pruned reads; callers with an
expensive derived left should materialize it first.

No counterpart exists in the reference (it has no joins at all —
SURVEY.md §2.5); this is engine infrastructure for the north rule's
"skew handled explicitly" requirement, the join-side twin of the salted
canonicalization aggregate (`stages/canonical.py`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["skew_split_join"]


def _as_np(col: pa.ChunkedArray) -> np.ndarray:
    return col.combine_chunks().to_numpy(zero_copy_only=False)


def _detect_exact(left, on: str, hot_threshold: int, max_hot_keys: int):
    from .aggregate import sorted_group_aggregate

    def key_ones(b: pa.Table) -> pa.Table:
        return pa.table({on: b.column(on),
                         "n": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    counts = sorted_group_aggregate(
        left.map_batches(key_ones, batch_format="pyarrow",
                         zero_copy_batch=True), [on], [("n", "sum")])

    def keep_hot(b: pa.Table) -> pa.Table:   # vectorized — counts stream
        return b.filter(pc.greater_equal(b.column("n"),
                                         pa.scalar(hot_threshold)))

    hot = counts.map_batches(keep_hot, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    if len(hot) > max_hot_keys:
        raise ValueError(
            f"skew_split_join: {len(hot)} keys exceed hot_threshold="
            f"{hot_threshold} (cap {max_hot_keys}) — raise the threshold")
    return [r[on] for r in hot if r[on] is not None]


def _detect_sketch(left, on: str, hot_threshold: int, max_hot_keys: int,
                   sketch_block_min: int):
    def block_heavy(b: pa.Table) -> pa.Table:
        vc = b.column(on).combine_chunks().value_counts()
        t = pa.table({on: vc.field("values"),
                      "n": pc.cast(vc.field("counts"), pa.int64())})
        return t.filter(pc.greater_equal(t.column("n"),
                                         pa.scalar(sketch_block_min)))

    parts = left.map_batches(block_heavy, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    agg: dict = {}
    for r in parts:
        k = r[on]
        if k is not None:
            agg[k] = agg.get(k, 0) + r["n"]
    hot = [k for k, n in agg.items() if n >= hot_threshold]
    if len(hot) > max_hot_keys:
        raise ValueError(
            f"skew_split_join: sketch found {len(hot)} hot keys "
            f"(cap {max_hot_keys}) — raise the threshold")
    return hot


def skew_split_join(left, right, on: str, hot_threshold: int,
                    detect: str = "exact", max_hot_keys: int = 10_000,
                    max_broadcast: int = 500_000,
                    sketch_block_min: int = 2):
    """Bag-semantics INNER join of ``left`` and ``right`` on the single
    key ``on``, with rows of keys seen ≥ ``hot_threshold`` times on the
    left routed through a broadcast fan-out instead of the shuffle.
    Null keys match nothing (SQL).  Returns a Dataset of left columns +
    right columns minus the key."""
    import ray

    from .join import sorted_merge_join
    from .topk import to_table

    assert detect in ("exact", "sketch")
    hot_keys = (_detect_exact(left, on, hot_threshold, max_hot_keys)
                if detect == "exact"
                else _detect_sketch(left, on, hot_threshold, max_hot_keys,
                                    sketch_block_min))
    if not hot_keys:
        return sorted_merge_join(left, right, on=on)

    # pin the right side: it is consumed TWICE below (hot collect,
    # cold stream) and an unpinned derived right re-executes its whole
    # lineage per consumer (NOTES #61).  Scale tradeoff: the pin costs
    # one object-store copy of the right side (spills past memory);
    # skew_split_join's right is the aggregate/dimension side of a
    # fact×aggregate join by contract (see purchase_value_by_engagement)
    # — for a fact-sized right at 100 TB prefer the plain sorted-merge
    # join, where each side is scanned exactly once.
    right = right.materialize()
    key_type = right.schema().base_schema.field(on).type
    hot_pa = pa.array(hot_keys, type=key_type)

    # ---- right side: hot rows materialize + broadcast, cold rows stream
    def right_hot_rows(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column(on), value_set=hot_pa)
        return b.filter(pc.fill_null(m, False))

    def right_cold_rows(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column(on), value_set=hot_pa)
        return b.filter(pc.invert(pc.fill_null(m, False)))

    right_hot = to_table(right.map_batches(
        right_hot_rows, batch_format="pyarrow", zero_copy_batch=True))
    if right_hot.num_rows == 0:
        right_hot = right.schema().base_schema.empty_table()
    if right_hot.num_rows > max_broadcast:
        raise ValueError(
            f"skew_split_join: {right_hot.num_rows} hot right rows exceed "
            f"max_broadcast={max_broadcast} — the hot side itself is "
            "fact-sized; salt the key instead")
    right_hot = right_hot.take(pc.sort_indices(right_hot.column(on)))
    rh_keys = _as_np(right_hot.column(on))
    payload = [c for c in right_hot.schema.names if c != on]
    pay_types = {c: right_hot.schema.field(c).type for c in payload}
    ref = ray.put((rh_keys, right_hot.select(payload) if payload
                   else right_hot.select([])))

    # ---- hot stream: in-block broadcast fan-out join, zero exchange
    def hot_join(batch: pa.Table) -> pa.Table:
        sk, pay = ray.get(ref)
        m = pc.is_in(batch.column(on), value_set=hot_pa)
        t = batch.filter(pc.fill_null(m, False))
        if t.num_rows == 0 or len(sk) == 0:
            out = t.slice(0, 0)
            cols = {c: out.column(c) for c in out.schema.names}
            for c in payload:
                cols[c] = pa.array([], type=pay_types[c])
            return pa.table(cols)
        k = _as_np(t.column(on))
        lo = np.searchsorted(sk, k, side="left")
        hi = np.searchsorted(sk, k, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        left_idx = np.repeat(np.arange(len(k)), cnt)
        # position-explode: row i contributes right rows lo[i]..hi[i]
        csum = np.cumsum(cnt) - cnt
        right_idx = np.repeat(lo, cnt) + (np.arange(total)
                                          - np.repeat(csum, cnt))
        taken = t.take(pa.array(left_idx, type=pa.int64()))
        cols = {c: taken.column(c) for c in taken.schema.names}
        rtaken = pay.take(pa.array(right_idx, type=pa.int64()))
        for c in payload:
            cols[c] = rtaken.column(c)
        return pa.table(cols)

    hot_stream = left.map_batches(hot_join, batch_format="pyarrow",
                                  zero_copy_batch=True)

    # ---- cold stream: the normal shuffle exchange on the long tail
    def left_cold_rows(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column(on), value_set=hot_pa)
        return b.filter(pc.invert(pc.fill_null(m, False)))

    cold_left = left.map_batches(left_cold_rows, batch_format="pyarrow",
                                 zero_copy_batch=True)
    cold_right = right.map_batches(right_cold_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
    cold_stream = sorted_merge_join(cold_left, cold_right, on=on)
    return hot_stream.union(cold_stream)
