"""Distributed large×large semi-join / anti-join (SQL EXISTS /
NOT EXISTS) without broadcasting either side.

The right side is projected to per-batch DISTINCT keys before the
exchange, so shuffle volume is the right side's key cardinality, not
its row count.  Then the usual co-location discipline: union both
sides (left rows + right key markers) with a side tag, range-partition
sort on the key, and per sorted block each interior key run keeps /
drops its left rows depending on whether the run contains a right
marker; boundary-key runs route through one small driver pass.

Null keys follow SQL EXISTS semantics: a null key matches nothing, so
semi drops null-key left rows and anti keeps them.

For dimension-sized right sides prefer the broadcast filter pattern
(collect distinct keys, ``ray.put``, ``np.isin`` inside
``map_batches``) — this operator is for the fact×fact case.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._runs import edge_interior_exchange, nullsafe_sort

__all__ = ["semi_join"]

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)


def _bloom_positions(keys: pa.Array, m_bits: int):
    """Two deterministic bit positions per non-null key (splitmix-style
    mixes of the 64-bit key image).  String keys hash via Arrow's
    binary view bytes → int64 fallback (python hashless, stable)."""
    import pyarrow.compute as _pc
    k = _pc.drop_null(keys)
    if len(k) == 0:
        return np.array([], dtype=np.int64)
    if pa.types.is_integer(k.type):
        v = k.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        # stable 64-bit image of arbitrary values
        import hashlib
        v = np.array([int.from_bytes(
            hashlib.md5(str(x).encode("utf-8")).digest()[:8], "little")
            for x in k.to_pylist()], dtype=np.uint64)
    with np.errstate(over="ignore"):
        h1 = (v * _MIX1) ^ (v >> np.uint64(31))
        h2 = (v * _MIX2) ^ (v >> np.uint64(29))
    m = np.uint64(m_bits)
    return np.concatenate([(h1 % m).astype(np.int64),
                           (h2 % m).astype(np.int64)])


def _build_bloom(right, on: str, m_bits: int):
    """Tree-reduced bloom bitset of the right side's keys: per-block
    packed bitsets OR-merged by remote tasks (fan-in 8), so the driver
    receives ONE m_bits/8-byte array regardless of block count."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(m_bits, dtype=bool)
        pos = _bloom_positions(batch.column(on), m_bits)
        bits[pos] = True
        return pa.table({"b": pa.array([np.packbits(bits).tobytes()],
                                       type=pa.binary())})

    refs = (right.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
            .materialize().to_arrow_refs())

    @ray.remote
    def or_merge(*tabs):
        acc = None
        for t in tabs:
            if t.num_rows == 0 or "b" not in t.column_names:
                continue                 # Ray emits empty-schema blocks
            for buf in t.column("b").to_pylist():
                a = np.frombuffer(buf, dtype=np.uint8)
                acc = a.copy() if acc is None else (acc | a)
        if acc is None:
            acc = np.zeros(m_bits // 8, dtype=np.uint8)
        return pa.table({"b": pa.array([acc.tobytes()], type=pa.binary())})

    while len(refs) > 1:
        refs = [or_merge.remote(*refs[i:i + 8])
                for i in range(0, len(refs), 8)]
    t = ray.get(refs[0])
    return np.unpackbits(
        np.frombuffer(t.column("b")[0].as_py(), dtype=np.uint8)).astype(bool)


def semi_join(left, right, on: str, anti: bool = False,
              bloom_bits: int | None = None):
    """Left rows whose key exists in ``right`` (``anti=False``) or does
    not (``anti=True``).  Returns a Dataset with the left columns.

    ``bloom_bits`` (e.g. ``1 << 23`` ≈ 1 MiB) enables an EXACTNESS-
    PRESERVING bloom pre-filter: a tree-reduced bitset of right keys is
    broadcast and left rows whose key is bloom-negative (definitely
    absent from right) short-circuit BEFORE the shuffle — dropped for
    semi, emitted directly for anti.  Only bloom-positive rows (true
    matches + false positives) pay the exchange, cutting the left
    shuffle volume by the join selectivity at 100-TB scale."""
    import ray

    l_schema = left.schema()
    l_cols = list(l_schema.names)
    types = dict(zip(l_schema.names, l_schema.types))

    bypass = None
    if bloom_bits is not None:
        bloom_ref = ray.put(_build_bloom(right, on, bloom_bits))

        def _masks(batch: pa.Table):
            """(bloom_positive, null_key) bool masks for a batch."""
            bits = ray.get(bloom_ref)
            keys = batch.column(on)
            nullm = pc.is_null(keys).to_numpy(zero_copy_only=False)
            posm = np.zeros(batch.num_rows, dtype=bool)
            nn = np.flatnonzero(~nullm)
            if len(nn):
                p = _bloom_positions(keys, bloom_bits)
                k = len(nn)
                posm[nn] = bits[p[:k]] & bits[p[k:]]
            return posm, nullm

        if anti:
            # bloom-negative non-null keys are DEFINITE keeps: emit them
            # directly; only positives (+ nulls, always kept) pay the
            # exchange.  The left read runs twice (pruned parquet scan —
            # cheap) to keep both streams lazy.
            bypass = left.map_batches(
                lambda b: b.filter(pa.array(~np.logical_or(*_masks(b))))
                           .select(l_cols),
                batch_format="pyarrow", zero_copy_batch=True)
            left = left.map_batches(
                lambda b: b.filter(pa.array(np.logical_or(*_masks(b)))),
                batch_format="pyarrow", zero_copy_batch=True)
        else:
            # bloom-negative keys cannot match; null keys never match
            left = left.map_batches(
                lambda b: b.filter(pa.array(_masks(b)[0])),
                batch_format="pyarrow", zero_copy_batch=True)

    def tag_left(batch: pa.Table) -> pa.Table:
        return batch.select(l_cols).append_column(
            "__side", pa.array(np.zeros(batch.num_rows, dtype=np.int8)))

    def right_keys(batch: pa.Table) -> pa.Table:
        # distinct non-null keys per batch — the only right bytes shuffled
        k = pc.unique(pc.drop_null(batch.column(on)))
        t = pa.table({on: k})
        for c in l_cols:
            if c != on:
                t = t.append_column(c, pa.nulls(len(k), type=types[c]))
        return t.select(l_cols).append_column(
            "__side", pa.array(np.ones(len(k), dtype=np.int8)))

    n_part = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)
    unioned = (left.map_batches(tag_left, batch_format="pyarrow",
                                zero_copy_batch=True)
               .union(right.map_batches(right_keys, batch_format="pyarrow",
                                        zero_copy_batch=True))
               .repartition(n_part))
    srt = nullsafe_sort(unioned, on).materialize()

    def _edge_mask(batch: pa.Table):
        k = batch.column(on)
        m = pc.or_kleene(pc.equal(k, k[0]), pc.equal(k, k[-1]))
        return pc.fill_null(m, False)

    def _filter_runs(t: pa.Table) -> pa.Table:
        """Keep left rows of complete runs by EXISTS(run has a right
        marker) XOR anti; null-key left rows are kept only for anti."""
        if t.num_rows == 0:
            return t.select(l_cols)
        keys = t.column(on)
        side = t.column("__side").to_numpy(zero_copy_only=False)
        null_mask = pc.is_null(keys).to_numpy(zero_copy_only=False)
        # run boundaries computed Arrow-side (no numpy dtype degradation
        # for nullable int keys); null != null → True, which only splits
        # null rows into their own runs — harmless, they are routed by
        # null_mask, not by run membership
        n = len(keys)
        neq = pc.fill_null(pc.not_equal(keys.slice(1, n - 1),
                                        keys.slice(0, n - 1)), True) \
            .to_numpy(zero_copy_only=False)
        change = np.r_[True, neq]
        run_id = np.cumsum(change) - 1
        has_right = np.zeros(run_id[-1] + 1, dtype=bool)
        np.maximum.at(has_right, run_id, side == 1)
        exists = has_right[run_id]
        keep = (side == 0) & ~null_mask & (exists != anti)
        if anti:
            keep |= (side == 0) & null_mask
        return t.filter(pa.array(keep)).select(l_cols)

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return batch.filter(pc.or_(_edge_mask(batch),
                                   pc.is_null(batch.column(on))))

    def interior(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(l_cols)
        keep = pc.and_(pc.invert(_edge_mask(batch)),
                       pc.invert(pc.is_null(batch.column(on))))
        return _filter_runs(batch.filter(keep))

    def merge(edge_tables) -> pa.Table:
        et = pa.concat_tables(edge_tables, promote_options="permissive")
        idx = pc.sort_indices(et, sort_keys=[(on, "ascending")])
        return _filter_runs(et.take(idx))

    out = edge_interior_exchange(srt, edge_rows, interior, merge)
    return out.union(bypass) if bypass is not None else out
