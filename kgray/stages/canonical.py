"""Canonicalization / dedup of linked triples: ONE salted exchange in
the graph sink's own order.

The north rule demands explicit skew mitigation for head entities
("United States" is the object of a large share of all triples).  A
naive ``groupby((subj, pred, obj))`` sends every occurrence of a hot key
to one reducer; here:

1. **combine** — inside ``map_batches`` (large batches so the combiner
   actually compresses), occurrences are pre-aggregated per
   (triple, salt) where ``salt = hash(url) % S``: an Arrow C++ hash
   aggregate (count + MIN url), no per-row Python.  At most S partial
   rows per triple per batch leave the map side, each tagged with the
   sink's ``subj_bucket = polyhash64(subj) % n_buckets``,
2. **sort once** on ``(subj_bucket, subj, pred, obj, salt)``,
   materialized.  The salt is the last sort key, so the range
   partitioner may cut a hot triple's partials between salts: they
   spread over several sorted blocks instead of one reducer,
3. **boundary merge in place** — each sorted block finalizes its
   interior triples.  The triples of its first and last rows may
   continue in a neighbouring block: those rows are reduced to
   (triple, salt) partials (≤ 2 triples × S rows per block) and merged
   on the driver.  A triple that straddles blocks is emitted by the
   first block that holds it; later blocks drop its rows.

So the output blocks are already in ``(subj_bucket, subj, pred, obj)``
order and the graph sink writes them with no further sort.  Step 3 runs
as per-block tasks, outside the returned Dataset's Ray Data lineage.

``support`` is exact.  ``sample_urls`` is the K lexicographically
smallest of the per-salt minimum urls — K distinct urls (a url has one
salt), a pure function of the data: identical across runs, batch
sizes, block boundaries and parallelism.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import polyhash64_batch
from ._runs import run_starts

__all__ = ["combine_triples_batch", "canonical_graph", "merge_partials",
           "GRAPH_SCHEMA", "PARTIAL_SCHEMA", "PARTIAL_VERSION",
           "entity_stats"]

GRAPH_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("support", pa.int64()),
    ("sample_urls", pa.list_(pa.string())),
])

# the map-side partial table; bump PARTIAL_VERSION whenever it changes
# (checkpoints of partials are keyed on it)
PARTIAL_SCHEMA = pa.schema([
    ("subj_bucket", pa.int32()),
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("salt", pa.int64()),
    ("support", pa.int64()),
    ("url_min", pa.string()),
])
PARTIAL_VERSION = 2

_TRIPLE = ["subj", "pred", "obj"]
_KEY = ["subj_bucket"] + _TRIPLE          # one graph row per key
_SORT_KEY = _KEY + ["salt"]

# salt uses its own multiplier so it is independent of the subj bucket
_SALT_MULT = np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)


def combine_triples_batch(batch: pa.Table, n_salts: int = 8,
                          subj_buckets: int = 1) -> pa.Table:
    """Map-side combiner: one partial row per (triple, salt) per batch.

    Fully vectorized — salt via the numpy polynomial hash of ``url``,
    counting + min-url via Arrow's C++ hash aggregate, and the sink's
    ``subj_bucket = polyhash64(subj) % subj_buckets`` (int32)."""
    if batch.num_rows == 0:
        return PARTIAL_SCHEMA.empty_table()
    salt = (polyhash64_batch(batch.column("url"), mult=_SALT_MULT)
            % np.uint64(n_salts)).astype(np.int64)
    g = batch.select(_TRIPLE + ["url"]).append_column(
        "salt", pa.array(salt)).group_by(
        _TRIPLE + ["salt"], use_threads=False).aggregate(
        [("url", "count"), ("url", "min")])
    bucket = (polyhash64_batch(g.column("subj"))
              % np.uint64(subj_buckets)).astype(np.int32)
    return pa.table({"subj_bucket": pa.array(bucket),
                     **{c: g.column(c) for c in _TRIPLE + ["salt"]},
                     "support": pc.cast(g.column("url_count"), pa.int64()),
                     "url_min": g.column("url_min")})


def _key_starts(t: pa.Table) -> np.ndarray:
    """Start rows of the equal-``_KEY`` runs of a table sorted on it."""
    return np.unique(np.concatenate(
        [run_starts(t.column(c)) for c in _KEY]))


def _per_salt(t: pa.Table) -> pa.Table:
    """One partial per (key, salt): support summed, min url."""
    g = t.group_by(_SORT_KEY, use_threads=False).aggregate(
        [("support", "sum"), ("url_min", "min")])
    return pa.table([g.column(c) for c in _SORT_KEY]
                    + [g.column("support_sum"), g.column("url_min_min")],
                    names=_SORT_KEY + ["support", "url_min"])


def _finalize(t: pa.Table, k_urls: int) -> pa.Table:
    """Graph rows (sorted on ``_KEY``) of partials that hold EVERY
    partial of each key present: support summed, ``sample_urls`` = the
    K smallest per-salt minimum urls."""
    g = _per_salt(t).sort_by([(c, "ascending") for c in _KEY + ["url_min"]])
    starts = _key_starts(g)
    counts = np.diff(np.append(starts, g.num_rows))
    rank = np.arange(g.num_rows) - np.repeat(starts, counts)
    offsets = np.concatenate([[0], np.cumsum(np.minimum(counts, k_urls))])
    keys = g.select(_KEY).take(pa.array(starts))
    return pa.table({
        **{c: keys.column(c) for c in _TRIPLE},
        "support": pa.array(np.add.reduceat(g.column("support").to_numpy(),
                                            starts), type=pa.int64()),
        "sample_urls": pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            g.column("url_min").filter(pa.array(rank < k_urls))
            .combine_chunks()),
        "subj_bucket": keys.column("subj_bucket")})


def _edges(t: pa.Table):
    """A sorted block's (first key, last key, (key, salt) partials of
    the rows holding either), or None for an empty block."""
    if t.num_rows == 0:
        return None
    starts = _key_starts(t)
    e = t if len(starts) == 1 else pa.concat_tables(
        [t.slice(0, int(starts[1])), t.slice(int(starts[-1]))])
    ends = t.select(_KEY).take([0, t.num_rows - 1]).to_pylist()
    return tuple(ends[0].values()), tuple(ends[1].values()), _per_salt(e)


def _finish(t: pa.Table, head, tail, k_urls: int, keep_bucket: bool):
    """A sorted block's graph rows: its merged first-key row ``head``
    (or None: an earlier block emits it), its interior keys finalized,
    its merged last-key row ``tail`` (None: same key as ``head``)."""
    starts = _key_starts(t)
    interior = (t.slice(int(starts[1]), int(starts[-1] - starts[1]))
                if len(starts) > 2 else t.slice(0, 0))
    out = pa.concat_tables([p for p in (head, _finalize(interior, k_urls),
                                        tail) if p is not None])
    return out if keep_bucket else out.drop_columns(["subj_bucket"])


def merge_partials(partials_ds, k_urls: int = 5, keep_bucket: bool = False):
    """(triple, salt) partials Dataset (``PARTIAL_SCHEMA``) → graph
    Dataset in ``(subj_bucket, subj, pred, obj)`` order: the one sort
    and the in-place boundary merge (module docstring, steps 2-3).
    ``keep_bucket`` keeps the ``subj_bucket`` column for the sink."""
    refs = partials_ds.sort(_SORT_KEY).materialize().to_arrow_refs()
    return _merge_sorted_blocks(refs, k_urls, keep_bucket)


def _merge_sorted_blocks(refs, k_urls: int, keep_bucket: bool):
    """Step 3 over the block refs of a sort on ``_SORT_KEY``, in block
    order: one edge task and one finish task per block."""
    import ray
    import ray.data as rd

    summaries = ray.get([ray.remote(_edges).remote(r) for r in refs])
    live = [(r, s) for r, s in zip(refs, summaries) if s is not None]
    if not live:                                    # no triples at all
        return rd.from_arrow(_finish(PARTIAL_SCHEMA.empty_table(), None,
                                     None, k_urls, keep_bucket))
    merged = _finalize(pa.concat_tables([s[2] for _, s in live]), k_urls)
    row_of = {tuple(k.values()): i
              for i, k in enumerate(merged.select(_KEY).to_pylist())}
    finish, out, prev_last = ray.remote(_finish), [], None
    for ref, (first, last, _) in live:
        head = merged.slice(row_of[first], 1) if first != prev_last else None
        tail = merged.slice(row_of[last], 1) if last != first else None
        out.append(finish.remote(ref, head, tail, k_urls, keep_bucket))
        prev_last = last
    return rd.from_arrow_refs(out)


def canonical_graph(linked_ds, n_salts: int = 8, k_urls: int = 5,
                    combine_batch_size: int = 65536,
                    subj_buckets: int | None = None):
    """linked triples Dataset → deduped graph Dataset (``GRAPH_SCHEMA``)
    in (subj, pred, obj) order.  With ``subj_buckets`` the rows carry
    the sink's ``subj_bucket`` column and are ordered by it first."""
    partials = linked_ds.map_batches(
        lambda b: combine_triples_batch(b, n_salts, subj_buckets or 1),
        batch_format="pyarrow", batch_size=combine_batch_size)
    return merge_partials(partials, k_urls,
                          keep_bucket=subj_buckets is not None)


def entity_stats(linked_ds, n_salts: int = 16):
    """Per-canonical-entity mention counts (subject + object roles) via
    map-side combine + small groupby — the 'entities' logical table.
    Vectorized: two Arrow C++ hash aggregates per batch (subj role, obj
    role), concatenated as zero-padded partials; no per-row Python."""
    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "canonical_id": pa.array([], type=pa.string()),
                "as_subj": pa.array([], type=pa.int64()),
                "as_obj": pa.array([], type=pa.int64()),
            })
        gs = pa.table({"canonical_id": batch.column("subj")}).group_by(
            ["canonical_id"], use_threads=False).aggregate([([], "count_all")])
        go = pa.table({"canonical_id": batch.column("obj")}).group_by(
            ["canonical_id"], use_threads=False).aggregate([([], "count_all")])
        zs = pa.array(np.zeros(gs.num_rows, dtype=np.int64))
        zo = pa.array(np.zeros(go.num_rows, dtype=np.int64))
        return pa.concat_tables([
            pa.table({"canonical_id": gs.column("canonical_id"),
                      "as_subj": gs.column("count_all"), "as_obj": zs}),
            pa.table({"canonical_id": go.column("canonical_id"),
                      "as_subj": zo, "as_obj": go.column("count_all")}),
        ])

    from .aggregate import sorted_group_aggregate
    combined = linked_ds.map_batches(combine, batch_format="pyarrow",
                                     batch_size=65536)
    return sorted_group_aggregate(combined, "canonical_id",
                                  [("as_subj", "sum"), ("as_obj", "sum")],
                                  precombine=False)
