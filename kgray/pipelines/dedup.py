"""Deduplication operators: exact, MinHash+LSH, SimHash, shingle-Jaccard,
embedding-cosine near-dup.

Scale notes (the 100 TB story):
* exact dedup: map-side partial per content hash, then one small
  groupby — rows leaving the map side ≈ distinct hashes per batch.
* MinHash-LSH: signatures per batch (vectorized universal hashing) →
  explode to (band, band_hash) rows → distributed bucket pairing
  (:func:`_bucket_pairs` — per-run pairing below the bucket-size cap,
  min-id star above it) → exact-Jaccard verify.  Only bucketed
  candidates are verified; the all-pairs verify exists separately as
  the small-scale oracle path.
* SimHash: 64-bit signature per doc; Hamming-≤d candidates via the
  pigeonhole chunk trick (d+1 chunks, same bucket pairing).
* embedding near-dup: block-wise cosine against a broadcast normalized
  matrix (numpy matmul per batch, no pairwise shuffle); hyperplane-LSH
  twin for the scale path.
* the candidate-pair tail runs one plan for the whole LSH family:
  bucket pairing (:func:`_bucket_pairs`) and verification
  (:func:`_verify_pairs`) join through ``stages.join.auto_join``
  (broadcast at or below ``_BUCKET_BROADCAST_MAX`` bucket keys /
  ``_VERIFY_BROADCAST_MAX`` feature rows, sorted-merge above), and
  pairs repeated across bands collapse in a
  ``stages.propagate.EdgeIndex``.  Each metric (Jaccard, Hamming,
  cosine) supplies only its vectorized per-batch check.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..functions.veccol import (col_vector, list_col_matrix,
                                 matrix_to_list_col)

from ..functions.hashing import stable_hash64

__all__ = ["exact_dedup", "shingle_set", "jaccard_pairs_bruteforce",
           "minhash_signatures", "minhash_lsh_pairs", "simhash64",
           "simhash_signatures", "simhash_pairs", "embedding_neardup_pairs",
           "embedding_lsh_pairs", "dedup_lines", "dedup_lines_ds",
           "incremental_dedup", "semantic_dedup"]

_WS = re.compile(r"\s+")
_MERSENNE = (1 << 61) - 1

# auto_join broadcast limits: bucket pairing broadcasts at or below
# this many multi-member bucket keys (32 MB of int64 (key, size) rows)...
_BUCKET_BROADCAST_MAX = 2_000_000
# ...and verification at or below this many candidate feature rows
# (the join fixed costs, ~2 sorts per side, dominate small inputs)
_VERIFY_BROADCAST_MAX = 50_000


def _tokens(text: str) -> list:
    t = text.strip()
    return _WS.split(t) if t else []


# --------------------------------------------------------------------------- exact


def exact_dedup(sf_dir: str):
    """text_hash, keep_doc_id (min), n_copies — hash-partitioned exact
    dedup with map-side combine."""
    def partial(batch: pa.Table) -> pa.Table:
        acc: dict = {}
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            h = hashlib.md5(t.encode("utf-8")).hexdigest()
            hit = acc.get(h)
            if hit is None:
                acc[h] = [did, 1]
            else:
                hit[0] = min(hit[0], did)
                hit[1] += 1
        return pa.table({
            "text_hash": pa.array(list(acc.keys()), type=pa.string()),
            "keep_doc_id": pa.array([v[0] for v in acc.values()], type=pa.int64()),
            "n_copies": pa.array([v[1] for v in acc.values()], type=pa.int64()),
        })

    from ..stages.aggregate import sorted_group_aggregate
    combined = (rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
                .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True))
    return sorted_group_aggregate(combined, "text_hash",
                                  [("keep_doc_id", "min"), ("n_copies", "sum")],
                                  precombine=False)


def softdedup_weights(sf_dir: str):
    """Soft deduplication (keep every copy, downweight duplicates):
    per-document sampling weight ``1e6 // n_copies`` ppm of a unique
    document's weight, where ``n_copies`` counts exact text duplicates
    corpus-wide — the reweight-instead-of-drop alternative to
    :func:`exact_dedup` (common-crawl pipelines use it when removal
    would bias topical coverage).  Plan: the exact-dedup count
    aggregate on the md5 text hash, then ONE sorted-merge join back to
    the doc stream on the hash — all hash-/doc-sized, no broadcast of
    anything corpus-sized.  SQL-oracled (COUNT(*) OVER the text
    partition)."""
    import pyarrow.compute as pc

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def keyed(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text_hash": pa.array(h, type=pa.string())})

    docs = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(keyed, batch_format="pyarrow",
                         zero_copy_batch=True)).materialize()
    counts = sorted_group_aggregate(
        docs.map_batches(lambda b: pa.table({
            "text_hash": b.column("text_hash"),
            "n_copies": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "text_hash", [("n_copies", "sum")], precombine=True)
    joined = sorted_merge_join(docs, counts, on="text_hash")
    return joined.map_batches(lambda b: pa.table({
        "doc_id": b.column("doc_id"),
        "n_copies": b.column("n_copies"),
        "weight_ppm": pc.divide(pa.scalar(1_000_000, type=pa.int64()),
                                b.column("n_copies"))}),
        batch_format="pyarrow").sort("doc_id")


def dup_count_histogram(sf_dir: str):
    """Corpus duplication profile: for each exact-duplicate multiplicity
    ``n_copies``, how many distinct texts have it and how many document
    rows they account for — the dedup audit chart (what fraction of the
    corpus is boilerplate?) every curation run draws before choosing
    drop-vs-downweight (:func:`exact_dedup` vs
    :func:`softdedup_weights`).  Two integer aggregates (hash counts →
    multiplicity histogram); SQL-oracled bitwise."""
    from ..stages.aggregate import sorted_group_aggregate

    counts = exact_dedup(sf_dir)
    return sorted_group_aggregate(
        counts.map_batches(lambda b: pa.table({
            "n_copies": b.column("n_copies"),
            "n_texts": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_docs": b.column("n_copies")}),
            batch_format="pyarrow", zero_copy_batch=True),
        "n_copies", [("n_texts", "sum"), ("n_docs", "sum")],
        precombine=True).sort("n_copies")


# --------------------------------------------------------------------------- shingles / jaccard


def shingle_set(tokens: list, k: int = 3) -> set:
    """k-token shingles; docs shorter than k shingle to nothing (the
    SQL oracle filters those too)."""
    return {" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def jaccard_pairs_bruteforce(sf_dir: str, threshold: float = 0.5, k: int = 3):
    """All-pairs exact shingle-Jaccard ≥ threshold → (doc_a, doc_b).

    O(n²) verify — the small-scale oracle path (SQL-checkable); the
    scale path is :func:`minhash_lsh_pairs`.  Shingle sets are collected
    distributed (per-batch), only the pair loop runs on the driver.
    """
    def to_shingles(batch: pa.Table) -> pa.Table:
        ids, sh = [], []
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < k:
                continue
            ids.append(did)
            sh.append(sorted(shingle_set(toks, k)))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "shingles": pa.array(sh, type=pa.list_(pa.string()))})

    shingles_ds = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text"])
                   .map_batches(to_shingles, batch_format="pyarrow",
                                zero_copy_batch=True)
                   .materialize())
    # broadcast the full shingle table once; each task pairs its batch's
    # docs against every doc with a greater id (each pair computed once)
    all_rows = sorted((r["doc_id"], frozenset(r["shingles"]))
                      for r in shingles_ds.take_all())
    all_ref = ray.put(all_rows)

    def pair_batch(batch: pa.Table) -> pa.Table:
        docs = ray.get(all_ref)
        by_id = dict(docs)
        out_a, out_b = [], []
        for did in batch.column("doc_id").to_pylist():
            sa = by_id[did]
            for ib, sb in docs:
                if ib <= did:
                    continue
                inter = len(sa & sb)
                if inter and inter / (len(sa) + len(sb) - inter) >= threshold:
                    out_a.append(did)
                    out_b.append(ib)
        return pa.table({"doc_a": pa.array(out_a, type=pa.int64()),
                         "doc_b": pa.array(out_b, type=pa.int64())})

    pairs = shingles_ds.map_batches(pair_batch, batch_format="pyarrow").take_all()
    pairs = sorted((r["doc_a"], r["doc_b"]) for r in pairs)
    return pa.table({"doc_a": pa.array([a for a, _ in pairs], type=pa.int64()),
                     "doc_b": pa.array([b for _, b in pairs], type=pa.int64())})


def _mixed_key(batch: pa.Table, bucket_cols: list) -> np.ndarray:
    """Mix the bucket-key columns into one uint64 per row (vectorized):
    the bucket join key, where a (astronomically rare) 64-bit collision
    merely merges two buckets' rows into extra candidate pairs that
    downstream exact verification discards."""
    acc = np.zeros(batch.num_rows, dtype=np.uint64)
    for c in bucket_cols:
        v = batch.column(c).to_numpy(zero_copy_only=False).astype(np.uint64)
        acc = (acc * np.uint64(0x9E3779B97F4A7C15)) ^ (v * np.uint64(0xBF58476D1CE4E5B9))
    return acc


def _run_bounds(batch: pa.Table, cols: list) -> np.ndarray:
    """Start indices of contiguous equal-key runs (sorted input)."""
    change = np.zeros(batch.num_rows, dtype=bool)
    for c in cols:
        v = batch.column(c).to_numpy(zero_copy_only=False)
        change[1:] |= v[1:] != v[:-1]
    change[0] = True
    return np.flatnonzero(change)


def _pairs_of(ids: np.ndarray):
    ids = np.unique(ids)
    if ids.size < 2:
        return None
    ia, ib = np.triu_indices(ids.size, k=1)
    return ids[ia], ids[ib]


def _sorted_run_pairs(srt, cols: list, id_col: str, parts: list) -> None:
    """Pair contiguous equal-key runs of a key-sorted Dataset: interior
    runs vectorized per block (streaming), boundary runs through one
    small driver pass (≤ 2 runs × run length per block — block-count-,
    not data-sized).  Appends the pair Datasets to ``parts``."""

    def interior_pairs(batch: pa.Table) -> pa.Table:
        out_a, out_b = [], []
        if batch.num_rows:
            starts = _run_bounds(batch, cols)
            ends = np.append(starts[1:], batch.num_rows)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            for s, e in zip(starts, ends):
                if s == 0 or e == batch.num_rows:
                    continue                      # boundary run → edge pass
                p = _pairs_of(ids[s:e])
                if p is not None:
                    out_a.append(p[0])
                    out_b.append(p[1])
        a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        return pa.table({"id_a": pa.array(a, type=pa.int64()),
                         "id_b": pa.array(b, type=pa.int64())})

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        starts = _run_bounds(batch, cols)
        ends = np.append(starts[1:], batch.num_rows)
        mask = np.zeros(batch.num_rows, dtype=bool)
        for s, e in zip(starts, ends):
            if s == 0 or e == batch.num_rows:
                mask[s:e] = True
        return batch.filter(pa.array(mask))

    edge_tables = [t for t in ray.get(
        srt.map_batches(edge_rows, batch_format="pyarrow",
                        zero_copy_batch=True).materialize().to_arrow_refs())
        if t.num_rows and cols[0] in t.schema.names]
    parts.append(srt.map_batches(interior_pairs, batch_format="pyarrow",
                                 zero_copy_batch=True))
    if edge_tables:
        et = pa.concat_tables(edge_tables)
        idx = pa.compute.sort_indices(
            et, sort_keys=[(c, "ascending") for c in cols])
        et = et.take(idx)
        pe = interior_pairs_driver(
            et, cols, id_col, lambda b: _run_bounds(b, cols), _pairs_of)
        if pe.num_rows:
            parts.append(rd.from_arrow(pe))


def _bucket_pairs(ds, bucket_cols: list, id_col: str, max_bucket: int = 512):
    """Distributed candidate id pairs from LSH-style buckets.

    Returns the DISTINCT pairs (``src`` < ``dst``) as a
    :class:`~kgray.stages.propagate.EdgeIndex`, whose ``nodes`` are the
    sorted candidate ids.  No bucket's member rows are ever paired on
    the driver:

    1. bucket sizes via per-block Arrow combine + ``sorted_group_aggregate``,
       kept for buckets of 2+ members under one mixed 64-bit key
       ``__bkey``;
    2. rows meet those sizes in one ``auto_join`` on ``__bkey``
       (broadcast at or below ``_BUCKET_BROADCAST_MAX`` bucket keys,
       sorted-merge above, so the driver never holds more than that);
    3. rows of buckets with 2..max_bucket members are co-located with a
       sort on ``__bkey`` and paired per contiguous run inside each
       block — runs touching a block boundary go through one small
       driver-side pass (≤ 2 buckets × max_bucket rows per block);
    4. **degenerate buckets** (> max_bucket members — boilerplate-heavy
       web corpora) emit a min-id *star* (anchor—member edges, O(n) not
       O(n²)), the anchor joined on by ``__bkey``: cluster connectivity
       for downstream connected-components dedup is preserved while
       bounding the candidate count.  Exact pair semantics below the
       cap are unchanged;
    5. pairs repeated across bands collapse in the ``EdgeIndex``
       (packed keys in raw tasks, no sort exchange).

    A 64-bit ``__bkey`` collision merges two buckets' rows: it can only
    add candidate pairs, which exact verification then drops.
    """
    import pyarrow.compute as pc

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import auto_join
    from ..stages.propagate import EdgeIndex, map_blocks

    n_part = max(8, int(ray.cluster_resources().get("CPU", 8)) // 2)

    def block_counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({**{c: batch.column(c) for c in bucket_cols},
                             "n": pa.array([], type=pa.int64())})
        t = batch.select(bucket_cols).append_column(
            "n", pa.array(np.ones(batch.num_rows, dtype=np.int64)))
        g = t.group_by(bucket_cols, use_threads=False).aggregate([("n", "sum")])
        return pa.table({**{c: g.column(c) for c in bucket_cols},
                         "n": g.column("n_sum")})

    sizes = sorted_group_aggregate(
        ds.map_batches(block_counts, batch_format="pyarrow", zero_copy_batch=True)
          .repartition(n_part),
        bucket_cols, [("n", "sum")], precombine=False)

    def multi_with_key(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("n"), 1))
        k = _mixed_key(b, bucket_cols).view(np.int64)
        return pa.table({"__bkey": pa.array(k, type=pa.int64()),
                         "n": b.column("n")})

    def keyed_rows(batch: pa.Table) -> pa.Table:
        k = _mixed_key(batch, bucket_cols).view(np.int64)
        return pa.table({"__bkey": pa.array(k, type=pa.int64()),
                         id_col: batch.column(id_col)})

    def hot_over(b: pa.Table) -> np.ndarray:
        if b.num_rows == 0:
            return np.zeros(2, dtype=np.int64)
        over = pc.sum(pc.greater(b.column("n"), max_bucket)).as_py()
        return np.array([b.num_rows - over, over])

    multi = sizes.map_batches(multi_with_key, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    n_hot, n_over = sum(map_blocks(hot_over, multi.to_arrow_refs(), False),
                        np.zeros(2, dtype=np.int64))
    joined = auto_join(
        ds.map_batches(keyed_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        multi, on="__bkey", broadcast_rows=_BUCKET_BROADCAST_MAX)

    def rows_where(cmp):
        return joined.map_batches(
            lambda b: b.filter(cmp(b.column("n"), max_bucket))
                       .drop_columns(["n"]), batch_format="pyarrow")

    parts = []
    if n_hot:
        srt = (rows_where(pc.less_equal).repartition(n_part)
               .sort(["__bkey"]).materialize())
        _sorted_run_pairs(srt, ["__bkey"], id_col, parts)
    if n_over:
        over_rows = rows_where(pc.greater).materialize()
        anchors = sorted_group_aggregate(
            over_rows.map_batches(
                lambda b: b.rename_columns(["__bkey", "anchor"]),
                batch_format="pyarrow"),
            ["__bkey"], [("anchor", "min")]).materialize()

        def star(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            anchor = batch.column("anchor").to_numpy(zero_copy_only=False)
            keep = ids != anchor
            return pa.table({"id_a": pa.array(anchor[keep], type=pa.int64()),
                             "id_b": pa.array(ids[keep], type=pa.int64())})

        parts.append(auto_join(over_rows, anchors, on="__bkey",
                               broadcast_rows=_BUCKET_BROADCAST_MAX)
                     .map_batches(star, batch_format="pyarrow",
                                  zero_copy_batch=True))
    pairs = (parts[0].union(*parts[1:]) if parts else rd.from_arrow(
        pa.table({"id_a": pa.array([], type=pa.int64()),
                  "id_b": pa.array([], type=pa.int64())})))
    return EdgeIndex(pairs.map_batches(
        lambda b: b.rename_columns(["src", "dst"]), batch_format="pyarrow",
        zero_copy_batch=True))


def interior_pairs_driver(et: pa.Table, bucket_cols, id_col, run_bounds, pairs_of):
    """Pair the (small) boundary-run rows after a global key sort."""
    starts = run_bounds(et)
    ends = np.append(starts[1:], et.num_rows)
    ids = et.column(id_col).to_numpy(zero_copy_only=False)
    out_a, out_b = [], []
    for s, e in zip(starts, ends):
        p = pairs_of(ids[s:e])
        if p is not None:
            out_a.append(p[0])
            out_b.append(p[1])
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    return pa.table({"id_a": pa.array(a, type=pa.int64()),
                     "id_b": pa.array(b, type=pa.int64())})


def _verify_pairs(idx, rows, id_col: str, feature, check,
                  names: list) -> pa.Table:
    """Exact verification of the candidate pairs in ``idx`` (the
    :func:`_bucket_pairs` index), one plan for every metric.

    ``rows`` is semi-join-filtered to the candidate ids (``idx.nodes``,
    ids only, broadcast), and ``feature(batch)`` builds the feature
    column of the rows kept.  The pairs join those features on ``src``
    and then on ``dst`` through ``auto_join``: broadcast at or below
    ``_VERIFY_BROADCAST_MAX`` feature rows, sorted-merge above (an inner
    join, so a pair whose member has no feature row is dropped).
    ``check`` maps each joined batch ``{src, dst, f_a, f_b}`` to the
    kept rows ``{src, dst, ...}``.  Returns those rows named
    ``names``, sorted by the pair."""
    from ..stages.join import auto_join
    from ..stages.topk import to_table

    empty = pa.table({c: pa.array([], type=pa.int64()) for c in names})
    if idx.n == 0:
        return empty
    need_ref = ray.put(idx.nodes.to_numpy())

    def candidates(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        hit = batch.filter(pa.array(np.isin(ids, ray.get(need_ref))))
        return pa.table({"src": hit.column(id_col), "f_a": feature(hit)})

    side_a = rows.map_batches(candidates, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    side_b = side_a.map_batches(lambda b: b.rename_columns(["dst", "f_b"]),
                                batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    joined = idx.edges()
    for key, side in (("src", side_a), ("dst", side_b)):
        joined = auto_join(joined, side, key,
                           broadcast_rows=_VERIFY_BROADCAST_MAX)
    kept = to_table(joined.map_batches(check, batch_format="pyarrow",
                                       zero_copy_batch=True))
    if kept.num_rows == 0:
        return empty
    return kept.rename_columns(names).sort_by(
        [(names[0], "ascending"), (names[1], "ascending")])


# --------------------------------------------------------------------------- minhash + lsh


def _perm_params(num_perm: int, seed: int = 1234):
    """31-bit a/b against 32-bit shingle hashes: a*x+b < 2^63 — the
    universal-hash product stays in int64 (no overflow, fully
    vectorized)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 31, size=num_perm, dtype=np.int64)
    b = rng.integers(0, 1 << 31, size=num_perm, dtype=np.int64)
    return a, b


def minhash_signatures(tokens_shingles: set, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minhash values via (a*x+b) mod p universal hashing."""
    if not tokens_shingles:
        return np.full(a.shape[0], _MERSENNE, dtype=np.int64)
    x = np.array([stable_hash64(s) & 0xFFFFFFFF for s in tokens_shingles],
                 dtype=np.int64)
    vals = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE
    return np.min(vals, axis=1)


def minhash_lsh_pairs(sf_dir: str, threshold: float = 0.5, k: int = 3,
                      num_perm: int = 128, bands: int = 32,
                      max_bucket: int = 512):
    """MinHash+LSH near-dup pairs, verified with exact Jaccard.

    Pipeline: signatures per batch → explode (band, band_hash, doc_id)
    → groupby bucket → distinct candidate pairs (:func:`_bucket_pairs`)
    → exact Jaccard verify (:func:`_verify_pairs`).
    """
    a, b = _perm_params(num_perm)
    rows_per_band = num_perm // bands

    def to_bands(batch: pa.Table) -> pa.Table:
        band_ids, band_hashes, dids = [], [], []
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < k:
                continue
            sig = minhash_signatures(shingle_set(toks, k), a, b)
            for bi in range(bands):
                chunk = sig[bi * rows_per_band:(bi + 1) * rows_per_band]
                band_ids.append(bi)
                band_hashes.append(stable_hash64(",".join(map(str, chunk))) & 0x7FFFFFFFFFFFFFFF)
                dids.append(did)
        return pa.table({"band": pa.array(band_ids, type=pa.int32()),
                         "band_hash": pa.array(band_hashes, type=pa.int64()),
                         "doc_id": pa.array(dids, type=pa.int64())})

    docs_ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # materialize: the (band, band_hash, doc_id) table is small relative
    # to the corpus and _bucket_pairs consumes it several times
    bands_ds = docs_ds.map_batches(to_bands, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
    idx = _bucket_pairs(bands_ds, ["band", "band_hash"], "doc_id",
                        max_bucket=max_bucket)
    return _jaccard_verify(idx, sf_dir, threshold, k)


def _jaccard_verify(idx, sf_dir: str, threshold: float, k: int) -> pa.Table:
    """Exact shingle-Jaccard verification of the candidate pairs in
    ``idx`` (the tail shared by :func:`minhash_lsh_pairs` and
    :func:`jaccard_prefix_pairs`): rebuild the candidates' shingle sets
    and keep pairs at Jaccard ≥ threshold.  Returns the sorted
    ``(doc_a, doc_b)`` table."""
    def shingles(batch: pa.Table) -> pa.Array:
        return pa.array([sorted(shingle_set(_tokens(t), k))
                         for t in batch.column("text").to_pylist()],
                        type=pa.list_(pa.string()))

    def check(batch: pa.Table) -> pa.Table:
        keep = []
        for sa, sb in zip(batch.column("f_a").to_pylist(),
                          batch.column("f_b").to_pylist()):
            inter = len(set(sa) & set(sb))
            keep.append(bool(sa and sb and inter and inter
                             / (len(sa) + len(sb) - inter) >= threshold))
        return batch.select(["src", "dst"]).filter(
            pa.array(keep, type=pa.bool_()))

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return _verify_pairs(idx, docs, "doc_id", shingles, check,
                         ["doc_a", "doc_b"])


def jaccard_prefix_pairs(sf_dir: str, threshold: float = 0.5, k: int = 3):
    """EXACT all-pairs shingle-Jaccard ≥ threshold via prefix filtering
    (PPJoin-family, Chaudhuri et al. SSJoin / Xiao et al.) — the scale
    path with *exact* semantics: same output (and the same SQL oracle)
    as :func:`jaccard_pairs_bruteforce`, unlike
    :func:`minhash_lsh_pairs`, whose banding can miss true pairs.

    Prefix law: fix ONE global total order on shingles — document
    frequency ascending, shingle ascending (rarest first).  A pair at
    Jaccard ≥ t has |A∩B| ≥ ⌈t·|A|⌉, so if A's first
    p = |A| − ⌈t·|A|⌉ + 1 shingles miss ALL of A∩B, the ⌈t·|A|⌉
    common shingles must fit in the remaining ⌈t·|A|⌉ − 1 slots —
    contradiction.  Hence min(A∩B) sits inside BOTH prefixes and
    emitting only prefix postings loses no true pair.  ⌈t·L⌉ is
    computed in exact rational arithmetic on the float's exact value
    (a float ceil at an integer boundary would shorten the prefix by
    one and silently drop pairs).

    Plan (all distributed): shingle explode → df aggregate →
    LARGE×LARGE df join back on shingle (the vocabulary is never
    broadcast) → sorted-run re-exchange on doc_id → per-run
    (df, shingle)-ordered prefix → postings (sh_hash, doc_id) →
    :func:`_bucket_pairs` candidate pairs (max_bucket unbounded:
    exactness forbids the min-id star; the df-ascending order puts
    rare shingles in prefixes, so posting lists stay near-singleton —
    the classic ppjoin bound; a 64-bit sh_hash collision only ADDS
    candidates, which exact verification discards) →
    :func:`_jaccard_verify`.  A further refinement (not needed for
    correctness) would thread |doc| through the postings and skip
    pairs with min·1.0 < t·max before verification.
    """
    from fractions import Fraction

    import pyarrow.compute as pc

    from ..functions.hashing import polyhash64_batch
    from ..stages._runs import edge_interior_exchange, edge_mask, nullsafe_sort
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    frac = Fraction(threshold)          # exact rational of the float
    num, den = frac.numerator, frac.denominator

    def to_rows(batch: pa.Table) -> pa.Table:
        dids, shs = [], []
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < k:
                continue
            for s in shingle_set(toks, k):
                dids.append(did)
                shs.append(s)
        return pa.table({"doc_id": pa.array(dids, type=pa.int64()),
                         "shingle": pa.array(shs, type=pa.string())})

    # consumed twice (df aggregate + join left side): pin the explode
    rows = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(to_rows, batch_format="pyarrow",
                         zero_copy_batch=True).materialize())

    df_ds = sorted_group_aggregate(
        rows.map_batches(lambda b: pa.table({
            "shingle": b.column("shingle"),
            "df": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "shingle", [("df", "sum")])

    srt = nullsafe_sort(sorted_merge_join(rows, df_ds, on="shingle"),
                        ["doc_id"])

    _EMPTY_POST = pa.table({"sh_hash": pa.array([], type=pa.int64()),
                            "doc_id": pa.array([], type=pa.int64())})

    def _postings(t: pa.Table) -> pa.Table:
        """Prefix postings of every COMPLETE doc run in ``t``."""
        did = t.column("doc_id").to_numpy(zero_copy_only=False)
        dfv = t.column("df").to_numpy(zero_copy_only=False)
        sh = np.asarray(t.column("shingle").to_pylist(), dtype=object)
        order = np.lexsort((sh, dfv, did))
        did_o, sh_o = did[order], sh[order]
        starts = np.flatnonzero(np.r_[True, did_o[1:] != did_o[:-1]])
        lens = np.diff(np.append(starts, did_o.size))
        # p = L − ⌈t·L⌉ + 1 in exact ints (one op per RUN, not per row)
        p = np.array([int(l) - (-((-num * int(l)) // den)) + 1
                      for l in lens], dtype=np.int64)
        pos = np.arange(did_o.size) - np.repeat(starts, lens)
        keep = pos < np.repeat(p, lens)
        kept = pa.array(sh_o[keep].tolist(), type=pa.string())
        h = polyhash64_batch(kept).view(np.int64)
        return pa.table({"sh_hash": pa.array(h, type=pa.int64()),
                         "doc_id": pa.array(did_o[keep], type=pa.int64())})

    def edge_fn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        return b.filter(edge_mask(b.column("doc_id").combine_chunks()))

    def interior_fn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _EMPTY_POST
        m = edge_mask(b.column("doc_id").combine_chunks())
        interior = b.filter(pc.invert(m))
        if interior.num_rows == 0:
            return _EMPTY_POST
        return _postings(interior)

    def merge(edge_tables) -> pa.Table:
        # boundary docs' rows, complete by the sorted-run contract;
        # _postings lexsorts on doc_id itself, no pre-sort needed
        return _postings(pa.concat_tables(edge_tables))

    postings = edge_interior_exchange(srt, edge_fn, interior_fn,
                                      merge).materialize()
    if postings.count() == 0:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64())})
    idx = _bucket_pairs(postings, ["sh_hash"], "doc_id", max_bucket=1 << 62)
    return _jaccard_verify(idx, sf_dir, threshold, k)


# --------------------------------------------------------------------------- simhash


def simhash64(tokens: list) -> int:
    """64-bit SimHash over token hashes (unweighted)."""
    if not tokens:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for t in tokens:
        h = stable_hash64(t)
        bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "little"), dtype=np.uint8),
                             bitorder="little").astype(np.int64)
        acc += 2 * bits - 1
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= (1 << i)
    return out


def simhash_signatures(sf_dir: str):
    """doc_id, simhash (as int64 two's complement)."""
    def fn(batch: pa.Table) -> pa.Table:
        sigs = []
        for t in batch.column("text").to_pylist():
            s = simhash64(_tokens(t))
            sigs.append(s - (1 << 64) if s >= (1 << 63) else s)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "simhash": pa.array(sigs, type=pa.int64())})
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]) \
             .map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def hamming_lsh_pairs(sigs_ds, id_col: str, sig_col: str,
                      out_a: str, out_b: str, max_hamming: int = 3,
                      max_bucket: int = 512):
    """EXACT near-dup pairs with Hamming distance ≤ d over ANY 64-bit
    signature column (simhash of text, dHash of images, ...) via the
    pigeonhole trick: split the signature into d+1 chunks — any pair
    within distance ≤ d must share at least one chunk exactly — groupby
    chunk value yields candidates (a complete set, so the LSH is exact,
    not approximate), then exact Hamming verify.

    ``sigs_ds`` must be a MATERIALIZED Dataset with columns
    ``(id_col: int64, sig_col: int64)`` — it is consumed twice
    (chunking + candidate fetch)."""
    n_chunks = min(max_hamming + 1, 16)
    bounds = [round(i * 64 / n_chunks) for i in range(n_chunks + 1)]

    def chunks_of(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"chunk": pa.array([], type=pa.int32()),
                             "val": pa.array([], type=pa.int64()),
                             id_col: pa.array([], type=pa.int64())})
        dids = batch.column(id_col).to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
        u = batch.column(sig_col).to_numpy(zero_copy_only=False) \
                 .astype(np.int64).view(np.uint64)
        cidx = np.repeat(np.arange(n_chunks, dtype=np.int32), n)
        # int64 vals: for max_hamming <= 1 a chunk is >= 32 bits wide
        # and its values overflow int32 (ADVICE round 1)
        vals = np.empty(n_chunks * n, dtype=np.int64)
        for ci in range(n_chunks):
            lo, hi = bounds[ci], bounds[ci + 1]
            mask = np.uint64((1 << (hi - lo)) - 1)
            vals[ci * n:(ci + 1) * n] = \
                ((u >> np.uint64(lo)) & mask).view(np.int64)
        return pa.table({"chunk": pa.array(cidx, type=pa.int32()),
                         "val": pa.array(vals, type=pa.int64()),
                         id_col: pa.array(np.tile(dids, n_chunks),
                                          type=pa.int64())})

    chunks_ds = sigs_ds.map_batches(chunks_of, batch_format="pyarrow").materialize()
    idx = _bucket_pairs(chunks_ds, ["chunk", "val"], id_col,
                        max_bucket=max_bucket)

    def check(batch: pa.Table) -> pa.Table:
        a, b = (batch.column(c).to_numpy(zero_copy_only=False)
                .astype(np.int64).view(np.uint64) for c in ("f_a", "f_b"))
        # vectorized popcount: 8 bytes per uint64 → bits → row sum
        d = np.unpackbits(np.bitwise_xor(a, b).view(np.uint8).reshape(-1, 8),
                          axis=1).sum(axis=1).astype(np.int64)
        keep = d <= max_hamming
        return batch.select(["src", "dst"]).filter(pa.array(keep)) \
                    .append_column("hamming", pa.array(d[keep]))

    return _verify_pairs(idx, sigs_ds, id_col, lambda b: b.column(sig_col),
                         check, [out_a, out_b, "hamming"])


def simhash_pairs(sf_dir: str, max_hamming: int = 3, max_bucket: int = 512):
    """Near-dup pairs with Hamming distance ≤ d over the text simhash —
    the :func:`hamming_lsh_pairs` core with simhash signatures.
    Signatures are computed ONCE (doc_id + int64) and reused for the
    chunk-bucket pipeline; only *candidate* signatures enter
    verification."""
    return hamming_lsh_pairs(simhash_signatures(sf_dir).materialize(),
                             "doc_id", "simhash", "doc_a", "doc_b",
                             max_hamming=max_hamming,
                             max_bucket=max_bucket)


# --------------------------------------------------------------------------- embedding cosine near-dup


def embedding_neardup_pairs(sf_dir: str, threshold: float = 0.4):
    """(vec_a, vec_b) with cosine ≥ threshold — block-wise matmul
    against a broadcast normalized matrix (no pairwise shuffle)."""
    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = col_vector(tbl["vec_id"], np.int64)
    E = list_col_matrix(tbl["embedding"])
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    En = E / norms
    mat_ref = ray.put((ids, En))

    def fn(batch: pa.Table) -> pa.Table:
        all_ids, allE = ray.get(mat_ref)
        bids = col_vector(batch.column("vec_id"), np.int64)
        B = list_col_matrix(batch.column("embedding"))
        bn = np.linalg.norm(B, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        B = B / bn
        C = B @ allE.T                                  # [batch, n]
        out_a, out_b = [], []
        for r in range(C.shape[0]):
            hits = np.where(C[r] >= threshold)[0]
            for h in hits:
                if bids[r] < all_ids[h]:                # each pair once
                    out_a.append(int(bids[r]))
                    out_b.append(int(all_ids[h]))
        return pa.table({"vec_a": pa.array(out_a, type=pa.int64()),
                         "vec_b": pa.array(out_b, type=pa.int64())})

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"]) \
             .map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------- embedding LSH (random hyperplanes)


def _hyperplanes(dim: int, n_bits: int, seed: int = 99) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((dim, n_bits))


def embedding_lsh_pairs(embeddings_ds_or_sf, threshold: float = 0.9,
                        n_bits: int = 128, band_bits: int = 8,
                        dim: int | None = None, max_bucket: int = 512):
    """Random-hyperplane LSH near-dup pairs over an embedding column —
    the cosine analogue of MinHash-LSH (the scale path next to the
    brute-force matmul of :func:`embedding_neardup_pairs`).

    sign(v·H) gives an n_bits signature whose per-bit agreement
    probability is 1 − θ/π; banding (band_bits per band) buckets
    candidates, which are then verified with exact cosine (only
    candidate vectors are fetched).  Tuned for tight thresholds
    (cos ≥ 0.9) — the regime where "near-duplicate" is meaningful.
    """
    if isinstance(embeddings_ds_or_sf, str):
        ds = rd.read_parquet(f"{embeddings_ds_or_sf}/embeddings.parquet",
                             columns=["vec_id", "embedding"]).materialize()
    else:
        ds = embeddings_ds_or_sf.materialize()
    if dim is None:
        first = ds.take(1)[0]
        dim = len(first["embedding"])
    H = _hyperplanes(dim, n_bits)
    H_ref = ray.put(H)
    n_bands = n_bits // band_bits

    def to_bands(batch: pa.Table) -> pa.Table:
        Hm = ray.get(H_ref)
        ids = col_vector(batch.column("vec_id"), np.int64)
        E = list_col_matrix(batch.column("embedding"))
        bits = (E @ Hm)[:, :n_bands * band_bits] > 0
        weights = 1 << np.arange(band_bits, dtype=np.int64)
        vals = bits.reshape(len(ids), n_bands, band_bits) @ weights
        return pa.table({                                 # band-major rows
            "band": pa.array(np.repeat(np.arange(n_bands, dtype=np.int32),
                                       len(ids))),
            "val": pa.array(vals.T.ravel()),
            "vec_id": pa.array(np.tile(ids, n_bands))})

    bands_ds = ds.map_batches(to_bands, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    idx = _bucket_pairs(bands_ds, ["band", "val"], "vec_id",
                        max_bucket=max_bucket)

    def check(batch: pa.Table) -> pa.Table:
        A, B = (list_col_matrix(batch.column(c)) for c in ("f_a", "f_b"))
        if A.size == 0:
            return batch.select(["src", "dst"])
        na = np.linalg.norm(A, axis=1, keepdims=True)
        nb = np.linalg.norm(B, axis=1, keepdims=True)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cos = np.einsum("ij,ij->i", A / na, B / nb)
        return batch.select(["src", "dst"]).filter(pa.array(cos >= threshold))

    return _verify_pairs(idx, ds, "vec_id", lambda b: b.column("embedding"),
                         check, ["vec_a", "vec_b"])


def dedup_lines(sf_dir: str):
    """C4-style corpus-wide duplicate-LINE removal over the derived
    web-page corpus (Raffel et al. 2020 §2.2 deduplicate at sub-document
    scope: boilerplate lines — mastheads, nav, legal footers — repeat
    across pages and must be dropped corpus-wide, keeping exactly one
    occurrence).  For every distinct line, the single globally-first
    occurrence (by ``(url, line_idx)``) survives; all other occurrences
    are removed, and each page's remaining lines are reassembled in
    order.  Pages whose every line was removed emit no row.

    Fully distributed plan (no driver loops, no broadcast):
      1. vectorized line explode — ``split_pattern`` + ``list_flatten``
         + parent indices, line_idx via one arange subtract,
      2. winner per distinct line via ``sorted_group_aggregate`` MIN
         over the packed sort key ``url\\x1f<line_idx zero-padded>``
         (string min == lexicographic first occurrence; idx padded so
         10 sorts after 9) + occurrence count,
      3. LARGE×LARGE ``sorted_merge_join`` back on the line text,
         keep rows whose own key equals the winner key,
      4. per-page reassembly with ``grouped_string_agg`` ordered by
         line_idx (sep ``\\n``) — the ordered-aggregation operator.

    Scale note: the exchange keys on the raw line string so the
    fixture oracle is byte-exact; at 100 TB key steps 2-3 on a 64-bit
    line hash instead (a collision merges two line groups and drops a
    benign extra line — the standard C4 trade) which bounds exchange
    row width.  Deterministic (seeded corpus ⇒ fixture oracle).
    """
    from ..sources.derived import corpus_for_sf
    from .kg import page_files

    corpus = corpus_for_sf(sf_dir)
    pages = rd.read_parquet(page_files(corpus), columns=["url", "text"])
    return dedup_lines_ds(pages)


def dedup_lines_ds(pages):
    """Core of :func:`dedup_lines` over any ``(url, text)`` Dataset."""
    import pyarrow.compute as pc

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.stringagg import grouped_string_agg

    def explode(batch: pa.Table) -> pa.Table:
        lines = pc.split_pattern(batch.column("text").combine_chunks(),
                                 pattern="\n")
        flat = pc.list_flatten(lines)
        parents = pc.list_parent_indices(lines)
        urls = batch.column("url").take(parents)
        lens = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        idx = np.arange(int(lens.sum()), dtype=np.int64) - starts
        # packed first-occurrence sort key; idx zero-padded to 8 digits
        # so lexicographic min == (url, line_idx) min
        key = pc.binary_join_element_wise(
            urls, pa.array([f"{i:08d}" for i in idx], type=pa.string()),
            "\x1f")
        return pa.table({"url": urls,
                         "line_idx": pa.array(idx, type=pa.int64()),
                         "line": flat,
                         "key": key})

    lines_ds = (pages.map_batches(explode, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize())

    winners = sorted_group_aggregate(
        lines_ds.map_batches(lambda b: pa.table({
            "line": b.column("line"),
            "first_key": b.column("key"),
            "n_occ": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "line", [("first_key", "min"), ("n_occ", "sum")],
        precombine=False)

    joined = sorted_merge_join(lines_ds, winners, on="line")

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.equal(batch.column("key"),
                                     batch.column("first_key")), False)
        kept = batch.filter(mask)
        return pa.table({"url": kept.column("url"),
                         "line_idx": kept.column("line_idx"),
                         "line": kept.column("line")})

    kept = joined.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)

    out = grouped_string_agg(kept, key="url", order_cols=["line_idx"],
                             value_col="line", sep="\n",
                             out_name="text_clean")
    return out.map_batches(lambda b: pa.table({
        "url": b.column("url"),
        "n_lines_kept": b.column("n"),
        "text_clean": pc.cast(b.column("text_clean"), pa.string())}),
        batch_format="pyarrow", zero_copy_batch=True)


def incremental_dedup(sf_dir: str, recrawl_permille: int = 100):
    """Incremental-ingest exact dedup: an ingest batch arrives against
    the EXISTING corpus (docs below the 80% doc_id threshold) and every
    new document is classified ``dup_existing`` (its content hash is
    already in the old corpus), ``dup_batch`` (first seen earlier
    within the batch), or ``new``.

    The batch models a later crawl deterministically: the corpus tail
    (doc_id ≥ threshold) plus a RE-CRAWL of ~10% of all pages — the
    same text re-arriving under a fresh doc_id (original + max_id + 1),
    selected by md5(doc_id) bucket so the simulation is a pure function
    of the data (bitwise vs the SQL oracle).  Re-crawled old pages must
    classify ``dup_existing``; re-crawled tail pages ``dup_batch``
    (their first occurrence is in the same batch).

    The scale trick is direction: the old corpus is ~100 TB while an
    ingest batch is small, so the OLD side is never shuffled — a
    tree-reduced bloom bitset of the NEW batch's hashes (reusing
    ``stages/semijoin._build_bloom``) is broadcast and the old corpus
    streams through it, surviving only where it might collide with the
    batch (true matches + bloom false positives).  False positives are
    then removed exactly: the tiny survivor set joins against the
    batch's distinct hashes, where a hash absent from the batch simply
    matches nothing.  Shuffle volume is O(|batch| + |matches|),
    independent of the old corpus size.

    Within-batch duplicates resolve to the min doc_id (same rule as
    ``exact_dedup``); ``dup_existing`` takes precedence over
    ``dup_batch`` so re-ingested old content is always attributed to
    the existing corpus."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.semijoin import _bloom_positions, _build_bloom
    import ray

    from ..functions.sampling import _md5_bucket

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    base = int(docs.max("doc_id")) + 1
    thr = (4 * base) // 5

    def hash_rows(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text_hash": pa.array(h, type=pa.string())})

    # hash table ≈ 2% of the text payload; pinned once so the old/new
    # split and the two exchanges below don't re-read + re-hash the text
    hashes = docs.map_batches(hash_rows, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    import pyarrow.compute as pc

    def old_side(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("doc_id"),
                                    pa.scalar(thr)))

    def new_side(batch: pa.Table) -> pa.Table:
        tail = batch.filter(pc.greater_equal(batch.column("doc_id"),
                                             pa.scalar(thr)))
        ids = batch.column("doc_id").to_pylist()
        re_mask = _md5_bucket(ids, 1000) < recrawl_permille
        recrawl = batch.filter(pa.array(re_mask))
        recrawl = recrawl.set_column(
            recrawl.schema.get_field_index("doc_id"), "doc_id",
            pc.add(recrawl.column("doc_id"), pa.scalar(base)))
        return pa.concat_tables([tail, recrawl])

    old = hashes.map_batches(old_side, batch_format="pyarrow",
                             zero_copy_batch=True)
    new = hashes.map_batches(new_side, batch_format="pyarrow",
                             zero_copy_batch=True)

    m_bits = 1 << 20
    bloom_ref = ray.put(_build_bloom(new, "text_hash", m_bits))

    def old_candidates(batch: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)
        keys = batch.column("text_hash")
        pos = _bloom_positions(keys, m_bits)      # h1 block then h2 block
        k = len(pos) // 2
        hit = bits[pos[:k]] & bits[pos[k:]]
        return pa.table({
            "text_hash": batch.column("text_hash").filter(pa.array(hit)),
        }).append_column("in_old",
                         pa.array(np.ones(int(hit.sum()), dtype=np.int64)))

    old_marks = sorted_group_aggregate(
        old.map_batches(old_candidates, batch_format="pyarrow",
                        zero_copy_batch=True),
        "text_hash", [("in_old", "max")], precombine=True)

    first_new = sorted_group_aggregate(
        new.map_batches(lambda b: pa.table({
            "text_hash": b.column("text_hash"),
            "first_doc_id": b.column("doc_id")}), batch_format="pyarrow"),
        "text_hash", [("first_doc_id", "min")], precombine=False)

    ref = sorted_merge_join(first_new, old_marks, on="text_hash",
                            how="left")
    out = sorted_merge_join(new, ref, on="text_hash")

    def classify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        first = batch.column("first_doc_id").to_numpy(zero_copy_only=False)
        in_old = pc.fill_null(batch.column("in_old"), 0) \
            .to_numpy(zero_copy_only=False)
        status = np.where(in_old == 1, "dup_existing",
                          np.where(did != first, "dup_batch", "new"))
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text_hash": batch.column("text_hash"),
                         "status": pa.array(status.tolist(),
                                            type=pa.string())})

    return out.map_batches(classify, batch_format="pyarrow",
                           zero_copy_batch=True)


# --------------------------------------------------------------------------- SemDeDup


def semantic_dedup(sf_dir: str, k: int = 8, iters: int = 5,
                   tau_num: int = 2, tau_den: int = 5):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then mark
    as duplicates only vectors whose cosine similarity to an EARLIER
    (lower vec_id) vector *within the same cluster* reaches
    ``tau_num / tau_den`` — pairwise work is confined to clusters, so
    the quadratic term is (n/k)² per cluster instead of n² global.

    Determinism discipline: clustering is the exact fixed-point
    :func:`kgray.pipelines.ann.embedding_kmeans` (bit-identical across
    parallelism); similarity decisions are EXACT integer arithmetic on
    the same 2²⁰ fixed-point quantization — ``cos(a,b) ≥ p/q  ⇔
    dot ≥ 0 ∧ q²·dot² ≥ p²·|a|²·|b|²`` evaluated in arbitrary-precision
    Python ints for the (rare) candidate pairs that a float64 matmul
    pre-filter (with a safety margin) surfaces.  No BLAS rounding can
    flip a verdict, so the output is a pure function of the data.

    Scale shape: assignment join is a sorted-merge join; clusters
    co-locate via the standard sorted-run exchange (complete runs
    resolve vectorized in-block; the ≤ 2 boundary clusters per block
    ship rows to a driver merge).  The SemDeDup contract — one cluster
    fits one worker — is the paper's own operating point (k grows with
    the corpus); raise ``k`` to bound cluster size.

    Output: (vec_id, cluster, kept) for every vector.
    """
    import pyarrow.compute as pc

    from .ann import _KM_SCALE, embedding_kmeans
    from ..stages._runs import (edge_interior_exchange, edge_mask,
                                nullsafe_sort, run_starts)
    from ..stages.join import sorted_merge_join

    assign = embedding_kmeans(sf_dir, k=k, iters=iters)

    def quantize(b: pa.Table) -> pa.Table:
        X = list_col_matrix(b.column("embedding"))
        q = np.rint(X * _KM_SCALE).astype(np.int64)
        return pa.table({
            "vec_id": b.column("vec_id"),
            "q": matrix_to_list_col(q, pa.int64())})

    emb = (rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
           .map_batches(quantize, batch_format="pyarrow",
                        zero_copy_batch=True))
    joined = sorted_merge_join(emb, assign, on="vec_id")
    srt = nullsafe_sort(joined, ["cluster", "vec_id"])

    p2 = tau_num * tau_num
    q2 = tau_den * tau_den
    # float pre-filter threshold with margin: exact check confirms
    thresh = tau_num / tau_den

    def _resolve(t: pa.Table) -> pa.Table:
        """kept flags for COMPLETE cluster runs of a (cluster, vec_id)-
        sorted table."""
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], type=pa.int64()),
                             "cluster": pa.array([], type=pa.int64()),
                             "kept": pa.array([], type=pa.bool_())})
        clusters = t.column("cluster")
        starts = run_starts(clusters)
        bounds = np.r_[starts, t.num_rows]
        Q = list_col_matrix(t.column("q"), np.int64)
        kept = np.ones(t.num_rows, dtype=bool)
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            m = hi - lo
            if m < 2:
                continue
            Qc = Q[lo:hi]
            Qf = Qc.astype(np.float64)
            n2f = (Qf * Qf).sum(axis=1)
            n2f[n2f == 0] = 1.0
            G = Qf @ Qf.T
            C = G / np.sqrt(np.outer(n2f, n2f))
            jj, ii = np.where(np.triu(C >= thresh - 1e-9, 1))
            if jj.size == 0:
                continue
            n2_exact = [int(x) for x in (Qc.astype(object) ** 2).sum(axis=1)]
            for a, b in zip(jj, ii):        # a < b: b is the later vec
                dot = int(np.dot(Qc[a].astype(object), Qc[b].astype(object)))
                if dot >= 0 and q2 * dot * dot >= p2 * n2_exact[a] * n2_exact[b]:
                    kept[lo + b] = False
        return pa.table({"vec_id": t.column("vec_id"),
                         "cluster": t.column("cluster"),
                         "kept": pa.array(kept)})

    def edge_rows(batch: pa.Table) -> pa.Table:
        return batch.select(["vec_id", "cluster", "q"]).filter(
            edge_mask(batch.column("cluster")))

    def interior(batch: pa.Table) -> pa.Table:
        inner = batch.filter(pc.invert(edge_mask(batch.column("cluster"))))
        return _resolve(inner)

    def merge(edge_tables) -> pa.Table:
        et = pa.concat_tables(edge_tables, promote_options="permissive")
        idx = pc.sort_indices(et, sort_keys=[("cluster", "ascending"),
                                             ("vec_id", "ascending")])
        return _resolve(et.take(idx))

    return edge_interior_exchange(srt, edge_rows, interior, merge)


def shingle_containment_pairs(sf_dir: str, t_num: int = 4, t_den: int = 5,
                              k: int = 3):
    """Asymmetric near-dup detection by shingle CONTAINMENT
    ``|A∩B|/|A| ≥ t`` — what catches a short doc quoted inside a long
    one, which Jaccard (symmetric denominator) misses.  Ordered pairs:
    (doc_a contained-in doc_b).

    Fully distributed twin of the ``jaccard_pairs`` broadcast oracle:
    distinct (shingle, doc) postings self-join per shingle (the
    inverted-index exchange — Broder's candidate generation), the
    shared-shingle count reduces on the composite (doc_a, doc_b) key,
    one more join attaches |A|, and the verdict is the exact integer
    cross-multiplication ``n_inter·t_den ≥ t_num·|A|``.  Skew note: a
    stop-shingle with document frequency f contributes f² candidate
    rows — at corpus scale, shed or salt shingles above a df cap
    (mirroring the cap in the oracle) before the self-join."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def to_postings(batch: pa.Table) -> pa.Table:
        ids, sh = [], []
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            for s in shingle_set(_tokens(t), k):
                ids.append(did)
                sh.append(s)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "shingle": pa.array(sh, type=pa.string())})

    postings = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
                .map_batches(to_postings, batch_format="pyarrow",
                             zero_copy_batch=True).materialize())

    sizes = sorted_group_aggregate(
        postings.map_batches(lambda b: pa.table({
            "doc_a": b.column("doc_id"),
            "size_a": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["doc_a"], [("size_a", "sum")], precombine=True)

    left = postings.map_batches(lambda b: pa.table({
        "shingle": b.column("shingle"), "doc_a": b.column("doc_id")}),
        batch_format="pyarrow", zero_copy_batch=True)
    right = postings.map_batches(lambda b: pa.table({
        "shingle": b.column("shingle"), "doc_b": b.column("doc_id")}),
        batch_format="pyarrow", zero_copy_batch=True)

    def pairup(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        t = b.filter(pc.not_equal(b.column("doc_a"),
                                  b.column("doc_b"))) \
            .select(["doc_a", "doc_b"])
        return t.append_column(
            "n_inter", pa.array(np.ones(t.num_rows, dtype=np.int64)))

    inter = sorted_group_aggregate(
        sorted_merge_join(left, right, on="shingle")
        .map_batches(pairup, batch_format="pyarrow"),
        ["doc_a", "doc_b"], [("n_inter", "sum")], precombine=True)

    joined = sorted_merge_join(inter, sizes, on="doc_a")

    def verdict(b: pa.Table, _n=t_num, _d=t_den) -> pa.Table:
        ni = b.column("n_inter").to_numpy(zero_copy_only=False)
        sa = b.column("size_a").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ni * _d >= _n * sa))

    return joined.map_batches(verdict, batch_format="pyarrow",
                              zero_copy_batch=True)
