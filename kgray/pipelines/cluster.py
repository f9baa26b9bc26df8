"""Near-dup cluster resolution: pair lists → connected components →
keep-one decision.

The dedup family (``pipelines/dedup.py``) stops at verified pair
lists; a training-data pipeline must then pick ONE document per
near-dup cluster.  This module closes that gap with a distributed
connected-components operator (iterated min-label propagation —
the classic Pregel-style formulation) over the graph primitive
:class:`~kgray.stages.propagate.EdgeIndex`:

* the pairs are indexed once over the sorted node universe, so node
  ``i``'s initial label ``i`` orders like its id,
* each iteration is ONE undirected ``min`` sweep (every node takes
  the smallest label among itself and its neighbours) on the index's
  shuffle plan: each edge block gets only its range of the label
  vector,
* labels only decrease, so an unchanged label vector is the fixpoint,
  reached in ≤ diameter iterations (near-dup clusters are shallow:
  stars from degenerate buckets have diameter 2).

The cluster id is the component's minimum node id, which doubles as
the canonical ``keep_doc_id``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..stages.aggregate import sorted_group_aggregate
from ..stages.join import sorted_merge_join
from ..stages.propagate import EdgeIndex

__all__ = ["connected_components", "neardup_clusters"]


def _as_dataset(pairs):
    return rd.from_arrow(pairs) if isinstance(pairs, pa.Table) else pairs


# dense-plan switch (same rule class as pagerank's / kcore's): at or
# below this many PAIRS the edge list collects once and a driver-side
# union-find resolves it with no label rounds at all.  min-label
# union-find and min-label propagation compute the SAME fixpoint, so
# the plans are output-identical (pinned by the fixture oracles that
# predate this switch).
_CC_DENSE_MAX_PAIRS = 2_000_000


def _cc_dense(pairs, id_a: str, id_b: str):
    tabs = [t for t in ray.get(pairs.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "cluster_id": pa.array([], type=pa.int64())}))
    et = pa.concat_tables(tabs, promote_options="permissive")
    a = pc.cast(et.column(id_a), pa.int64()).to_numpy(zero_copy_only=False)
    b = pc.cast(et.column(id_b), pa.int64()).to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ai, bi = inv[:len(a)], inv[len(a):]
    for x, y in zip(ai.tolist(), bi.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            # union by smaller POSITION == smaller node id (nodes sorted)
            lo, hi = (rx, ry) if rx < ry else (ry, rx)
            parent[hi] = lo
    roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, type=pa.int64()),
        "cluster_id": pa.array(nodes[roots], type=pa.int64())}))


def connected_components(pairs, id_a: str = "id_a", id_b: str = "id_b",
                         max_iters: int = 50, plan: str = "auto"):
    """(node, cluster_id) for every node appearing in ``pairs``;
    cluster_id = min node id of the connected component."""
    assert plan in ("auto", "dense", "shuffle")
    pairs = _as_dataset(pairs)
    if plan == "dense":
        return _cc_dense(pairs.materialize(), id_a, id_b)
    if plan == "auto":
        # early-exit size probe: limit() stops the stream as soon as
        # threshold+1 rows exist, so an over-threshold input is never
        # pinned (the shuffle path below pins only its edge index);
        # an under-threshold input re-executes its (small) lineage
        # once for the pin
        probe = pairs.limit(_CC_DENSE_MAX_PAIRS + 1).count()
        if probe <= _CC_DENSE_MAX_PAIRS:
            return _cc_dense(pairs.materialize(), id_a, id_b)

    idx = EdgeIndex(pairs.map_batches(lambda b: pa.table({
        "src": pc.cast(b.column(id_a), pa.int64()),
        "dst": pc.cast(b.column(id_b), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True), plan="shuffle")
    if idx.n == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], type=pa.int64()),
                                       "cluster_id": pa.array([], type=pa.int64())}))
    # node i is the i-th smallest id, so the min position is the min id
    label = np.arange(idx.n, dtype=np.int64)
    for _ in range(max_iters):
        nxt = np.minimum(label, idx.sweep(label, "min", "both"))
        if (nxt == label).all():
            break
        label = nxt
    return rd.from_arrow(pa.table({
        "node": idx.nodes, "cluster_id": idx.nodes.take(pa.array(label))}))


def neardup_clusters(sf_dir: str, threshold: float = 0.5):
    """MinHash-LSH verified pairs → connected components → keep-one.

    One row per document that has at least one near-duplicate:
    ``(doc_id, cluster_id, keep_doc_id)`` with keep_doc_id =
    cluster_id = min doc_id of the cluster (the kept representative).
    """
    from .dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold=threshold)
    cc = connected_components(
        rd.from_arrow(pairs) if isinstance(pairs, pa.Table) else pairs,
        id_a="doc_a", id_b="doc_b")
    return cc.map_batches(
        lambda b: pa.table({"doc_id": b.column("node"),
                            "cluster_id": b.column("cluster_id"),
                            "keep_doc_id": b.column("cluster_id")}),
        batch_format="pyarrow", zero_copy_batch=True)


def neardup_keep_best(sf_dir: str, threshold: float = 0.5):
    """Near-dup cluster resolution with a QUALITY keep-rule: instead of
    the min-id representative, each cluster keeps its LONGEST member
    (most tokens; doc_id-asc tiebreak) — the 'keep the most complete
    copy' heuristic real curation pipelines use, where near-duplicates
    are truncations/boilerplate variants of each other.

    One row per clustered document: ``(doc_id, cluster_id,
    keep_doc_id, n_tokens)``.  Plan: the LSH→CC composition of
    :func:`neardup_clusters`, one sorted-merge join to attach token
    counts (doc-sized), one ``grouped_topk(k=1)`` per cluster for the
    winner, one broadcast-back of the (tiny, cluster-count-sized)
    winner map via a second join — all exchanges are cluster/doc-sized,
    never corpus-content-sized."""
    from ..stages.join import sorted_merge_join
    from ..stages.topk import grouped_topk
    from .text import token_stats

    clusters = neardup_clusters(sf_dir, threshold=threshold) \
        .drop_columns(["keep_doc_id"]).materialize()
    toks = token_stats(sf_dir).map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "n_tokens": b.column("n_tokens")}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_len = sorted_merge_join(clusters, toks, on="doc_id").materialize()

    winners = grouped_topk(with_len, "cluster_id", "n_tokens", "doc_id",
                           k=1).map_batches(
        lambda b: pa.table({"cluster_id": b.column("cluster_id"),
                            "keep_doc_id": b.column("doc_id")}),
        batch_format="pyarrow", zero_copy_batch=True)
    return sorted_merge_join(with_len, winners, on="cluster_id") \
        .map_batches(lambda b: b.select(
            ["doc_id", "cluster_id", "keep_doc_id", "n_tokens"]),
            batch_format="pyarrow", zero_copy_batch=True)


def embedding_dbscan(sf_dir: str, eps: float = 1.2, min_pts: int = 5):
    """DBSCAN over the embedding table with an EXACT integer ε-graph:
    vectors quantize once onto the 2²⁰ grid (``floor(x·2²⁰ + 0.5)`` —
    half-up, bitwise-identical to the oracle's FLOOR; x·2²⁰ is a
    power-of-two scale so the product itself never rounds), distances
    are int64 ``Σ(qa−qb)²`` compared against ``floor(eps·2²⁰)²``, so
    core flags, edges, cluster ids and border assignment are all pure
    functions of the data — no float tie can flip a verdict.

    Semantics: a point is CORE when its ε-ball holds ≥ ``min_pts``
    points (self included); clusters = connected components of the
    core-core ε-graph, id = min core vec_id; non-core points with a
    core neighbor are BORDER, assigned the min cluster id among their
    core neighbors (the deterministic tie-break the textbook leaves
    arbitrary); everything else is noise (cluster −1).

    Scale shape: the broadcast-matrix ε-edge pass is the oracle-twin
    brute force (one ``ray.put`` of the quantized matrix, int64 matmul
    per block) — at corpus scale swap the edge generator for the
    LSH-bucketed candidate pass (``embedding_lsh_pairs`` machinery)
    and keep everything downstream (degree → core → CC → border)
    unchanged; all of it is edge-stream-sized."""
    from .ann import load_embeddings
    from ..stages.semijoin import semi_join

    ids, E = load_embeddings(sf_dir)
    Q = np.floor(E * 1048576.0 + 0.5).astype(np.int64)
    eps2 = int(np.floor(eps * 1048576.0)) ** 2
    ref = ray.put((ids, Q))

    def edges_fn(b: pa.Table) -> pa.Table:
        from ..functions.veccol import col_vector, list_col_matrix

        all_ids, allQ = ray.get(ref)
        bids = col_vector(b.column("vec_id"), np.int64)
        Bq = np.floor(list_col_matrix(b.column("embedding"))
                      * 1048576.0 + 0.5).astype(np.int64)
        na = (Bq * Bq).sum(axis=1)[:, None]
        nb = (allQ * allQ).sum(axis=1)[None, :]
        d2 = na + nb - 2 * (Bq @ allQ.T)
        hit = (d2 <= eps2) & (bids[:, None] < all_ids[None, :])
        r, c = np.nonzero(hit)
        return pa.table({
            "ia": pa.array(bids[r], type=pa.int64()),
            "ib": pa.array(all_ids[c], type=pa.int64())})

    raw = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    edges = raw.map_batches(edges_fn, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    dirs = edges.union(edges.map_batches(
        lambda b: pa.table({"ia": b.column("ib"), "ib": b.column("ia")}),
        batch_format="pyarrow", zero_copy_batch=True))
    deg = sorted_group_aggregate(
        dirs.map_batches(lambda b: pa.table({
            "vec_id": b.column("ia"),
            "n_nbr": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["vec_id"], [("n_nbr", "sum")], precombine=True)

    nodes = raw.map_batches(lambda b: pa.table({
        "vec_id": b.column("vec_id")}), batch_format="pyarrow",
        zero_copy_batch=True)
    flags = sorted_merge_join(nodes, deg, on="vec_id", how="left") \
        .map_batches(lambda b: pa.table({
            "vec_id": b.column("vec_id"),
            "is_core": pc.cast(pc.greater_equal(
                pc.add(pc.coalesce(b.column("n_nbr"),
                                   pa.scalar(0, type=pa.int64())),
                       pa.scalar(1, type=pa.int64())),
                pa.scalar(min_pts, type=pa.int64())), pa.int64())}),
            batch_format="pyarrow").materialize()
    cores = flags.filter(expr="is_core == 1") \
        .map_batches(lambda b: b.select(["vec_id"]),
                     batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()

    cc_pairs = semi_join(semi_join(
        edges.map_batches(lambda b: pa.table({
            "id_a": b.column("ia"), "id_b": b.column("ib")}),
            batch_format="pyarrow", zero_copy_batch=True),
        cores.map_batches(lambda b: b.rename_columns(["id_a"]),
                          batch_format="pyarrow"), on="id_a"),
        cores.map_batches(lambda b: b.rename_columns(["id_b"]),
                          batch_format="pyarrow"), on="id_b")
    # self-pairs keep isolated cores in the CC output
    cc_pairs = cc_pairs.union(cores.map_batches(
        lambda b: pa.table({"id_a": b.column("vec_id"),
                            "id_b": b.column("vec_id")}),
        batch_format="pyarrow", zero_copy_batch=True))
    cc = connected_components(cc_pairs).materialize()

    core_rows = cc.map_batches(lambda b: pa.table({
        "vec_id": b.column("node"),
        "cluster_id": b.column("cluster_id"),
        "is_core": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)

    # border: non-core endpoint -> min cluster among its core neighbors
    nc_to_core = semi_join(semi_join(
        dirs, cores.map_batches(lambda b: b.rename_columns(["ib"]),
                                batch_format="pyarrow"), on="ib"),
        cores.map_batches(lambda b: b.rename_columns(["ia"]),
                          batch_format="pyarrow"), on="ia",
        anti=True).materialize()
    if nc_to_core.count() == 0:
        # no border points: an empty filtered stream loses its schema,
        # which the join below can't take — substitute the typed empty
        border = rd.from_arrow(pa.table({
            "vec_id": pa.array([], type=pa.int64()),
            "cluster_id": pa.array([], type=pa.int64()),
            "is_core": pa.array([], type=pa.int64())}))
    else:
        border = sorted_group_aggregate(
            sorted_merge_join(
                nc_to_core.map_batches(lambda b: pa.table({
                    "vec_id": b.column("ia"), "node": b.column("ib")}),
                    batch_format="pyarrow", zero_copy_batch=True),
                cc, on="node").map_batches(
                lambda b: b.select(["vec_id", "cluster_id"]),
                batch_format="pyarrow"),
            ["vec_id"], [("cluster_id", "min")]).map_batches(
            lambda b: b.append_column(
                "is_core",
                pa.array(np.zeros(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow", zero_copy_batch=True).materialize()

    assigned = core_rows.union(border.map_batches(
        lambda b: b.select(["vec_id", "cluster_id", "is_core"]),
        batch_format="pyarrow")).materialize()
    noise = semi_join(nodes, assigned.map_batches(
        lambda b: b.select(["vec_id"]), batch_format="pyarrow"),
        on="vec_id", anti=True).map_batches(
        lambda b: pa.table({
            "vec_id": b.column("vec_id"),
            "cluster_id": pa.array(
                np.full(b.num_rows, -1, dtype=np.int64)),
            "is_core": pa.array(np.zeros(b.num_rows, dtype=np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)
    return assigned.union(noise)
