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
  the smallest label among itself and its neighbours), on whichever
  plan the index chose; each label's root then hooks to the smallest
  label its members saw, and pointer jumping on the driver
  (``label = label[label]`` until it stops changing) flattens every
  component back to a star,
* every label is a node of the same component at or below the node's
  own position, and labels only decrease, so an unchanged label
  vector is the fixpoint: each component's smallest position, the
  answer union-find gives.  Each star with a smaller neighbour hooks
  in one round and a star without one is hooked or hooks in the next,
  so a component's star count at least halves every two rounds
  (O(log n) rounds, whatever the diameter).

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
from ..stages.propagate import EdgeIndex, jump

__all__ = ["connected_components", "neardup_clusters"]


def connected_components(pairs, id_a: str = "id_a", id_b: str = "id_b",
                         max_iters: int = 50, plan: str = "auto"):
    """(node, cluster_id) for every node appearing in ``pairs``;
    cluster_id = min node id of the connected component.  ``plan``
    chooses the :class:`EdgeIndex` plan.  Raises ``RuntimeError`` when
    ``max_iters`` rounds do not reach the fixpoint."""
    def edges(b):
        return pa.table({"src": pc.cast(b.column(id_a), pa.int64()),
                         "dst": pc.cast(b.column(id_b), pa.int64())})

    # an in-memory table is renamed on the driver: no Ray Data run
    idx = EdgeIndex(rd.from_arrow(edges(pairs)) if isinstance(
        pairs, pa.Table) else pairs.map_batches(
        edges, batch_format="pyarrow", zero_copy_batch=True), plan)
    # node i is the i-th smallest id, so the min position is the min id
    label = np.arange(idx.n, dtype=np.int64)
    for _ in range(max_iters):
        m = np.minimum(label, idx.sweep(label, "min", "both"))
        np.minimum.at(m, label, m)      # hook roots, not just nodes
        nxt = jump(m)
        if (nxt == label).all():
            nodes = idx.nodes.cast(pa.int64())
            return rd.from_arrow(pa.table({
                "node": nodes, "cluster_id": nodes.take(pa.array(label))}))
        label = nxt
    raise RuntimeError(
        f"connected_components: no fixpoint after {max_iters} rounds")


def neardup_clusters(sf_dir: str, threshold: float = 0.5):
    """MinHash-LSH verified pairs → connected components → keep-one.

    One row per document that has at least one near-duplicate:
    ``(doc_id, cluster_id, keep_doc_id)`` with keep_doc_id =
    cluster_id = min doc_id of the cluster (the kept representative).
    """
    from .dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold=threshold)
    cc = connected_components(pairs, id_a="doc_a", id_b="doc_b")
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
