"""Co-purchase graph built from lineitem: pair counts, triangles, rules, PMI, MST inputs, centrality.

Split from the former single-file relational pipeline module; see
``kgray/pipelines/relational/__init__.py`` for the package map.
"""

from __future__ import annotations
import math
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ...stages.aggregate import sorted_group_aggregate

from ._shared import (  # noqa: F401
    _copurchase_pair_counts,
    _unpack_pair,
)


def copurchase_triangles(sf_dir: str, min_count: int = 2, edges=None):
    """Distributed triangle enumeration over the co-purchase graph
    (edges = part pairs co-purchased at least ``min_count`` times).

    Classic two-join plan on the ordered edge set (a < b everywhere, so
    every triangle is enumerated exactly once as a < b < c):

    1. wedges = edges(a, mid) ⋈ edges(mid, c) on the middle vertex —
       one distributed sorted-merge join;
    2. close each wedge by an equi-join of the packed outer pair
       ``a·2³² + c`` against the packed edge set — a second single-key
       sorted-merge join (packing makes the composite key a plain int64,
       the same trick the pair counter uses).

    Both joins hash-ship only edge/wedge rows — never the fact table —
    and the wedge side is bounded by Σ deg² of the *thresholded* graph.
    At 100 TB the min_count support threshold is the knob that keeps
    the wedge fan-out sane (raise it for denser graphs)."""
    from ...stages.join import sorted_merge_join

    if edges is None:
        total = _copurchase_pair_counts(sf_dir)
        # pinned: consumed three ways (wedge left, wedge right, closing
        # keys) — unpinned, each consumer would re-run the pair exchange
        edges = (total.map_batches(_unpack_pair, batch_format="pyarrow",
                                   zero_copy_batch=True)
                 .filter(expr=f"n_copurchase >= {int(min_count)}")
                 .materialize())

    left = edges.map_batches(lambda b: pa.table({
        "mid": b.column("part_b"), "part_a": b.column("part_a")}),
        batch_format="pyarrow", zero_copy_batch=True)
    right = edges.map_batches(lambda b: pa.table({
        "mid": b.column("part_a"), "part_c": b.column("part_b")}),
        batch_format="pyarrow", zero_copy_batch=True)
    wedges = sorted_merge_join(left, right, on="mid")

    def _pack_ac(b: pa.Table) -> pa.Table:
        a = b.column("part_a").to_numpy(zero_copy_only=False)
        c = b.column("part_c").to_numpy(zero_copy_only=False)
        return pa.table({
            "ac": pa.array((a << 32) | c, type=pa.int64()),
            "part_a": b.column("part_a"),
            "part_b": b.column("mid"),
            "part_c": b.column("part_c")})

    packed_wedges = wedges.map_batches(_pack_ac, batch_format="pyarrow",
                                       zero_copy_batch=True)
    edge_keys = edges.map_batches(lambda b: pa.table({
        "ac": pa.array(
            (b.column("part_a").to_numpy(zero_copy_only=False) << 32)
            | b.column("part_b").to_numpy(zero_copy_only=False),
            type=pa.int64()),
        "closed": pa.array(np.ones(b.num_rows, dtype=np.int8))}),
        batch_format="pyarrow", zero_copy_batch=True)
    closed = sorted_merge_join(packed_wedges, edge_keys, on="ac")
    return closed.map_batches(
        lambda b: b.select(["part_a", "part_b", "part_c"]),
        batch_format="pyarrow", zero_copy_batch=True)


def copurchase_degree_hist(sf_dir: str, min_count: int = 2):
    """Degree distribution of the thresholded co-purchase graph — the
    first diagnostic run on any extracted graph.  Edges reduce to
    per-node degrees (each edge emits both endpoints), degrees reduce
    to a histogram; both aggregates carry rows bounded by nodes, never
    the fact table."""
    total = _copurchase_pair_counts(sf_dir)
    edges = (total.map_batches(_unpack_pair, batch_format="pyarrow",
                               zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}"))

    def endpoints(b: pa.Table) -> pa.Table:
        v = np.concatenate([
            b.column("part_a").to_numpy(zero_copy_only=False),
            b.column("part_b").to_numpy(zero_copy_only=False)])
        return pa.table({"v": pa.array(v, type=pa.int64()),
                         "degree": pa.array(np.ones(len(v),
                                                    dtype=np.int64))})

    deg = sorted_group_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        "v", [("degree", "sum")])
    hist = sorted_group_aggregate(
        deg.map_batches(lambda b: pa.table({
            "degree": b.column("degree"),
            "n_nodes": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "degree", [("n_nodes", "sum")])
    return hist


def copurchase_pmi(sf_dir: str, min_count: int = 2, k_top: int = 50):
    """Pointwise mutual information over co-purchase pairs — the
    association metric that separates 'frequently together because both
    are popular' from genuine affinity.  Exact integer counts feed
    ``ln((n_orders·c_ab) / (c_a·c_b))`` — ``math.log`` on exact-int
    ratios is bitwise-equal to DuckDB ``ln`` (measured; numpy's SIMD
    log is NOT).  Composition: the bounded-run pair exchange, per-item
    counts, two broadcast lookups, top-k."""
    import math

    total = _copurchase_pair_counts(sf_dir)
    pairs = total.map_batches(_unpack_pair, batch_format="pyarrow",
                              zero_copy_batch=True).filter(
        expr=f"n_copurchase >= {int(min_count)}").materialize()

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    item_counts = sorted_group_aggregate(
        li.map_batches(lambda b: pa.table({
            "p": b.column("l_partkey"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "p", [("c", "sum")]).to_pandas()
    c_of = dict(zip(item_counts["p"], item_counts["c"]))
    orders = sorted_group_aggregate(
        li.map_batches(lambda b: pa.table({
            "o": b.column("l_orderkey"),
            "one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "o", [("one", "min")], precombine=False).count()

    import ray
    c_ref = ray.put(c_of)

    def score(b: pa.Table) -> pa.Table:
        cm = ray.get(c_ref)
        a = b.column("part_a").to_pylist()
        bb = b.column("part_b").to_pylist()
        cab = b.column("n_copurchase").to_pylist()
        # mirror the oracle exactly: DuckDB casts each product to DOUBLE
        # before dividing, so round both operands to double first —
        # Python exact-int true division would round differently once a
        # product exceeds 2^53 (ADVICE r2)
        pmi = [math.log(float(orders * c) / float(cm[x] * cm[y]))
               for x, y, c in zip(a, bb, cab)]
        return pa.table({
            "part_a": b.column("part_a"), "part_b": b.column("part_b"),
            "n_copurchase": b.column("n_copurchase"),
            "pmi": pa.array(pmi, type=pa.float64())})

    return (pairs.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
            .sort(["pmi", "part_a", "part_b"],
                  descending=[True, False, False]).limit(k_top))


def copurchase_triple_itemsets(sf_dir: str, min_support: int = 2):
    """Frequent 3-itemsets over orders (A-priori, SET semantics:
    support = number of DISTINCT orders containing all three parts) —
    the classic two-pass market-basket mining plan:

    pass 1: distinct-per-order pair supports (bounded-run expansion on
    the (orderkey, partkey) sort — the `_copurchase_pair_counts` shape
    with per-run ``np.unique``); pairs with support ≥ s broadcast as a
    packed-int64 set (frequent-pair count is tiny by construction —
    that is the POINT of the support threshold);
    pass 2: per order run, expand only value triples whose THREE
    sub-pairs are all frequent — lossless by downward closure (any
    frequent triple's pairs are frequent under set semantics), so the
    result is exactly the SQL three-way distinct self-join.

    Triple keys exchange as (packed ab, c) two-column int64 keys —
    no 96-bit packing assumption."""
    from collections import Counter as _Counter

    from ...stages._runs import edge_interior_exchange, edge_mask, run_starts

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    srt = li.sort(["l_orderkey", "l_partkey"]).materialize()

    def _runs(order_keys, part_keys):
        starts = run_starts(order_keys)
        bounds = np.r_[starts, len(order_keys)]
        parts = part_keys.to_numpy(zero_copy_only=False)
        for i in range(len(starts)):
            u = np.unique(parts[bounds[i]:bounds[i + 1]])
            if len(u) >= 2:
                yield u

    def _pairs(order_keys, part_keys) -> pa.Table:
        c = _Counter()
        for u in _runs(order_keys, part_keys):
            m = len(u)
            for x in range(m - 1):
                a = int(u[x]) << 32
                for y in range(x + 1, m):
                    c[a | int(u[y])] += 1
        return pa.table({
            "pair": pa.array(list(c.keys()), type=pa.int64()),
            "n": pa.array(list(c.values()), type=pa.int64())})

    def edge_fn(batch: pa.Table) -> pa.Table:
        return batch.filter(edge_mask(batch.column("l_orderkey")))

    def interior_pairs(batch: pa.Table) -> pa.Table:
        interior = batch.filter(
            pc.invert(edge_mask(batch.column("l_orderkey"))))
        return _pairs(interior.column("l_orderkey"),
                      interior.column("l_partkey"))

    def merge_sorted(edge_tables):
        t = pa.concat_tables(edge_tables)
        return t.take(pc.sort_indices(
            t, sort_keys=[("l_orderkey", "ascending"),
                          ("l_partkey", "ascending")]))

    pair_counts = sorted_group_aggregate(
        edge_interior_exchange(
            srt, edge_fn, interior_pairs,
            lambda ts: _pairs(merge_sorted(ts).column("l_orderkey"),
                              merge_sorted(ts).column("l_partkey"))),
        "pair", [("n", "sum")], precombine=False)
    freq = pair_counts.filter(expr=f"n >= {int(min_support)}") \
        .map_batches(lambda b: b.select(["pair"]), batch_format="pyarrow") \
        .take_all()
    freq_set = frozenset(r["pair"] for r in freq)
    freq_ref = ray.put(freq_set)

    def _triples(order_keys, part_keys) -> pa.Table:
        fs = ray.get(freq_ref)
        c = _Counter()
        for u in _runs(order_keys, part_keys):
            m = len(u)
            if m < 3:
                continue
            for x in range(m - 2):
                a = int(u[x])
                for y in range(x + 1, m - 1):
                    b = int(u[y])
                    if (a << 32 | b) not in fs:
                        continue
                    ab = a << 32 | b
                    for z in range(y + 1, m):
                        cc = int(u[z])
                        if (a << 32 | cc) in fs and (b << 32 | cc) in fs:
                            c[(ab, cc)] += 1
        ks = list(c.keys())
        return pa.table({
            "ab": pa.array([k[0] for k in ks], type=pa.int64()),
            "part_c": pa.array([k[1] for k in ks], type=pa.int64()),
            "n_orders": pa.array(list(c.values()), type=pa.int64())})

    def interior_triples(batch: pa.Table) -> pa.Table:
        interior = batch.filter(
            pc.invert(edge_mask(batch.column("l_orderkey"))))
        return _triples(interior.column("l_orderkey"),
                        interior.column("l_partkey"))

    tri = sorted_group_aggregate(
        edge_interior_exchange(
            srt, edge_fn, interior_triples,
            lambda ts: _triples(merge_sorted(ts).column("l_orderkey"),
                                merge_sorted(ts).column("l_partkey"))),
        ["ab", "part_c"], [("n_orders", "sum")], precombine=False) \
        .filter(expr=f"n_orders >= {int(min_support)}")

    def unpack(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "ab" not in b.schema.names:
            # Ray emits schema-LESS empty blocks after filters (NOTES #66)
            return pa.table({
                "part_a": pa.array([], type=pa.int64()),
                "part_b": pa.array([], type=pa.int64()),
                "part_c": pa.array([], type=pa.int64()),
                "n_orders": pa.array([], type=pa.int64())})
        ab = b.column("ab").to_numpy(zero_copy_only=False)
        return pa.table({
            "part_a": pa.array(ab >> 32, type=pa.int64()),
            "part_b": pa.array(ab & 0xFFFFFFFF, type=pa.int64()),
            "part_c": b.column("part_c"),
            "n_orders": b.column("n_orders")})

    return tri.map_batches(unpack, batch_format="pyarrow",
                           zero_copy_batch=True)


def copurchase_rules(sf_dir: str, min_count: int = 2, k_top: int = 50):
    """Association rules a→b over co-purchase pairs (the market-basket
    classic): confidence = c_ab/c_a and lift = n_li·c_ab/(c_a·c_b),
    emitted BOTH directions per unordered pair.  Counts are the shared
    bounded-run pair exchange (:func:`_copurchase_pair_counts`) plus a
    broadcast per-item count dict; each ratio rounds its exact-int
    operands through float64 before dividing, the `copurchase_pmi`
    ADVICE discipline, so the bitwise gate holds.  Top-k by
    (confidence desc, antecedent, consequent)."""
    total = _copurchase_pair_counts(sf_dir)
    pairs = total.map_batches(_unpack_pair, batch_format="pyarrow",
                              zero_copy_batch=True).filter(
        expr=f"n_copurchase >= {int(min_count)}").materialize()

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    item_counts = sorted_group_aggregate(
        li.map_batches(lambda b: pa.table({
            "p": b.column("l_partkey"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "p", [("c", "sum")]).to_pandas()
    c_of = dict(zip(item_counts["p"], item_counts["c"]))
    n_li = int(item_counts["c"].sum())

    c_ref = ray.put(c_of)

    def score(b: pa.Table) -> pa.Table:
        cm = ray.get(c_ref)
        a = b.column("part_a").to_pylist()
        bb = b.column("part_b").to_pylist()
        cab = b.column("n_copurchase").to_pylist()
        ante, cons, sup, conf, lift = [], [], [], [], []
        for x, y, c in zip(a, bb, cab):
            for u, v in ((x, y), (y, x)):
                ante.append(u)
                cons.append(v)
                sup.append(c)
                conf.append(float(c) / float(cm[u]))
                lift.append(float(n_li * c) / float(cm[u] * cm[v]))
        return pa.table({
            "antecedent": pa.array(ante, type=pa.int64()),
            "consequent": pa.array(cons, type=pa.int64()),
            "n_copurchase": pa.array(sup, type=pa.int64()),
            "confidence": pa.array(conf, type=pa.float64()),
            "lift": pa.array(lift, type=pa.float64())})

    return (pairs.map_batches(score, batch_format="pyarrow",
                              zero_copy_batch=True)
            .sort(["confidence", "antecedent", "consequent"],
                  descending=[True, False, False]).limit(k_top))


def copurchase_edge_support(sf_dir: str, min_count: int = 2):
    """Per-edge triangle support over the thresholded co-purchase
    graph — the k-truss building block (an edge inside ``s`` triangles
    survives a (s+2)-truss peel): triangles from the shared two-join
    plan explode into their three edges, counts reduce per edge, and a
    LEFT join against the edge set zero-fills triangle-free edges."""
    from ...stages.join import sorted_merge_join

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .materialize())
    tris = copurchase_triangles(sf_dir, min_count=min_count, edges=edges)

    def tri_edges(b: pa.Table) -> pa.Table:
        a = b.column("part_a").to_numpy(zero_copy_only=False)
        bb = b.column("part_b").to_numpy(zero_copy_only=False)
        c = b.column("part_c").to_numpy(zero_copy_only=False)
        ea = np.concatenate([a, a, bb])
        eb = np.concatenate([bb, c, c])
        return pa.table({
            "pair": pa.array((ea << 32) | eb, type=pa.int64()),
            "n_triangles": pa.array(np.ones(len(ea), dtype=np.int64))})

    sup = sorted_group_aggregate(
        tris.map_batches(tri_edges, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["pair"], [("n_triangles", "sum")], precombine=True)

    keyed = edges.map_batches(lambda b: pa.table({
        "pair": pa.array(
            (b.column("part_a").to_numpy(zero_copy_only=False) << 32)
            | b.column("part_b").to_numpy(zero_copy_only=False),
            type=pa.int64())}), batch_format="pyarrow",
        zero_copy_batch=True)

    out = sorted_merge_join(keyed, sup, on="pair", how="left")

    def unpack(b: pa.Table) -> pa.Table:
        p = b.column("pair").to_numpy(zero_copy_only=False)
        nt = pc.fill_null(b.column("n_triangles"),
                          pa.scalar(0, type=pa.int64()))
        return pa.table({
            "part_a": pa.array(p >> 32, type=pa.int64()),
            "part_b": pa.array(p & 0xFFFFFFFF, type=pa.int64()),
            "n_triangles": nt})

    return out.map_batches(unpack, batch_format="pyarrow",
                           zero_copy_batch=True)


def copurchase_closeness(sf_dir: str, n_seeds: int = 8,
                         max_depth: int = 6, min_count: int = 2):
    """Closeness centrality + eccentricity of deterministic seed nodes
    in the thresholded co-purchase graph, by bounded-depth BFS — the
    multi-source shortest-path primitive PageRank/components don't
    cover.  Seeds = the ``n_seeds`` nodes with the smallest md5(node)
    (a stable sample, same rule as ``functions/sampling``).  The BFS is
    ``graph._bounded_bfs`` over the graph's
    :class:`~kgray.stages.propagate.EdgeIndex`: one (min,+) sweep per
    level with one distance column per seed, so BFS level order makes
    every distance exact.  Depth is capped at ``max_depth`` to keep
    the SQL mirror a bounded recursive CTE.  Output is seed-sized:
    reached-set size, distance sum, eccentricity (max dist within the
    cap) and closeness ``(n_reached−1)/Σdist`` as one mirrored IEEE
    division.  NOTE both metrics are depth-bounded: on a graph with
    diameter > ``max_depth`` the eccentricity is understated and the
    closeness covers only the reached subset (n_reached tells a
    consumer how much was reached; the KG twin ``kg_entity_distance``
    additionally stamps max_depth/bfs_converged columns)."""
    from ...functions.sampling import _md5_bucket
    from ...stages.propagate import EdgeIndex
    from ..graph import _bounded_bfs

    idx = EdgeIndex(
        _copurchase_pair_counts(sf_dir)
        .map_batches(_unpack_pair, batch_format="pyarrow",
                     zero_copy_batch=True)
        .filter(expr=f"n_copurchase >= {int(min_count)}")
        .map_batches(lambda b: pa.table({
            "src": b.column("part_a"), "dst": b.column("part_b")}),
            batch_format="pyarrow", zero_copy_batch=True))
    names = idx.nodes.to_pylist()
    hv = _md5_bucket(names, 1 << 62)
    seeds = np.sort(np.asarray(sorted(range(idx.n), key=lambda i: (
        hv[i], names[i]))[:n_seeds], dtype=np.int64))
    d, _ = _bounded_bfs(idx, seeds, max_depth)
    n = (d >= 0).sum(axis=0)
    s = np.maximum(d, 0).sum(axis=0)
    return pa.table({
        "seed": idx.nodes.take(pa.array(seeds)).cast(pa.int64()),
        "n_reached": pa.array(n, type=pa.int64()),
        "sum_dist": pa.array(s, type=pa.int64()),
        "eccentricity": pa.array(d.max(axis=0, initial=0), type=pa.int64()),
        "closeness": pa.array([float(a - 1) / float(b) if b > 0 else 0.0
                               for a, b in zip(n.tolist(), s.tolist())],
                              type=pa.float64())})


