"""Iterative graph analytics over the extracted knowledge graph:
deterministic distributed PageRank.

Float PageRank is NOT reproducible on a distributed engine — per-node
incoming sums depend on block splits and merge order.  This
implementation therefore runs in FIXED POINT: ranks are int64
micro-units (UNIT = 10^12), contributions are integer divisions, and
every aggregate is an integer sum (order-independent), so the result
is bit-identical across runs, partitionings and cluster sizes — which
is what makes the committed fixture an exact oracle.

Per iteration (all distributed, reusing the engine's own operators):
  contrib(u→v) = rank(u) // outdeg(u)             (broadcast-free:
      edges ⋈ ranks via sorted_merge_join on src — node-sized right)
  in(v)        = Σ contrib                        (sorted_group_aggregate)
  dangling     = Σ rank(u) over outdeg(u)=0       (driver scalar)
  rank'(v)     = (1−d)·UNIT/N + d·(in(v) + dangling/N)
with d = 17/20 (0.85) in exact integer arithmetic.

Rounding drift vs real-valued PageRank is ≤ iterations · N / UNIT —
~1e-6 at a million nodes — pinned by a numpy-float comparison test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

__all__ = ["pagerank", "entity_pagerank", "kcore", "copurchase_kcore",
           "ppr", "entity_ppr"]

UNIT = 10 ** 12


# plan switch (same rule class as dedup's broadcast-vs-join verify):
# at or below this many nodes the rank/outdeg vectors broadcast as
# numpy arrays (~16 MB at the limit) and each iteration is ONE streaming
# map over the integer-indexed edges plus a sparse driver merge — no
# sort exchange.  Above it, the shuffle plan (join + aggregate per
# iteration) is the scale path.  Both plans run the SAME integer
# arithmetic, so their outputs are bit-identical (pinned by test).
_DENSE_MAX_NODES = 2_000_000

# kcore's dense-peel switch: edge LIST must fit the driver (16 bytes/edge
# → ~80 MB at the limit); above it the per-round semi-join plan runs
_KCORE_DENSE_MAX_EDGES = 5_000_000


def pagerank(edges, iters: int = 10, d_num: int = 17, d_den: int = 20,
             plan: str = "auto"):
    """PageRank over an edge Dataset (``src``, ``dst`` string columns;
    duplicate edges count once).  Returns a Dataset
    (node, rank_fp:int64) with ranks in UNIT micro-units summing to
    ~UNIT.  Deterministic (integer arithmetic throughout).

    ``plan``: ``"dense"`` (broadcast node vectors, per-iteration map +
    sparse merge), ``"shuffle"`` (join + aggregate per iteration), or
    ``"auto"`` (dense at or below ``_DENSE_MAX_NODES`` nodes).
    """
    import ray

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    assert plan in ("auto", "dense", "shuffle")

    # distinct edges, then static per-source out-degrees
    edges = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "src": b.column("src"), "dst": b.column("dst"),
            "__one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["src", "dst"], [("__one", "min")]).drop_columns(["__one"]) \
        .materialize()

    # node universe + out-degrees in ONE aggregate: src rows carry 1,
    # dst rows carry 0, so pure-sink nodes appear with outdeg 0
    ranks = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "node": pa.concat_arrays([
                b.column("src").combine_chunks(),
                b.column("dst").combine_chunks()]),
            "outdeg": pa.array(np.r_[np.ones(b.num_rows, dtype=np.int64),
                                     np.zeros(b.num_rows, dtype=np.int64)])}),
            batch_format="pyarrow"),
        "node", [("outdeg", "sum")]).materialize()
    n_nodes = ranks.count()
    if n_nodes == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.string()),
            "rank_fp": pa.array([], type=pa.int64())}))

    base = ((d_den - d_num) * UNIT) // (d_den * n_nodes)

    if plan == "dense" or (plan == "auto" and n_nodes <= _DENSE_MAX_NODES):
        return _pagerank_dense(edges, ranks, n_nodes, base, iters,
                               d_num, d_den)

    ranks = ranks.map_batches(lambda b: pa.table({
        "node": b.column("node"),
        "rank_fp": pa.array(
            np.full(b.num_rows, UNIT // n_nodes, dtype=np.int64)),
        "outdeg": b.column("outdeg")}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        # dangling mass (outdeg == 0) — one small driver scalar over the
        # already-materialized node-sized ranks
        dangling = ranks.map_batches(
            lambda b: pa.table({"d": pa.array([int(pc.sum(pc.if_else(
                pc.equal(b.column("outdeg"), pa.scalar(0, type=pa.int64())),
                b.column("rank_fp"),
                pa.scalar(0, type=pa.int64()))).as_py() or 0)],
                type=pa.int64())}),
            batch_format="pyarrow").sum("d") or 0
        share = int(dangling) // n_nodes

        # ONE join (edges ⋈ ranks on src) + ONE aggregate per iteration:
        # zero-contribution rows for every node ride the same aggregate
        # (sum picks up real contribs, max recovers the node's outdeg —
        # zero rows carry it, contrib rows carry 0 ≤ any outdeg)
        contribs = sorted_merge_join(
            edges,
            ranks.map_batches(lambda b: pa.table({
                "src": b.column("node"),
                "rank_fp": b.column("rank_fp"),
                "outdeg": b.column("outdeg")}), batch_format="pyarrow"),
            on="src").map_batches(
            lambda b: pa.table({
                "node": b.column("dst"),
                "in_fp": pc.divide(b.column("rank_fp"),
                                   b.column("outdeg")),
                "odcarry": pa.array(np.zeros(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        zeros = ranks.map_batches(lambda b: pa.table({
            "node": b.column("node"),
            "in_fp": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "odcarry": b.column("outdeg")}), batch_format="pyarrow")

        ranks = sorted_group_aggregate(
            contribs.union(zeros), "node",
            [("in_fp", "sum"), ("odcarry", "max")]).map_batches(
            lambda b, _s=share: pa.table({
                "node": b.column("node"),
                "rank_fp": pc.add(
                    pa.scalar(base, type=pa.int64()),
                    pc.divide(pc.multiply(
                        pc.add(b.column("in_fp"),
                               pa.scalar(_s, type=pa.int64())),
                        pa.scalar(d_num, type=pa.int64())),
                        pa.scalar(d_den, type=pa.int64()))),
                "outdeg": b.column("odcarry")}),
            batch_format="pyarrow").materialize()

    return ranks.map_batches(lambda b: b.select(["node", "rank_fp"]),
                             batch_format="pyarrow")


def _pagerank_dense(edges, node_outdeg, n_nodes: int, base: int,
                    iters: int, d_num: int, d_den: int):
    """Dense-plan iterations: node↔int index built once (node-sized
    driver table — the plan is only selected when that fits), edges
    integer-indexed ONCE and kept distributed; each iteration broadcasts
    the rank vector (``ray.put``), streams one map over the indexed
    edges emitting SPARSE per-block (idx, contribution-sum) partials,
    and merges them on the driver with order-independent integer adds —
    bit-identical to the shuffle plan's join + aggregate."""
    import ray

    # node universe with out-degrees, sorted for a deterministic index
    nt = pa.concat_tables(
        [t for t in ray.get(node_outdeg.to_arrow_refs()) if t.num_rows])
    nt = nt.take(pc.sort_indices(nt, sort_keys=[("node", "ascending")]))
    nodes = nt.column("node")
    outdeg = nt.column("outdeg").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    index = {n: i for i, n in enumerate(nodes.to_pylist())}
    idx_ref = ray.put(index)
    outdeg_ref = ray.put(outdeg)

    def to_idx(batch: pa.Table) -> pa.Table:
        ix = ray.get(idx_ref)
        si = np.array([ix[s] for s in batch.column("src").to_pylist()],
                      dtype=np.int64)
        di = np.array([ix[s] for s in batch.column("dst").to_pylist()],
                      dtype=np.int64)
        return pa.table({"si": pa.array(si), "di": pa.array(di)})

    int_edges = edges.map_batches(to_idx, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    # The iteration loop uses RAW Ray tasks over the pinned edge blocks:
    # the Dataset API would re-enter the streaming executor per
    # iteration (~0.3-0.5 s fixed overhead each at 32 CPUs — measured
    # dominating this stage at sf0.1), while the loop's shape (static
    # blocks × changing broadcast vector) is exactly the task-graph
    # escape hatch.  Blocks stay in the object store; only (idx, sum)
    # sparse partials ever return.
    edge_block_refs = [r for r in int_edges.to_arrow_refs()]

    @ray.remote
    def contribs(batch: pa.Table, rv: np.ndarray, od: np.ndarray):
        if batch.num_rows == 0:
            return None
        si = batch.column("si").to_numpy(zero_copy_only=False)
        di = batch.column("di").to_numpy(zero_copy_only=False)
        c = rv[si] // od[si]
        uniq, inv = np.unique(di, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, c)
        return uniq, sums

    r = np.full(n_nodes, UNIT // n_nodes, dtype=np.int64)
    dangle_mask = outdeg == 0
    for _ in range(iters):
        share = int(r[dangle_mask].sum()) // n_nodes
        r_ref = ray.put(r)
        parts = ray.get([contribs.remote(b, r_ref, outdeg_ref)
                         for b in edge_block_refs])
        in_fp = np.zeros(n_nodes, dtype=np.int64)
        for p in parts:
            if p is not None:
                np.add.at(in_fp, p[0], p[1])
        r = base + ((in_fp + share) * d_num) // d_den

    return rd.from_arrow(pa.table({"node": nodes,
                                   "rank_fp": pa.array(r, type=pa.int64())}))


def entity_pagerank(sf_dir: str, iters: int = 10):
    """PageRank over the extracted entity graph (subj→obj edges of the
    canonical triples) — 'which entities sit at the center of the
    corpus'.  Deterministic fixed-point ranks (fixture oracle; accuracy
    vs real-valued power iteration pinned in tests)."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    graph = canonical_graph(
        kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm"))
    edges = graph.map_batches(lambda b: pa.table({
        "src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow")
    return pagerank(edges, iters=iters)


def kcore(edges, k: int, max_rounds: int = 60, plan: str = "auto"):
    """k-core of an UNDIRECTED graph: the maximal subgraph where every
    node has degree ≥ k, computed by peeling to the fixpoint.

    ``edges``: Dataset (``src``, ``dst``), each undirected edge ONCE
    (``src < dst``), no self-loops.  Returns (``node``, ``core_degree``)
    for nodes surviving in the k-core — ``core_degree`` is the node's
    degree WITHIN the core, a pure function of the graph (peeling order
    never changes the fixpoint, so the output is partitioning-exact and
    plan-independent).

    ``plan="shuffle"`` (the scale path) per round — all edge/node-sized,
    never fact-sized:
      degrees = one aggregate over both endpoints;
      dead    = nodes with degree < k (driver sees only the COUNT);
      edges   = two distributed semi-joins against the alive node set.
    Rounds are bounded by the peeling depth (≤ longest degeneracy
    chain); each round materializes the shrunk edge set so lineage
    stays O(1).  At web scale the alive set stays a Dataset end to end
    — nothing node-sized is ever collected to the driver.

    ``plan="dense"``: at or below ``_KCORE_DENSE_MAX_EDGES`` edges
    (``auto``'s switch — same rule class as pagerank's) the edge list
    collects once and peels vectorized (np.bincount per round) — the
    peeling depth then costs microseconds per round instead of a sort
    exchange.  Identical output (pinned by test)."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.semijoin import semi_join

    assert plan in ("auto", "dense", "shuffle")

    def endpoints(b: pa.Table) -> pa.Table:
        v = np.concatenate([
            b.column("src").to_numpy(zero_copy_only=False),
            b.column("dst").to_numpy(zero_copy_only=False)])
        return pa.table({"node": pa.array(v, type=pa.int64()),
                         "core_degree": pa.array(
                             np.ones(len(v), dtype=np.int64))})

    def empty_result() -> pa.Table:
        # NB Ray 2.49 `from_arrow(empty).to_pandas()` drops the schema
        # (0 columns) — consumers of a possibly-empty core must check
        # num_rows before touching columns (see test_kcore.py)
        return pa.table({"node": pa.array([], type=pa.int64()),
                         "core_degree": pa.array([], type=pa.int64())})

    edges = edges.materialize()
    if plan == "dense" or (plan == "auto"
                           and edges.count() <= _KCORE_DENSE_MAX_EDGES):
        import ray
        tabs = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return rd.from_arrow(empty_result())
        et = pa.concat_tables(tabs, promote_options="permissive")
        s = et.column("src").to_numpy(zero_copy_only=False)
        d = et.column("dst").to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([s, d]),
                               return_inverse=True)
        si, di = inv[:len(s)], inv[len(s):]
        alive_e = np.ones(len(s), dtype=bool)
        while True:
            deg = np.bincount(si[alive_e], minlength=len(nodes)) \
                + np.bincount(di[alive_e], minlength=len(nodes))
            dead = (deg > 0) & (deg < k)
            if not dead.any():
                break
            alive_e &= ~(dead[si] | dead[di])
        keep = deg >= k
        if not keep.any():
            return rd.from_arrow(empty_result())
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes[keep], type=pa.int64()),
            "core_degree": pa.array(deg[keep].astype(np.int64))}))

    for _ in range(max_rounds):
        if edges.count() == 0:
            return rd.from_arrow(empty_result())
        deg = sorted_group_aggregate(
            edges.map_batches(endpoints, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["node"], [("core_degree", "sum")]).materialize()
        n_dead = deg.filter(expr=f"core_degree < {int(k)}").count()
        if n_dead == 0:
            return deg
        alive = deg.filter(expr=f"core_degree >= {int(k)}")
        src_keys = alive.map_batches(
            lambda b: pa.table({"src": b.column("node")}),
            batch_format="pyarrow", zero_copy_batch=True)
        dst_keys = alive.map_batches(
            lambda b: pa.table({"dst": b.column("node")}),
            batch_format="pyarrow", zero_copy_batch=True)
        edges = semi_join(semi_join(edges, src_keys, on="src"),
                          dst_keys, on="dst").materialize()
    raise RuntimeError(f"kcore: no fixpoint after {max_rounds} rounds")


def copurchase_kcore(sf_dir: str, k: int = 3, min_count: int = 2):
    """k-core of the thresholded co-purchase graph — the standard
    'dense habitat' reduction before community/motif analysis (and the
    iterative-peeling counterpart of the one-shot degree histogram).
    Fixture-oracled (peeling is not SQL-expressible without recursion);
    pinned vs a serial brute-force peeler in ``test_kcore.py``."""
    from .relational import _copurchase_pair_counts, _unpack_pair

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .map_batches(lambda b: pa.table({
                 "src": b.column("part_a"), "dst": b.column("part_b")}),
                 batch_format="pyarrow", zero_copy_batch=True))
    return kcore(edges, k=k).sort("node")


# ------------------------------------------------------------------ HITS

def _rescale_unit(x: np.ndarray) -> np.ndarray:
    """Exact final normalization to sum ≈ UNIT: per-entry Python-int
    ``x·UNIT // S`` (the int64 product would overflow; this runs ONCE
    on the node-sized output, not per iteration)."""
    s = int(x.sum())
    if s <= 0:
        return x
    return np.array([int(v) * UNIT // s for v in x.tolist()],
                    dtype=np.int64)


def _shift_for(x: np.ndarray, bits: int = 40) -> int:
    """Uniform right-shift keeping max(x) under 2^bits — HITS is
    scale-invariant, so a shared shift preserves the fixpoint exactly
    and is a pure function of the vector (plan-independent)."""
    m = int(x.max()) if len(x) else 0
    return max(0, m.bit_length() - bits)


def hits(edges, iters: int = 20, plan: str = "auto"):
    """Kleinberg HITS (hubs & authorities) over a directed edge Dataset
    (``src``, ``dst``; duplicates count once) — deterministic integer
    fixed point.  Instead of the textbook per-iteration L2
    normalization (whose sqrt breaks integer exactness), magnitude is
    controlled by a UNIFORM right-shift (scale invariance makes the
    two equivalent up to the final normalization); the returned
    ``hub_fp``/``auth_fp`` are rescaled once at the end to sum ≈ UNIT
    with exact Python-int arithmetic.

    Plans (same switch rule and bit-identity contract as
    :func:`pagerank`, pinned by test): ``dense`` broadcasts the two
    node vectors over integer-indexed pinned edge blocks (raw Ray
    tasks — the per-iteration Dataset overhead dominates otherwise);
    ``shuffle`` runs one sorted-merge join + one aggregate per
    direction per iteration, all node/edge-sized."""
    import ray

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    assert plan in ("auto", "dense", "shuffle")

    edges = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "src": b.column("src"), "dst": b.column("dst"),
            "__one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["src", "dst"], [("__one", "min")]).drop_columns(["__one"]) \
        .materialize()

    nodes_ds = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "node": pa.concat_arrays([
                b.column("src").combine_chunks(),
                b.column("dst").combine_chunks()]),
            "__one": pa.array(np.ones(2 * b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "node", [("__one", "min")]).materialize()
    n_nodes = nodes_ds.count()
    if n_nodes == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.string()),
            "hub_fp": pa.array([], type=pa.int64()),
            "auth_fp": pa.array([], type=pa.int64())}))

    if plan == "dense" or (plan == "auto" and n_nodes <= _DENSE_MAX_NODES):
        return _hits_dense(edges, nodes_ds, n_nodes, iters)
    return _hits_shuffle(edges, nodes_ds, n_nodes, iters,
                         sorted_group_aggregate, sorted_merge_join)


def _hits_dense(edges, nodes_ds, n_nodes: int, iters: int):
    import ray

    nt = pa.concat_tables(
        [t for t in ray.get(nodes_ds.to_arrow_refs())
         if t.num_rows and "node" in t.schema.names])
    nt = nt.take(pc.sort_indices(nt, sort_keys=[("node", "ascending")]))
    nodes = nt.column("node")
    index = {n: i for i, n in enumerate(nodes.to_pylist())}
    idx_ref = ray.put(index)

    def to_idx(batch: pa.Table) -> pa.Table:
        ix = ray.get(idx_ref)
        si = np.array([ix[s] for s in batch.column("src").to_pylist()],
                      dtype=np.int64)
        di = np.array([ix[s] for s in batch.column("dst").to_pylist()],
                      dtype=np.int64)
        return pa.table({"si": pa.array(si), "di": pa.array(di)})

    int_edges = edges.map_batches(to_idx, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
    edge_block_refs = [r for r in int_edges.to_arrow_refs()]

    @ray.remote
    def push(batch: pa.Table, v: np.ndarray, forward: bool):
        if batch.num_rows == 0 or "si" not in batch.schema.names:
            return None
        si = batch.column("si").to_numpy(zero_copy_only=False)
        di = batch.column("di").to_numpy(zero_copy_only=False)
        frm, to = (si, di) if forward else (di, si)
        uniq, inv = np.unique(to, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, v[frm])
        return uniq, sums

    def sweep(v: np.ndarray, forward: bool) -> np.ndarray:
        v_ref = ray.put(v)
        parts = ray.get([push.remote(b, v_ref, forward)
                         for b in edge_block_refs])
        out = np.zeros(n_nodes, dtype=np.int64)
        for p in parts:
            if p is not None:
                np.add.at(out, p[0], p[1])
        return out >> np.int64(_shift_for(out))

    h = np.full(n_nodes, 1 << 20, dtype=np.int64)
    a = np.zeros(n_nodes, dtype=np.int64)
    for _ in range(iters):
        a = sweep(h, True)        # auth(v) = Σ hub(u) over u→v
        h = sweep(a, False)       # hub(u)  = Σ auth(v) over u→v
    return rd.from_arrow(pa.table({
        "node": nodes,
        "hub_fp": pa.array(_rescale_unit(h), type=pa.int64()),
        "auth_fp": pa.array(_rescale_unit(a), type=pa.int64())}))


def _hits_shuffle(edges, nodes_ds, n_nodes: int, iters: int,
                  sorted_group_aggregate, sorted_merge_join):
    """One sorted-merge join + one aggregate per direction per
    iteration; the uniform shift comes from a node-sized max partial
    (identical arithmetic to the dense plan — bit-equal, pinned by
    test)."""
    import ray

    vec = nodes_ds.map_batches(lambda b: pa.table({
        "node": b.column("node"),
        "v": pa.array(np.full(b.num_rows, 1 << 20, dtype=np.int64))}),
        batch_format="pyarrow").materialize()
    auth = None

    def sweep(v_ds, key_from: str, key_to: str):
        contrib = sorted_merge_join(
            edges,
            v_ds.map_batches(lambda b: pa.table({
                key_from: b.column("node"), "v": b.column("v")}),
                batch_format="pyarrow"),
            on=key_from)
        summed = sorted_group_aggregate(
            contrib.map_batches(lambda b: pa.table({
                "node": b.column(key_to), "v": b.column("v")}),
                batch_format="pyarrow"),
            "node", [("v", "sum")])
        # reindex over the full universe (nodes with no in/out edges
        # keep 0) — a left join of the node table against the sums
        from ..stages.join import sorted_merge_join as smj
        full = smj(nodes_ds.map_batches(
            lambda b: b.select(["node"]), batch_format="pyarrow"),
            summed, on="node", how="left")
        full = full.map_batches(lambda b: pa.table({
            "node": b.column("node"),
            "v": pc.fill_null(b.column("v"), 0)}),
            batch_format="pyarrow").materialize()
        mx = max((r["m"] for r in full.map_batches(
            lambda b: pa.table({"m": pa.array(
                [int(pc.max(b.column("v")).as_py() or 0)],
                type=pa.int64())}), batch_format="pyarrow").take_all()),
            default=0)
        sh = max(0, int(mx).bit_length() - 40)
        return full.map_batches(lambda b: pa.table({
            "node": b.column("node"),
            "v": pc.shift_right(b.column("v"), sh)}),
            batch_format="pyarrow").materialize()

    for _ in range(iters):
        auth = sweep(vec, "src", "dst")
        vec = sweep(auth, "dst", "src")

    ht = pa.concat_tables([t for t in ray.get(vec.to_arrow_refs())
                           if t.num_rows and "node" in t.schema.names])
    at = pa.concat_tables([t for t in ray.get(auth.to_arrow_refs())
                           if t.num_rows and "node" in t.schema.names])
    ht = ht.take(pc.sort_indices(ht, sort_keys=[("node", "ascending")]))
    at = at.take(pc.sort_indices(at, sort_keys=[("node", "ascending")]))
    h = ht.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    a = at.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
    return rd.from_arrow(pa.table({
        "node": ht.column("node"),
        "hub_fp": pa.array(_rescale_unit(h), type=pa.int64()),
        "auth_fp": pa.array(_rescale_unit(a), type=pa.int64())}))


def entity_hits(sf_dir: str, iters: int = 20, plan: str = "auto"):
    """HITS over the extracted entity graph — 'which entities point at
    the hubs, which collect the links'.  Deterministic fixed point
    (fixture oracle; dense/shuffle plan equality pinned in tests)."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    graph = canonical_graph(
        kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm"))
    edges = graph.map_batches(lambda b: pa.table({
        "src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow")
    return hits(edges, iters=iters, plan=plan)


# ------------------------------------------------------------------ label propagation

_LPA_DENSE_MAX_EDGES = 2_000_000


def label_propagation(edges, rounds: int = 4, plan: str = "auto"):
    """Synchronous label-propagation communities (Raghavan et al. 2007)
    over an UNDIRECTED graph: every node starts labeled with itself;
    each round every node adopts the most frequent label among its
    neighbors, ties to the LEXICOGRAPHICALLY SMALLEST label.  A FIXED
    round count with synchronous updates makes the result a pure
    function of the graph (classic async LPA is visit-order-dependent;
    this variant is partitioning- and plan-independent, pinned by the
    dense==shuffle test).

    ``edges``: Dataset (``src``, ``dst``) string node keys.  Input is
    normalized to distinct undirected pairs, self-loops dropped.
    Returns (``node``, ``community``) — community = the surviving label.

    ``plan="shuffle"`` (the scale path), per round: two sorted-merge
    joins ship each endpoint's label across its edges (edge-sized),
    one ``sorted_group_aggregate`` counts (node, label) votes, one
    ``grouped_topk(k=1)`` takes the per-node argmax.  Nothing
    node-sized ever collects to the driver.  ``plan="dense"`` below
    ``_LPA_DENSE_MAX_EDGES``: one collect, vectorized np.lexsort
    vote-counting per round — identical output."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import grouped_topk

    assert plan in ("auto", "dense", "shuffle")

    def norm(b: pa.Table) -> pa.Table:
        lo = pc.min_element_wise(b.column("src"), b.column("dst"))
        hi = pc.max_element_wise(b.column("src"), b.column("dst"))
        t = pa.table({"u": lo, "v": hi,
                      "n": pa.array(np.ones(b.num_rows, dtype=np.int64))})
        return t.filter(pc.fill_null(pc.not_equal(lo, hi), False))

    und = sorted_group_aggregate(
        edges.map_batches(norm, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["u", "v"], [("n", "sum")]).drop_columns(["n"]).materialize()

    if plan == "dense" or (plan == "auto"
                           and und.count() <= _LPA_DENSE_MAX_EDGES):
        import ray
        tabs = [t for t in ray.get(und.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return rd.from_arrow(pa.table({
                "node": pa.array([], type=pa.string()),
                "community": pa.array([], type=pa.string())}))
        et = pa.concat_tables(tabs, promote_options="permissive")
        u = np.asarray(et.column("u").to_pylist())
        v = np.asarray(et.column("v").to_pylist())
        names, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[:len(u)], inv[len(u):]
        lab = np.arange(len(names), dtype=np.int64)
        msg_node = np.concatenate([ui, vi])
        msg_src = np.concatenate([vi, ui])
        for _ in range(rounds):
            ml = lab[msg_src]
            order = np.lexsort((ml, msg_node))
            nn, ll = msg_node[order], ml[order]
            new_run = np.ones(len(nn), dtype=bool)
            new_run[1:] = (nn[1:] != nn[:-1]) | (ll[1:] != ll[:-1])
            starts = np.flatnonzero(new_run)
            counts = np.diff(np.append(starts, len(nn)))
            gn, gl = nn[starts], ll[starts]
            o2 = np.lexsort((gl, -counts, gn))
            first = np.ones(len(o2), dtype=bool)
            sgn = gn[o2]
            first[1:] = sgn[1:] != sgn[:-1]
            sel = o2[first]
            new_lab = lab.copy()
            new_lab[gn[sel]] = gl[sel]
            lab = new_lab
        return rd.from_arrow(pa.table({
            "node": pa.array(names, type=pa.string()),
            "community": pa.array(names[lab], type=pa.string())}))

    # distinct endpoint set as the initial self-labeling
    nodes = sorted_group_aggregate(
        und.map_batches(lambda b: pa.table({
            "node": pa.concat_arrays([
                b.column("u").combine_chunks(),
                b.column("v").combine_chunks()]),
            "n": pa.array(np.ones(2 * b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        ["node"], [("n", "sum")]).drop_columns(["n"]).materialize()
    labels = nodes.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "label": b.column("node")}),
        batch_format="pyarrow").materialize()

    for _ in range(rounds):
        to_v = sorted_merge_join(
            und.map_batches(lambda b: pa.table({
                "node": b.column("u"), "dst": b.column("v")}),
                batch_format="pyarrow"),
            labels, on="node").map_batches(
                lambda b: pa.table({"node": b.column("dst"),
                                    "label": b.column("label")}),
                batch_format="pyarrow")
        to_u = sorted_merge_join(
            und.map_batches(lambda b: pa.table({
                "node": b.column("v"), "dst": b.column("u")}),
                batch_format="pyarrow"),
            labels, on="node").map_batches(
                lambda b: pa.table({"node": b.column("dst"),
                                    "label": b.column("label")}),
                batch_format="pyarrow")
        votes = sorted_group_aggregate(
            to_v.union(to_u).map_batches(lambda b: b.append_column(
                "cnt", pa.array(np.ones(b.num_rows, dtype=np.int64))),
                batch_format="pyarrow"),
            ["node", "label"], [("cnt", "sum")])
        labels = grouped_topk(votes, "node", "cnt", "label", k=1) \
            .drop_columns(["cnt", "rank"]).materialize()
    return labels.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "community": b.column("label")}),
        batch_format="pyarrow")


def entity_communities(sf_dir: str, rounds: int = 4,
                       plan: str = "auto"):
    """Label-propagation communities over the extracted entity graph —
    'which entities cluster together in the corpus'.  Deterministic
    (synchronous, fixed rounds, lexicographic tie-break): fixture
    oracle; dense==shuffle plan equality pinned in tests."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    graph = canonical_graph(
        kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm"))
    edges = graph.map_batches(lambda b: pa.table({
        "src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow")
    return label_propagation(edges, rounds=rounds, plan=plan)


# ------------------------------------------------------------------ pointer doubling

def resolve_chains(mapping, max_rounds: int = 45):
    """Alias/redirect CHAIN RESOLUTION by pointer doubling: given an
    acyclic (node → next) mapping where terminals point to themselves,
    return every node's terminal target and its hop distance in
    O(log chain-length) rounds — the crawl-pipeline primitive for URL
    redirect chains, alias tables, and symlink farms, where one-hop-at-
    a-time resolution would need chain-length rounds.

    ``mapping``: Dataset (``rank``: int64 dense key, ``nxt``: int64 —
    ``nxt == rank`` marks a terminal).  Per round one edge-sized
    sorted-merge self-join replaces every pointer with the pointer two
    steps ahead (``nxt ← nxt.nxt``, ``hops += nxt.hops``); terminals
    join themselves and stay fixed, so the exact fixpoint check is
    'total hops unchanged' — a scalar per round, nothing node-sized on
    the driver."""
    from ..stages.join import sorted_merge_join

    state = mapping.map_batches(lambda b: pa.table({
        "rank": b.column("rank"),
        "ptr": b.column("nxt"),
        "hops": pc.cast(pc.not_equal(b.column("nxt"), b.column("rank")),
                        pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    prev_total = -1
    for _ in range(max_rounds):
        total = state.sum("hops")
        if total == prev_total:
            return state
        prev_total = total
        pointee = state.map_batches(lambda b: pa.table({
            "ptr": b.column("rank"),
            "p_ptr": b.column("ptr"),
            "p_hops": b.column("hops")}),
            batch_format="pyarrow", zero_copy_batch=True)
        state = sorted_merge_join(state, pointee, on="ptr").map_batches(
            lambda b: pa.table({
                "rank": b.column("rank"),
                "ptr": b.column("p_ptr"),
                "hops": pc.add(b.column("hops"), b.column("p_hops"))}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
    raise RuntimeError(f"resolve_chains: no fixpoint in {max_rounds} rounds")


def doc_redirect_resolution(sf_dir: str):
    """Deterministic redirect graph over the documents table, resolved
    by :func:`resolve_chains`: each doc's rank (dense 1..n by doc_id,
    via the global-rank exchange) points ``1 + md5(doc_id) % 3`` ranks
    back unless the hash marks it terminal — acyclic by construction
    (pointers strictly decrease).  Output: (doc_id, target_doc_id,
    n_hops), SQL-oracled by a recursive CTE walking the same mapping
    one hop at a time — log-rounds doubling vs linear recursion,
    same answer."""
    from ..functions.sampling import _md5_bucket
    from ..stages.globalrank import global_rank
    from ..stages.join import sorted_merge_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])
    ranked = global_rank(docs, "doc_id").drop_columns(
        ["percent_rank", "cume_dist"]).materialize()

    def to_mapping(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        rnk = b.column("rank").to_numpy(zero_copy_only=False)
        h = _md5_bucket(ids.tolist(), 1 << 32).astype(np.int64)
        nxt = rnk - 1 - (h % 3)
        terminal = (h % 4 == 0) | (nxt < 1)
        return pa.table({
            "rank": pa.array(rnk, type=pa.int64()),
            "nxt": pa.array(np.where(terminal, rnk, nxt), type=pa.int64()),
            "doc_id": pa.array(ids, type=pa.int64())})

    mapping = ranked.map_batches(to_mapping, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    resolved = resolve_chains(mapping.drop_columns(["doc_id"]))

    ids_by_rank = mapping.map_batches(lambda b: pa.table({
        "rank": b.column("rank"), "doc_id": b.column("doc_id")}),
        batch_format="pyarrow")
    tgt_by_rank = mapping.map_batches(lambda b: pa.table({
        "ptr": b.column("rank"), "target_doc_id": b.column("doc_id")}),
        batch_format="pyarrow")
    out = sorted_merge_join(
        sorted_merge_join(resolved, ids_by_rank, on="rank"),
        tgt_by_rank, on="ptr")
    return out.map_batches(lambda b: pa.table({
        "doc_id": b.column("doc_id"),
        "target_doc_id": b.column("target_doc_id"),
        "n_hops": b.column("hops")}),
        batch_format="pyarrow", zero_copy_batch=True)


def ppr(edges, seed_fn, iters: int = 10, d_num: int = 17, d_den: int = 20,
        plan: str = "auto"):
    """PERSONALIZED PageRank: teleport mass restarts at a SEED SET
    instead of uniformly — 'which entities matter *around these*', the
    query behind related-entity suggestion and topic-conditioned KG
    ranking.

    ``seed_fn(names: list[str]) -> bool ndarray`` assigns seed flags
    PER BATCH (a pure function of the node name — e.g. an md5 rule or
    a topical prefix), so the seed set is never collected on the
    driver; only its COUNT is (one scalar aggregate).  The recurrence
    in exact integer micro-units (same fixed-point discipline as
    :func:`pagerank` — bit-identical across plans/partitionings):

        rank'(v) = [v∈S]·(1−d)·UNIT/|S|
                   + d·(in(v) + [v∈S]·dangling/|S|)

    Plans: ``dense`` (broadcast rank vector, sparse integer partials)
    at or below ``_DENSE_MAX_NODES``; ``shuffle`` (one join + one
    aggregate per iteration, seed/outdeg flags carried by the zero
    rows) above — pinned bit-equal by test."""
    import ray

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    assert plan in ("auto", "dense", "shuffle")

    edges = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "src": b.column("src"), "dst": b.column("dst"),
            "__one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["src", "dst"], [("__one", "min")]).drop_columns(["__one"]) \
        .materialize()

    def flag(b: pa.Table) -> pa.Table:
        names = b.column("node").to_pylist()
        s = np.asarray(seed_fn(names), dtype=bool) if names else \
            np.zeros(0, dtype=bool)
        return b.append_column("seed",
                               pa.array(s.astype(np.int64)))

    nodes = sorted_group_aggregate(
        edges.map_batches(lambda b: pa.table({
            "node": pa.concat_arrays([
                b.column("src").combine_chunks(),
                b.column("dst").combine_chunks()]),
            "outdeg": pa.array(np.r_[np.ones(b.num_rows, dtype=np.int64),
                                     np.zeros(b.num_rows, dtype=np.int64)])}),
            batch_format="pyarrow"),
        "node", [("outdeg", "sum")]) \
        .map_batches(flag, batch_format="pyarrow").materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.string()),
            "rank_fp": pa.array([], type=pa.int64())}))
    n_seeds = int(nodes.sum("seed") or 0)
    if n_seeds == 0:
        raise ValueError("seed_fn selected no nodes")

    base = ((d_den - d_num) * UNIT) // (d_den * n_seeds)
    init = UNIT // n_seeds

    if plan == "dense" or (plan == "auto" and n_nodes <= _DENSE_MAX_NODES):
        return _ppr_dense(edges, nodes, n_nodes, n_seeds, base, init,
                          iters, d_num, d_den)
    return _ppr_shuffle(edges, nodes, n_nodes, n_seeds, base, init,
                        iters, d_num, d_den)


def _ppr_dense(edges, nodes_ds, n_nodes, n_seeds, base, init,
               iters, d_num, d_den):
    import ray

    nt = pa.concat_tables(
        [t for t in ray.get(nodes_ds.to_arrow_refs())
         if t.num_rows and "node" in t.schema.names])
    nt = nt.take(pc.sort_indices(nt, sort_keys=[("node", "ascending")]))
    names = nt.column("node")
    outdeg = nt.column("outdeg").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    seed = nt.column("seed").to_numpy(zero_copy_only=False) \
        .astype(bool)
    index = {n: i for i, n in enumerate(names.to_pylist())}
    idx_ref = ray.put(index)
    outdeg_ref = ray.put(outdeg)

    def to_idx(batch: pa.Table) -> pa.Table:
        ix = ray.get(idx_ref)
        si = np.array([ix[s] for s in batch.column("src").to_pylist()],
                      dtype=np.int64)
        di = np.array([ix[s] for s in batch.column("dst").to_pylist()],
                      dtype=np.int64)
        return pa.table({"si": pa.array(si), "di": pa.array(di)})

    int_edges = edges.map_batches(to_idx, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
    edge_block_refs = [r for r in int_edges.to_arrow_refs()]

    @ray.remote
    def contribs(batch: pa.Table, rv: np.ndarray, od: np.ndarray):
        if batch.num_rows == 0:
            return None
        si = batch.column("si").to_numpy(zero_copy_only=False)
        di = batch.column("di").to_numpy(zero_copy_only=False)
        c = rv[si] // od[si]
        uniq, inv = np.unique(di, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, c)
        return uniq, sums

    r = np.where(seed, np.int64(init), np.int64(0))
    dangle_mask = outdeg == 0
    for _ in range(iters):
        share = int(r[dangle_mask].sum()) // n_seeds
        r_ref = ray.put(r)
        parts = ray.get([contribs.remote(b, r_ref, outdeg_ref)
                         for b in edge_block_refs])
        in_fp = np.zeros(n_nodes, dtype=np.int64)
        for p in parts:
            if p is not None:
                np.add.at(in_fp, p[0], p[1])
        r = (np.where(seed, np.int64(base), np.int64(0))
             + ((in_fp + np.where(seed, np.int64(share), np.int64(0)))
                * d_num) // d_den)

    return rd.from_arrow(pa.table({"node": names,
                                   "rank_fp": pa.array(r, type=pa.int64())}))


def _ppr_shuffle(edges, nodes_ds, n_nodes, n_seeds, base, init,
                 iters, d_num, d_den):
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    ranks = nodes_ds.map_batches(lambda b: pa.table({
        "node": b.column("node"),
        "rank_fp": pc.multiply(b.column("seed"),
                               pa.scalar(init, type=pa.int64())),
        "outdeg": b.column("outdeg"),
        "seed": b.column("seed")}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        dangling = ranks.map_batches(
            lambda b: pa.table({"d": pa.array([int(pc.sum(pc.if_else(
                pc.equal(b.column("outdeg"), pa.scalar(0, type=pa.int64())),
                b.column("rank_fp"),
                pa.scalar(0, type=pa.int64()))).as_py() or 0)],
                type=pa.int64())}),
            batch_format="pyarrow").sum("d") or 0
        share = int(dangling) // n_seeds

        contribs = sorted_merge_join(
            edges,
            ranks.map_batches(lambda b: pa.table({
                "src": b.column("node"),
                "rank_fp": b.column("rank_fp"),
                "outdeg": b.column("outdeg")}), batch_format="pyarrow"),
            on="src").map_batches(
            lambda b: pa.table({
                "node": b.column("dst"),
                "in_fp": pc.divide(b.column("rank_fp"),
                                   b.column("outdeg")),
                "odcarry": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "seedcarry": pa.array(np.zeros(b.num_rows,
                                               dtype=np.int64))}),
            batch_format="pyarrow")
        zeros = ranks.map_batches(lambda b: pa.table({
            "node": b.column("node"),
            "in_fp": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "odcarry": b.column("outdeg"),
            "seedcarry": b.column("seed")}), batch_format="pyarrow")

        ranks = sorted_group_aggregate(
            contribs.union(zeros), "node",
            [("in_fp", "sum"), ("odcarry", "max"), ("seedcarry", "max")]) \
            .map_batches(
            lambda b, _s=share: pa.table({
                "node": b.column("node"),
                "rank_fp": pc.add(
                    pc.multiply(b.column("seedcarry"),
                                pa.scalar(base, type=pa.int64())),
                    pc.divide(pc.multiply(
                        pc.add(b.column("in_fp"),
                               pc.multiply(b.column("seedcarry"),
                                           pa.scalar(_s, type=pa.int64()))),
                        pa.scalar(d_num, type=pa.int64())),
                        pa.scalar(d_den, type=pa.int64()))),
                "outdeg": b.column("odcarry"),
                "seed": b.column("seedcarry")}),
            batch_format="pyarrow").materialize()

    return ranks.map_batches(lambda b: b.select(["node", "rank_fp"]),
                             batch_format="pyarrow")


def entity_ppr(sf_dir: str, iters: int = 10, seed_mod: int = 20):
    """Personalized PageRank over the entity graph, seeded at the
    md5-selected entity subset (``md5(name) % seed_mod == 0`` — the
    repo's deterministic sampling rule standing in for a user's topical
    seed list).  Fixed-point integer ranks → fixture oracle."""
    import hashlib

    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    def seed_fn(names):
        return np.array(
            [int(hashlib.md5(n.encode()).hexdigest()[:8], 16)
             % seed_mod == 0 for n in names], dtype=bool)

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    graph = canonical_graph(
        kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm"))
    edges = graph.map_batches(lambda b: pa.table({
        "src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow")
    return ppr(edges, seed_fn, iters=iters)


def part_components(sf_dir: str, min_count: int = 2):
    """Weakly-connected components over the co-purchase graph — the
    'product families' decomposition, and the one CC query with a FULL
    SQL oracle (a recursive-CTE transitive closure; the neardup CC is
    fixture-pinned).  Engine side reuses ``cluster.connected_components``
    (label-sum fixpoint, dense/shuffle plan switch); component id =
    min part key of the component."""
    from .cluster import connected_components
    from .relational import _copurchase_pair_counts, _unpack_pair

    pairs = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .map_batches(lambda b: pa.table({
                 "id_a": b.column("part_a"), "id_b": b.column("part_b")}),
                 batch_format="pyarrow", zero_copy_batch=True))
    return connected_components(pairs).map_batches(
        lambda b: pa.table({"part": b.column("node"),
                            "component": b.column("cluster_id")}),
        batch_format="pyarrow", zero_copy_batch=True)


def copurchase_degree_assortativity(sf_dir: str, min_count: int = 2):
    """Degree assortativity of the co-purchase graph — do hubs link to
    hubs (r>0) or to leaves (r<0)?  Pearson correlation of endpoint
    degrees over the directed edge list (both directions, the standard
    Newman convention): five exact int64 sufficient statistics off one
    degree join, one mirrored-float finalization (the OLS/regression
    discipline).  Output also carries the integer pieces."""
    from .relational import _copurchase_pair_counts, _unpack_pair
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .materialize())

    def both(b: pa.Table) -> pa.Table:
        a = b.column("part_a").combine_chunks()
        c = b.column("part_b").combine_chunks()
        return pa.table({"src": pa.chunked_array([a, c]),
                         "dst": pa.chunked_array([c, a])})

    sym = edges.map_batches(both, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    deg = sorted_group_aggregate(
        sym.map_batches(lambda b: pa.table({
            "src": b.column("src"),
            "deg": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["src"], [("deg", "sum")])

    j1 = sorted_merge_join(sym, deg, on="src").map_batches(
        lambda b: pa.table({"src": b.column("dst"),
                            "deg_src": b.column("deg")}),
        batch_format="pyarrow", zero_copy_batch=True)
    j2 = sorted_merge_join(
        j1, deg.map_batches(lambda b: b.rename_columns(["src", "deg"]),
                            batch_format="pyarrow"), on="src")

    mom = sorted_group_aggregate(
        j2.map_batches(lambda b: pa.table({
            "g": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "m": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "sx": b.column("deg_src"),
            "sy": b.column("deg"),
            "sxy": pc.multiply(b.column("deg_src"), b.column("deg")),
            "sxx": pc.multiply(b.column("deg_src"),
                               b.column("deg_src")),
            "syy": pc.multiply(b.column("deg"), b.column("deg"))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["g"], [("m", "sum"), ("sx", "sum"), ("sy", "sum"),
                ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")]) \
        .take_all()[0]
    m = int(mom["m"])
    sx, sy = int(mom["sx"]), int(mom["sy"])
    sxy, sxx, syy = int(mom["sxy"]), int(mom["sxx"]), int(mom["syy"])
    num = m * sxy - sx * sy
    den2_x = m * sxx - sx * sx
    den2_y = m * syy - sy * sy
    import math
    r = (float(num) / math.sqrt(float(den2_x) * float(den2_y))) \
        if den2_x > 0 and den2_y > 0 else 0.0
    return pa.table({
        "n_directed_edges": pa.array([m], type=pa.int64()),
        "num": pa.array([num], type=pa.int64()),
        "den2_x": pa.array([den2_x], type=pa.int64()),
        "den2_y": pa.array([den2_y], type=pa.int64()),
        "assortativity": pa.array([r], type=pa.float64())})


def copurchase_robustness(sf_dir: str, min_count: int = 2,
                          ks=(0, 5, 20)):
    """Hub-removal robustness curve: after deleting the top-k
    highest-degree nodes (ties → lower part key), how many nodes/edges
    survive and how large is the biggest component — the resilience
    audit behind 'what if the head entity disappears'.  Hub selection
    is a degree top-k; each k's surviving subgraph runs the shared CC
    machinery; everything per k is edge-stream-sized."""
    from .cluster import connected_components
    from .relational import _copurchase_pair_counts, _unpack_pair
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.semijoin import semi_join

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .map_batches(lambda b: pa.table({
                 "id_a": b.column("part_a"),
                 "id_b": b.column("part_b")}),
                 batch_format="pyarrow", zero_copy_batch=True)
             .materialize())

    def endpoints(b: pa.Table) -> pa.Table:
        v = np.concatenate([
            b.column("id_a").to_numpy(zero_copy_only=False),
            b.column("id_b").to_numpy(zero_copy_only=False)])
        return pa.table({"node": pa.array(v, type=pa.int64()),
                         "deg": pa.array(np.ones(len(v),
                                                 dtype=np.int64))})

    deg = sorted_group_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["node"], [("deg", "sum")]).materialize()
    n_nodes_total = deg.count()

    # hub ranking is k_max-sized: sort+limit streams, never collects
    k_max = max(ks)
    hubs_tbl = deg.sort(["deg", "node"],
                        descending=[True, False]).limit(k_max) \
        .to_pandas() if k_max > 0 else None

    out_k, out_n, out_e, out_c = [], [], [], []
    for k in sorted(ks):
        if k == 0:
            surv = edges
        else:
            removed = set(hubs_tbl["node"].head(k).tolist())
            ban = rd.from_arrow(pa.table({
                "id_a": pa.array(sorted(removed), type=pa.int64())}))
            surv = semi_join(edges, ban, on="id_a", anti=True)
            surv = semi_join(
                surv, ban.map_batches(
                    lambda b: b.rename_columns(["id_b"]),
                    batch_format="pyarrow"), on="id_b",
                anti=True).materialize()
        n_edges = surv.count()
        if n_edges == 0:
            out_k.append(k)
            out_n.append(0)
            out_e.append(0)
            out_c.append(0)
            continue
        cc = connected_components(surv)
        sizes = sorted_group_aggregate(
            cc.map_batches(lambda b: pa.table({
                "cluster_id": b.column("cluster_id"),
                "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["cluster_id"], [("n", "sum")])
        largest = int(sizes.max("n") or 0)
        n_surv_nodes = cc.count()
        out_k.append(k)
        out_n.append(n_surv_nodes)
        out_e.append(n_edges)
        out_c.append(largest)
    return pa.table({
        "k_removed": pa.array(out_k, type=pa.int64()),
        "n_nodes": pa.array(out_n, type=pa.int64()),
        "n_edges": pa.array(out_e, type=pa.int64()),
        "largest_component": pa.array(out_c, type=pa.int64())})


def graph_for_sf(sf_dir: str, tagger: str = "hmm", files=None):
    """The canonical graph as a MATERIALIZED parquet checkpoint
    (atomic tmp+rename, content-fingerprinted — the /tmp cache
    discipline): KG-quality audits read the graph as a table instead
    of each re-running tag→link→canonicalize.  This is also the honest
    production shape — audits run against the graph SINK, not the
    extraction pipeline.  Returns a Dataset over the checkpoint
    files."""
    import glob
    import hashlib as _hl
    import os
    import shutil

    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger=tagger)
    if files is None:
        files = sorted(page_files(corpus))
    files = sorted(files)
    from ..sources.derived import corpus_content_tag
    tag = corpus_content_tag(corpus, files=files, extra=tagger)
    out = f"/tmp/kgray_graph/graph_{tag}"
    if not os.path.exists(os.path.join(out, "_DONE")):
        import tempfile
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".",
                               dir=os.path.dirname(out))
        canonical_graph(
            kg_dataset(files, corpus, model_dir, tagger=tagger)
        ).write_parquet(tmp)
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, out)     # concurrent builder may have won
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "*.parquet"))))


def kg_predicate_stats(sf_dir: str):
    """Per-predicate functionality audit of the extracted KG — the
    schema-quality signal PARIS-style aligners and ontology checkers
    run first: for each predicate, the triple count, distinct
    subject/object counts, and functionality / inverse functionality
    in integer micro-units (``1e6·n_subj // n_triples`` — a
    functional predicate like ``ceo_of`` scores ~1e6, a fan-out
    predicate scores low).  All-integer, so the fixture oracle is
    exact.

    Plan: three predicate-keyed aggregates over the canonical graph
    (distinct (pred,subj), distinct (pred,obj), triple counts) — each
    output is predicate-sized, so the final assembly is a tiny driver
    fold, never an input-sized collect."""
    from ..stages.aggregate import sorted_group_aggregate

    graph = graph_for_sf(sf_dir)

    def ones(b: pa.Table, cols) -> pa.Table:
        t = {c: b.column(c) for c in cols}
        t["c"] = pa.array(np.ones(b.num_rows, dtype=np.int64))
        return pa.table(t)

    def distinct_count(cols):
        dist = sorted_group_aggregate(
            graph.map_batches(lambda b, _c=cols: ones(b, _c),
                              batch_format="pyarrow", zero_copy_batch=True),
            list(cols), [("c", "min")], precombine=True)
        return sorted_group_aggregate(
            dist.map_batches(lambda b: pa.table({
                "pred": b.column("pred"),
                "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["pred"], [("n", "sum")]).take_all()

    triples = sorted_group_aggregate(
        graph.map_batches(lambda b: pa.table({
            "pred": b.column("pred"),
            "n_triples": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "support_sum": b.column("support")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred"], [("n_triples", "sum"), ("support_sum", "sum")]).take_all()

    n_subj = {r["pred"]: int(r["n"])
              for r in distinct_count(("pred", "subj"))}
    n_obj = {r["pred"]: int(r["n"]) for r in distinct_count(("pred", "obj"))}
    rows = sorted(triples, key=lambda r: r["pred"])
    preds = [r["pred"] for r in rows]
    nt = [int(r["n_triples"]) for r in rows]
    return pa.table({
        "pred": pa.array(preds, type=pa.string()),
        "n_triples": pa.array(nt, type=pa.int64()),
        "support_sum": pa.array([int(r["support_sum"]) for r in rows],
                                type=pa.int64()),
        "n_subj": pa.array([n_subj[p] for p in preds], type=pa.int64()),
        "n_obj": pa.array([n_obj[p] for p in preds], type=pa.int64()),
        "func_micro": pa.array(
            [10**6 * n_subj[p] // t for p, t in zip(preds, nt)],
            type=pa.int64()),
        "invfunc_micro": pa.array(
            [10**6 * n_obj[p] // t for p, t in zip(preds, nt)],
            type=pa.int64())})


def kg_two_hop(sf_dir: str, k_top: int = 20):
    """Two-hop predicate-path profile of the KG — the SPARQL pattern
    ``(?x p1 ?y)(?y p2 ?z)`` counted per (p1, p2): which relation
    compositions the corpus actually supports (the raw material for
    path-rule mining à la AMIE).  Top-``k_top`` pairs by path count,
    ties → lexicographic (pred_a, pred_b).

    Plan: the graph self-joins on the shared entity via the
    ``sorted_merge_join`` exchange (obj side renamed to the join key —
    a fact×fact join, never a broadcast); path rows reduce straight
    into a (p1,p2)-keyed aggregate (output is #preds²-sized) and only
    ``k_top`` survivor rows reach the driver via ``global_topk``."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import global_topk

    graph = graph_for_sf(sf_dir)

    left = graph.map_batches(lambda b: pa.table({
        "mid": b.column("obj"), "pred_a": b.column("pred")}),
        batch_format="pyarrow", zero_copy_batch=True)
    right = graph.map_batches(lambda b: pa.table({
        "mid": b.column("subj"), "pred_b": b.column("pred")}),
        batch_format="pyarrow", zero_copy_batch=True)
    paths = sorted_merge_join(left, right, on="mid")

    counts = sorted_group_aggregate(
        paths.map_batches(lambda b: pa.table({
            "pred_a": b.column("pred_a"), "pred_b": b.column("pred_b"),
            "n_paths": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred_a", "pred_b"], [("n_paths", "sum")], precombine=True)

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column(
            "neg_n", pc.negate(b.column("n_paths")))

    top = global_topk(counts.map_batches(neg, batch_format="pyarrow",
                                         zero_copy_batch=True),
                      [("neg_n", "ascending"), ("pred_a", "ascending"),
                       ("pred_b", "ascending")], k_top)
    return top.select(["pred_a", "pred_b", "n_paths"])


def kg_functionality_violations(sf_dir: str, n_func: int = 3,
                                k_top: int = 50):
    """Constraint-violation mining over the extracted KG: for the
    ``n_func`` predicates the corpus itself treats as MOST functional
    (highest ``1e6·n_subj // n_pairs``, ties → pred asc — e.g.
    ``born_in``: one birthplace per person), emit the subjects
    asserting MORE than one distinct object — the contradiction
    candidates an ontology checker or KG-cleaning pass
    (SDValidate-style) queues for review.  A rank rule rather than an
    absolute floor so the audit stays non-vacuous as corpus density
    grows with scale.  Top ``k_top`` by (n_objects desc, pred, subj);
    all-integer, fixture oracle.

    Plan: one distinct-(pred,subj,obj) aggregate, one (pred,subj)
    fan-out count; the predicate-level functionality table is
    predicate-sized and broadcasts into the filter — violations never
    round-trip the driver."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.topk import global_topk

    graph = graph_for_sf(sf_dir)

    dist = sorted_group_aggregate(
        graph.map_batches(lambda b: pa.table({
            "pred": b.column("pred"), "subj": b.column("subj"),
            "obj": b.column("obj"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred", "subj", "obj"], [("c", "min")], precombine=True)

    fanout = sorted_group_aggregate(
        dist.map_batches(lambda b: pa.table({
            "pred": b.column("pred"), "subj": b.column("subj"),
            "n_objects": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred", "subj"], [("n_objects", "sum")],
        precombine=True).materialize()

    # predicate-level functionality from the SAME fanout table:
    # n_subj = #rows per pred, n_pairs = Σ n_objects per pred.
    pred_stats = sorted_group_aggregate(
        fanout.map_batches(lambda b: pa.table({
            "pred": b.column("pred"),
            "n_subj": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_pairs": b.column("n_objects")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred"], [("n_subj", "sum"), ("n_pairs", "sum")]).take_all()
    ranked = sorted(
        ((10**6 * int(r["n_subj"]) // int(r["n_pairs"]), r["pred"])
         for r in pred_stats),
        key=lambda fr: (-fr[0], fr[1]))
    functional = sorted(p for _, p in ranked[:n_func])
    fset = pa.array(functional, type=pa.string())

    def viol(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.fill_null(pc.is_in(b.column("pred"), value_set=fset),
                         False),
            pc.fill_null(pc.greater(b.column("n_objects"),
                                    pa.scalar(1)), False))
        t = b.filter(keep)
        return t.append_column("neg_n", pc.negate(t.column("n_objects")))

    top = global_topk(
        fanout.map_batches(viol, batch_format="pyarrow",
                           zero_copy_batch=True),
        [("neg_n", "ascending"), ("pred", "ascending"),
         ("subj", "ascending")], k_top)
    return top.select(["pred", "subj", "n_objects"])


def kg_alias_ambiguity(sf_dir: str):
    """Linking-dictionary audit — the entity-linking quality signal:
    for every alias surface, its candidate count, top prior and
    top1−top2 margin (micro-units, priors rint-quantized so float32
    storage can't drift the gate), and the surface's actual mention
    EXPOSURE in the tagged corpus (how often the linker must make that
    call — 'Springfield'-style ambiguous surfaces with high exposure
    are the linking risk).  Fixture oracle.

    Plan: the alias dictionary is broadcast-small by design (it rides
    in the LinkerActor); mention exposure is one surface-keyed
    aggregate over the tagger output (surface vocabulary ≪ mentions);
    the final fold touches only dictionary-sized rows."""
    import pyarrow.parquet as pq

    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.aggregate import sorted_group_aggregate

    corpus = corpus_for_sf(sf_dir)
    models_for_corpus(corpus, tagger="hmm")
    al = pq.read_table(f"{corpus}/aliases.parquet")
    prof = {}
    for s, p in zip(al.column("surface").to_pylist(),
                    al.column("prior").to_pylist()):
        prof.setdefault(s, []).append(int(np.rint(p * 10**6)))

    import __ray_entry__ as entrymod
    mentions = entrymod._kg_mentions(sf_dir)
    counts = {r["surface"]: int(r["n"])
              for r in sorted_group_aggregate(
                  mentions.map_batches(lambda b: pa.table({
                      "surface": b.column("surface"),
                      "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                      batch_format="pyarrow", zero_copy_batch=True),
                  ["surface"], [("n", "sum")]).take_all()}

    surfaces = sorted(prof)
    ncand, topp, marg, nmen = [], [], [], []
    for s in surfaces:
        ps = sorted(prof[s], reverse=True)
        ncand.append(len(ps))
        topp.append(ps[0])
        marg.append(ps[0] - ps[1] if len(ps) > 1 else ps[0])
        nmen.append(counts.get(s, 0))
    return pa.table({
        "surface": pa.array(surfaces, type=pa.string()),
        "n_candidates": pa.array(ncand, type=pa.int64()),
        "top_prior_micro": pa.array(topp, type=pa.int64()),
        "margin_micro": pa.array(marg, type=pa.int64()),
        "n_mentions": pa.array(nmen, type=pa.int64())})


def kg_subgraph_export(sf_dir: str, n_seeds: int = 4, hops: int = 2):
    """Seeded subgraph export — the SPARQL-DESCRIBE / GraphSAGE-
    neighborhood shape over the extracted KG: starting from
    ``n_seeds`` deterministic seed entities (smallest md5 of entity
    name), BFS ``hops`` hops over the UNDIRECTED triple graph and
    export every triple incident to a node within ``hops − 1`` (i.e.
    all edges inside the ``hops``-hop ball), tagged with the subject's
    and object's hop distance.  Fixture oracle.

    Plan: per-hop frontier expansion with the node set broadcast
    (entity vocabulary ≪ triples — the `entity_pagerank` dense-plan
    threshold applies; the shuffle twin would swap the is_in mask for
    a semi-join).  Each hop is one streamed pass over the graph."""
    import hashlib

    graph = graph_for_sf(sf_dir)

    # entity vocabulary: one distinct pass over subj ∪ obj
    from ..stages.aggregate import sorted_group_aggregate
    nodes = sorted_group_aggregate(
        graph.map_batches(lambda b: pa.table({
            "ent": pa.concat_arrays([
                b.column("subj").combine_chunks().cast(pa.string()),
                b.column("obj").combine_chunks().cast(pa.string())]),
            "c": pa.array(np.ones(2 * b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["ent"], [("c", "sum")]).take_all()
    ents = [r["ent"] for r in nodes]
    seeds = sorted(ents, key=lambda e: (
        hashlib.md5(e.encode()).hexdigest(), e))[:n_seeds]

    dist = {s: 0 for s in seeds}
    frontier = set(seeds)
    for h in range(1, hops + 1):
        fset = pa.array(sorted(frontier), type=pa.string())

        def expand(b: pa.Table, _f=fset) -> pa.Table:
            sm = pc.fill_null(pc.is_in(b.column("subj"), value_set=_f),
                              False)
            om = pc.fill_null(pc.is_in(b.column("obj"), value_set=_f),
                              False)
            t1 = b.filter(sm).column("obj")
            t2 = b.filter(om).column("subj")
            return pa.table({
                "ent": pa.concat_arrays([t1.combine_chunks(),
                                         t2.combine_chunks()]),
                "c": pa.array(np.ones(len(t1) + len(t2),
                                      dtype=np.int64))})

        nxt = sorted_group_aggregate(
            graph.map_batches(expand, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["ent"], [("c", "min")]).take_all()
        frontier = {r["ent"] for r in nxt} - set(dist)
        for e in sorted(frontier):
            dist[e] = h
        if not frontier:
            break

    inner = pa.array(sorted(e for e, d in dist.items()
                            if d <= hops - 1), type=pa.string())
    dmap = dist

    def export(b: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.fill_null(pc.is_in(b.column("subj"), value_set=inner),
                         False),
            pc.fill_null(pc.is_in(b.column("obj"), value_set=inner),
                         False))
        t = b.filter(keep)
        hs = [dmap.get(x, -1) for x in t.column("subj").to_pylist()]
        ho = [dmap.get(x, -1) for x in t.column("obj").to_pylist()]
        return pa.table({
            "subj": t.column("subj"), "pred": t.column("pred"),
            "obj": t.column("obj"), "support": t.column("support"),
            "subj_hop": pa.array(hs, type=pa.int64()),
            "obj_hop": pa.array(ho, type=pa.int64())})

    out = graph.map_batches(export, batch_format="pyarrow",
                            zero_copy_batch=True)
    return out.sort(["subj", "pred", "obj"])


def kg_incremental_merge(sf_dir: str, n_delta_files: int = 1):
    """Incremental KG maintenance — the engine's answer to "a new crawl
    batch arrived": the canonicalization checkpoint is the (key, salt)
    PARTIAL table (not the final graph — bottom-K url samples do not
    compose across graphs, per-salt minima do), so merging a delta is
    the normal graph exchange (``stages.canonical.merge_partials``)
    over ``checkpoint ∪ delta-partials``.  This query writes the old
    corpus's map-side partials as a parquet checkpoint (atomic
    tmp+rename, content-fingerprint tag that includes the partial
    schema version), streams the LAST ``n_delta_files`` page file(s)
    through tag→link→combine as the delta, merges, and emits the graph
    — the oracle is the kg_graph FIXTURE itself, so the value hash
    PROVES the incremental plan is lossless (the `kg_graph_compacted`
    discipline).

    Scale: the old corpus is never re-tagged — only its partial table
    is read; the delta costs one pipeline pass over the new pages; the
    merge is associative (sum/min), so the law holds bitwise at any
    split point."""
    import glob
    import os
    import shutil
    import tempfile

    import ray.data as rd

    from ..sources.derived import (corpus_content_tag, corpus_for_sf,
                                   models_for_corpus)
    from ..stages.canonical import (PARTIAL_VERSION, combine_triples_batch,
                                    merge_partials)
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    files = sorted(page_files(corpus))
    assert len(files) > n_delta_files, "need at least one old file"
    old_files = files[:-n_delta_files]
    delta_files = files[-n_delta_files:]
    N_SALTS, K_URLS = 8, 5

    def partials(fs):
        return kg_dataset(fs, corpus, model_dir, tagger="hmm").map_batches(
            lambda b: combine_triples_batch(b, N_SALTS),
            batch_format="pyarrow", batch_size=65536)

    tag = corpus_content_tag(corpus, files=old_files,
                             extra=f"{N_SALTS}|partials-v{PARTIAL_VERSION}")
    ckpt = f"/tmp/kgray_kg_ckpt/partials_{tag}"
    if not os.path.exists(os.path.join(ckpt, "_DONE")):
        os.makedirs(os.path.dirname(ckpt), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(ckpt) + ".",
                               dir=os.path.dirname(ckpt))
        partials(old_files).write_parquet(tmp)
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, ckpt)    # concurrent builder may have won
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)

    ckpt_files = sorted(glob.glob(os.path.join(ckpt, "*.parquet")))
    merged = rd.read_parquet(ckpt_files).union(partials(delta_files))
    graph = merge_partials(merged, K_URLS)
    return graph.drop_columns(["sample_urls"]).sort("subj")


def kg_triple_recency(sf_dir: str):
    """Triple provenance recency — temporal KG metadata: for every
    distinct (subj, pred, obj), the crawl-timestamp span of its
    supporting pages (first_seen/last_seen in epoch µs) and its
    occurrence count.  The freshness signal a KG serving layer uses to
    age out stale facts.  Fixture oracle.

    Plan: linked triples project to (s,p,o,url); the page (url →
    warc_ts) side is fact-sized, so the provenance join is the
    sorted-merge exchange (never a broadcast); recency is then one
    3-key aggregate (min/max/count)."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    triples = kg_dataset(page_files(corpus), corpus, model_dir,
                         tagger="hmm").map_batches(
        lambda b: pa.table({
            "url": b.column("url"), "subj": b.column("subj"),
            "pred": b.column("pred"), "obj": b.column("obj")}),
        batch_format="pyarrow", zero_copy_batch=True)
    pages = rd.read_parquet(page_files(corpus),
                            columns=["url", "warc_ts"]).map_batches(
        lambda b: pa.table({
            "url": b.column("url"),
            "ts_us": pc.cast(b.column("warc_ts"), pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = sorted_merge_join(triples, pages, on="url")

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "subj": b.column("subj"), "pred": b.column("pred"),
            "obj": b.column("obj"),
            "first_seen_us": b.column("ts_us"),
            "last_seen_us": b.column("ts_us"),
            "n_mentions": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    return sorted_group_aggregate(
        j.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["subj", "pred", "obj"],
        [("first_seen_us", "min"), ("last_seen_us", "max"),
         ("n_mentions", "sum")], precombine=True
    ).sort(["subj", "pred", "obj"])


def kg_lineage_report(sf_dir: str):
    """Lineage / checkpoint-manifest surface — the north rule's
    "every partition emits lineage records" made queryable: run the
    resumable driver loop (`run_kg`: partition groups → triples
    parquet + manifest → canonicalized bucketed graph) into a
    fingerprint-tagged /tmp run dir (idempotent — a rerun skips
    manifest-complete groups, which IS the resume path), then emit the
    manifest as a table of deterministic counts (wall times excluded).
    Fixture oracle."""
    import hashlib as _hl
    import os

    from ..sources.derived import corpus_for_sf, models_for_corpus
    from .kg import page_files, run_kg

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    files = sorted(page_files(corpus))
    from ..sources.derived import corpus_content_tag
    tag = corpus_content_tag(corpus, files=files)
    out_dir = f"/tmp/kgray_runkg/run_{tag}"
    run_kg(corpus, out_dir, model_dir=model_dir, tagger="hmm")

    from ..state.manifest import Manifest
    recs = Manifest(os.path.join(out_dir, "manifest.jsonl")).records()
    rows = []
    for r in recs:
        gid = str(r.get("group_id"))
        rows.append({
            "group_id": gid,
            "n_input_files": len(r.get("input_files", [])
                                 or r.get("input_groups", [])),
            "rows_in": int(r.get("rows_in", 0)),
            "sentences": int(r.get("sentences", 0)),
            "triples_raw": int(r.get("triples_raw", 0)),
            "triples_out": int(r.get("triples_out", 0)),
            "n_graph_rows": int(r.get("n_graph_rows", 0)),
            "status": str(r.get("status", ""))})
    rows.sort(key=lambda x: x["group_id"])
    return pa.table({
        "group_id": pa.array([x["group_id"] for x in rows]),
        "n_input_files": pa.array([x["n_input_files"] for x in rows],
                                  type=pa.int64()),
        "rows_in": pa.array([x["rows_in"] for x in rows],
                            type=pa.int64()),
        "sentences": pa.array([x["sentences"] for x in rows],
                              type=pa.int64()),
        "triples_raw": pa.array([x["triples_raw"] for x in rows],
                                type=pa.int64()),
        "triples_out": pa.array([x["triples_out"] for x in rows],
                                type=pa.int64()),
        "n_graph_rows": pa.array([x["n_graph_rows"] for x in rows],
                                 type=pa.int64()),
        "status": pa.array([x["status"] for x in rows],
                           type=pa.string())})


def kg_entity_cooccurrence(sf_dir: str, k_top: int = 40,
                           min_support: int = 3):
    """Sentence-level entity co-occurrence with PMI — the relation-
    DISCOVERY signal that precedes pattern-based triple extraction
    (pairs that co-occur far above chance are relation candidates the
    extractor's rules may be missing).  For unordered surface pairs
    within a sentence: co-occurrence sentence count, each side's
    sentence marginal, and PMI in micro-nats via the `copurchase_pmi`
    float discipline (``math.log(float(n_ab·N) / float(n_a·n_b))``).
    Top ``k_top`` by (support desc, a, b), support ≥ ``min_support``.
    Fixture oracle.

    Plan: mention decode and pair explode FUSE into the tagger's
    per-sentence rows (one row = one sentence, and Ray never splits a
    row — relying on mention contiguity across batch slices would
    silently drop pairs when a block splits mid-sentence); the
    exchange carries only pair/marginal partials
    (mention-vocabulary-bounded)."""
    import math

    from ..kernels.triples import sentence_mentions
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.kg import _scheme
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm",
                    until="tagged")

    def pairs(b: pa.Table) -> pa.Table:
        kk, ka, kb, nn = [], [], [], []
        for toks, tags, lang in zip(b.column("tokens").to_pylist(),
                                    b.column("tags").to_pylist(),
                                    b.column("lang").to_pylist()):
            ents = sorted({m[3] for m in
                           sentence_mentions(toks, tags, _scheme(lang))})
            if not ents:        # N counts sentences WITH ≥1 mention
                continue
            kk.append("N")
            ka.append("")
            kb.append("")
            nn.append(1)
            for x in ents:
                kk.append("m")
                ka.append(x)
                kb.append("")
                nn.append(1)
            for i in range(len(ents)):
                for j in range(i + 1, len(ents)):
                    kk.append("p")
                    ka.append(ents[i])
                    kb.append(ents[j])
                    nn.append(1)
        return pa.table({"kind": pa.array(kk, type=pa.string()),
                         "a": pa.array(ka, type=pa.string()),
                         "b": pa.array(kb, type=pa.string()),
                         "n": pa.array(nn, type=pa.int64())})

    agg = sorted_group_aggregate(
        ds.map_batches(pairs, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["kind", "a", "b"], [("n", "sum")], precombine=True).take_all()

    N = 0
    marg, pair = {}, {}
    for r in agg:
        if r["kind"] == "N":
            N = int(r["n"])
        elif r["kind"] == "m":
            marg[r["a"]] = int(r["n"])
        else:
            pair[(r["a"], r["b"])] = int(r["n"])

    ranked = sorted(((ab, n) for ab, n in pair.items()
                     if n >= min_support),
                    key=lambda kv: (-kv[1], kv[0]))[:k_top]
    return pa.table({
        "entity_a": pa.array([ab[0] for ab, _ in ranked],
                             type=pa.string()),
        "entity_b": pa.array([ab[1] for ab, _ in ranked],
                             type=pa.string()),
        "n_cooccur": pa.array([n for _, n in ranked], type=pa.int64()),
        "n_a": pa.array([marg[ab[0]] for ab, _ in ranked],
                        type=pa.int64()),
        "n_b": pa.array([marg[ab[1]] for ab, _ in ranked],
                        type=pa.int64()),
        "pmi_micro": pa.array(
            [int(math.floor(10**6 * math.log(
                float(n * N) / float(marg[ab[0]] * marg[ab[1]]))
                + 0.5))
             for ab, n in ranked], type=pa.int64())})


def copurchase_mst(sf_dir: str, min_count: int = 2,
                   plan: str = "dense"):
    """Maximum-support spanning forest of the co-purchase graph via
    distributed Borůvka — the missing classic in the graph family
    (CC/PageRank/HITS/k-core/LPA/BFS/Bellman-Ford exist): each round,
    every component selects its best incident edge (most co-purchases,
    ties → smallest (a, b) — a TOTAL order, so the forest is the
    unique one Kruskal would pick), the selected edges union-fold on
    the driver (component-sized), and labels contract.  O(log n)
    rounds; each round is one in-block relabel + one label-keyed min
    aggregate over the edge set.  ``plan="dense"`` broadcasts the
    label map per round (the `entity_pagerank` dense-plan threshold,
    ≤2M nodes); ``plan="shuffle"`` relabels via two sorted-merge
    joins against a label Dataset instead — node state never
    broadcasts, the 100-TB path.  Both plans are pinned bit-equal by
    test (the CC/k-core plan-equality discipline).  Edge order packs
    into one int64
    ((MAXN−n)≪40 | a≪20 | b — part keys < 2²⁰ at every gate scale;
    repack wider for bigger key spaces).  Fixture oracle +
    serial-Kruskal equality test."""
    import ray

    from ..stages.aggregate import sorted_group_aggregate
    from .relational import _copurchase_pair_counts, _unpack_pair

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .materialize())

    nodes = set()
    for t in ray.get(edges.to_arrow_refs()):
        if t.num_rows:
            nodes.update(t.column("part_a").to_pylist())
            nodes.update(t.column("part_b").to_pylist())
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    MAXN = 1 << 22
    assert all(v < (1 << 20) for v in nodes), \
        "edge-order packing assumes part keys < 2^20 — repack wider"
    chosen = {}
    for rnd in range(64):
        labels = {v: find(v) for v in nodes}

        if plan == "dense":
            def relabel(b: pa.Table, _lab=labels) -> pa.Table:
                a = b.column("part_a").to_numpy(zero_copy_only=False)
                c = b.column("part_b").to_numpy(zero_copy_only=False)
                n = b.column("n_copurchase").to_numpy(
                    zero_copy_only=False)
                la = np.array([_lab[x] for x in a], dtype=np.int64)
                lb = np.array([_lab[x] for x in c], dtype=np.int64)
                keep = la != lb
                a, c, n = a[keep], c[keep], n[keep]
                la, lb = la[keep], lb[keep]
                pack = ((MAXN - n.astype(np.int64)) << 40) \
                    | (a.astype(np.int64) << 20) | c.astype(np.int64)
                return pa.table({
                    "lbl": pa.array(np.concatenate([la, lb])),
                    "best": pa.array(np.concatenate([pack, pack]))})

            cand = edges.map_batches(relabel, batch_format="pyarrow",
                                     zero_copy_batch=True)
        else:                       # shuffle twin: labels via joins
            cand = _mst_relabel_shuffle(edges, labels, MAXN)

        sel = sorted_group_aggregate(
            cand, ["lbl"], [("best", "min")],
            precombine=True).take_all()
        if not sel:
            break
        merged = 0
        for r in sorted(sel, key=lambda x: x["lbl"]):
            pack = int(r["best"])
            a = (pack >> 20) & ((1 << 20) - 1)
            b_ = pack & ((1 << 20) - 1)
            n = MAXN - (pack >> 40)
            ra, rb = find(a), find(b_)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                chosen[(a, b_)] = (n, rnd)
                merged += 1
        if merged == 0:
            break

    rows = sorted(chosen.items())
    return pa.table({
        "part_a": pa.array([ab[0] for ab, _ in rows], type=pa.int64()),
        "part_b": pa.array([ab[1] for ab, _ in rows], type=pa.int64()),
        "n_copurchase": pa.array([v[0] for _, v in rows],
                                 type=pa.int64()),
        "round_added": pa.array([v[1] for _, v in rows],
                                type=pa.int64())})


def _mst_relabel_shuffle(edges, labels: dict, MAXN: int):
    """Borůvka relabel, shuffle plan: the (node → label) map is a
    DATASET joined onto each endpoint via `sorted_merge_join` — node
    state never broadcasts (the 100-TB twin of the dense closure
    capture).  Emits the same (lbl, best) candidate rows as the dense
    relabel, bit-for-bit."""
    import ray.data as rd

    from ..stages.join import sorted_merge_join

    items = sorted(labels.items())
    lab_a = rd.from_arrow(pa.table({
        "part_a": pa.array([k for k, _ in items], type=pa.int64()),
        "la": pa.array([v for _, v in items], type=pa.int64())}))
    lab_b = rd.from_arrow(pa.table({
        "part_b": pa.array([k for k, _ in items], type=pa.int64()),
        "lb": pa.array([v for _, v in items], type=pa.int64())}))
    j = sorted_merge_join(
        sorted_merge_join(edges, lab_a, on="part_a"),
        lab_b, on="part_b")

    def pack_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "la" not in b.schema.names:
            return pa.table({"lbl": pa.array([], type=pa.int64()),
                             "best": pa.array([], type=pa.int64())})
        a = b.column("part_a").to_numpy(zero_copy_only=False)
        c = b.column("part_b").to_numpy(zero_copy_only=False)
        n = b.column("n_copurchase").to_numpy(zero_copy_only=False)
        la = b.column("la").to_numpy(zero_copy_only=False)
        lb = b.column("lb").to_numpy(zero_copy_only=False)
        keep = la != lb
        a, c, n = a[keep], c[keep], n[keep]
        la, lb = la[keep], lb[keep]
        pack = ((MAXN - n.astype(np.int64)) << 40) \
            | (a.astype(np.int64) << 20) | c.astype(np.int64)
        return pa.table({
            "lbl": pa.array(np.concatenate([la, lb])),
            "best": pa.array(np.concatenate([pack, pack]))})

    return j.map_batches(pack_rows, batch_format="pyarrow",
                         zero_copy_batch=True)


def kg_gold_eval(sf_dir: str):
    """The north rule's quality gate as a QUERY: precision / recall /
    F1 of the engine's canonical (subj, pred, obj) set against the
    corpus generator's analytically-known gold triples, in exact
    micro-units (set F1 = 2·|∩| / (|P| + |G|), integer-exact).  One
    broadcast membership pass over the materialized graph checkpoint —
    gold is output-sized by construction.  Fixture oracle; the e2e
    tests pin P = R = 1.0 vs the serial reference-semantics oracle,
    this surfaces the corpus-level number the north rule asks for."""
    import pyarrow.parquet as pq

    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate

    corpus = corpus_for_sf(sf_dir)
    graph = graph_for_sf(sf_dir)
    gt = pq.read_table(f"{corpus}/gold_triples.parquet",
                       columns=["subj", "pred", "obj"])
    gold = pa.array(sorted({
        f"{s}\x00{p}\x00{o}" for s, p, o in
        zip(gt.column("subj").to_pylist(), gt.column("pred").to_pylist(),
            gt.column("obj").to_pylist())}), type=pa.string())

    def probe(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            b.column("subj"), b.column("pred"), b.column("obj"), "\x00")
        hit = pc.fill_null(pc.is_in(key, value_set=gold), False)
        return pa.table({
            "k": pa.array(np.zeros(1, dtype=np.int64)),
            "n_extracted": pa.array([b.num_rows], type=pa.int64()),
            "n_matched": pa.array(
                [int(pc.sum(pc.cast(hit, pa.int64())).as_py() or 0)],
                type=pa.int64())})

    tot = sorted_group_aggregate(
        graph.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["k"], [("n_extracted", "sum"), ("n_matched", "sum")],
        precombine=True).take_all()
    n_ex = int(tot[0]["n_extracted"]) if tot else 0
    n_m = int(tot[0]["n_matched"]) if tot else 0
    n_g = len(gold)
    return pa.table({
        "n_gold": pa.array([n_g], type=pa.int64()),
        "n_extracted": pa.array([n_ex], type=pa.int64()),
        "n_matched": pa.array([n_m], type=pa.int64()),
        "precision_micro": pa.array(
            [10**6 * n_m // n_ex if n_ex else 0], type=pa.int64()),
        "recall_micro": pa.array(
            [10**6 * n_m // n_g if n_g else 0], type=pa.int64()),
        "f1_micro": pa.array(
            [2 * 10**6 * n_m // (n_ex + n_g) if n_ex + n_g else 0],
            type=pa.int64())})


def _entity_distance_dense(sym_ds, n_seeds: int, max_depth: int) -> pa.Table:
    """Dense twin of the kg_entity_distance shuffle plan: identical
    semantics (seed pick, bounded per-seed BFS, converged flag — the
    flag mirrors the distributed loop's first-empty-union-frontier
    rule, i.e. converged ⟺ max eccentricity ≤ max_depth − 2) over the
    collected symmetric edge list.  Bounded by the caller's
    ``_DENSE_MAX_NODES`` row check."""
    import hashlib as _hl
    from collections import deque

    import ray as _ray

    tbls = [t for t in _ray.get(sym_ds.to_arrow_refs()) if t.num_rows]
    adj: dict = {}
    for t in tbls:
        for u, v in zip(t.column("node").to_pylist(),
                        t.column("dst").to_pylist()):
            adj.setdefault(u, set()).add(v)
    seeds = sorted(sorted(adj, key=lambda n: (
        _hl.md5(n.encode()).hexdigest(), n))[:n_seeds])

    out = {"seed": [], "n_reached": [], "sum_dist": [],
           "eccentricity_bounded": [], "closeness_bounded_micro": []}
    max_ecc = 0
    for sid in seeds:
        dist = {sid: 0}
        dq = deque([sid])
        while dq:
            u = dq.popleft()
            if dist[u] >= max_depth:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        n, s, m = len(dist), sum(dist.values()), max(dist.values())
        max_ecc = max(max_ecc, m)
        out["seed"].append(sid)
        out["n_reached"].append(n)
        out["sum_dist"].append(s)
        out["eccentricity_bounded"].append(m)
        out["closeness_bounded_micro"].append(
            10**6 * (n - 1) // s if s else 0)
    converged = max_ecc <= max_depth - 2
    k = len(seeds)
    return pa.table({
        "seed": pa.array(out["seed"], type=pa.string()),
        "n_reached": pa.array(out["n_reached"], type=pa.int64()),
        "sum_dist": pa.array(out["sum_dist"], type=pa.int64()),
        "eccentricity_bounded": pa.array(out["eccentricity_bounded"],
                                         type=pa.int64()),
        "closeness_bounded_micro": pa.array(out["closeness_bounded_micro"],
                                            type=pa.int64()),
        "max_depth": pa.array([max_depth] * k, type=pa.int64()),
        "bfs_converged": pa.array([int(converged)] * k, type=pa.int64())})


def kg_entity_distance(sf_dir: str, n_seeds: int = 8,
                       max_depth: int = 6, plan: str = "auto"):
    """Closeness/eccentricity of deterministic seed ENTITIES in the
    undirected canonical entity graph — the KG twin of
    ``copurchase_closeness`` ("how central is this entity in the
    corpus's knowledge?").  Seeds = the ``n_seeds`` entities with the
    smallest md5(name) (stable sample).  The BFS is depth-BOUNDED at
    ``max_depth``; the metric columns are named ``*_bounded`` and a
    (max_depth, bfs_converged) pair marks whether the bound actually
    bit.  Fixture oracle; dense==shuffle plan equality pinned in
    tests.

    ``plan="shuffle"`` (the scale path): the (seed, node, dist)
    frontier expands one sorted-merge join against the symmetric edge
    list per level and re-reduces with a MIN-dist aggregate — per
    level the shuffle is frontier×degree, never nodes², nothing
    graph-sized on the driver.  ``plan="dense"`` (auto at or below
    ``_DENSE_MAX_NODES`` symmetric edge rows): collect the edge list
    once and run the identical bounded BFS in-process — the per-level
    join/aggregate orchestration dominates wall time on small graphs
    (it was the correctness window's most expensive entry)."""
    import hashlib as _hl

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    graph = graph_for_sf(sf_dir)

    def sym(b: pa.Table) -> pa.Table:
        s = b.column("subj").combine_chunks()
        o = b.column("obj").combine_chunks()
        return pa.table({"node": pa.concat_arrays([s, o]),
                         "dst": pa.concat_arrays([o, s])})

    sym_ds = graph.map_batches(sym, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()

    if plan == "dense" or (plan == "auto"
                           and sym_ds.count() <= _DENSE_MAX_NODES):
        return _entity_distance_dense(sym_ds, n_seeds, max_depth)

    nodes = sorted_group_aggregate(
        sym_ds.map_batches(lambda b: pa.table({
            "node": b.column("node"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["node"], [("c", "sum")])

    def add_hash(b: pa.Table) -> pa.Table:
        h = [_hl.md5(n.encode()).hexdigest() for n in
             b.column("node").to_pylist()]
        return pa.table({"node": b.column("node"),
                         "hv": pa.array(h, type=pa.string())})

    seed_rows = (nodes.map_batches(add_hash, batch_format="pyarrow",
                                   zero_copy_batch=True)
                 .sort(["hv", "node"]).limit(n_seeds).take_all())
    seeds = sorted(r["node"] for r in seed_rows)

    dist = rd.from_arrow(pa.table({
        "seed": pa.array(seeds, type=pa.string()),
        "node": pa.array(seeds, type=pa.string()),
        "dist": pa.array(np.zeros(len(seeds), dtype=np.int64))}))
    converged = False
    for r in range(max_depth):
        frontier = dist.filter(expr=f"dist == {r}")             .map_batches(lambda b: b.select(["seed", "node"]),
                         batch_format="pyarrow")
        if frontier.count() == 0:
            converged = True            # every BFS emptied under the cap
            break
        nxt = sorted_merge_join(frontier, sym_ds, on="node").map_batches(
            lambda b, d=r + 1: pa.table({
                "seed": b.column("seed"),
                "node": b.column("dst"),
                "dist": pa.array(np.full(b.num_rows, d, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True)
        dist = sorted_group_aggregate(
            dist.union(nxt), ["seed", "node"], [("dist", "min")],
            precombine=True).materialize()

    agg = sorted_group_aggregate(
        dist.map_batches(lambda b: pa.table({
            "seed": b.column("seed"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "s": b.column("dist"), "m": b.column("dist")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["seed"], [("n", "sum"), ("s", "sum"), ("m", "max")]).take_all()
    by_seed = {r["seed"]: r for r in agg}
    out = {"seed": [], "n_reached": [], "sum_dist": [],
           "eccentricity_bounded": [], "closeness_bounded_micro": []}
    for sid in seeds:
        r = by_seed[sid]
        n, s, m = int(r["n"]), int(r["s"]), int(r["m"])
        out["seed"].append(sid)
        out["n_reached"].append(n)
        out["sum_dist"].append(s)
        out["eccentricity_bounded"].append(m)
        out["closeness_bounded_micro"].append(
            10**6 * (n - 1) // s if s else 0)
    # Both metrics are depth-BOUNDED: on a graph whose diameter
    # exceeds ``max_depth`` the eccentricity is understated and the
    # closeness is computed over only the reached subset — the column
    # names say so, and (max_depth, bfs_converged) let a consumer tell
    # exact values (converged=1) from truncated ones (converged=0).
    k = len(seeds)
    return pa.table({
        "seed": pa.array(out["seed"], type=pa.string()),
        "n_reached": pa.array(out["n_reached"], type=pa.int64()),
        "sum_dist": pa.array(out["sum_dist"], type=pa.int64()),
        "eccentricity_bounded": pa.array(out["eccentricity_bounded"],
                                         type=pa.int64()),
        "closeness_bounded_micro": pa.array(out["closeness_bounded_micro"],
                                            type=pa.int64()),
        "max_depth": pa.array([max_depth] * k, type=pa.int64()),
        "bfs_converged": pa.array([int(converged)] * k, type=pa.int64())})


def kg_graph_zh(sf_dir: str):
    """The canonical graph restricted to CHINESE pages — the
    zh-language path (BMES tagging scheme, zh tokenizer, zh HMM model)
    isolated as a driver-checkable GRAPH query (NOTES round-4
    candidate; `kg_zh_mention_stats` covers the mention level).  The
    language filter pushes down to the page scan — at 100 TB the
    filter prunes before any decode work — and everything downstream
    is the standard pipeline.  Fixture oracle."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm",
                    lang="zh")
    return canonical_graph(ds).drop_columns(["sample_urls"]).sort("subj")


def _surface_triples_for_sf(sf_dir: str, tagger: str = "hmm"):
    """Materialized checkpoint of PRE-LINK surface triples (the stage
    the alias-patch maintenance re-enters): pages → extract → split →
    tagger pool → surface triples, written once per corpus content
    identity.  This is the expensive 99% of the pipeline (decode) —
    checkpointing it is what makes an alias-delta cheap."""
    import glob
    import os
    import shutil

    from ..sources.derived import (corpus_for_sf, corpus_content_tag,
                                   models_for_corpus)
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger=tagger)
    tag = corpus_content_tag(corpus, extra=f"surface|{tagger}")
    out = f"/tmp/kgray_surface/triples_{tag}"
    if not os.path.exists(os.path.join(out, "_DONE")):
        import tempfile
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".",
                               dir=os.path.dirname(out))
        kg_dataset(page_files(corpus), corpus, model_dir, tagger=tagger,
                   until="surface").write_parquet(tmp)
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, out)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "*.parquet"))))


def _linked_triples_for_sf(sf_dir: str, tagger: str = "hmm"):
    """Materialized checkpoint of the v1 LINKED triples (kg_dataset
    output, pre-canonicalization) — the state an alias-delta
    maintenance pass starts from."""
    import glob
    import os
    import shutil

    from ..sources.derived import (corpus_for_sf, corpus_content_tag,
                                   models_for_corpus)
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger=tagger)
    tag = corpus_content_tag(corpus, extra=f"linked|{tagger}")
    out = f"/tmp/kgray_surface/linked_{tag}"
    if not os.path.exists(os.path.join(out, "_DONE")):
        import tempfile
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".",
                               dir=os.path.dirname(out))
        kg_dataset(page_files(corpus), corpus, model_dir,
                   tagger=tagger).write_parquet(tmp)
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, out)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    return rd.read_parquet(
        sorted(glob.glob(os.path.join(out, "*.parquet"))))


def kg_alias_patch(sf_dir: str, n_patch: int = 5, plan: str = "incremental"):
    """Alias-dictionary DELTA maintenance (the curation loop's most
    common KG edit: a disambiguation fix lands in the alias table and
    the graph must follow without a full re-extract).

    The deterministic synthetic delta pins the ``n_patch``
    lexicographically-smallest ambiguous surfaces to their largest-id
    candidate (an editorial disambiguation).  ``plan="incremental"``:
    sentences CONTAINING a patched surface (delta-sized by assumption —
    alias edits touch few surfaces; the affected (url, sent_id) set
    broadcasts) re-link under the patched index; every other
    sentence's triples come straight from the LINKED checkpoint —
    tagging and linking are skipped for the unaffected 99.9%.  The one
    canonicalization aggregate then runs over the union exactly as the
    full pipeline would.  ``plan="full"`` re-links everything under
    the patched index; both plans are bit-equal (the maintenance law,
    pinned by test) and the fixture oracle gates the output."""
    import ray

    from ..kernels.linking import EMB_DIM
    from ..sources.corpus import load_side_tables
    from ..sources.derived import corpus_for_sf
    from ..stages.canonical import canonical_graph
    from ..stages.kg import LinkerActor
    from .kg import pool_budget

    assert plan in ("incremental", "full")
    corpus = corpus_for_sf(sf_dir)
    alias_idx, emb_map = load_side_tables(corpus)
    patched = sorted(s for s, c in alias_idx.items() if len(c) >= 2)[:n_patch]
    # the delta is a SMALL plain-dict overlay passed by value — the
    # actor loads the base index from the corpus path and applies it
    # in __init__ (restart-safe, ray#53727; see LinkerActor docstring)
    alias_patch = {s: [max(alias_idx[s])] for s in patched}
    patched_set = frozenset(patched)

    surface = _surface_triples_for_sf(sf_dir)

    def relink(ds, rows):
        # one actor per 4096-row batch: each actor loads the side tables
        # in __init__, and an actor with no batch of its own only adds
        # that load (sf0.01 on 8 Ray CPUs over 4 cores: 6 actors took
        # 12.3 s, 2 took 7.9 s)
        n_actors = pool_budget(f"kg_alias_patch(plan={plan!r}) relink",
                               (8, 4096), rows)
        return ds.map_batches(
            LinkerActor,
            fn_constructor_kwargs={"corpus_dir": corpus,
                                   "alias_patch": alias_patch},
            batch_format="pyarrow", batch_size=4096,
            concurrency=n_actors, num_cpus=1)

    if plan == "full":
        linked = relink(surface, surface.count())    # parquet footers
    else:
        pset_ref = ray.put(patched_set)

        def affected_mask(b: pa.Table) -> np.ndarray:
            ps = ray.get(pset_ref)
            sub = b.column("subj_surface").to_pylist()
            obj = b.column("obj_surface").to_pylist()
            return np.array([s.lower() in ps or o.lower() in ps
                             for s, o in zip(sub, obj)], dtype=bool)

        # delta-sized: the (url, sent_id) keys of affected sentences
        hit_tables = [t for t in ray.get(
            surface.map_batches(
                lambda b: b.filter(pa.array(affected_mask(b)))
                           .select(["url", "sent_id"]),
                batch_format="pyarrow").to_arrow_refs())
            if t.num_rows and "url" in t.schema.names]
        hit = (set(zip(pa.concat_tables(hit_tables).column("url").to_pylist(),
                       pa.concat_tables(hit_tables).column("sent_id").to_pylist()))
               if hit_tables else set())
        hit_ref = ray.put(hit)

        def split(keep: bool):
            def fn(b: pa.Table) -> pa.Table:
                hs = ray.get(hit_ref)
                m = np.array([(u, s) in hs for u, s in
                              zip(b.column("url").to_pylist(),
                                  b.column("sent_id").to_pylist())],
                             dtype=bool)
                return b.filter(pa.array(~m if keep else m))
            return fn

        # unaffected sentences: straight from the v1 LINKED checkpoint
        keep_rows = _linked_triples_for_sf(sf_dir).map_batches(
            split(keep=True), batch_format="pyarrow")
        relinked = relink(surface.map_batches(split(keep=False),
                                              batch_format="pyarrow"),
                          len(hit))
        linked = keep_rows.union(relinked)

    return canonical_graph(linked).drop_columns(["sample_urls"])         .sort("subj")


def kg_gold_eval_transformer(sf_dir: str):
    """:func:`kg_gold_eval` with the TRAINED Transformer-CRF as the
    mention-extraction kernel (closes the T5 loop end-to-end): the
    NumPy transformer trains on-engine per language
    (``train_transformer_distributed``, bit-deterministic, cached),
    the full KG pipeline runs with the TransformerTagger actor pool,
    and the canonical triple set is scored against the generator's
    gold — the north rule's P/R≥0.95 bar for the third reference
    model family (asserted in tests, surfaced here as a
    driver-checkable row).  Fixture oracle."""
    import json as _json
    import os

    import pyarrow.parquet as pq

    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.canonical import canonical_graph
    from .kg import kg_dataset, page_files
    from .training import trained_transformer_model_paths

    corpus = corpus_for_sf(sf_dir)
    paths = trained_transformer_model_paths(sf_dir)
    # kg_dataset resolves models via a models.json directory contract
    model_dir = os.path.join(
        os.path.dirname(os.path.dirname(list(paths.values())[0])),
        "modeldir_" + "_".join(sorted(
            os.path.basename(os.path.dirname(p)) for p in paths.values())))
    os.makedirs(model_dir, exist_ok=True)
    with open(os.path.join(model_dir, "models.json"), "w") as f:
        _json.dump({"transformer": paths}, f)

    graph = canonical_graph(kg_dataset(page_files(corpus), corpus,
                                       model_dir, tagger="transformer"))
    gt = pq.read_table(f"{corpus}/gold_triples.parquet",
                       columns=["subj", "pred", "obj"])
    gold = pa.array(sorted({
        f"{s}\x00{p}\x00{o}" for s, p, o in
        zip(gt.column("subj").to_pylist(), gt.column("pred").to_pylist(),
            gt.column("obj").to_pylist())}), type=pa.string())

    def probe(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            b.column("subj"), b.column("pred"), b.column("obj"), "\x00")
        hit = pc.fill_null(pc.is_in(key, value_set=gold), False)
        return pa.table({
            "k": pa.array(np.zeros(1, dtype=np.int64)),
            "n_extracted": pa.array([b.num_rows], type=pa.int64()),
            "n_matched": pa.array(
                [int(pc.sum(pc.cast(hit, pa.int64())).as_py() or 0)],
                type=pa.int64())})

    tot = sorted_group_aggregate(
        graph.map_batches(probe, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["k"], [("n_extracted", "sum"), ("n_matched", "sum")],
        precombine=True).take_all()
    n_ex = int(tot[0]["n_extracted"]) if tot else 0
    n_m = int(tot[0]["n_matched"]) if tot else 0
    n_g = len(gold)
    return pa.table({
        "n_gold": pa.array([n_g], type=pa.int64()),
        "n_extracted": pa.array([n_ex], type=pa.int64()),
        "n_matched": pa.array([n_m], type=pa.int64()),
        "precision_micro": pa.array(
            [10**6 * n_m // n_ex if n_ex else 0], type=pa.int64()),
        "recall_micro": pa.array(
            [10**6 * n_m // n_g if n_g else 0], type=pa.int64()),
        "f1_micro": pa.array(
            [2 * 10**6 * n_m // (n_ex + n_g) if n_ex + n_g else 0],
            type=pa.int64())})


def kg_schema_induction(sf_dir: str):
    """Ontology/schema induction over the extracted KG: the
    type-signature table ``(pred, subj_type, obj_type) → count`` plus
    each signature's share of its predicate in ppm — the relation-
    typing signal (PARIS / AMIE-style) that tells a KG curator
    ``works_for: PER→ORG`` and flags extraction noise as off-signature
    rows.  Entity types come from the tagger's own mention etypes:
    per-surface etype votes aggregate distributed, surfaces map to
    canonical ids by the linker's own rules (unambiguous aliases +
    the S: surrogate; ambiguous surfaces are excluded from typing —
    their vote would need per-mention context), modal etype per id
    (ties → lexicographic), and the id→type map broadcasts into one
    typed pass over the graph checkpoint (UNK where no vote exists).
    Fixture oracle."""
    import pyarrow.parquet as pq

    from ..kernels.linking import slugify
    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate

    import __ray_entry__ as entrymod

    corpus = corpus_for_sf(sf_dir)
    al = pq.read_table(f"{corpus}/aliases.parquet",
                       columns=["surface", "canonical_id"])
    alias_idx = {}
    for s, c in zip(al.column("surface").to_pylist(),
                    al.column("canonical_id").to_pylist()):
        alias_idx.setdefault(s.lower(), []).append(c)

    votes_rows = sorted_group_aggregate(
        entrymod._kg_mentions(sf_dir).map_batches(
            lambda b: pa.table({
                "surface": b.column("surface"),
                "etype": b.column("etype"),
                "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["surface", "etype"], [("n", "sum")], precombine=True).take_all()

    votes = {}
    for r in votes_rows:
        cands = alias_idx.get(r["surface"].lower())
        if cands is None:
            cid = "S:" + slugify(r["surface"])
        elif len(cands) == 1:
            cid = cands[0]
        else:
            continue                     # ambiguous: context-dependent
        d = votes.setdefault(cid, {})
        d[r["etype"]] = d.get(r["etype"], 0) + int(r["n"])
    etype = {cid: min((e for e, n in d.items()
                       if n == max(d.values())))
             for cid, d in votes.items()}

    graph = graph_for_sf(sf_dir)

    def typed(b: pa.Table, _t=etype) -> pa.Table:
        st = [_t.get(x, "UNK") for x in b.column("subj").to_pylist()]
        ot = [_t.get(x, "UNK") for x in b.column("obj").to_pylist()]
        return pa.table({
            "pred": b.column("pred"),
            "subj_type": pa.array(st, type=pa.string()),
            "obj_type": pa.array(ot, type=pa.string()),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    sig = sorted_group_aggregate(
        graph.map_batches(typed, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["pred", "subj_type", "obj_type"], [("n", "sum")],
        precombine=True).take_all()
    per_pred = {}
    for r in sig:
        per_pred[r["pred"]] = per_pred.get(r["pred"], 0) + int(r["n"])
    rows = sorted(sig, key=lambda r: (r["pred"], -int(r["n"]),
                                      r["subj_type"], r["obj_type"]))
    return pa.table({
        "pred": pa.array([r["pred"] for r in rows], type=pa.string()),
        "subj_type": pa.array([r["subj_type"] for r in rows],
                              type=pa.string()),
        "obj_type": pa.array([r["obj_type"] for r in rows],
                             type=pa.string()),
        "n_triples": pa.array([int(r["n"]) for r in rows],
                              type=pa.int64()),
        "share_ppm": pa.array(
            [10**6 * int(r["n"]) // per_pred[r["pred"]] for r in rows],
            type=pa.int64())})


def kg_graph_diff(sf_dir: str, n_delta_files: int = 2):
    """KG evolution report — what a new crawl batch DID to the graph:
    compare the canonical graph over the old corpus (all but the last
    ``n_delta_files`` page files) against the full graph, per
    predicate: triples added, triples kept, and support gained on kept
    triples.  The comparison is one composite-key full-outer
    `sorted_merge_join` on (subj, pred, obj) — graph×graph is
    fact-sized at crawl scale, never a broadcast — followed by a
    predicate-sized aggregate.  (No triple is ever REMOVED by more
    crawl data — monotone extraction — and the test pins that.)
    Fixture oracle."""
    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from .kg import page_files

    corpus = corpus_for_sf(sf_dir)
    files = sorted(page_files(corpus))
    old = graph_for_sf(sf_dir, files=files[:-n_delta_files])
    full = graph_for_sf(sf_dir)

    left = full.map_batches(lambda b: pa.table({
        "subj": b.column("subj"), "pred": b.column("pred"),
        "obj": b.column("obj"), "support_new": b.column("support")}),
        batch_format="pyarrow", zero_copy_batch=True)
    right = old.map_batches(lambda b: pa.table({
        "subj": b.column("subj"), "pred": b.column("pred"),
        "obj": b.column("obj"), "support_old": b.column("support")}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = sorted_merge_join(left, right, on=["subj", "pred", "obj"],
                          how="left")

    def classify(b: pa.Table) -> pa.Table:
        new = pc.fill_null(b.column("support_new"), 0)
        oldc = pc.is_valid(b.column("support_old"))
        olds = pc.fill_null(b.column("support_old"), 0)
        kept = pc.cast(oldc, pa.int64())
        added = pc.subtract(pa.scalar(1), kept)
        return pa.table({
            "pred": b.column("pred"),
            "n_added": added,
            "n_kept": kept,
            "support_gained": pc.multiply(
                pc.subtract(new, olds), kept)})

    return sorted_group_aggregate(
        j.map_batches(classify, batch_format="pyarrow",
                      zero_copy_batch=True),
        ["pred"], [("n_added", "sum"), ("n_kept", "sum"),
                   ("support_gained", "sum")],
        precombine=True).sort("pred")


def kg_zh_mention_stats(sf_dir: str):
    """Chinese-language extraction surface, driver-checked explicitly:
    per-entity-type mention counts and distinct-surface counts over
    the zh pages only — the BMES span-decode path (`Chinese/tag.txt`'s
    33-tag scheme, char-level tokens) isolated from the en BIO path it
    normally blends with inside `kg_graph`.  Fixture oracle."""
    from ..stages.aggregate import sorted_group_aggregate

    import __ray_entry__ as entrymod

    mentions = entrymod._kg_mentions(sf_dir)

    def zh_rows(b: pa.Table) -> pa.Table:
        # lang rides on the PAGE, not the mention row; zh surfaces are
        # the non-ASCII ones (en surfaces are ASCII by construction in
        # this corpus), which identifies the BMES-decoded mentions
        # exactly
        surf = b.column("surface").to_pylist()
        mask = pa.array([any(ord(ch) > 127 for ch in s) for s in surf])
        t = b.filter(mask)
        return pa.table({
            "etype": t.column("etype"),
            "surface": t.column("surface"),
            "c": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    per_surface = sorted_group_aggregate(
        mentions.map_batches(zh_rows, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["etype", "surface"], [("c", "sum")], precombine=True)

    def ones(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "c" not in b.schema.names:
            return pa.table({
                "etype": pa.array([], type=pa.string()),
                "n_mentions": pa.array([], type=pa.int64()),
                "n_surfaces": pa.array([], type=pa.int64())})
        return pa.table({
            "etype": b.column("etype"),
            "n_mentions": b.column("c"),
            "n_surfaces": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    return sorted_group_aggregate(
        per_surface.map_batches(ones, batch_format="pyarrow",
                                zero_copy_batch=True),
        ["etype"], [("n_mentions", "sum"), ("n_surfaces", "sum")],
        precombine=True).sort("etype")


def kg_predicate_trend(sf_dir: str):
    """Temporal KG growth — per-predicate triple-occurrence counts by
    crawl HOUR (the freshness/coverage trend a KG operations dashboard
    plots; `kg_triple_recency`'s provenance join rolled up to the
    crawl timeline — the synthetic crawl spans hours, so hour buckets
    are the non-vacuous granularity; at Common-Crawl scale the same
    rollup keys on month).  Fixture oracle."""
    from ..sources.derived import corpus_for_sf, models_for_corpus
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from .kg import kg_dataset, page_files

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    triples = kg_dataset(page_files(corpus), corpus, model_dir,
                         tagger="hmm").map_batches(
        lambda b: pa.table({
            "url": b.column("url"), "pred": b.column("pred")}),
        batch_format="pyarrow", zero_copy_batch=True)
    pages = rd.read_parquet(page_files(corpus),
                            columns=["url", "warc_ts"]).map_batches(
        lambda b: pa.table({
            "url": b.column("url"),
            "crawl_hour": pc.divide(
                pc.cast(b.column("warc_ts"), pa.int64()),
                pa.scalar(3600_000_000))}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = sorted_merge_join(triples, pages, on="url")

    return sorted_group_aggregate(
        j.map_batches(lambda b: pa.table({
            "pred": b.column("pred"),
            "crawl_hour": b.column("crawl_hour"),
            "n_occurrences": pa.array(np.ones(b.num_rows,
                                              dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pred", "crawl_hour"], [("n_occurrences", "sum")],
        precombine=True).sort(["pred", "crawl_hour"])
