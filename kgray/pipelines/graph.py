"""Iterative graph analytics over the extracted knowledge graph and the
co-purchase graph — PageRank, personalized PageRank, HITS, k-core,
bounded-BFS entity distance, label-propagation communities, Borůvka
spanning forest, pointer-doubling chain resolution — plus the
KG-quality audits over the materialized graph checkpoint.

PageRank, PPR, HITS, k-core, entity distance and label propagation
are each ONE recurrence over one primitive,
:class:`~kgray.stages.propagate.EdgeIndex`: the distinct edges indexed
once over the sorted node universe, and one sweep ``y = A ⊗ x`` under
``sum``, ``min`` or a ``mode`` vote.  Its dense plan (broadcast vector
over pinned int edge blocks) and shuffle plan (each block gets its
range of the vector, partials reduced by target range) serve all six
and switch at ``_DENSE_MAX_NODES`` nodes; each algorithm's ``plan=``
argument forces one.  Borůvka works on the same int positions: its
per-block candidates are ``min`` partials merged by
``propagate.merge``, and its labels a NumPy union-find.

Float ranks are NOT reproducible on a distributed engine — per-node
sums depend on block splits and merge order.  The recurrences here
therefore run in FIXED POINT: ranks are int64 micro-units
(UNIT = 10^12), contributions are integer divisions, and every
reduction is an integer sum, min or vote count (order-independent), so
results are bit-identical across runs, partitionings, plans and
cluster sizes — which is what makes the committed fixtures exact
oracles.  PageRank's
rounding drift vs real-valued PageRank is ≤ iterations · N / UNIT
(~1e-6 at a million nodes), pinned by a numpy-float comparison test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..stages.propagate import (EdgeIndex, jump, map_blocks, merge, partial,
                                pin)

__all__ = ["pagerank", "entity_pagerank", "kcore", "copurchase_kcore",
           "hits", "entity_hits", "label_propagation", "entity_communities",
           "resolve_chains", "doc_redirect_resolution", "ppr", "entity_ppr",
           "part_components", "copurchase_degree_assortativity",
           "copurchase_robustness", "copurchase_mst", "kg_entity_distance"]

UNIT = 10 ** 12


def pagerank(edges, iters: int = 10, d_num: int = 17, d_den: int = 20,
             plan: str = "auto"):
    """PageRank over an edge Dataset (``src``, ``dst``; duplicate edges
    count once).  Returns a Dataset (node, rank_fp:int64), nodes in
    sorted order, ranks in UNIT micro-units summing to ~UNIT:

        rank'(v) = (1−d)·UNIT/N + d·(in(v) + dangling/N)

    with d = d_num/d_den in exact integer arithmetic.  This is
    :func:`ppr` with every node a seed: its base, initial rank,
    dangling share and update are then exactly these.  ``plan``:
    ``"dense"``, ``"shuffle"`` or ``"auto"`` (see
    ``stages/propagate.py``)."""
    return ppr(edges, None, iters=iters, d_num=d_num, d_den=d_den,
               plan=plan)


def entity_pagerank(sf_dir: str, iters: int = 10):
    """PageRank over the extracted entity graph (subj→obj edges of the
    canonical triples) — 'which entities sit at the center of the
    corpus'.  Deterministic fixed-point ranks (fixture oracle; accuracy
    vs real-valued power iteration pinned in tests)."""
    return pagerank(_entity_edges(sf_dir), iters=iters)


def kcore(edges, k: int, max_rounds: int = 60, plan: str = "auto"):
    """k-core of an UNDIRECTED graph: the maximal subgraph where every
    node has degree ≥ k, computed by peeling to the fixpoint.

    ``edges``: Dataset (``src``, ``dst``), each undirected edge ONCE
    (``src < dst``), no self-loops.  Returns (``node``, ``core_degree``)
    for nodes surviving in the k-core, in node order — ``core_degree``
    is the node's degree WITHIN the core, a pure function of the graph
    (peeling order never changes the fixpoint, so the output is
    partitioning-exact and plan-independent).

    Each round is one undirected sweep, ``deg = A·alive`` in both
    directions (the alive neighbours of every node); the alive nodes
    below ``k`` die together.  Rounds are bounded by the peeling
    depth."""
    idx = EdgeIndex(edges, plan)
    alive = np.ones(idx.n, dtype=np.int64)
    for _ in range(max_rounds):
        deg = idx.sweep(alive, direction="both") * alive
        dead = (alive == 1) & (deg < k)
        if not dead.any():
            keep = alive == 1
            return rd.from_arrow(pa.table({
                "node": idx.nodes.filter(pa.array(keep)),
                "core_degree": pa.array(deg[keep], type=pa.int64())}))
        alive[dead] = 0
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
    return kcore(edges, k=k)


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


def _shifted(x: np.ndarray, bits: int = 40) -> np.ndarray:
    """``x`` right-shifted uniformly until max(x) < 2^bits — HITS is
    scale-invariant, so a shared shift preserves the fixpoint exactly
    and is a pure function of the vector (plan-independent)."""
    return x >> max(0, int(x.max(initial=0)).bit_length() - bits)


def hits(edges, iters: int = 20, plan: str = "auto"):
    """Kleinberg HITS (hubs & authorities) over a directed edge Dataset
    (``src``, ``dst``; duplicates count once) — deterministic integer
    fixed point.  Instead of the textbook per-iteration L2
    normalization (whose sqrt breaks integer exactness), magnitude is
    controlled by a UNIFORM right-shift (scale invariance makes the
    two equivalent up to the final normalization); the returned
    ``hub_fp``/``auth_fp`` are rescaled once at the end to sum ≈ UNIT
    with exact Python-int arithmetic.  Each iteration is one forward
    and one transposed sweep; ``plan`` as for :func:`pagerank`."""
    idx = EdgeIndex(edges, plan)
    h = np.full(idx.n, 1 << 20, dtype=np.int64)
    a = np.zeros(idx.n, dtype=np.int64)
    for _ in range(iters):
        a = _shifted(idx.sweep(h))                      # Σ hub(u), u→v
        h = _shifted(idx.sweep(a, direction="reverse"))  # Σ auth(v), u→v
    return rd.from_arrow(pa.table({
        "node": idx.nodes,
        "hub_fp": pa.array(_rescale_unit(h), type=pa.int64()),
        "auth_fp": pa.array(_rescale_unit(a), type=pa.int64())}))


def entity_hits(sf_dir: str, iters: int = 20, plan: str = "auto"):
    """HITS over the extracted entity graph — 'which entities point at
    the hubs, which collect the links'.  Deterministic fixed point
    (fixture oracle; dense/shuffle plan equality pinned in tests)."""
    return hits(_entity_edges(sf_dir), iters=iters, plan=plan)


# ------------------------------------------------------------------ label propagation

def label_propagation(edges, rounds: int = 4, plan: str = "auto"):
    """Synchronous label-propagation communities (Raghavan et al. 2007)
    over an UNDIRECTED graph: every node starts labeled with itself;
    each round every node adopts the most frequent label among its
    neighbors, ties to the LEXICOGRAPHICALLY SMALLEST label.  A FIXED
    round count with synchronous updates makes the result a pure
    function of the graph (classic async LPA is visit-order-dependent;
    this variant is partitioning- and plan-independent, pinned by the
    dense==shuffle test).

    ``edges``: Dataset (``src``, ``dst``).  Input is normalized to
    distinct undirected pairs, self-loops dropped.  Returns (``node``,
    ``community``) — community = the surviving label.

    Labels are node positions in the sorted universe, so the smallest
    position is the smallest label; each round is one ``mode`` sweep in
    both directions.  ``plan`` as for :func:`pagerank`."""
    def norm(b: pa.Table) -> pa.Table:
        lo = pc.min_element_wise(b.column("src"), b.column("dst"))
        hi = pc.max_element_wise(b.column("src"), b.column("dst"))
        return pa.table({"src": lo, "dst": hi}).filter(
            pc.fill_null(pc.not_equal(lo, hi), False))

    idx = EdgeIndex(edges.map_batches(norm, batch_format="pyarrow",
                                      zero_copy_batch=True), plan)
    lab = np.arange(idx.n, dtype=np.int64)
    for _ in range(rounds):
        lab = idx.sweep(lab, "mode", "both")
    return rd.from_arrow(pa.table({"node": idx.nodes,
                                   "community": idx.nodes.take(lab)}))


def entity_communities(sf_dir: str, rounds: int = 4,
                       plan: str = "auto"):
    """Label-propagation communities over the extracted entity graph —
    'which entities cluster together in the corpus'.  Deterministic
    (synchronous, fixed rounds, lexicographic tie-break): fixture
    oracle; dense==shuffle plan equality pinned in tests."""
    return label_propagation(_entity_edges(sf_dir), rounds=rounds,
                             plan=plan)


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

    ``seed_fn(names: list) -> bool ndarray`` flags the seeds among the
    sorted node names (a pure function of the name — e.g. an md5 rule
    or a topical prefix); ``None`` makes every node a seed, which is
    :func:`pagerank`.  The recurrence in exact integer micro-units
    (bit-identical across plans/partitionings):

        rank'(v) = [v∈S]·(1−d)·UNIT/|S|
                   + d·(in(v) + [v∈S]·dangling/|S|)
        in(v)    = Σ over u→v of rank(u) // outdeg(u)

    One sweep per iteration; ``plan`` as for :func:`pagerank`."""
    idx = EdgeIndex(edges, plan)
    if idx.n == 0:
        return rd.from_arrow(pa.table({
            "node": idx.nodes, "rank_fp": pa.array([], type=pa.int64())}))
    seed = np.ones(idx.n, dtype=bool) if seed_fn is None else \
        np.asarray(seed_fn(idx.nodes.to_pylist()), dtype=bool)
    n_seeds = int(seed.sum())
    if n_seeds == 0:
        raise ValueError("seed_fn selected no nodes")

    base = np.where(seed, ((d_den - d_num) * UNIT) // (d_den * n_seeds), 0)
    outdeg = idx.sweep(np.ones(idx.n, dtype=np.int64), direction="reverse")
    dangling = outdeg == 0
    r = np.where(seed, UNIT // n_seeds, 0)
    for _ in range(iters):
        share = int(r[dangling].sum()) // n_seeds
        in_fp = idx.sweep(r // np.maximum(outdeg, 1))
        r = base + ((in_fp + np.where(seed, share, 0)) * d_num) // d_den
    return rd.from_arrow(pa.table({"node": idx.nodes,
                                   "rank_fp": pa.array(r, type=pa.int64())}))


def entity_ppr(sf_dir: str, iters: int = 10, seed_mod: int = 20):
    """Personalized PageRank over the entity graph, seeded at the
    md5-selected entity subset (``md5(name) % seed_mod == 0`` — the
    repo's deterministic sampling rule standing in for a user's topical
    seed list).  Fixed-point integer ranks → fixture oracle."""
    import hashlib

    def seed_fn(names):
        return np.array(
            [int(hashlib.md5(n.encode()).hexdigest()[:8], 16)
             % seed_mod == 0 for n in names], dtype=bool)

    return ppr(_entity_edges(sf_dir), seed_fn, iters=iters)


def part_components(sf_dir: str, min_count: int = 2):
    """Weakly-connected components over the co-purchase graph — the
    'product families' decomposition, and the one CC query with a FULL
    SQL oracle (a recursive-CTE transitive closure; the neardup CC is
    fixture-pinned).  Engine side reuses ``cluster.connected_components``
    (``min`` sweeps, root hooking and pointer jumping over ``EdgeIndex``);
    component id = min part key of the component."""
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


def _entity_edges(sf_dir: str):
    """The entity graph's subj → obj edges (``src``, ``dst``), read
    from the :func:`graph_for_sf` checkpoint."""
    return graph_for_sf(sf_dir).map_batches(lambda b: pa.table({
        "src": b.column("subj"), "dst": b.column("obj")}),
        batch_format="pyarrow", zero_copy_batch=True)


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


_MST_BITS = 20          # bits of an endpoint position in a packed edge
_MST_MASK = (1 << _MST_BITS) - 1
_MST_MAXN = 1 << 22     # co-purchase counts per packed edge
_NO_EDGE = np.iinfo(np.int64).max    # the min merge's identity: no candidate


def _mst_pack(block: pa.Table, nodes: pa.Array) -> np.ndarray:
    """One edge block's packed Borůvka keys, one int64 per edge, in the
    total edge order (most co-purchases, then smallest (a, b)):
    ``(MAXN − n)≪40 | ai≪20 | bi`` over the endpoint positions."""
    if block.num_rows == 0:     # an empty block may carry no columns
        return np.zeros(0, dtype=np.int64)
    ai, bi = (pc.index_in(block.column(c), value_set=nodes).to_numpy()
              .astype(np.int64) for c in ("src", "dst"))
    n = block.column("n").to_numpy().astype(np.int64)
    return ((_MST_MAXN - n) << 2 * _MST_BITS) | (ai << _MST_BITS) | bi


def _mst_candidates(pack: np.ndarray, lab: np.ndarray):
    """Per component label, the smallest packed edge of this block that
    leaves the component (a sparse ``min`` partial)."""
    la, lb = lab[(pack >> _MST_BITS) & _MST_MASK], lab[pack & _MST_MASK]
    cross = la != lb
    return partial(np.concatenate([la[cross], lb[cross]]),
                   np.tile(pack[cross], 2), "min")


def copurchase_mst(sf_dir: str, min_count: int = 2):
    """Maximum-support spanning forest of the co-purchase graph via
    Borůvka — the missing classic in the graph family
    (CC/PageRank/HITS/k-core/LPA/BFS/Bellman-Ford exist): each round,
    every component selects its best incident edge (most co-purchases,
    ties → smallest (a, b) — a TOTAL order, so the forest is the
    unique one Kruskal would pick), the selected edges join their
    components, and labels contract.  O(log n) rounds.

    Every edge is mapped to its endpoint positions in the sorted node
    universe ONCE and packed into one int64 in the edge order (see
    ``_mst_pack``; positions < 2²⁰).  A round finds each edge block's
    crossing edges (``lab[a] != lab[b]``) and their per-label minimum,
    in-process for a graph of one block, else one raw Ray task per
    block, and ``min``-merges the blocks' partials on the driver.  The
    labels are a NumPy union-find: the selected edges hook each root
    to the smaller one, and pointer jumping compresses, so every label
    is its component's smallest position.  Fixture oracle +
    serial-Kruskal equality test."""
    import ray

    from .relational import _copurchase_pair_counts, _unpack_pair

    edges = (_copurchase_pair_counts(sf_dir)
             .map_batches(_unpack_pair, batch_format="pyarrow",
                          zero_copy_batch=True)
             .filter(expr=f"n_copurchase >= {int(min_count)}")
             .map_batches(lambda b: pa.table({
                 "src": pc.cast(b.column("part_a"), pa.int64()),
                 "dst": pc.cast(b.column("part_b"), pa.int64()),
                 "n": b.column("n_copurchase")}),
                 batch_format="pyarrow", zero_copy_batch=True))
    blocks, local, nodes = pin(edges)
    if len(nodes) > 1 << _MST_BITS:
        raise ValueError("copurchase_mst: edge-order packing holds 2^20 "
                         f"nodes, got {len(nodes)} — repack wider")
    if local:
        packs = [_mst_pack(b, nodes) for b in blocks]
    else:
        task, nodes_ref = ray.remote(_mst_pack), ray.put(nodes)
        packs = [task.remote(b, nodes_ref) for b in blocks]
    lab = np.arange(len(nodes), dtype=np.int64)
    chosen = added = np.zeros(0, dtype=np.int64)
    for rnd in range(64):
        best = merge(np.full(len(nodes), _NO_EDGE, dtype=np.int64),
                     map_blocks(_mst_candidates, packs, local,
                                lab if local else ray.put(lab)), "min")
        pk = np.unique(best[best != _NO_EDGE])
        if len(pk) == 0:
            break
        chosen = np.r_[chosen, pk]
        added = np.r_[added, np.full(len(pk), rnd)]
        # hook each selected edge's larger root to the smaller, jump
        ra, rb = lab[(pk >> _MST_BITS) & _MST_MASK], lab[pk & _MST_MASK]
        while (lab[ra] != lab[rb]).any():
            lo = np.minimum(lab[ra], lab[rb])
            np.minimum.at(lab, lab[ra], lo)
            np.minimum.at(lab, lab[rb], lo)
            lab = jump(lab)

    order = np.argsort(chosen & ((1 << 2 * _MST_BITS) - 1))   # by (a, b)
    pk = chosen[order]
    return pa.table({
        "part_a": nodes.take(pa.array((pk >> _MST_BITS) & _MST_MASK)),
        "part_b": nodes.take(pa.array(pk & _MST_MASK)),
        "n_copurchase": pa.array(_MST_MAXN - (pk >> 2 * _MST_BITS)),
        "round_added": pa.array(added[order], type=pa.int64())})


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


def _bounded_bfs(idx: EdgeIndex, seeds: np.ndarray, max_depth: int):
    """Hop distances from each seed (node positions in ``idx``) over
    the undirected graph, one column per seed, −1 where no path of at
    most ``max_depth`` hops reaches; and whether every BFS emptied its
    frontier under the cap.  One (min,+) BFS: each level is one
    undirected ``min`` sweep of the frontier, whose nodes offer
    ``level + 1`` to their neighbours."""
    k = len(seeds)
    inf = np.iinfo(np.int64).max
    dist = np.full((idx.n, k), inf, dtype=np.int64)
    dist[seeds, np.arange(k)] = 0
    converged = False
    for r in range(max_depth):
        frontier = dist == r
        if not frontier.any():
            converged = True
            break
        dist = np.minimum(dist, idx.sweep(np.where(frontier, r + 1, inf),
                                          "min", "both"))
    return np.where(dist < inf, dist, -1), converged


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

    ``plan`` as for :func:`pagerank`."""
    import hashlib as _hl

    idx = EdgeIndex(_entity_edges(sf_dir), plan)
    names = idx.nodes.to_pylist()
    seeds = np.sort(np.asarray(sorted(range(idx.n), key=lambda i: (
        _hl.md5(names[i].encode()).hexdigest(), names[i]))[:n_seeds],
        dtype=np.int64))             # node order is name order
    k = len(seeds)
    d, converged = _bounded_bfs(idx, seeds, max_depth)
    n, s = (d >= 0).sum(axis=0), np.maximum(d, 0).sum(axis=0)
    # Both metrics are depth-BOUNDED: on a graph whose diameter
    # exceeds ``max_depth`` the eccentricity is understated and the
    # closeness is computed over only the reached subset — the column
    # names say so, and (max_depth, bfs_converged) let a consumer tell
    # exact values (converged=1) from truncated ones (converged=0).
    return pa.table({
        "seed": idx.nodes.take(pa.array(seeds)).cast(pa.string()),
        "n_reached": pa.array(n, type=pa.int64()),
        "sum_dist": pa.array(s, type=pa.int64()),
        "eccentricity_bounded": pa.array(d.max(axis=0, initial=0),
                                         type=pa.int64()),
        "closeness_bounded_micro": pa.array(
            np.where(s > 0, 10**6 * (n - 1) // np.maximum(s, 1), 0),
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

    from ..sources.corpus import load_side_tables
    from ..sources.derived import corpus_for_sf
    from ..stages.canonical import canonical_graph
    from ..stages.kg import loaded_chain
    from ..stages.topk import to_table

    assert plan in ("incremental", "full")
    corpus = corpus_for_sf(sf_dir)
    alias_idx, _ = load_side_tables(corpus)
    patched = sorted(s for s, c in alias_idx.items() if len(c) >= 2)[:n_patch]
    # the delta is a SMALL plain-dict overlay passed by value; each
    # worker loads the base index from the corpus path and applies it
    alias_patch = {s: [max(alias_idx[s])] for s in patched}
    patched_set = frozenset(patched)

    surface = _surface_triples_for_sf(sf_dir)

    def relink(ds):
        def link(b: pa.Table) -> pa.Table:
            return loaded_chain(None, {}, corpus, alias_patch)[1](b)
        return ds.map_batches(link, batch_format="pyarrow")

    if plan == "full":
        linked = relink(surface)
    else:
        pset_ref = ray.put(patched_set)

        def affected_mask(b: pa.Table) -> np.ndarray:
            ps = ray.get(pset_ref)
            sub = b.column("subj_surface").to_pylist()
            obj = b.column("obj_surface").to_pylist()
            return np.array([s.lower() in ps or o.lower() in ps
                             for s, o in zip(sub, obj)], dtype=bool)

        # delta-sized: the (url, sent_id) keys of affected sentences
        hits = to_table(surface.map_batches(
            lambda b: b.filter(pa.array(affected_mask(b)))
                       .select(["url", "sent_id"]),
            batch_format="pyarrow"))
        hit = (set(zip(hits.column("url").to_pylist(),
                       hits.column("sent_id").to_pylist()))
               if hits.num_rows else set())
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
                                              batch_format="pyarrow"))
        linked = keep_rows.union(relinked)

    return canonical_graph(linked).drop_columns(["sample_urls"])         .sort("subj")


def kg_gold_eval_transformer(sf_dir: str):
    """:func:`kg_gold_eval` with the TRAINED Transformer-CRF as the
    mention-extraction kernel (closes the T5 loop end-to-end): the
    NumPy transformer trains on-engine per language
    (``train_transformer_distributed``, bit-deterministic, cached),
    the full KG pipeline runs with the TransformerTagger in its tasks,
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
