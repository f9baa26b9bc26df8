"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the kgray library) calls ``ray.init()`` / ``ray.shutdown()``.

``queries()`` exposes one entry per implemented operator/pipeline from
SURVEY.md §2 plus the training-data-pipeline extras (dedup family, ANN,
text analysis, multimodal plumbing).  ``oracle_sql()`` provides exact
DuckDB equivalents where SQL can express the semantics; the KG/NER
pipelines (Viterbi tagging, linking, LSH, IVF) are non-SQL-expressible
and get the weaker rows-only check — their strong checks live in
``tests/`` (brute-force parity, reference-subprocess parity, serial
oracle equality).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_STOP_EN = "('the','a','of','and','to','in','is','for')"
_STOP_DE = "('der','die','das','und','ist','ein','zu','mit')"
_STOP_FR = "('le','la','les','et','est','un','une','pour')"

_TOKS = "regexp_split_to_array(trim(text), '\\s+')"


# --------------------------------------------------------------------------- entry


def entry() -> Any:
    """Flagship KG pipeline on the sf0.001-derived pages corpus:
    pages → extract → sentences → HMM Viterbi actors → triples →
    linking → salted canonicalization (returns the graph Dataset)."""
    return _kg_graph("/root/testdata/sf0.001")


def _kg_graph(sf_dir: str):
    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.canonical import canonical_graph

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm")
    graph = canonical_graph(ds)
    return graph.drop_columns(["sample_urls"]).sort("subj")


def _kg_graph_compacted(sf_dir: str):
    """Lossless small-file compaction (OPTIMIZE) of the graph sink,
    proven by parity: the canonical graph is written as a deliberately
    fragmented hive layout (many files per ``subj_bucket``), every
    bucket is compacted by ``stages/compact.py`` (one task per
    partition, subj sort preserved), and the compacted layout is read
    back — the oracle is the kg_graph FIXTURE itself, so the value hash
    proves the maintenance op changed the files and nothing else."""
    import glob
    import shutil
    import tempfile

    import pyarrow as pa
    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.canonical import canonical_graph
    from kgray.stages.compact import compact_partitioned

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm")
    graph = canonical_graph(ds, subj_buckets=8).drop_columns(["sample_urls"])

    out = tempfile.mkdtemp(prefix="kgray_compact_")
    try:
        (graph.repartition(48)      # deliberately fragmented sink
         .write_parquet(out, partition_cols=["subj_bucket"]))
        report = compact_partitioned(out, sort_keys=["subj"])
        assert all(after <= before for _, before, after in report)
        files = sorted(glob.glob(f"{out}/**/*.parquet", recursive=True))
        tbl = pa.concat_tables([__import__("pyarrow.parquet",
                                           fromlist=["read_table"])
                                .read_table(f) for f in files],
                               promote_options="permissive")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return tbl.sort_by([("subj", "ascending")])


def _kg_mentions(sf_dir: str):
    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.kg import decode_mentions

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm",
                    until="tagged")
    return ds.map_batches(decode_mentions, batch_format="pyarrow", zero_copy_batch=True)


def _tags_valid(sf_dir: str, tagger: str):
    """Tag the CoNLL validation split in one-CPU tasks; exploded
    (sent_id, token_idx, token, tag) rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgray.pipelines.kg import _model_paths, tag_table
    from kgray.sources.derived import corpus_for_sf, models_for_corpus

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger=tagger)
    tbl = pq.read_table(f"{corpus}/conll_valid.parquet")
    src = pa.table({
        "url": pa.array([f"valid://{i}" for i in tbl["sent_id"].to_pylist()]),
        "sent_id": tbl["sent_id"],
        "tokens": tbl["tokens"],
        "lang": pa.array(["en"] * tbl.num_rows),
    })
    ds = tag_table(src, tagger, _model_paths(model_dir, tagger), corpus,
                   batch_size=512)

    def explode(batch: pa.Table) -> pa.Table:
        sids, tidx, toks, tags = [], [], [], []
        for sid, tk, tg in zip(batch.column("sent_id").to_pylist(),
                               batch.column("tokens").to_pylist(),
                               batch.column("tags").to_pylist()):
            for i, (w, t) in enumerate(zip(tk, tg)):
                sids.append(sid)
                tidx.append(i)
                toks.append(w)
                tags.append(t)
        return pa.table({"sent_id": pa.array(sids, type=pa.int32()),
                         "token_idx": pa.array(tidx, type=pa.int32()),
                         "token": pa.array(toks, type=pa.string()),
                         "tag": pa.array(tags, type=pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def _hmm_tags_valid(sf_dir: str):
    return _tags_valid(sf_dir, "hmm")


def _crf_tags_valid(sf_dir: str):
    """Same as _hmm_tags_valid through the CRF tagger (compiled
    grouped weight tables + window-memoized decode)."""
    return _tags_valid(sf_dir, "crf")


def _transformer_tags_valid(sf_dir: str):
    """Same through the Transformer-CRF NumPy inference tagger
    (reference T5 eval semantics; deterministic seeded weights — no
    torch in env, see kgray/kernels/transformer.py)."""
    return _tags_valid(sf_dir, "transformer")


def _extract_invariant(sf_dir: str):
    """Byte-identical html→text check over the derived pages corpus:
    one row (n_pages, n_ok); n_ok must equal n_pages."""
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.kg import page_files
    from kgray.sources.derived import corpus_for_sf
    from kgray.stages.extract import check_extraction

    import pyarrow.compute as pc

    corpus = corpus_for_sf(sf_dir)
    ds = rd.read_parquet(page_files(corpus), columns=["url", "html", "text"])
    counts = ds.map_batches(check_extraction, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .map_batches(lambda b: pa.table({
                   "n_pages": pa.array([b.num_rows], type=pa.int64()),
                   "n_ok": pa.array([pc.sum(pc.cast(b.column("ok"), pa.int64())).as_py() or 0],
                                    type=pa.int64())}),
                   batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    return pa.table({"n_pages": pa.array([int(counts["n_pages"].sum())], type=pa.int64()),
                     "n_ok": pa.array([int(counts["n_ok"].sum())], type=pa.int64())})


def _kg_entities(sf_dir: str):
    """Canonical-entity mention stats (the 'entities' logical table,
    SURVEY.md §1.2) via map-side combine + groupby."""
    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.canonical import entity_stats

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm")
    return entity_stats(ds)


def _binary_features(sf_dir: str):
    import pyarrow as pa
    from kgray.pipelines.kg import page_files
    from kgray.pipelines.multimodal import binary_features
    from kgray.sources.derived import corpus_for_sf

    corpus = corpus_for_sf(sf_dir)
    ds = binary_features(page_files(corpus))
    # flatten the list column for the driver's value-hash comparison
    return ds.map_batches(lambda b: pa.table({
        "url": b.column("url"),
        "n_bytes": b.column("n_bytes"),
        "features_csv": pa.array([",".join(map(str, f))
                                  for f in b.column("features").to_pylist()],
                                 type=pa.string()),
    }), batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------- queries


# The driver's correctness gate checks the FIRST 50 ``queries()``
# entries (the CORRECTNESS_r{N}.json window).  The window is DERIVED
# from the structured spec below (r4 VERDICT #7): the flagship KG core
# is always first, this round's rotate-ins follow, and the keep-list
# holds one representative per operator family.  Rotation history lives
# in NOTES.md (##122/#130), not here.  Everything outside the window
# keeps its prior driver-green record plus the local full gate
# (scripts/check_queries.py runs ALL entries at sf0.01).

# flagship KG-construction core — always the head of the window
_KG_CORE = [
    "kg_graph", "kg_mentions", "hmm_tags_valid", "crf_tags_valid",
    "transformer_tags_valid", "extract_invariant", "kg_entities",
]

# round-5 rotate-ins: the eight r4 post-wrap queries that are local-
# gate-green but have never seen a driver window (r4 VERDICT #2)
_R5_ROTATE_IN = [
    "transformer_trained_tags", "kg_gold_eval_transformer",
    "kg_alias_patch", "events_dp_quantiles", "kg_graph_zh",
    "kg_entity_distance", "softdedup_weights", "dup_count_histogram",
]

# rotated OUT for them this round (all r4-driver-green; each family
# keeps a representative in _WINDOW_KEEP or the rotate-ins above):
#   hive_event_stats (formats; csv/orc/xml reps stay in the registry),
#   shipmode_priority_counts (joins keep user_day_purchase_views &c),
#   entity_communities + part_clustering_coefficient (graph keeps
#   entity_hits / kg_entity_distance / the kg audits),
#   orders_join_ivm (IVM keeps priority_counts_ivm),
#   events_bootstrap_ci (UQ keeps events_conformal_coverage),
#   user_shard_rendezvous (layout keeps events_user_bloom_lookup),
#   events_dp_counts (DP: events_dp_quantiles strictly generalizes it).

# per-family representatives filling the window to 50
_WINDOW_KEEP = [
    "image_phash_pairs", "nb_lang_predictions", "bm25_search",
    "audio_fingerprint_pairs",
    "kg_incremental_merge", "kg_graph_compacted", "kg_gold_eval",
    "mixture_token_budget",
    "user_conversion_survival", "events_conformal_coverage",
    "events_value_psi",
    "kg_predicate_stats", "kg_two_hop", "kg_functionality_violations",
    "join_key_inference",
    "user_value_locf", "events_user_bloom_lookup",
    "user_day_purchase_views",
    "part_hierarchy_paths", "part_subtree_revenue",
    "events_weekly_hll_merge", "supplier_late_wilson",
    "cross_source_dup_matrix",
    "part_copurchase_cheapest", "kg_transe_embeddings", "entity_hits",
    "order_value_percent_rank", "events_quality_checks",
    "event_value_stats",
    "priority_counts_ivm", "purchase_view_attribution",
    "priority_status_pivot",
    "user_sessions", "user_funnel_counts", "weekly_retention",
]

_WINDOW = _KG_CORE + _R5_ROTATE_IN + _WINDOW_KEEP
assert len(_WINDOW) == 50 and len(set(_WINDOW)) == 50


# family assignment for entries whose callable is a local wrapper or
# lambda (module-based default below covers plain kgray.* functions)
_FAMILY_OVERRIDES = {
    # flagship KG pipeline surface
    "kg_graph": "kg", "kg_mentions": "kg", "hmm_tags_valid": "kg",
    "crf_tags_valid": "kg", "transformer_tags_valid": "kg",
    "extract_invariant": "kg", "kg_entities": "kg",
    "kg_graph_compacted": "kg", "binary_features": "kg",
    "crawl_host_shards": "kg", "page_site_counts": "kg",
    # graph / KG-quality family
    "entity_communities": "graph", "kg_incremental_merge": "graph",
    "kg_gold_eval": "graph", "kg_predicate_stats": "graph",
    "kg_two_hop": "graph", "kg_functionality_violations": "graph",
    "entity_hits": "graph", "doc_redirect_resolution": "graph",
    "entity_pagerank": "graph", "entity_ppr": "graph",
    "part_components": "graph",
    "copurchase_degree_assortativity": "graph",
    "copurchase_robustness": "graph", "kg_predicate_trend": "graph",
    "kg_entity_cooccurrence": "graph", "copurchase_mst": "graph",
    "kg_entity_distance": "graph", "kg_graph_zh": "graph",
    "kg_alias_patch": "graph", "kg_gold_eval_transformer": "graph",
    "kg_schema_induction": "graph", "kg_graph_diff": "graph",
    "kg_zh_mention_stats": "graph", "kg_alias_ambiguity": "graph",
    "kg_subgraph_export": "graph", "kg_triple_recency": "graph",
    "kg_lineage_report": "graph", "copurchase_kcore": "graph",
    # embeddings / ANN / clustering
    "kg_transe_embeddings": "kgemb", "kg_link_prediction": "kgemb",
    "embedding_lsh_pairs": "ann",
    "embedding_dbscan": "cluster", "neardup_keep_best": "cluster",
    # dedup / ER / text-model
    "shingle_containment_pairs": "dedup",
    "customer_golden_records": "er",
    "bpe_merges": "bpe", "bpe_token_counts": "bpe",
    "corpus_curation": "curation", "corpus_curation_sem": "curation",
    "doc_quality_scores": "quality_model", "dsir_selected": "dsir",
    "transformer_trained_tags": "training",
    # multimodal
    "image_phash_pairs": "multimodal",
    "audio_fingerprint_pairs": "multimodal",
    "image_features": "multimodal", "audio_features": "multimodal",
    "video_features": "multimodal", "video_scene_changes": "multimodal",
}

# cost classes from measured per-query bench timings at sf0.1/32 CPUs
# (BENCH_r03 + the r4 builder run): heavy ≥5 s, medium 2.5–5 s.  Used
# by bench.py to order the budgeted walk (cheap first within family) —
# wrong tiers cost bench coverage, never correctness.
_HEAVY = {
    "kg_predicate_trend", "copurchase_closeness",
    "kg_transe_embeddings", "doc_quality_scores",
    "doc_redirect_resolution", "entity_pagerank", "kg_triple_recency",
    "entity_hits", "embedding_dbscan", "part_random_walks",
    "phrase_search", "kg_link_prediction", "entity_ppr",
    "kg_incremental_merge", "jaccard_prefix_pairs",
    "entity_communities", "image_phash_pairs", "corpus_curation_sem",
    "bigram_kn_logprob", "kg_graph_compacted", "customer_part_recs",
    "kg_schema_induction", "nb_confusion", "part_adamic_adar",
    "part_copurchase_hops", "copurchase_mst", "part_negative_samples",
    "purchase_position_attribution", "part_clustering_coefficient",
    "part_copurchase_cheapest", "join_key_inference",
    "copurchase_degree_assortativity", "copurchase_robustness",
    "fk_orphan_audit", "kg_zh_mention_stats", "doc_novelty_scores",
    "dedup_substring_mask", "part_similarity_topk",
    "nb_lang_predictions", "bigram_logprob", "token_collocations",
    "kg_entity_cooccurrence", "purchase_value_by_engagement",
    "copurchase_edge_support", "incremental_dedup",
    "user_type_value_share", "shingle_containment_pairs",
    "events_orders_join_profile", "customer_golden_records",
    "kg_alias_ambiguity", "kg_predicate_stats", "events_kmv_distinct",
    "orders_lineitem_consistency", "neardup_keep_best",
    "kg_subgraph_export", "audio_fingerprint_pairs",
    "user_trailing_value", "token_fuzzy_pairs", "source_keyness_tokens",
    "events_quality_checks", "large_orders", "token_fuzzy_pairs_d2",
    "part_khop_sample", "events_hourly_incremental", "copurchase_pmi",
    "waiting_suppliers", "user_conversion_survival",
    "kg_lineage_report", "kg_graph_diff", "kg_gold_eval",
    "kg_gold_eval_transformer", "transformer_trained_tags",
    "kg_alias_patch", "kg_graph_zh",
}
_MEDIUM = {
    "events_kanonymity", "weekly_retention", "small_qty_part_revenue",
    "copurchase_triangles", "idle_rich_customers", "corpus_curation",
    "user_value_twap", "nation_pair_volume", "order_value_percent_rank",
    "purchase_last_touch", "brand_supplier_counts",
    "shipping_priority_topk", "orders_bitemporal_state",
    "copurchase_rules", "embedding_lsh_pairs", "user_day_purchase_views",
    "order_value_ntile", "token_skipgram_counts", "returned_item_revenue",
    "events_hourly_changepoint", "duplicate_ngram_fraction",
    "market_share", "copurchase_degree_hist", "dedup_lines",
    "source_ngram_overlap", "events_orders_daily",
    "priority_status_unpivot", "dedup_exact", "local_supplier_volume",
    "events_fd_audit", "orders_join_ivm", "tfidf_top_terms",
    "lineitem_scd2_pit", "order_ship_lag_quantiles",
    "customer_order_quartiles", "copurchase_triple_itemsets",
    "late_order_priority_counts", "vocab_growth_curve",
    "cross_source_dup_matrix", "customer_order_dist",
    "orders_above_cust_avg", "events_cube",
    "purchase_markov_attribution", "customer_rfm_segments",
    "simhash_pairs", "part_substring_search", "semantic_dedup",
    "unigram_logprob", "video_scene_changes", "neardup_clusters",
    "kg_functionality_violations", "purchases_except_views_all",
    "events_grouping_sets", "events_ks_test", "bm25_search",
    "order_price_global_rank", "orders_cohort_ltv",
    "region_revenue_rollup", "orders_time_travel", "events_asof_orders",
    "events_value_outliers", "ann_hnsw_topk", "priority_counts_ivm",
    "part_price_stump", "event_sequence_patterns", "minhash_lsh_pairs",
    "events_cuped_estimate", "dsir_selected",
    "purchases_intersect_views_all", "events_cusum_peaks",
    "part_revenue_abc", "part_components", "events_mannwhitney_u",
    "users_both_active", "buyers_never_active", "events_value_psi",
    "kg_two_hop", "nation_year_profit", "purchase_view_attribution",
    "events_user_bloom_lookup", "video_features", "part_supplier_hhi",
    "embedding_dim_stats", "token_burstiness", "order_priority_revenue",
    "user_spend_gini", "supplier_late_wilson", "part_copurchase_topk",
    "promo_revenue_share", "events_profile", "events_value_histogram",
    "events_conformal_coverage", "softdedup_weights",
    "dup_count_histogram", "events_dp_quantiles",
}


def queries_meta() -> dict[str, dict]:
    """Family + cost class + oracle kind for every ``queries()`` entry
    (r4 VERDICT #7).  ``family`` comes from the implementing kgray
    module (override table for local wrappers/lambdas); ``cost`` from
    measured sf0.1 bench timings; ``oracle`` distinguishes exact-SQL
    DuckDB oracles from engine-output fixtures from rows-only checks.
    bench.py derives its budgeted walk order from this; the driver
    window head is ``_WINDOW`` above."""
    q = queries()
    oracles = oracle_sql()
    meta: dict[str, dict] = {}
    for name, fn in q.items():
        fam = _FAMILY_OVERRIDES.get(name)
        if fam is None:
            mod = getattr(fn, "__module__", "") or ""
            fam = mod.rsplit(".", 1)[-1] if mod.startswith("kgray.") else "kg"
        o = oracles.get(name)
        okind = ("none" if o is None
                 else "fixture" if "tests/fixtures" in o else "sql")
        cost = ("heavy" if name in _HEAVY
                else "medium" if name in _MEDIUM else "cheap")
        meta[name] = {"family": fam, "cost": cost, "oracle": okind,
                      "window": name in _WINDOW}
    return meta


def queries() -> dict[str, Callable[[str], Any]]:
    from kgray.pipelines import (ann, cluster, dedup, pack, relational,
                                 streaming, text)

    q = {
        # --- KG construction (non-SQL: Viterbi/linking; strong checks in tests/)
        "kg_graph": _kg_graph,
        "kg_graph_compacted": _kg_graph_compacted,
        "kg_mentions": _kg_mentions,
        "hmm_tags_valid": _hmm_tags_valid,
        "crf_tags_valid": _crf_tags_valid,
        "transformer_tags_valid": _transformer_tags_valid,
        "extract_invariant": _extract_invariant,
        "kg_entities": _kg_entities,
        # --- composite-key join (r3): two-column-key fact×fact exchange
        "user_day_purchase_views": relational.user_day_purchase_views,
        "purchase_view_attribution": relational.purchase_view_attribution,
        "purchase_last_touch": relational.purchase_last_touch,
        "binary_features": _binary_features,
        "image_features": lambda sf: __import__(
            "kgray.pipelines.multimodal", fromlist=["image_features"]
        ).image_features(sf),
        "audio_features": lambda sf: __import__(
            "kgray.pipelines.multimodal", fromlist=["audio_features"]
        ).audio_features(sf),
        "video_features": lambda sf: __import__(
            "kgray.pipelines.multimodal", fromlist=["video_features"]
        ).video_features(sf),
        "video_scene_changes": lambda sf: __import__(
            "kgray.pipelines.multimodal", fromlist=["video_scene_changes"]
        ).video_scene_changes(sf),
        # --- text analysis over documents (SQL-oracled)
        "token_stats": text.token_stats,
        "quality_scores": text.quality_scores,
        "lang_id": text.lang_id,
        "fingerprints": text.fingerprints,
        "token_topk": text.token_topk,
        "subword_token_counts": text.subword_token_counts,
        "winnowing_fingerprints": text.winnowing_fingerprints,
        "repetition_scores": text.repetition_scores,
        "tfidf_top_terms": text.tfidf_top_terms,
        "heavy_hitter_tokens": text.heavy_hitter_tokens,
        "duplicate_ngram_fraction": text.duplicate_ngram_fraction,
        "jsonl_token_stats": text.jsonl_token_stats,
        "ipc_token_stats": text.ipc_token_stats,
        "doc_splits": text.doc_splits,
        "unigram_logprob": text.unigram_logprob,
        "bigram_logprob": text.bigram_logprob,
        "bigram_kn_logprob": text.bigram_kn_logprob,
        "decontaminate": text.decontaminate,
        "pii_scrub": text.pii_scrub,
        "nb_lang_predictions": text.nb_lang_predictions,
        "nb_confusion": text.nb_confusion,
        "source_group_splits": text.source_group_splits,
        "bm25_search": text.bm25_search,
        "mixture_token_budget": text.mixture_token_budget,
        "source_ngram_overlap": text.source_ngram_overlap,
        "events_cusum_peaks": relational.events_cusum_peaks,
        "events_benford_audit": relational.events_benford_audit,
        "copurchase_triple_itemsets":
            relational.copurchase_triple_itemsets,
        "gopher_rule_flags": text.gopher_rule_flags,
        "token_cms_counts": text.token_cms_counts,
        "part_negative_samples": relational.part_negative_samples,
        "events_orders_join_profile":
            relational.events_orders_join_profile,
        "part_adamic_adar": relational.part_adamic_adar,
        "part_khop_sample": relational.part_khop_sample,
        "xml_event_stats": relational.xml_event_stats,
        "token_collocations": text.token_collocations,
        "doc_redirect_resolution": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["doc_redirect_resolution"]
        ).doc_redirect_resolution(sf),
        "entity_hits": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["entity_hits"]
        ).entity_hits(sf),
        "kg_transe_embeddings": lambda sf: __import__(
            "kgray.pipelines.kgemb", fromlist=["kg_transe_embeddings"]
        ).kg_transe_embeddings(sf),
        "transformer_trained_tags": lambda sf: __import__(
            "kgray.pipelines.training", fromlist=["transformer_trained_tags"]
        ).transformer_trained_tags(sf),
        "kg_link_prediction": lambda sf: __import__(
            "kgray.pipelines.kgemb", fromlist=["kg_link_prediction"]
        ).kg_link_prediction(sf),
        "entity_pagerank": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["entity_pagerank"]
        ).entity_pagerank(sf, iters=5),
        "entity_ppr": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["entity_ppr"]
        ).entity_ppr(sf, iters=5),
        "events_quality_checks": relational.events_quality_checks,
        "user_window_features": relational.user_window_features,
        "events_bootstrap_ci": relational.events_bootstrap_ci,
        "events_value_regression": relational.events_value_regression,
        "user_type_entropy": relational.user_type_entropy,
        "copurchase_rules": relational.copurchase_rules,
        "part_random_walks": relational.part_random_walks,
        "part_components": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["part_components"]
        ).part_components(sf),
        "embedding_dbscan": lambda sf: __import__(
            "kgray.pipelines.cluster", fromlist=["embedding_dbscan"]
        ).embedding_dbscan(sf),
        "events_kanonymity": relational.events_kanonymity,
        "events_dp_counts": relational.events_dp_counts,
        "copurchase_degree_assortativity": lambda sf: __import__(
            "kgray.pipelines.graph",
            fromlist=["copurchase_degree_assortativity"]
        ).copurchase_degree_assortativity(sf),
        "copurchase_robustness": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["copurchase_robustness"]
        ).copurchase_robustness(sf),
        "events_forecast_backtest": relational.events_forecast_backtest,
        "vocab_growth_curve": relational.vocab_growth_curve,
        "events_value_psi": relational.events_value_psi,
        "user_spend_gini": relational.user_spend_gini,
        "events_kmv_distinct": relational.events_kmv_distinct,
        "events_mannwhitney_u": relational.events_mannwhitney_u,
        "copurchase_closeness": relational.copurchase_closeness,
        "source_keyness_tokens": text.source_keyness_tokens,
        "user_overlap_kmv": relational.user_overlap_kmv,
        "token_zipf_slope": text.token_zipf_slope,
        "token_burstiness": text.token_burstiness,
        "crawl_host_shards": lambda sf: __import__(
            "kgray.pipelines.kg", fromlist=["crawl_host_shards"]
        ).crawl_host_shards(sf),
        "top_supplier_revenue": relational.top_supplier_revenue,
        "events_ks_test": relational.events_ks_test,
        "user_shard_rendezvous": relational.user_shard_rendezvous,
        "phrase_search": text.phrase_search,
        "user_value_locf": relational.user_value_locf,
        "events_user_bloom_lookup": relational.events_user_bloom_lookup,
        "kg_predicate_stats": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_predicate_stats"]
        ).kg_predicate_stats(sf),
        "kg_two_hop": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_two_hop"]
        ).kg_two_hop(sf),
        "orders_time_travel": relational.orders_time_travel,
        "join_key_inference": relational.join_key_inference,
        "events_fd_audit": relational.events_fd_audit,
        "url_canonical_dedup": relational.url_canonical_dedup,
        "kg_functionality_violations": lambda sf: __import__(
            "kgray.pipelines.graph",
            fromlist=["kg_functionality_violations"]
        ).kg_functionality_violations(sf),
        "user_credit_balance": relational.user_credit_balance,
        "customer_scd2_orders": relational.customer_scd2_orders,
        "purchase_markov_attribution":
            relational.purchase_markov_attribution,
        "token_skipgram_counts": text.token_skipgram_counts,
        "doc_weighted_sample": text.doc_weighted_sample,
        "order_value_ntile": relational.order_value_ntile,
        "part_hierarchy_rollup": relational.part_hierarchy_rollup,
        "events_hourly_autocorr": relational.events_hourly_autocorr,
        "events_dow_hour_profile": relational.events_dow_hour_profile,
        "events_srm_check": relational.events_srm_check,
        "events_dp_median": relational.events_dp_median,
        "events_dp_p90": relational.events_dp_p90,
        "events_dp_quantiles": relational.events_dp_quantiles,
        "orders_weekday_index": relational.orders_weekday_index,
        "events_interarrival_cv": relational.events_interarrival_cv,
        "customer_segment_migration":
            relational.customer_segment_migration,
        "events_type_peak_hour": relational.events_type_peak_hour,
        "orders_bitemporal_state": relational.orders_bitemporal_state,
        "part_hierarchy_paths": relational.part_hierarchy_paths,
        "part_subtree_revenue": relational.part_subtree_revenue,
        "events_weekly_hll_merge": relational.events_weekly_hll_merge,
        "supplier_late_wilson": relational.supplier_late_wilson,
        "cross_source_dup_matrix": text.cross_source_dup_matrix,
        "kg_predicate_trend": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_predicate_trend"]
        ).kg_predicate_trend(sf),
        "kg_entity_cooccurrence": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_entity_cooccurrence"]
        ).kg_entity_cooccurrence(sf),
        "copurchase_mst": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["copurchase_mst"]
        ).copurchase_mst(sf),
        "kg_entity_distance": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_entity_distance"]
        ).kg_entity_distance(sf),
        "kg_graph_zh": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_graph_zh"]
        ).kg_graph_zh(sf),
        "kg_alias_patch": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_alias_patch"]
        ).kg_alias_patch(sf),
        "kg_gold_eval_transformer": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_gold_eval_transformer"]
        ).kg_gold_eval_transformer(sf),
        "kg_gold_eval": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_gold_eval"]
        ).kg_gold_eval(sf),
        "kg_schema_induction": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_schema_induction"]
        ).kg_schema_induction(sf),
        "kg_graph_diff": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_graph_diff"]
        ).kg_graph_diff(sf),
        "kg_zh_mention_stats": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_zh_mention_stats"]
        ).kg_zh_mention_stats(sf),
        "kg_alias_ambiguity": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_alias_ambiguity"]
        ).kg_alias_ambiguity(sf),
        "kg_subgraph_export": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_subgraph_export"]
        ).kg_subgraph_export(sf),
        "kg_incremental_merge": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_incremental_merge"]
        ).kg_incremental_merge(sf),
        "kg_triple_recency": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_triple_recency"]
        ).kg_triple_recency(sf),
        "kg_lineage_report": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["kg_lineage_report"]
        ).kg_lineage_report(sf),
        "events_hourly_ewma": relational.events_hourly_ewma,
        "part_revenue_abc": relational.part_revenue_abc,
        "orderkey_gaps": relational.orderkey_gaps,
        "embedding_mmr_topk": ann.embedding_mmr_topk,
        "user_ctr_shrunk": relational.user_ctr_shrunk,
        "session_bounce_rates": relational.session_bounce_rates,
        "order_ship_lag_quantiles": relational.order_ship_lag_quantiles,
        "sessions_peak_concurrency": relational.sessions_peak_concurrency,
        "orders_join_ivm": relational.orders_join_ivm,
        "region_revenue_rollup": relational.region_revenue_rollup,
        "purchase_position_attribution":
            relational.purchase_position_attribution,
        "ann_topk_with_deletes": ann.ann_topk_with_deletes,
        "event_sequence_patterns": relational.event_sequence_patterns,
        "session_top_paths": relational.session_top_paths,
        "part_supplier_hhi": relational.part_supplier_hhi,
        "events_adoption_curve": relational.events_adoption_curve,
        "events_conformal_coverage": relational.events_conformal_coverage,
        "customer_part_recs": relational.customer_part_recs,
        "doc_novelty_scores": relational.doc_novelty_scores,
        "events_cuped_estimate": relational.events_cuped_estimate,
        "events_markov_stationary": relational.events_markov_stationary,
        "user_conversion_survival": relational.user_conversion_survival,
        "events_hourly_changepoint": relational.events_hourly_changepoint,
        "orders_cohort_ltv": relational.orders_cohort_ltv,
        "events_watermark_hourly": relational.events_watermark_hourly,
        "part_substring_search": relational.part_substring_search,
        "token_trending": relational.token_trending,
        "copurchase_edge_support": relational.copurchase_edge_support,
        "events_value_mad_outliers": relational.events_value_mad_outliers,
        "part_price_stump": relational.part_price_stump,
        "shingle_containment_pairs": lambda sf: __import__(
            "kgray.pipelines.dedup", fromlist=["shingle_containment_pairs"]
        ).shingle_containment_pairs(sf),
        "copurchase_kcore": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["copurchase_kcore"]
        ).copurchase_kcore(sf),
        "entity_communities": lambda sf: __import__(
            "kgray.pipelines.graph", fromlist=["entity_communities"]
        ).entity_communities(sf),
        "customer_golden_records": lambda sf: __import__(
            "kgray.pipelines.er", fromlist=["customer_golden_records"]
        ).customer_golden_records(sf),
        "event_user_distinct_hll": relational.event_user_distinct_hll,
        "events_hash_sample": relational.events_hash_sample,
        "user_event_sample": relational.user_event_sample,
        "events_value_histogram": relational.events_value_histogram,
        # --- dedup family
        "dedup_exact": dedup.exact_dedup,
        "softdedup_weights": dedup.softdedup_weights,
        "dup_count_histogram": dedup.dup_count_histogram,
        "dedup_lines": dedup.dedup_lines,
        "incremental_dedup": dedup.incremental_dedup,
        "source_mix_sample": text.source_mix_sample,
        "lang_balanced_sample": text.lang_balanced_sample,
        "packed_documents": pack.pack_documents,
        "jaccard_pairs": dedup.jaccard_pairs_bruteforce,
        "jaccard_prefix_pairs": dedup.jaccard_prefix_pairs,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "image_phash_pairs": lambda sf: __import__(
            "kgray.pipelines.multimodal", fromlist=["image_phash_pairs"]
        ).image_phash_pairs(sf),
        "audio_fingerprint_pairs": lambda sf: __import__(
            "kgray.pipelines.multimodal",
            fromlist=["audio_fingerprint_pairs"]
        ).audio_fingerprint_pairs(sf),
        "simhash_pairs": dedup.simhash_pairs,
        "embedding_neardup": dedup.embedding_neardup_pairs,
        "embedding_lsh_pairs": lambda sf: dedup.embedding_lsh_pairs(
            sf, threshold=0.45, n_bits=192, band_bits=6),
        "neardup_keep_best": lambda sf: __import__(
            "kgray.pipelines.cluster", fromlist=["neardup_keep_best"]
        ).neardup_keep_best(sf),
        "neardup_clusters": cluster.neardup_clusters,
        "semantic_dedup": dedup.semantic_dedup,
        # --- similarity search
        "ann_topk": ann.ann_topk_bruteforce,
        "ann_ivf_topk": ann.ann_ivf_topk,
        "ann_pq_topk": ann.ann_pq_topk,
        "ann_hnsw_topk": ann.ann_hnsw_topk,
        "pq_codes": ann.pq_codes,
        "embedding_kmeans": ann.embedding_kmeans,
        "embedding_pca": ann.embedding_pca,
        "embedding_quantize": ann.embedding_quantize,
        "knn_label_predictions": ann.knn_label_predictions,
        "embedding_truncation_recall": ann.embedding_truncation_recall,
        # --- relational surface (SQL-oracled, integer-cents math)
        "pricing_summary": relational.pricing_summary,
        "top_customers": relational.top_customers,
        "supplier_nation_counts": relational.supplier_nation_counts,
        "distinct_segments": relational.distinct_segments,
        "users_both_active": relational.users_both_active,
        "buyers_never_active": relational.buyers_never_active,
        "events_hourly": relational.events_hourly,
        "events_hopping": relational.events_hopping,
        "events_rollup": relational.events_rollup,
        "priority_status_pivot": relational.priority_status_pivot,
        "events_orders_daily": relational.events_orders_daily,
        "user_running_value": relational.user_running_value,
        "type_user_counts": relational.type_user_counts,
        "user_event_gaps": relational.user_event_gaps,
        "user_next_event_gap": relational.user_next_event_gap,
        "customer_order_ranks": relational.customer_order_ranks,
        "customer_order_seq": relational.customer_order_seq,
        "customer_order_quartiles": relational.customer_order_quartiles,
        "events_value_quantiles_approx": relational.events_value_quantiles_approx,
        "events_value_bands": relational.events_value_bands,
        "events_value_tiers": relational.events_value_tiers,
        "events_cube": relational.events_cube,
        "events_grouping_sets": relational.events_grouping_sets,
        "part_type_stats": relational.part_type_stats,
        "order_priority_revenue": relational.order_priority_revenue,
        "bucketed_order_revenue": relational.bucketed_order_revenue,
        "csv_event_stats": relational.csv_event_stats,
        "sqlite_event_stats": relational.sqlite_event_stats,
        "orc_order_stats": relational.orc_order_stats,
        "hive_event_stats": relational.hive_event_stats,
        "shipmode_priority_counts": relational.shipmode_priority_counts,
        "evolved_event_stats": relational.evolved_event_stats,
        "chars_zh_auc": text.chars_zh_auc,
        "order_price_global_rank": relational.order_price_global_rank,
        "priority_counts_ivm": relational.priority_counts_ivm,
        "part_copurchase_topk": relational.part_copurchase_topk,
        "events_value_outliers": relational.events_value_outliers,
        "events_value_trend": relational.events_value_trend,
        "events_asof_orders": relational.events_asof_orders,
        "priority_top_orders": relational.priority_top_orders,
        "events_value_quantiles": relational.events_value_quantiles,
        "events_value_quantiles_cont": relational.events_value_quantiles_cont,
        "customers_no_urgent_orders": relational.customers_no_urgent_orders,
        "events_recent_orders": relational.events_recent_orders,
        "events_recent_order_value": relational.events_recent_order_value,
        "user_event_type_seq": relational.user_event_type_seq,
        "user_type_value_share": relational.user_type_value_share,
        "priority_status_unpivot": relational.priority_status_unpivot,
        "event_value_stats": relational.event_value_stats,
        "lineitem_qty_price_corr": relational.lineitem_qty_price_corr,
        "user_rolling_value": relational.user_rolling_value,
        "user_rolling_median": relational.user_rolling_median,
        "top_revenue_suppliers": relational.top_revenue_suppliers,
        "idle_rich_customers": relational.idle_rich_customers,
        "user_first_last_event": relational.user_first_last_event,
        "user_latest_event": relational.user_latest_event,
        "type_value_mode": relational.type_value_mode,
        "event_value_moments": relational.event_value_moments,
        "user_trailing_value": relational.user_trailing_value,
        "purchases_except_views_all": relational.purchases_except_views_all,
        "purchases_intersect_views_all":
            relational.purchases_intersect_views_all,
        "local_supplier_volume": relational.local_supplier_volume,
        "nation_pair_volume": relational.nation_pair_volume,
        "market_share": relational.market_share,
        "customer_order_dist": relational.customer_order_dist,
        "purchase_value_by_engagement":
            relational.purchase_value_by_engagement,
        "small_qty_part_revenue": relational.small_qty_part_revenue,
        "user_funnel_counts": relational.user_funnel_counts,
        "weekly_retention": relational.weekly_retention,
        "events_hourly_dense": relational.events_hourly_dense,
        "events_profile": relational.events_profile,
        "token_fuzzy_pairs": text.token_fuzzy_pairs,
        "token_fuzzy_pairs_d2": text.token_fuzzy_pairs_d2,
        "chunk_documents": text.chunk_documents,
        # --- BPE tokenizer training (r3): distributed word-count
        # reduction + deterministic driver merge loop; fixture-oracled
        "bpe_merges": lambda sf: __import__(
            "kgray.pipelines.bpe", fromlist=["bpe_merges"]).bpe_merges(sf),
        "bpe_token_counts": lambda sf: __import__(
            "kgray.pipelines.bpe", fromlist=["bpe_token_counts"]
        ).bpe_token_counts(sf),
        "copurchase_triangles": relational.copurchase_triangles,
        "part_clustering_coefficient":
            relational.part_clustering_coefficient,
        "revenue_forecast": relational.revenue_forecast,
        "promo_revenue_share": relational.promo_revenue_share,
        "large_orders": relational.large_orders,
        "event_props_stats": relational.event_props_stats,
        "orders_above_cust_avg": relational.orders_above_cust_avg,
        "fk_orphan_audit": relational.fk_orphan_audit,
        "dedup_substring_mask": text.dedup_substring_mask,
        "logline_stats": relational.logline_stats,
        "orders_cdc_latest": relational.orders_cdc_latest,
        "orders_scd2": relational.orders_scd2,
        "lineitem_scd2_pit": relational.lineitem_scd2_pit,
        "waiting_suppliers": relational.waiting_suppliers,
        "orders_snapshot_diff": relational.orders_snapshot_diff,
        "pareto_orders": relational.pareto_orders,
        "embedding_dim_stats": ann.embedding_dim_stats,
        "user_value_twap": relational.user_value_twap,
        "copurchase_degree_hist": relational.copurchase_degree_hist,
        "token_postings": text.token_postings,
        "events_value_winsorized": relational.events_value_winsorized,
        "user_key_skew": relational.user_key_skew,
        "customer_rfm_segments": relational.customer_rfm_segments,
        "event_type_transitions": relational.event_type_transitions,
        "corpus_curation": lambda sf: __import__(
            "kgray.pipelines.curation", fromlist=["curation_report"]
        ).curation_report(sf),
        "corpus_curation_sem": lambda sf: __import__(
            "kgray.pipelines.curation", fromlist=["curation_semantic_report"]
        ).curation_semantic_report(sf),
        "doc_quality_scores": lambda sf: __import__(
            "kgray.pipelines.quality_model", fromlist=["doc_quality_scores"]
        ).doc_quality_scores(sf),
        "dsir_selected": lambda sf: __import__(
            "kgray.pipelines.dsir", fromlist=["dsir_select"]
        ).dsir_select(sf),
        "orders_monthly_seasonality": relational.orders_monthly_seasonality,
        "orders_quarter_growth": relational.orders_quarter_growth,
        "user_weekly_streaks": relational.user_weekly_streaks,
        "events_hourly_incremental": relational.events_hourly_incremental,
        "events_ctr_wilson": relational.events_ctr_wilson,
        "copurchase_pmi": relational.copurchase_pmi,
        "events_hourly_bursts": relational.events_hourly_bursts,
        "events_keyset_page": relational.events_keyset_page,
        "orders_price_band": relational.orders_price_band,
        "orders_lineitem_consistency":
            relational.orders_lineitem_consistency,
        "page_site_counts": lambda sf: __import__(
            "kgray.pipelines.kg", fromlist=["page_site_counts"]
        ).page_site_counts(sf),
        # --- stream-shaped: session windows over the events log
        "user_sessions": streaming.user_sessions,
        # --- r3 s2: classic decision-support join plans (Q3/Q4/Q10/Q16/Q19
        # shapes) + iterative multi-source BFS with a recursive-SQL oracle
        "shipping_priority_topk": relational.shipping_priority_topk,
        "late_order_priority_counts": relational.late_order_priority_counts,
        "returned_item_revenue": relational.returned_item_revenue,
        "brand_supplier_counts": relational.brand_supplier_counts,
        "disjunctive_part_revenue": relational.disjunctive_part_revenue,
        # --- r3 s3: Q9/Q2 shapes + PERCENT_RANK/CUME_DIST windows
        "nation_year_profit": relational.nation_year_profit,
        "top_part_supplier": relational.top_part_supplier,
        "order_value_percent_rank": relational.order_value_percent_rank,
        "events_user_time_rect": relational.events_user_time_rect,
        "user_active_spans": relational.user_active_spans,
        "part_copurchase_hops": relational.part_copurchase_hops,
        "part_copurchase_cheapest": relational.part_copurchase_cheapest,
        "events_ab_ztest": relational.events_ab_ztest,
        "orders_range_checksums": relational.orders_range_checksums,
        "source_capped_docs": text.source_capped_docs,
        "part_similarity_topk": relational.part_similarity_topk,
        "weighted_doc_sample": text.weighted_doc_sample,
        "events_out_of_order": relational.events_out_of_order,
    }
    assert all(k in q for k in _WINDOW), \
        [k for k in _WINDOW if k not in q]
    window = {k: q[k] for k in _WINDOW}
    window.update((k, v) for k, v in q.items() if k not in window)
    return window


# --------------------------------------------------------------------------- oracles


def oracle_sql() -> dict[str, str]:
    import os

    # Fixture oracles for queries whose semantics SQL cannot express
    # (Viterbi tagging, linking, LSH banding, IVF probes, winnowing,
    # clustering): the engine's deterministic sf0.01 output, generated
    # by scripts/make_fixtures.py and proven stable across fresh
    # processes with cold caches (corpus + models regenerated from
    # seeds).  Independent correctness for these pipelines is pinned in
    # tests/ (reference-CLI subprocess parity, brute-force equality,
    # serial-oracle equality, union-find).  DuckDB reads the absolute
    # fixture path.
    fixdir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "tests", "fixtures", "sf0.01")

    def _fx(name: str) -> str:
        return f"SELECT * FROM read_parquet('{fixdir}/{name}.parquet')"

    # purchase_markov_attribution: the 16 integer matvec rounds as a
    # generated chained-CTE pipeline (DuckDB recursive CTEs reject
    # aggregation in the recursive term — the part_copurchase_cheapest
    # precedent), mirroring the engine's floored fixed-point verbatim.
    _mk_steps = "\n".join(
        f"""            w{i + 1} AS (
              SELECT w.removed, t.to_state AS state,
                     CAST(SUM(w.mass * t.p_fp // 1000000) AS BIGINT)
                         AS mass
              FROM w{i} w JOIN t ON t.from_state = w.state
              WHERE t.to_state <> w.removed
                AND t.from_state <> w.removed
                AND t.to_state <> '__END__'
              GROUP BY w.removed, t.to_state),"""
        for i in range(16))

    fixture_oracles = {
        name: _fx(name)
        for name in ("kg_graph", "kg_mentions", "hmm_tags_valid",
                     "crf_tags_valid", "transformer_tags_valid",
                     "extract_invariant", "kg_entities",
                     "binary_features", "winnowing_fingerprints",
                     "minhash_lsh_pairs", "simhash_pairs",
                     "image_phash_pairs", "audio_fingerprint_pairs",
                     "token_cms_counts", "embedding_truncation_recall",
                     "video_scene_changes",
                     "embedding_lsh_pairs", "ann_ivf_topk",
                     "embedding_kmeans", "embedding_pca",
                     "neardup_clusters", "neardup_keep_best",
                     "event_user_distinct_hll",
                     "entity_pagerank", "entity_ppr",
                     "kg_transe_embeddings", "transformer_trained_tags",
                     "entity_hits", "kg_link_prediction",
                     "events_value_quantiles_approx",
                     "dedup_lines", "packed_documents",
                     "image_features", "audio_features", "video_features",
                     "corpus_curation", "corpus_curation_sem", "page_site_counts",
                     "doc_quality_scores", "dsir_selected",
                     "bpe_merges", "bpe_token_counts", "semantic_dedup",
                     "ann_pq_topk", "pq_codes", "ann_topk_with_deletes",
                     "embedding_mmr_topk", "copurchase_kcore",
                     "ann_hnsw_topk", "customer_golden_records",
                     "entity_communities", "crawl_host_shards",
                     "kg_predicate_stats", "kg_two_hop",
                     "kg_functionality_violations", "kg_alias_ambiguity",
                     "kg_subgraph_export", "kg_triple_recency",
                     "kg_lineage_report", "kg_entity_cooccurrence", "copurchase_mst",
                     "kg_gold_eval", "kg_gold_eval_transformer",
                     "kg_alias_patch", "kg_graph_zh",
                     "kg_entity_distance",
                     "kg_schema_induction", "kg_graph_diff",
                     "events_dp_median", "events_dp_p90",
                     "events_dp_quantiles", "kg_zh_mention_stats",
                     "events_weekly_hll_merge", "cross_source_dup_matrix",
                     "kg_predicate_trend")
        if os.path.exists(os.path.join(fixdir, f"{name}.parquet"))
    }

    fixture_oracles["kg_graph_compacted"] = _fx("kg_graph")
    # the incremental-merge law: merged(checkpoint ∪ delta) must equal
    # the full recompute bitwise — same aliased oracle
    fixture_oracles["kg_incremental_merge"] = _fx("kg_graph")

    return {
        **fixture_oracles,
        "token_stats": f"""
            SELECT doc_id,
                   CASE WHEN len(trim(text)) = 0 THEN 0
                        ELSE len({_TOKS}) END AS n_tokens,
                   len(text) AS n_chars
            FROM documents
        """,
        "quality_scores": f"""
            WITH t AS (SELECT doc_id,
                              CASE WHEN len(trim(text)) = 0
                                   THEN CAST([] AS VARCHAR[])
                                   ELSE {_TOKS} END AS toks
                       FROM documents)
            SELECT doc_id,
                   len(toks) AS n_tokens,
                   len(list_filter(toks, x -> x IN {_STOP_EN})) AS n_stop,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE len(list_filter(toks, x -> x IN {_STOP_EN})) * 1.0 / len(toks)
                   END AS stop_ratio,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE list_sum(list_transform(toks, x -> len(x))) * 1.0 / len(toks)
                   END AS mean_token_len
            FROM t
        """,
        "lang_id": f"""
            WITH t AS (SELECT doc_id,
                              CASE WHEN len(trim(text)) = 0
                                   THEN CAST([] AS VARCHAR[])
                                   ELSE {_TOKS} END AS toks
                       FROM documents),
            c AS (SELECT doc_id,
                         len(list_filter(toks, x -> x IN {_STOP_EN})) AS en,
                         len(list_filter(toks, x -> x IN {_STOP_DE})) AS de,
                         len(list_filter(toks, x -> x IN {_STOP_FR})) AS fr
                  FROM t)
            SELECT doc_id,
                   CASE WHEN en >= de AND en >= fr THEN 'en'
                        WHEN de >= fr THEN 'de'
                        ELSE 'fr' END AS pred_lang
            FROM c
        """,
        "fingerprints": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "repetition_scores": """
            WITH l AS (SELECT doc_id, line
                       FROM documents,
                            unnest(string_split(text, chr(10))) AS t(line)),
            c AS (SELECT doc_id, line, COUNT(*) AS cnt, len(line) AS ln
                  FROM l GROUP BY doc_id, line)
            SELECT doc_id,
                   CAST(SUM(cnt) AS BIGINT) AS n_lines,
                   (SUM(cnt) - COUNT(*)) * 1.0 / SUM(cnt) AS dup_line_frac,
                   CASE WHEN SUM(cnt * ln) = 0 THEN 0.0
                        ELSE SUM(CASE WHEN cnt > 1 THEN cnt * ln ELSE 0 END) * 1.0
                             / SUM(cnt * ln) END AS dup_char_frac,
                   MAX(cnt) * 1.0 / SUM(cnt) AS top_line_frac
            FROM c GROUP BY doc_id
        """,
        "subword_token_counts": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS n_subword
            FROM documents
        """,
        "token_topk": f"""
            SELECT tok AS token, count(*) AS cnt
            FROM documents, unnest({_TOKS}) AS u(tok)
            WHERE len(trim(text)) > 0
            GROUP BY tok
            ORDER BY cnt DESC, tok
            LIMIT 100
        """,
        "tfidf_top_terms": f"""
            WITH t AS (SELECT doc_id, unnest({_TOKS}) AS tok
                       FROM documents WHERE len(trim(text)) > 0),
            tf AS (SELECT doc_id, tok AS token,
                          CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY doc_id, tok),
            df AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS df
                   FROM tf GROUP BY token),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n
                  FROM documents WHERE len(trim(text)) > 0),
            s AS (SELECT tf.doc_id, tf.token,
                         CAST(tf.tf AS DOUBLE)
                         * ln(CAST(n.n AS DOUBLE) / CAST(df.df AS DOUBLE))
                         AS tfidf
                  FROM tf JOIN df USING (token) CROSS JOIN n),
            r AS (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY doc_id ORDER BY tfidf DESC, token)
                      AS rank FROM s)
            SELECT doc_id, token, tfidf, CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 3
        """,
        "doc_splits": """
            SELECT doc_id, source,
                   CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                                  1, 8)) AS BIGINT) % 1000 < 900
                             THEN 'train'
                        WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                                  1, 8)) AS BIGINT) % 1000 < 950
                             THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "unigram_logprob": f"""
            WITH t AS (SELECT doc_id, unnest({_TOKS}) AS tok
                       FROM documents WHERE len(trim(text)) > 0),
            tf AS (SELECT doc_id, tok AS token,
                          CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY doc_id, tok),
            cnt AS (SELECT token, CAST(SUM(tf) AS BIGINT) AS cnt
                    FROM tf GROUP BY token),
            n AS (SELECT CAST(SUM(cnt) AS BIGINT) AS n FROM cnt),
            s AS (SELECT tf.doc_id, tf.tf,
                         tf.tf * CAST(FLOOR(ln(CAST(cnt.cnt AS DOUBLE)
                                               / CAST(n.n AS DOUBLE)) * 1e6)
                                      AS BIGINT) AS c
                  FROM tf JOIN cnt USING (token) CROSS JOIN n)
            SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS n_tokens,
                   CAST(SUM(c) AS BIGINT) AS logprob_micronats,
                   CAST(SUM(c) AS DOUBLE) / CAST(SUM(tf) AS DOUBLE)
                       AS avg_logprob_micronats
            FROM s GROUP BY doc_id
        """,
        "events_orders_join_profile": """
            WITH ev AS (SELECT user_id AS key,
                               CAST(COUNT(*) AS BIGINT) AS n_events
                        FROM events GROUP BY 1),
            od AS (SELECT o_custkey AS key,
                          CAST(COUNT(*) AS BIGINT) AS n_orders
                   FROM orders GROUP BY 1),
            p AS (SELECT key, n_events, n_orders,
                         n_events * n_orders AS join_rows
                  FROM ev JOIN od USING (key)),
            t AS (SELECT CAST(SUM(join_rows) AS BIGINT) AS total FROM p)
            SELECT key, n_events, n_orders, join_rows,
                   t.total AS total_join_rows
            FROM p CROSS JOIN t
            ORDER BY join_rows DESC, key LIMIT 10
        """,
        "part_negative_samples": """
            WITH e AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2
            ),
            anchors AS (SELECT a AS anchor FROM e
                        UNION SELECT b FROM e),
            ps AS (SELECT p_partkey,
                          CAST(ROW_NUMBER() OVER (ORDER BY p_partkey) - 1
                               AS BIGINT) AS pos
                   FROM part),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM ps),
            cand AS (SELECT anchors.anchor,
                            CAST(j AS BIGINT) AS attempt,
                            ps.p_partkey AS neg_part
                     FROM anchors,
                          UNNEST(generate_series(1, 16)) AS u(j),
                          n
                     JOIN ps ON ps.pos =
                          CAST(('0x' || substr(md5(CAST(anchors.anchor
                               AS VARCHAR) || '|' || j), 1, 8)) AS BIGINT)
                          % n.c
                     WHERE ps.p_partkey <> anchors.anchor),
            neg AS (SELECT c.* FROM cand c
                    WHERE NOT EXISTS (
                        SELECT 1 FROM e
                        WHERE e.a = LEAST(c.anchor, c.neg_part)
                          AND e.b = GREATEST(c.anchor, c.neg_part)))
            SELECT anchor, neg_part, attempt FROM neg
            QUALIFY ROW_NUMBER() OVER (PARTITION BY anchor
                ORDER BY attempt, neg_part) <= 5
        """,
        "gopher_rule_flags": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents
                       WHERE len(trim(text)) > 0),
            s AS (SELECT doc_id,
                         CAST(len(toks) AS BIGINT) AS n_tokens,
                         CAST((SELECT COALESCE(SUM(len(w)), 0)
                               FROM UNNEST(toks) AS u(w)) AS BIGINT)
                             AS n_token_chars,
                         CAST((SELECT COUNT(*) FROM UNNEST(toks) AS u(w)
                               WHERE regexp_matches(w, '[a-zA-Z]'))
                              AS BIGINT) AS n_alpha_tokens,
                         CAST((SELECT COUNT(*) FROM UNNEST(toks) AS u(w)
                               WHERE w IN ('the', 'and', 'of', 'to'))
                              AS BIGINT) AS n_stopwords
                  FROM t)
            SELECT doc_id, n_tokens, n_token_chars, n_alpha_tokens,
                   n_stopwords,
                   (n_tokens >= 10 AND n_tokens <= 1000) AS rule_len,
                   (3 * n_tokens <= n_token_chars
                    AND n_token_chars <= 10 * n_tokens) AS rule_mean_len,
                   (5 * n_alpha_tokens >= 4 * n_tokens) AS rule_alpha,
                   (n_stopwords >= 1) AS rule_stop,
                   ((n_tokens >= 10 AND n_tokens <= 1000)
                    AND (3 * n_tokens <= n_token_chars
                         AND n_token_chars <= 10 * n_tokens)
                    AND (5 * n_alpha_tokens >= 4 * n_tokens)
                    AND (n_stopwords >= 1)) AS keep
            FROM s
        """,
        "copurchase_triple_itemsets": """
            WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                        FROM lineitem)
            SELECT a.p AS part_a, b.p AS part_b, c.p AS part_c,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM op a JOIN op b ON a.o = b.o AND a.p < b.p
                 JOIN op c ON b.o = c.o AND b.p < c.p
            GROUP BY 1, 2, 3 HAVING COUNT(*) >= 2
        """,
        "events_benford_audit": """
            WITH v AS (SELECT event_type,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS vc
                       FROM events),
            c AS (SELECT event_type,
                         CAST(substr(CAST(vc AS VARCHAR), 1, 1) AS BIGINT)
                             AS digit,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM v WHERE vc > 0 GROUP BY 1, 2),
            grid AS (SELECT t.event_type, d.digit
                     FROM (SELECT DISTINCT event_type FROM c) t,
                          (SELECT CAST(unnest(generate_series(1, 9))
                                  AS BIGINT) AS digit) d),
            tot AS (SELECT event_type, CAST(SUM(n) AS BIGINT) AS total
                    FROM c GROUP BY 1),
            e AS (SELECT g.event_type, g.digit,
                         CAST(COALESCE(c.n, 0) AS BIGINT) AS n_obs,
                         CAST(tot.total AS DOUBLE)
                             * log10(1.0 + 1.0 / g.digit) AS n_expected
                  FROM grid g LEFT JOIN c USING (event_type, digit)
                       JOIN tot USING (event_type)),
            r AS (SELECT event_type, digit, n_obs, n_expected,
                         SUM((CAST(n_obs AS DOUBLE) - n_expected)
                             * (CAST(n_obs AS DOUBLE) - n_expected)
                             / n_expected) OVER (
                             PARTITION BY event_type ORDER BY digit
                             ROWS UNBOUNDED PRECEDING) AS chi_run
                  FROM e)
            SELECT event_type, digit, n_obs, n_expected,
                   MAX(chi_run) OVER (PARTITION BY event_type) AS chi2
            FROM r
        """,
        "doc_redirect_resolution": """
            WITH RECURSIVE d AS (SELECT doc_id,
                              CAST(ROW_NUMBER() OVER (ORDER BY doc_id)
                                   AS BIGINT) AS rnk,
                              CAST(('0x' || substr(md5(CAST(doc_id
                                   AS VARCHAR)), 1, 8)) AS BIGINT) AS h
                       FROM documents),
            m AS (SELECT doc_id, rnk,
                         CASE WHEN h % 4 = 0 OR rnk - 1 - (h % 3) < 1
                              THEN rnk ELSE rnk - 1 - (h % 3) END AS nxt
                  FROM d),
            walk AS (
                SELECT rnk AS start_rnk, nxt AS cur,
                       CAST(CASE WHEN nxt = rnk THEN 0 ELSE 1 END
                            AS BIGINT) AS hops
                FROM m
                UNION ALL
                SELECT w.start_rnk, m2.nxt, w.hops + 1
                FROM walk w JOIN m m2 ON m2.rnk = w.cur
                WHERE m2.nxt <> m2.rnk
            ),
            fin AS (SELECT start_rnk, cur, hops FROM walk
                    QUALIFY ROW_NUMBER() OVER (PARTITION BY start_rnk
                        ORDER BY hops DESC) = 1)
            SELECT d1.doc_id, d2.doc_id AS target_doc_id, fin.hops AS n_hops
            FROM fin JOIN m d1 ON d1.rnk = fin.start_rnk
                     JOIN m d2 ON d2.rnk = fin.cur
        """,
        "token_collocations": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents
                       WHERE len(trim(text)) > 0),
            b AS (SELECT toks[i] AS w1, toks[i + 1] AS w2
                  FROM t, UNNEST(generate_series(1, len(toks) - 1))
                       AS u(i)),
            c12 AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS c12
                    FROM b GROUP BY 1, 2),
            c1 AS (SELECT w1, CAST(SUM(c12) AS BIGINT) AS c1
                   FROM c12 GROUP BY 1),
            c2 AS (SELECT w2, CAST(SUM(c12) AS BIGINT) AS c2
                   FROM c12 GROUP BY 1),
            n AS (SELECT CAST(SUM(c12) AS BIGINT) AS n FROM c12),
            s AS (SELECT w1, w2, c12,
                         ln(CAST(c12 * n.n AS DOUBLE)
                            / CAST(c1.c1 * c2.c2 AS DOUBLE)) AS pmi
                  FROM c12 JOIN c1 USING (w1) JOIN c2 USING (w2)
                       CROSS JOIN n
                  WHERE c12 >= 5)
            SELECT w1, w2, c12, pmi FROM s
            ORDER BY pmi DESC, w1, w2 LIMIT 50
        """,
        "events_cusum_peaks": """
            WITH e AS (SELECT event_type, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS vc
                       FROM events),
            tgt AS (SELECT event_type,
                           CAST(SUM(vc) AS BIGINT)
                               // CAST(COUNT(*) AS BIGINT) AS target
                    FROM e GROUP BY 1),
            d AS (SELECT e.event_type, e.event_id, e.ev_us,
                         e.vc - tgt.target AS dv
                  FROM e JOIN tgt USING (event_type)),
            s AS (SELECT event_type, event_id, ev_us,
                         CAST(SUM(dv) OVER (PARTITION BY event_type
                              ORDER BY ev_us, event_id
                              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS s
                  FROM d),
            m AS (SELECT event_type, event_id, ev_us, s,
                         CAST(MIN(s) OVER (PARTITION BY event_type
                              ORDER BY ev_us, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS BIGINT) AS min_prev
                  FROM s),
            c AS (SELECT event_type, event_id, ev_us,
                         s - LEAST(0, COALESCE(min_prev, 0)) AS cusum_cents
                  FROM m)
            SELECT event_type,
                   CAST(ROW_NUMBER() OVER (PARTITION BY event_type
                        ORDER BY cusum_cents DESC, event_id)
                        AS BIGINT) AS rank,
                   event_id, ev_us, cusum_cents
            FROM c
            QUALIFY rank <= 10
        """,
        "source_ngram_overlap": f"""
            WITH t AS (SELECT source, {_TOKS} AS toks FROM documents
                       WHERE len(trim(text)) > 0),
            g AS (SELECT DISTINCT source,
                         toks[i] || ' ' || toks[i + 1] || ' '
                             || toks[i + 2] AS ngram
                  FROM t, UNNEST(generate_series(1, len(toks) - 2))
                       AS u(i))
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(COUNT(*) AS BIGINT) AS n_shared
            FROM g a JOIN g b ON a.ngram = b.ngram
                 AND a.source < b.source
            GROUP BY 1, 2
        """,
        "mixture_token_budget": f"""
            WITH w(source, p) AS (VALUES {", ".join(
                f"('src{i}', {3 if i < 5 else 2 if i < 10 else 1})"
                for i in range(20))}),
            d AS (SELECT doc_id, source,
                         CAST(len({_TOKS}) AS BIGINT) AS n_tokens,
                         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                              1, 8)) AS BIGINT) AS h
                  FROM documents WHERE len(trim(text)) > 0),
            tot AS (SELECT source, CAST(SUM(n_tokens) AS BIGINT) AS t
                    FROM d GROUP BY 1),
            led AS (SELECT tot.source, t,
                           CAST((40000 * p) // 35 AS BIGINT) AS owed
                    FROM tot JOIN w USING (source)),
            led2 AS (SELECT source, t, owed, owed // t AS k,
                            owed - (owed // t) * t AS rem FROM led),
            full_e AS (SELECT doc_id, source, CAST(e AS BIGINT) AS epoch,
                              n_tokens
                       FROM d JOIN led2 USING (source),
                            UNNEST(generate_series(0, CAST(k AS BIGINT) - 1))
                            AS u(e)),
            run AS (SELECT d.doc_id, d.source, d.n_tokens, led2.k, led2.rem,
                           COALESCE(SUM(n_tokens) OVER (
                               PARTITION BY d.source ORDER BY h, doc_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS cumx
                    FROM d JOIN led2 USING (source))
            SELECT doc_id, source, epoch, n_tokens FROM full_e
            UNION ALL
            SELECT doc_id, source, CAST(k AS BIGINT) AS epoch, n_tokens
            FROM run WHERE cumx < rem
        """,
        "bm25_search": f"""
            WITH q(query_id, token) AS (VALUES
                (0, 'hash'), (0, 'join'), (0, 'merge'),
                (1, 'batch'), (1, 'scan'), (1, 'filter'),
                (2, 'customer'), (2, 'order'), (2, 'table')),
            d AS (SELECT doc_id, {_TOKS} AS toks FROM documents
                  WHERE len(trim(text)) > 0),
            dl AS (SELECT doc_id, CAST(len(toks) AS BIGINT) AS dl FROM d),
            t AS (SELECT doc_id, unnest(toks) AS token FROM d),
            tf AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY 1, 2),
            c AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(dl) AS BIGINT) AS s FROM dl),
            df AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS df
                   FROM tf GROUP BY 1),
            sc AS (SELECT q.query_id, tf.doc_id,
                          CAST(SUM(CAST(FLOOR(
                              ln((CAST(c.n - df.df AS DOUBLE) + 0.5)
                                 / (CAST(df.df AS DOUBLE) + 0.5) + 1.0)
                              * ((CAST(tf.tf AS DOUBLE) * (1.2 + 1.0))
                                 / (CAST(tf.tf AS DOUBLE)
                                    + 1.2 * (1.0 - 0.75 + 0.75
                                             * (CAST(dl.dl AS DOUBLE)
                                                / (CAST(c.s AS DOUBLE)
                                                   / CAST(c.n AS DOUBLE))))))
                              * 1e6) AS BIGINT)) AS BIGINT) AS score_micro
                   FROM q JOIN tf USING (token) JOIN dl USING (doc_id)
                        JOIN df USING (token) CROSS JOIN c
                   GROUP BY 1, 2)
            SELECT CAST(query_id AS BIGINT) AS query_id, rank, doc_id,
                   score_micro FROM (
                SELECT query_id, doc_id, score_micro,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY query_id
                           ORDER BY score_micro DESC, doc_id ASC)
                           AS BIGINT) AS rank
                FROM sc)
            WHERE rank <= 10
        """,
        "nb_lang_predictions": f"""
            WITH d AS (SELECT doc_id, lang, text FROM documents
                       WHERE len(trim(text)) > 0),
            t AS (SELECT doc_id, lang, unnest({_TOKS}) AS token FROM d),
            tf AS (SELECT doc_id, lang, token,
                          CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY 1, 2, 3),
            tc AS (SELECT token, lang, CAST(SUM(tf) AS BIGINT) AS cnt
                   FROM tf GROUP BY 1, 2),
            langs AS (SELECT DISTINCT lang FROM d),
            totals AS (SELECT lang, CAST(SUM(cnt) AS BIGINT) AS tot
                       FROM tc GROUP BY 1),
            v AS (SELECT CAST(COUNT(DISTINCT token) AS BIGINT) AS v FROM tc),
            pri AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS nd,
                           CAST((SELECT COUNT(*) FROM d) AS BIGINT) AS ndocs
                    FROM d GROUP BY 1),
            s AS (SELECT tf.doc_id, l.lang,
                         tf.tf * CAST(FLOOR(ln(
                             CAST(COALESCE(tc.cnt, 0) + 1 AS DOUBLE)
                             / CAST(totals.tot + v.v AS DOUBLE)) * 1e6)
                                      AS BIGINT) AS c
                  FROM (SELECT DISTINCT doc_id, token, tf FROM tf) tf
                  CROSS JOIN langs l
                  LEFT JOIN tc ON tc.token = tf.token AND tc.lang = l.lang
                  JOIN totals ON totals.lang = l.lang CROSS JOIN v),
            sc AS (SELECT s.doc_id, s.lang,
                          CAST(FLOOR(ln(CAST(pri.nd AS DOUBLE)
                                        / CAST(pri.ndocs AS DOUBLE)) * 1e6)
                               AS BIGINT)
                          + CAST(SUM(s.c) AS BIGINT) AS score
                   FROM s JOIN pri ON pri.lang = s.lang
                   GROUP BY s.doc_id, s.lang, pri.nd, pri.ndocs)
            SELECT doc_id, lang AS pred_lang, score AS score_micronats
            FROM sc
            QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, lang ASC) = 1
        """,
        "nb_confusion": f"""
            WITH d AS (SELECT doc_id, lang, text FROM documents
                       WHERE len(trim(text)) > 0),
            t AS (SELECT doc_id, lang, unnest({_TOKS}) AS token FROM d),
            tf AS (SELECT doc_id, lang, token,
                          CAST(COUNT(*) AS BIGINT) AS tf
                   FROM t GROUP BY 1, 2, 3),
            tc AS (SELECT token, lang, CAST(SUM(tf) AS BIGINT) AS cnt
                   FROM tf GROUP BY 1, 2),
            langs AS (SELECT DISTINCT lang FROM d),
            totals AS (SELECT lang, CAST(SUM(cnt) AS BIGINT) AS tot
                       FROM tc GROUP BY 1),
            v AS (SELECT CAST(COUNT(DISTINCT token) AS BIGINT) AS v FROM tc),
            pri AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS nd,
                           CAST((SELECT COUNT(*) FROM d) AS BIGINT) AS ndocs
                    FROM d GROUP BY 1),
            s AS (SELECT tf.doc_id, l.lang,
                         tf.tf * CAST(FLOOR(ln(
                             CAST(COALESCE(tc.cnt, 0) + 1 AS DOUBLE)
                             / CAST(totals.tot + v.v AS DOUBLE)) * 1e6)
                                      AS BIGINT) AS c
                  FROM (SELECT DISTINCT doc_id, token, tf FROM tf) tf
                  CROSS JOIN langs l
                  LEFT JOIN tc ON tc.token = tf.token AND tc.lang = l.lang
                  JOIN totals ON totals.lang = l.lang CROSS JOIN v),
            sc AS (SELECT s.doc_id, s.lang,
                          CAST(FLOOR(ln(CAST(pri.nd AS DOUBLE)
                                        / CAST(pri.ndocs AS DOUBLE)) * 1e6)
                               AS BIGINT)
                          + CAST(SUM(s.c) AS BIGINT) AS score
                   FROM s JOIN pri ON pri.lang = s.lang
                   GROUP BY s.doc_id, s.lang, pri.nd, pri.ndocs),
            pred AS (SELECT doc_id, lang AS pred_lang FROM sc
                     QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                         ORDER BY score DESC, lang ASC) = 1)
            SELECT d.lang, p.pred_lang, CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM pred p JOIN d ON d.doc_id = p.doc_id
            GROUP BY 1, 2
        """,
        "source_group_splits": """
            SELECT doc_id, source,
                   CASE WHEN CAST(('0x' || substr(md5(source), 1, 8))
                                  AS BIGINT) % 1000 < 800 THEN 'train'
                        WHEN CAST(('0x' || substr(md5(source), 1, 8))
                                  AS BIGINT) % 1000 < 900 THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "part_adamic_adar": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS s, b AS d FROM e
                    UNION ALL SELECT b, a FROM e),
            deg AS (SELECT s AS node, CAST(COUNT(*) AS BIGINT) AS deg
                    FROM sym GROUP BY 1),
            w AS (SELECT node,
                         CAST(FLOOR(1e6 / ln(CAST(deg AS DOUBLE)))
                              AS BIGINT) AS w
                  FROM deg WHERE deg >= 2),
            wedge AS (SELECT l.s AS part_a, r.d AS part_b, w.w
                      FROM sym l JOIN sym r ON l.d = r.s AND l.s < r.d
                      JOIN w ON w.node = l.d),
            aa AS (SELECT part_a, part_b,
                          CAST(COUNT(*) AS BIGINT) AS n_common,
                          CAST(SUM(w) AS BIGINT) AS aa_micro
                   FROM wedge GROUP BY 1, 2),
            ne AS (SELECT aa.* FROM aa
                   WHERE NOT EXISTS (SELECT 1 FROM e
                       WHERE e.a = aa.part_a AND e.b = aa.part_b))
            SELECT part_a, part_b, n_common, aa_micro
            FROM ne ORDER BY aa_micro DESC, part_a, part_b LIMIT 30
        """,
        "part_khop_sample": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            rk AS (SELECT src, dst,
                          CAST(('0x' || substr(md5(CAST(src * 4294967296
                                                         + dst AS VARCHAR)),
                                               1, 15)) AS BIGINT) AS rk
                   FROM sym),
            h1 AS (SELECT src, dst, rk,
                          ROW_NUMBER() OVER (PARTITION BY src
                              ORDER BY rk, dst) AS rn
                   FROM rk
                   WHERE CAST(('0x' || substr(md5(CAST(src AS VARCHAR)),
                                              1, 8)) AS BIGINT) % 20 = 0),
            h1s AS (SELECT * FROM h1 WHERE rn <= 3),
            f AS (SELECT DISTINCT dst FROM h1s),
            h2 AS (SELECT r.src, r.dst, r.rk,
                          ROW_NUMBER() OVER (PARTITION BY r.src
                              ORDER BY r.rk, r.dst) AS rn
                   FROM rk r JOIN f ON f.dst = r.src),
            h2s AS (SELECT * FROM h2 WHERE rn <= 3)
            SELECT CAST(1 AS BIGINT) AS hop, src, dst, rk FROM h1s
            UNION ALL
            SELECT CAST(2 AS BIGINT) AS hop, src, dst, rk FROM h2s
        """,
        "events_quality_checks": """
            WITH e AS (
                SELECT event_id,
                       CASE WHEN CAST(('0x' || substr(md5(CAST(event_id
                                      AS VARCHAR)), 1, 8)) AS BIGINT)
                                 % 97 = 0
                            THEN -value ELSE value END AS value,
                       CASE WHEN CAST(('0x' || substr(md5(CAST(event_id
                                      AS VARCHAR)), 1, 8)) AS BIGINT)
                                 % 97 = 0
                            THEN 'unknown' ELSE event_type END
                           AS event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ), r AS (
                SELECT 'value_nonnull' AS rule,
                       COUNT(*) AS n_checked,
                       COUNT(*) FILTER (WHERE value IS NULL)
                           AS n_violations FROM e
                UNION ALL
                SELECT 'value_nonneg', COUNT(*),
                       COUNT(*) FILTER (WHERE value < 0) FROM e
                UNION ALL
                SELECT 'type_in_domain', COUNT(*),
                       COUNT(*) FILTER (WHERE event_type NOT IN
                           ('click', 'signup', 'error', 'view',
                            'purchase')) FROM e
                UNION ALL
                SELECT 'ts_in_window', COUNT(*),
                       COUNT(*) FILTER (WHERE ts_us < 1704067200000000
                           OR ts_us >= 1706745600000000) FROM e
                UNION ALL
                SELECT 'event_id_unique', COUNT(*),
                       COUNT(*) - COUNT(DISTINCT event_id) FROM e
            )
            SELECT rule, CAST(n_checked AS BIGINT) AS n_checked,
                   CAST(n_violations AS BIGINT) AS n_violations,
                   CAST(CASE WHEN n_violations = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS passed
            FROM r
        """,
        "user_window_features": """
            WITH t AS (SELECT CAST(MAX(epoch_us(ts)) AS BIGINT) AS t_ref
                       FROM events),
            e AS (SELECT user_id, event_type,
                         CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                             AS cents,
                         CAST(epoch_us(ts) AS BIGINT) AS ts_us
                  FROM events)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(*) FILTER (WHERE ts_us >
                       t_ref - 604800000000) AS BIGINT) AS n_7d,
                   CAST(COUNT(*) FILTER (WHERE ts_us >
                       t_ref - 2592000000000) AS BIGINT) AS n_30d,
                   CAST(COALESCE(SUM(CASE WHEN ts_us >
                       t_ref - 2592000000000
                       AND event_type = 'purchase' THEN cents
                       ELSE 0 END), 0) AS BIGINT)
                       AS purchase_cents_30d,
                   t_ref - MAX(ts_us) AS recency_us,
                   MAX(ts_us) - MIN(ts_us) AS tenure_us
            FROM e CROSS JOIN t GROUP BY user_id, t_ref
        """,
        "events_bootstrap_ci": """
            WITH h AS (SELECT event_type,
                              CAST(('0x' || substr(md5(CAST(event_id
                                   AS VARCHAR)), 1, 15)) AS BIGINT)
                                  % 1099511627776 AS h40,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS cents
                       FROM events),
            bs AS (SELECT CAST(b AS BIGINT) AS b
                   FROM generate_series(0, 63) t(b)),
            u AS (SELECT event_type, b,
                         (h40 * (2 * b + 1)) % 1099511627776 AS r,
                         cents
                  FROM h CROSS JOIN bs),
            w AS (SELECT event_type, b,
                         CASE WHEN r < 404487723187 THEN 0
                              WHEN r < 808975446375 THEN 1
                              WHEN r < 1011219307969 THEN 2
                              WHEN r < 1078633928500 THEN 3
                              WHEN r < 1095487583633 THEN 4
                              WHEN r < 1098858314660 THEN 5
                              ELSE 6 END AS w,
                         cents
                  FROM u),
            s AS (SELECT event_type, b, CAST(SUM(w) AS BIGINT) AS sw,
                         CAST(SUM(w * cents) AS BIGINT) AS swx
                  FROM w GROUP BY 1, 2 HAVING SUM(w) > 0),
            m AS (SELECT event_type, b,
                         CAST(swx AS DOUBLE) / CAST(sw AS DOUBLE)
                             AS mean
                  FROM s),
            rr AS (SELECT event_type, mean,
                          ROW_NUMBER() OVER (PARTITION BY event_type
                              ORDER BY mean, b) AS rn
                   FROM m)
            SELECT event_type,
                   MIN(CASE WHEN rn = 2 THEN mean END) AS ci_lo,
                   MIN(CASE WHEN rn = 63 THEN mean END) AS ci_hi
            FROM rr GROUP BY event_type
        """,
        "copurchase_degree_assortativity": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            d AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
                  FROM sym GROUP BY 1),
            j AS (SELECT ds.deg AS dx, dd.deg AS dy
                  FROM sym JOIN d ds ON ds.node = sym.src
                       JOIN d dd ON dd.node = sym.dst),
            m AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
                         CAST(SUM(dx) AS BIGINT) AS sx,
                         CAST(SUM(dy) AS BIGINT) AS sy,
                         CAST(SUM(dx * dy) AS BIGINT) AS sxy,
                         CAST(SUM(dx * dx) AS BIGINT) AS sxx,
                         CAST(SUM(dy * dy) AS BIGINT) AS syy
                  FROM j)
            SELECT m AS n_directed_edges,
                   m * sxy - sx * sy AS num,
                   m * sxx - sx * sx AS den2_x,
                   m * syy - sy * sy AS den2_y,
                   CASE WHEN m * sxx - sx * sx > 0
                          AND m * syy - sy * sy > 0
                        THEN CAST(m * sxy - sx * sy AS DOUBLE)
                             / sqrt(CAST(m * sxx - sx * sx AS DOUBLE)
                                    * CAST(m * syy - sy * sy AS DOUBLE))
                        ELSE 0.0 END AS assortativity
            FROM m
        """,
        "copurchase_robustness": """
            WITH RECURSIVE counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            dg AS (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
                   FROM sym GROUP BY 1),
            s0 AS (SELECT src, dst FROM sym),
            n0 AS (SELECT DISTINCT src AS node FROM s0),
            reach0(node, r) AS (
                SELECT node, node FROM n0
                UNION
                SELECT reach0.node, s0.dst
                FROM reach0 JOIN s0 ON s0.src = reach0.r),
            cc0 AS (SELECT node, MIN(r) AS cid
                     FROM reach0 GROUP BY node),
            sz0 AS (SELECT cid, COUNT(*) AS n FROM cc0 GROUP BY 1),
            row0 AS (SELECT CAST(0 AS BIGINT) AS k_removed,
                             CAST((SELECT COUNT(*) FROM cc0) AS BIGINT)
                                 AS n_nodes,
                             CAST((SELECT COUNT(*) FROM s0) / 2
                                  AS BIGINT) AS n_edges,
                             CAST(COALESCE((SELECT MAX(n) FROM sz0), 0)
                                  AS BIGINT) AS largest_component),
            h5 AS (SELECT node FROM (
                     SELECT node, ROW_NUMBER() OVER (
                         ORDER BY deg DESC, node) AS rn
                     FROM dg) WHERE rn <= 5),
            s5 AS (SELECT src, dst FROM sym
                    WHERE src NOT IN (SELECT node FROM h5)
                      AND dst NOT IN (SELECT node FROM h5)),
            n5 AS (SELECT DISTINCT src AS node FROM s5),
            reach5(node, r) AS (
                SELECT node, node FROM n5
                UNION
                SELECT reach5.node, s5.dst
                FROM reach5 JOIN s5 ON s5.src = reach5.r),
            cc5 AS (SELECT node, MIN(r) AS cid
                     FROM reach5 GROUP BY node),
            sz5 AS (SELECT cid, COUNT(*) AS n FROM cc5 GROUP BY 1),
            row5 AS (SELECT CAST(5 AS BIGINT) AS k_removed,
                             CAST((SELECT COUNT(*) FROM cc5) AS BIGINT)
                                 AS n_nodes,
                             CAST((SELECT COUNT(*) FROM s5) / 2
                                  AS BIGINT) AS n_edges,
                             CAST(COALESCE((SELECT MAX(n) FROM sz5), 0)
                                  AS BIGINT) AS largest_component),
            h20 AS (SELECT node FROM (
                     SELECT node, ROW_NUMBER() OVER (
                         ORDER BY deg DESC, node) AS rn
                     FROM dg) WHERE rn <= 20),
            s20 AS (SELECT src, dst FROM sym
                    WHERE src NOT IN (SELECT node FROM h20)
                      AND dst NOT IN (SELECT node FROM h20)),
            n20 AS (SELECT DISTINCT src AS node FROM s20),
            reach20(node, r) AS (
                SELECT node, node FROM n20
                UNION
                SELECT reach20.node, s20.dst
                FROM reach20 JOIN s20 ON s20.src = reach20.r),
            cc20 AS (SELECT node, MIN(r) AS cid
                     FROM reach20 GROUP BY node),
            sz20 AS (SELECT cid, COUNT(*) AS n FROM cc20 GROUP BY 1),
            row20 AS (SELECT CAST(20 AS BIGINT) AS k_removed,
                             CAST((SELECT COUNT(*) FROM cc20) AS BIGINT)
                                 AS n_nodes,
                             CAST((SELECT COUNT(*) FROM s20) / 2
                                  AS BIGINT) AS n_edges,
                             CAST(COALESCE((SELECT MAX(n) FROM sz20), 0)
                                  AS BIGINT) AS largest_component)
            SELECT * FROM row0
            UNION ALL SELECT * FROM row5
            UNION ALL SELECT * FROM row20
        """,
        "events_forecast_backtest": """
            WITH e AS (SELECT event_type,
                              CAST(epoch_us(ts) AS BIGINT) // 3600000000
                                  AS hour
                       FROM events),
            h AS (SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS c
                  FROM e GROUP BY 1, 2),
            rng AS (SELECT event_type, MIN(hour) AS lo, MAX(hour) AS hi
                    FROM h GROUP BY 1),
            spine AS (SELECT event_type,
                             CAST(unnest(generate_series(lo, hi))
                                  AS BIGINT) AS hour
                      FROM rng),
            d AS (SELECT s.event_type, s.hour, COALESCE(h.c, 0) AS c
                  FROM spine s LEFT JOIN h
                       ON h.event_type = s.event_type
                      AND h.hour = s.hour),
            l AS (SELECT event_type, hour, c,
                         LAG(c, 1) OVER w AS p1,
                         LAG(c, 24) OVER w AS p24
                  FROM d
                  WINDOW w AS (PARTITION BY event_type ORDER BY hour)),
            a AS (SELECT event_type,
                         CAST(COUNT(p1) AS BIGINT) AS n_points,
                         CAST(COALESCE(SUM(ABS(c - p1)), 0) AS BIGINT)
                             AS mae_naive_num,
                         CAST(COUNT(p24) AS BIGINT) AS n_seasonal,
                         CAST(COALESCE(SUM(ABS(c - p24)), 0) AS BIGINT)
                             AS mae_seasonal_num
                  FROM l GROUP BY 1)
            SELECT event_type, n_points, mae_naive_num, n_seasonal,
                   mae_seasonal_num,
                   CASE WHEN n_seasonal = 0
                          OR mae_naive_num * n_seasonal
                             <= mae_seasonal_num * n_points
                        THEN 'naive' ELSE 'seasonal' END AS winner
            FROM a
        """,
        "vocab_growth_curve": """
            WITH d AS (SELECT doc_id,
                              CASE WHEN len(trim(text)) = 0
                                   THEN CAST([] AS VARCHAR[])
                                   ELSE regexp_split_to_array(
                                       trim(text), '\\s+') END AS toks
                       FROM documents),
            cuts AS (SELECT DISTINCT unnest(quantile_disc(doc_id,
                         [0.1, 0.2, 0.3, 0.4, 0.5,
                          0.6, 0.7, 0.8, 0.9, 1.0])) AS cut
                     FROM d),
            db AS (SELECT (SELECT MIN(cut) FROM cuts
                           WHERE cut >= d.doc_id) AS ckpt,
                          len(toks) AS nt
                   FROM d),
            da AS (SELECT ckpt, CAST(COUNT(*) AS BIGINT) AS nd,
                          CAST(SUM(nt) AS BIGINT) AS tk
                   FROM db GROUP BY 1),
            p AS (SELECT doc_id, unnest(list_distinct(toks)) AS token
                  FROM d),
            f AS (SELECT token, MIN(doc_id) AS fd FROM p GROUP BY 1),
            vb AS (SELECT (SELECT MIN(cut) FROM cuts
                           WHERE cut >= f.fd) AS ckpt,
                          CAST(COUNT(*) AS BIGINT) AS nv
                   FROM f GROUP BY 1),
            sp AS (SELECT c.cut, COALESCE(da.nd, 0) AS nd,
                          COALESCE(da.tk, 0) AS tk,
                          COALESCE(vb.nv, 0) AS nv
                   FROM cuts c LEFT JOIN da ON da.ckpt = c.cut
                        LEFT JOIN vb ON vb.ckpt = c.cut)
            SELECT cut AS checkpoint_doc,
                   CAST(SUM(nd) OVER w AS BIGINT) AS n_docs,
                   CAST(SUM(tk) OVER w AS BIGINT) AS cum_tokens,
                   CAST(SUM(nv) OVER w AS BIGINT) AS distinct_tokens
            FROM sp
            WINDOW w AS (ORDER BY cut ROWS UNBOUNDED PRECEDING)
        """,
        "events_value_psi": """
            WITH e AS (SELECT event_type,
                              CAST(('0x' || substr(md5(CAST(event_id
                                         AS VARCHAR)), 1, 8)) AS BIGINT)
                                  % 2 AS par,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS cents
                       FROM events),
            bd AS (SELECT unnest(quantile_disc(cents,
                       [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
                       AS bound
                   FROM e),
            bk AS (SELECT e.event_type, e.par,
                          (SELECT COUNT(*) FROM bd
                           WHERE bd.bound < e.cents) AS bucket
                   FROM e),
            c AS (SELECT event_type, bucket,
                         CAST(COUNT(*) FILTER (WHERE par = 0) AS BIGINT)
                             AS ca,
                         CAST(COUNT(*) FILTER (WHERE par = 1) AS BIGINT)
                             AS cb
                  FROM bk GROUP BY 1, 2),
            n AS (SELECT event_type, CAST(SUM(ca) AS BIGINT) AS na,
                         CAST(SUM(cb) AS BIGINT) AS nb
                  FROM c GROUP BY 1),
            spine AS (SELECT n.event_type, CAST(t.b AS BIGINT) AS bucket,
                             n.na, n.nb
                      FROM n CROSS JOIN generate_series(0, 9) t(b)),
            f AS (SELECT s.event_type, s.bucket, s.na, s.nb,
                         COALESCE(c.ca, 0) AS ca, COALESCE(c.cb, 0) AS cb
                  FROM spine s LEFT JOIN c
                       ON c.event_type = s.event_type
                      AND c.bucket = s.bucket),
            terms AS (SELECT event_type, bucket, na, nb,
                             ((CAST(ca AS DOUBLE) + 1.0)
                              / (CAST(na AS DOUBLE) + 10.0)
                              - (CAST(cb AS DOUBLE) + 1.0)
                                / (CAST(nb AS DOUBLE) + 10.0))
                             * ln(((CAST(ca AS DOUBLE) + 1.0)
                                   / (CAST(na AS DOUBLE) + 10.0))
                                  / ((CAST(cb AS DOUBLE) + 1.0)
                                     / (CAST(nb AS DOUBLE) + 10.0)))
                                 AS term
                      FROM f),
            run AS (SELECT event_type, na, nb, bucket,
                           SUM(term) OVER (PARTITION BY event_type
                               ORDER BY bucket
                               ROWS UNBOUNDED PRECEDING) AS psi
                    FROM terms)
            SELECT event_type, na AS n_a, nb AS n_b, psi
            FROM run WHERE bucket = 9
        """,
        "user_spend_gini": """
            WITH u AS (SELECT user_id,
                              CAST(SUM(CASE WHEN event_type = 'purchase'
                                   THEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT)
                                   ELSE 0 END) AS BIGINT) AS spend
                       FROM events GROUP BY 1),
            r AS (SELECT spend,
                         ROW_NUMBER() OVER (ORDER BY spend, user_id)
                             AS i
                  FROM u),
            m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(spend) AS BIGINT) AS s,
                         CAST(SUM(i * spend) AS BIGINT) AS iw
                  FROM r)
            SELECT n AS n_users, s AS total_cents,
                   iw AS rank_weighted_cents,
                   CASE WHEN s > 0
                        THEN CAST(2 * iw AS DOUBLE)
                             / CAST(n * s AS DOUBLE)
                             - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE)
                        ELSE 0.0 END AS gini
            FROM m
        """,
        "events_kmv_distinct": """
            WITH d AS (SELECT DISTINCT event_type, user_id FROM events),
            h AS (SELECT event_type, user_id,
                         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                              1, 8)) AS BIGINT) AS hv
                  FROM d),
            r AS (SELECT event_type, hv,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY hv, user_id) AS rn,
                         COUNT(*) OVER (PARTITION BY event_type) AS n_exact
                  FROM h)
            SELECT event_type, CAST(n_exact AS BIGINT) AS n_exact,
                   CAST(CASE WHEN n_exact < 64 THEN n_exact
                        ELSE 64 END AS BIGINT) AS n_sketch,
                   hv AS kth_hash,
                   CASE WHEN n_exact < 64 THEN CAST(n_exact AS DOUBLE)
                        ELSE CAST(63 AS DOUBLE) * 4294967296.0
                             / CAST(hv AS DOUBLE)
                   END AS est_distinct
            FROM r
            WHERE rn = CASE WHEN n_exact < 64 THEN n_exact ELSE 64 END
            ORDER BY event_type
        """,
        "events_mannwhitney_u": """
            WITH p AS (
                SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v,
                       CASE WHEN ((CAST(epoch_us(ts) AS BIGINT)
                                   // 86400000000) + 4) % 7 IN (0, 6)
                            THEN 1 ELSE 0 END AS wa
                FROM events WHERE event_type = 'purchase'),
            g AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS cnt,
                         CAST(SUM(wa) AS BIGINT) AS ca
                  FROM p GROUP BY 1),
            r AS (SELECT v, cnt, ca,
                         SUM(cnt) OVER (ORDER BY v
                             ROWS UNBOUNDED PRECEDING) AS cum
                  FROM g),
            m AS (SELECT CAST(SUM(ca) AS BIGINT) AS na,
                         CAST(SUM(cnt) AS BIGINT) AS n,
                         CAST(SUM(ca * (2*(cum-cnt) + cnt + 1)) AS BIGINT)
                             AS r2a,
                         CAST(SUM(cnt*cnt*cnt - cnt) AS BIGINT) AS ties
                  FROM r)
            SELECT na AS n_weekend, (n - na) AS n_weekday,
                   (r2a - na*(na+1)) AS u2_weekend,
                   (2*na*(n-na) - (r2a - na*(na+1))) AS u2_weekday,
                   CASE WHEN CAST(na AS HUGEINT)*(n-na)
                             *((CAST(n AS HUGEINT)+1)*n*(n-1) - ties) > 0
                        THEN CAST(r2a - na*(na+1) - na*(n-na) AS DOUBLE)
                             / (2.0 * SQRT(
                                 CAST(CAST(na AS HUGEINT)*(n-na)
                                      *((CAST(n AS HUGEINT)+1)*n*(n-1)
                                        - ties) AS DOUBLE)
                                 / CAST(CAST(12 AS HUGEINT)*n*(n-1)
                                        AS DOUBLE)))
                        ELSE 0.0 END AS z_score
            FROM m
        """,
        "copurchase_closeness": """
            WITH RECURSIVE e AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            nodes AS (SELECT DISTINCT src AS node FROM sym),
            seeds AS (SELECT node FROM nodes
                      ORDER BY CAST(('0x' || substr(
                          md5(CAST(node AS VARCHAR)), 1, 8)) AS BIGINT),
                          node
                      LIMIT 8),
            bfs(seed, node, dist) AS (
                SELECT node, node, 0 FROM seeds
                UNION
                SELECT b.seed, s.dst, b.dist + 1
                FROM bfs b JOIN sym s ON b.node = s.src
                WHERE b.dist < 6),
            d AS (SELECT seed, node, MIN(dist) AS dist
                  FROM bfs GROUP BY 1, 2)
            SELECT seed, CAST(COUNT(*) AS BIGINT) AS n_reached,
                   CAST(SUM(dist) AS BIGINT) AS sum_dist,
                   CAST(MAX(dist) AS BIGINT) AS eccentricity,
                   CASE WHEN SUM(dist) > 0
                        THEN CAST(COUNT(*) - 1 AS DOUBLE)
                             / CAST(SUM(dist) AS DOUBLE)
                        ELSE 0.0 END AS closeness
            FROM d GROUP BY seed ORDER BY seed
        """,
        "events_ks_test": """
            WITH p AS (
                SELECT CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS v,
                       CASE WHEN ((CAST(epoch_us(ts) AS BIGINT)
                                   // 86400000000) + 4) % 7 IN (0, 6)
                            THEN 1 ELSE 0 END AS wa
                FROM events WHERE event_type = 'purchase'),
            g AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS cnt,
                         CAST(SUM(wa) AS BIGINT) AS ca
                  FROM p GROUP BY 1),
            t AS (SELECT CAST(SUM(ca) AS BIGINT) AS na,
                         CAST(SUM(cnt) AS BIGINT) AS n
                  FROM g),
            r AS (SELECT v,
                         SUM(ca) OVER (ORDER BY v
                             ROWS UNBOUNDED PRECEDING) AS cuma,
                         SUM(cnt) OVER (ORDER BY v
                             ROWS UNBOUNDED PRECEDING) AS cum
                  FROM g),
            d AS (SELECT v,
                         ABS(CAST(cuma AS BIGINT) * (t.n - t.na)
                             - CAST(cum - cuma AS BIGINT) * t.na)
                             AS diff
                  FROM r CROSS JOIN t),
            m AS (SELECT MAX(diff) AS dn FROM d),
            av AS (SELECT MIN(v) AS at_value
                   FROM d CROSS JOIN m WHERE d.diff = m.dn)
            SELECT t.na AS n_weekend, t.n - t.na AS n_weekday,
                   m.dn AS d_num,
                   CAST(m.dn AS DOUBLE)
                       / CAST(t.na * (t.n - t.na) AS DOUBLE) AS ks_stat,
                   av.at_value
            FROM t CROSS JOIN m CROSS JOIN av
        """,
        "user_shard_rendezvous": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            r AS (SELECT user_id, s.shard,
                         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)
                               || '|' || CAST(s.shard AS VARCHAR)), 1, 15))
                              AS BIGINT) AS rk
                  FROM u, generate_series(0, 11) s(shard)),
            a AS (SELECT user_id, shard,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                                            ORDER BY rk DESC, shard DESC)
                             AS rn
                  FROM r)
            SELECT shard, COUNT(*) AS n_users, MIN(user_id) AS min_user,
                   MAX(user_id) AS max_user
            FROM a WHERE rn = 1 GROUP BY shard ORDER BY shard
        """,
        "phrase_search": f"""
            WITH tok AS (
              SELECT doc_id, unnest({_TOKS}) AS tk,
                     generate_subscripts({_TOKS}, 1) AS pos
              FROM documents WHERE len(trim(text)) > 0),
            m AS (
              SELECT CAST(0 AS BIGINT) AS phrase_id, a.doc_id
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              WHERE a.tk = 'hash' AND b.tk = 'join'
              UNION ALL
              SELECT CAST(1 AS BIGINT) AS phrase_id, a.doc_id
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              WHERE a.tk = 'sort' AND b.tk = 'merge'
              UNION ALL
              SELECT CAST(2 AS BIGINT) AS phrase_id, a.doc_id
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              WHERE a.tk = 'table' AND b.tk = 'scan'
              UNION ALL
              SELECT CAST(3 AS BIGINT) AS phrase_id, a.doc_id
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
              WHERE a.tk = 'batch' AND b.tk = 'batch'
                AND c.tk = 'batch'),
            cnt AS (SELECT phrase_id, doc_id, COUNT(*) AS n_matches
                    FROM m GROUP BY phrase_id, doc_id),
            rk AS (SELECT phrase_id, doc_id, n_matches,
                          ROW_NUMBER() OVER (PARTITION BY phrase_id
                              ORDER BY n_matches DESC, doc_id) AS rank
                   FROM cnt)
            SELECT phrase_id, doc_id, n_matches, rank
            FROM rk WHERE rank <= 5 ORDER BY phrase_id, rank
        """,
        "user_value_locf": """
            WITH e AS (SELECT user_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                              event_id,
                              CASE WHEN event_type = 'purchase'
                                   THEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT) END AS obs
                       FROM events),
            f AS (SELECT user_id, obs,
                         last_value(obs IGNORE NULLS) OVER (
                             PARTITION BY user_id ORDER BY ts_us, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS filled
                  FROM e)
            SELECT user_id, COUNT(*) AS n_events, COUNT(obs) AS n_observed,
                   COUNT(filled) AS n_filled,
                   CAST(COALESCE(SUM(filled), 0) AS BIGINT) AS sum_filled
            FROM f GROUP BY user_id ORDER BY user_id
        """,
        "events_user_bloom_lookup": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            k AS (SELECT user_id FROM u
                  ORDER BY CAST(('0x' ||
                      substr(md5(CAST(user_id AS VARCHAR)), 1, 15))
                      AS BIGINT), user_id
                  LIMIT 3)
            SELECT e.user_id, COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(e.value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM events e JOIN k USING (user_id)
            GROUP BY e.user_id ORDER BY e.user_id
        """,
        "orders_time_travel": """
            WITH h AS (SELECT o_orderkey, o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            v0 AS (SELECT o_orderkey, 0 AS version, 'U' AS op,
                          o_totalprice AS price FROM orders),
            v1 AS (SELECT o_orderkey, 1 AS version,
                          CASE WHEN hb < 100 THEN 'D' ELSE 'U' END AS op,
                          o_totalprice + 10.0 AS price
                   FROM h WHERE hb < 300),
            v2 AS (SELECT o_orderkey, 2 AS version,
                          CASE WHEN hb >= 200 THEN 'D' ELSE 'U' END AS op,
                          o_totalprice + 20.0 AS price
                   FROM h WHERE hb >= 50 AND hb < 250),
            allr AS (SELECT * FROM v0 UNION ALL SELECT * FROM v1
                     UNION ALL SELECT * FROM v2),
            latest AS (SELECT *, ROW_NUMBER() OVER (
                           PARTITION BY o_orderkey
                           ORDER BY version DESC) AS rn
                       FROM allr)
            SELECT o_orderkey,
                   CAST(FLOOR(price * 100.0 + 0.5) AS BIGINT)
                       AS total_cents,
                   CAST(version AS BIGINT) AS version
            FROM latest WHERE rn = 1 AND op = 'U'
            ORDER BY o_orderkey
        """,
        "join_key_inference": """
            WITH
            p0 AS (SELECT
                (SELECT COUNT(DISTINCT user_id) FROM events) AS nc,
                (SELECT COUNT(DISTINCT c_custkey) FROM customer) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT user_id AS v FROM events) a
                    JOIN (SELECT DISTINCT c_custkey AS v FROM customer) b
                    USING (v)) AS ni),
            p1 AS (SELECT
                (SELECT COUNT(DISTINCT o_custkey) FROM orders) AS nc,
                (SELECT COUNT(DISTINCT c_custkey) FROM customer) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT o_custkey AS v FROM orders) a
                    JOIN (SELECT DISTINCT c_custkey AS v FROM customer) b
                    USING (v)) AS ni),
            p2 AS (SELECT
                (SELECT COUNT(DISTINCT l_orderkey) FROM lineitem) AS nc,
                (SELECT COUNT(DISTINCT o_orderkey) FROM orders) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT l_orderkey AS v FROM lineitem) a
                    JOIN (SELECT DISTINCT o_orderkey AS v FROM orders) b
                    USING (v)) AS ni),
            p3 AS (SELECT
                (SELECT COUNT(DISTINCT l_partkey) FROM lineitem) AS nc,
                (SELECT COUNT(DISTINCT p_partkey) FROM part) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT l_partkey AS v FROM lineitem) a
                    JOIN (SELECT DISTINCT p_partkey AS v FROM part) b
                    USING (v)) AS ni),
            p4 AS (SELECT
                (SELECT COUNT(DISTINCT c_custkey) FROM customer) AS nc,
                (SELECT COUNT(DISTINCT user_id) FROM events) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT c_custkey AS v FROM customer) a
                    JOIN (SELECT DISTINCT user_id AS v FROM events) b
                    USING (v)) AS ni),
            p5 AS (SELECT
                (SELECT COUNT(DISTINCT event_id) FROM events) AS nc,
                (SELECT COUNT(DISTINCT o_orderkey) FROM orders) AS np,
                (SELECT COUNT(*) FROM
                    (SELECT DISTINCT event_id AS v FROM events) a
                    JOIN (SELECT DISTINCT o_orderkey AS v FROM orders) b
                    USING (v)) AS ni)
            SELECT CAST(0 AS BIGINT) AS pair_id, 'events' AS child_table,
                   'user_id' AS child_col, 'customer' AS parent_table,
                   'c_custkey' AS parent_col, nc AS n_child_distinct,
                   np AS n_parent_distinct, ni AS n_contained,
                   1000000 * ni // nc AS containment_ppm FROM p0
            UNION ALL
            SELECT 1, 'orders', 'o_custkey', 'customer', 'c_custkey',
                   nc, np, ni, 1000000 * ni // nc FROM p1
            UNION ALL
            SELECT 2, 'lineitem', 'l_orderkey', 'orders', 'o_orderkey',
                   nc, np, ni, 1000000 * ni // nc FROM p2
            UNION ALL
            SELECT 3, 'lineitem', 'l_partkey', 'part', 'p_partkey',
                   nc, np, ni, 1000000 * ni // nc FROM p3
            UNION ALL
            SELECT 4, 'customer', 'c_custkey', 'events', 'user_id',
                   nc, np, ni, 1000000 * ni // nc FROM p4
            UNION ALL
            SELECT 5, 'events', 'event_id', 'orders', 'o_orderkey',
                   nc, np, ni, 1000000 * ni // nc FROM p5
            ORDER BY pair_id
        """,
        "events_fd_audit": """
            WITH d AS (
              SELECT 0 AS pair_id, CAST(event_id AS VARCHAR) AS det,
                     CAST(user_id AS VARCHAR) AS dep FROM events
              UNION ALL
              SELECT 1, CAST(user_id AS VARCHAR), event_type FROM events
              UNION ALL
              SELECT 2, event_type, CAST(user_id AS VARCHAR) FROM events),
            g AS (SELECT pair_id, det, COUNT(DISTINCT dep) AS n_dep
                  FROM d GROUP BY pair_id, det)
            SELECT CAST(pair_id AS BIGINT) AS pair_id,
                   CASE pair_id WHEN 0 THEN 'event_id'
                        WHEN 1 THEN 'user_id'
                        ELSE 'event_type' END AS det_col,
                   CASE pair_id WHEN 0 THEN 'user_id'
                        WHEN 1 THEN 'event_type'
                        ELSE 'user_id' END AS dep_col,
                   CAST(COUNT(*) AS BIGINT) AS n_groups,
                   CAST(SUM(CASE WHEN n_dep > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_violating,
                   CAST(MAX(n_dep) AS BIGINT) AS max_distinct_dep,
                   CAST(CASE WHEN SUM(CASE WHEN n_dep > 1 THEN 1
                                      ELSE 0 END) = 0
                        THEN 1 ELSE 0 END AS BIGINT) AS holds
            FROM g GROUP BY pair_id ORDER BY pair_id
        """,
        "url_canonical_dedup": """
            WITH raw AS (
              SELECT o_orderkey AS k,
                     CAST(('0x' || substr(md5(CAST(o_orderkey
                          AS VARCHAR)), 1, 8)) AS BIGINT) % 1000 AS hb
              FROM orders),
            urls AS (
              SELECT 'https://shop.example.com/item/' || k AS url
              FROM raw
              UNION ALL
              SELECT 'HTTPS://SHOP.Example.COM:443/item/' || k || '/'
              FROM raw WHERE hb < 200
              UNION ALL
              SELECT 'https://shop.example.com/item/' || k
                     || '?utm_source=feed&utm_id=9#sec'
              FROM raw WHERE hb < 200
              UNION ALL
              SELECT 'https://shop.example.com/item/' || k || '?b=2&a=1'
              FROM raw WHERE hb < 100
              UNION ALL
              SELECT 'https://shop.example.com/item/' || k
                     || '?a=1&b=2#x'
              FROM raw WHERE hb < 100),
            nofrag AS (SELECT url, regexp_replace(url, '#.*$', '') AS s
                       FROM urls),
            parts AS (
              SELECT url,
                     CASE WHEN strpos(s, '?') > 0
                          THEN substr(s, 1, strpos(s, '?') - 1)
                          ELSE s END AS base,
                     CASE WHEN strpos(s, '?') > 0
                          THEN substr(s, strpos(s, '?') + 1)
                          ELSE '' END AS q
              FROM nofrag),
            comp AS (
              SELECT url,
                     regexp_extract(base, '^[^/]+//[^/]+') AS pre,
                     substr(base, length(regexp_extract(base,
                            '^[^/]+//[^/]+')) + 1) AS rest,
                     list_sort(list_filter(string_split(q, '&'),
                         x -> x <> '' AND NOT starts_with(x, 'utm_')))
                         AS ps
              FROM parts),
            canon AS (
              SELECT url,
                     replace(lower(pre), ':443', '') || rtrim(rest, '/')
                     || CASE WHEN len(ps) > 0
                             THEN '?' || array_to_string(ps, '&')
                             ELSE '' END AS canonical_url
              FROM comp)
            SELECT canonical_url, CAST(COUNT(*) AS BIGINT) AS n_variants,
                   MIN(url) AS first_url
            FROM canon GROUP BY canonical_url ORDER BY canonical_url
        """,
        "user_credit_balance": """
            WITH e AS (SELECT user_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                              event_id,
                              CASE WHEN event_type = 'purchase'
                                   THEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT)
                                   ELSE -500 END AS d
                       FROM events),
            p AS (SELECT user_id, ts_us, event_id,
                         SUM(d) OVER (PARTITION BY user_id
                             ORDER BY ts_us, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS pd
                  FROM e),
            q AS (SELECT user_id, ts_us, event_id, pd,
                         MIN(pd) OVER (PARTITION BY user_id
                             ORDER BY ts_us, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS mn
                  FROM p),
            s AS (SELECT user_id, ts_us, event_id,
                         pd - LEAST(0, mn) AS bal,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY ts_us DESC, event_id DESC) AS rn
                  FROM q)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(MAX(bal) AS BIGINT) AS peak_balance,
                   CAST(MAX(CASE WHEN rn = 1 THEN bal END) AS BIGINT)
                       AS final_balance
            FROM s GROUP BY user_id ORDER BY user_id
        """,
        "customer_scd2_orders": """
            WITH h AS (SELECT c_custkey, c_mktsegment,
                              CAST(('0x' || substr(md5(CAST(c_custkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM customer),
            v AS (SELECT c_custkey,
                         CAST(631152000000000 AS BIGINT) AS vts,
                         c_mktsegment AS segment FROM h
                  UNION ALL
                  SELECT c_custkey, 804556800000000, 'MIGRATED'
                  FROM h WHERE hb < 300
                  UNION ALL
                  SELECT c_custkey, 836179200000000, 'CHURNED'
                  FROM h WHERE hb < 100),
            iv AS (SELECT c_custkey, segment, vts,
                          LEAD(vts, 1,
                               CAST(9223372036854775807 AS BIGINT))
                              OVER (PARTITION BY c_custkey
                                    ORDER BY vts) AS vend
                   FROM v),
            j AS (SELECT iv.segment, o.o_totalprice
                  FROM orders o JOIN iv
                    ON o.o_custkey = iv.c_custkey
                   AND CAST(epoch_us(o.o_orderdate) AS BIGINT) >= iv.vts
                   AND CAST(epoch_us(o.o_orderdate) AS BIGINT) < iv.vend)
            SELECT segment, CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                        AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM j GROUP BY segment ORDER BY segment
        """,
        "purchase_markov_attribution": f"""
            WITH ev AS (SELECT user_id, event_type, ts, event_id
                        FROM events),
            seq AS (SELECT user_id, event_type,
                           LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
                    FROM ev),
            trans AS (SELECT prev AS from_state, event_type AS to_state,
                             CAST(COUNT(*) AS BIGINT) AS n
                      FROM seq
                      WHERE prev IS NOT NULL AND prev <> 'purchase'
                      GROUP BY 1, 2),
            lasts AS (SELECT user_id, event_type,
                             ROW_NUMBER() OVER (PARTITION BY user_id
                                 ORDER BY ts DESC, event_id DESC) AS rn
                      FROM ev),
            ends AS (SELECT event_type AS from_state,
                            '__END__' AS to_state,
                            CAST(COUNT(*) AS BIGINT) AS n
                     FROM lasts
                     WHERE rn = 1 AND event_type <> 'purchase'
                     GROUP BY 1),
            alltr AS (SELECT * FROM trans UNION ALL SELECT * FROM ends
                      UNION ALL
                      SELECT 'purchase', 'purchase',
                             CAST(1 AS BIGINT)),
            rs AS (SELECT from_state, CAST(SUM(n) AS BIGINT) AS rowsum
                   FROM alltr GROUP BY 1),
            t AS (SELECT a.from_state, a.to_state,
                         1000000 * a.n // r.rowsum AS p_fp
                  FROM alltr a JOIN rs r USING (from_state)),
            firsts AS (SELECT user_id, event_type,
                              ROW_NUMBER() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
                       FROM ev),
            starts AS (SELECT event_type AS state,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM firsts WHERE rn = 1 GROUP BY 1),
            tot AS (SELECT CAST(SUM(n) AS BIGINT) AS tn FROM starts),
            chans AS (SELECT DISTINCT event_type AS removed FROM events
                      WHERE event_type <> 'purchase'),
            allrem AS (SELECT removed FROM chans
                       UNION ALL SELECT '__none__'),
            w0 AS (SELECT c.removed, s.state,
                          CAST((1000000 * s.n // t2.tn) * 1000000
                               AS BIGINT) AS mass
                   FROM starts s CROSS JOIN tot t2 CROSS JOIN allrem c
                   WHERE s.state <> c.removed),
{_mk_steps}
            conv AS (SELECT removed, mass FROM w16
                     WHERE state = 'purchase'),
            fconv AS (SELECT mass AS fm FROM conv
                      WHERE removed = '__none__')
            SELECT c.removed AS channel, f.fm AS conv_full_fp,
                   CAST(COALESCE(v.mass, 0) AS BIGINT)
                       AS conv_removed_fp,
                   CAST(CASE WHEN f.fm = 0 THEN 0
                        ELSE 1000000 * (f.fm - COALESCE(v.mass, 0))
                             // f.fm END AS BIGINT)
                       AS removal_effect_micro
            FROM chans c CROSS JOIN fconv f
            LEFT JOIN conv v ON v.removed = c.removed
            ORDER BY channel
        """,
        "token_skipgram_counts": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOKS}) AS tk,
                                generate_subscripts({_TOKS}, 1) AS pos
                         FROM documents WHERE len(trim(text)) > 0),
            p AS (SELECT a.tk AS w1, b.tk AS w2,
                         CAST(b.pos - a.pos AS BIGINT) AS dist
                  FROM tok a JOIN tok b ON b.doc_id = a.doc_id
                   AND b.pos - a.pos BETWEEN 1 AND 2),
            c AS (SELECT w1, w2, dist, CAST(COUNT(*) AS BIGINT) AS cnt
                  FROM p GROUP BY 1, 2, 3),
            r AS (SELECT *, ROW_NUMBER() OVER (ORDER BY cnt DESC, w1,
                      w2, dist) AS rn
                  FROM c)
            SELECT w1, w2, dist, cnt FROM r WHERE rn <= 40
            ORDER BY cnt DESC, w1, w2, dist
        """,
        "doc_weighted_sample": """
            WITH d AS (SELECT doc_id, n_chars,
                              CAST(('0x' || substr(md5(CAST(doc_id
                                   AS VARCHAR)), 1, 15)) AS BIGINT) AS h
                       FROM documents),
            p AS (SELECT doc_id, n_chars,
                         -ln((h + 1) / 1152921504606846976.0)
                             / (n_chars + 1) AS prio
                  FROM d),
            r AS (SELECT doc_id, n_chars,
                         ROW_NUMBER() OVER (ORDER BY prio, doc_id)
                             AS rank
                  FROM p)
            SELECT doc_id, n_chars, rank FROM r WHERE rank <= 100
            ORDER BY rank
        """,
        "order_value_ntile": """
            WITH o AS (SELECT o_orderpriority,
                              CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT) AS cents, o_orderkey
                       FROM orders),
            t AS (SELECT o_orderpriority, cents,
                         CAST(NTILE(4) OVER (PARTITION BY o_orderpriority
                              ORDER BY cents, o_orderkey) AS BIGINT)
                             AS tile
                  FROM o)
            SELECT o_orderpriority, tile,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(MIN(cents) AS BIGINT) AS min_cents,
                   CAST(MAX(cents) AS BIGINT) AS max_cents
            FROM t GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "part_hierarchy_rollup": """
            WITH RECURSIVE anc(node, anc) AS (
                SELECT p_partkey, p_partkey FROM part
                UNION ALL
                SELECT a.node, a.anc // 4 FROM anc a WHERE a.anc >= 1),
            c AS (SELECT p_partkey AS node,
                         CAST(FLOOR(p_retailprice * 100.0 + 0.5)
                              AS BIGINT) AS cents
                  FROM part)
            SELECT a.anc, CAST(COUNT(*) AS BIGINT) AS n_nodes,
                   CAST(SUM(c.cents) AS BIGINT) AS subtree_cents
            FROM anc a JOIN c ON c.node = a.node
            GROUP BY a.anc ORDER BY a.anc
        """,
        "events_hourly_autocorr": """
            WITH e AS (SELECT CAST(epoch_us(ts) AS BIGINT)
                              // 3600000000 AS hr FROM events),
            c AS (SELECT hr, CAST(COUNT(*) AS BIGINT) AS n
                  FROM e GROUP BY hr),
            bounds AS (SELECT MIN(hr) AS lo, MAX(hr) AS hi FROM c),
            spine AS (SELECT UNNEST(generate_series(lo, hi)) AS hr
                      FROM bounds),
            s AS (SELECT hr, COALESCE(c.n, 0) AS n
                  FROM spine LEFT JOIN c USING (hr)),
            lags AS (SELECT CAST(1 AS BIGINT) AS lag
                     UNION ALL SELECT 24),
            p AS (SELECT l.lag, a.n AS x, b2.n AS y
                  FROM lags l CROSS JOIN s a
                  JOIN s b2 ON b2.hr = a.hr + l.lag),
            m AS (SELECT lag, CAST(COUNT(*) AS BIGINT) AS n,
                         SUM(CAST(x AS HUGEINT)) AS sx,
                         SUM(CAST(y AS HUGEINT)) AS sy,
                         SUM(CAST(x AS HUGEINT) * x) AS sxx,
                         SUM(CAST(y AS HUGEINT) * y) AS syy,
                         SUM(CAST(x AS HUGEINT) * y) AS sxy
                  FROM p GROUP BY lag)
            SELECT lag, n AS n_pairs,
                   CASE WHEN n <= 1 OR n * sxx - sx * sx <= 0
                             OR n * syy - sy * sy <= 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
                             / SQRT(CAST(n * syy - sy * sy AS DOUBLE))
                   END AS acf
            FROM m ORDER BY lag
        """,
        "events_dow_hour_profile": """
            SELECT CAST(isodow(ts) AS BIGINT) AS dow,
                   CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hour,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_srm_check": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            a AS (SELECT user_id,
                         CAST(('0x' || substr(md5(CAST(user_id
                              AS VARCHAR)), 1, 8)) AS BIGINT) % 2 AS arm
                  FROM u),
            c AS (SELECT arm, CAST(COUNT(*) AS BIGINT) AS n_users
                  FROM a GROUP BY arm),
            arms AS (SELECT UNNEST(generate_series(0, 1)) AS arm),
            f AS (SELECT arms.arm, COALESCE(c.n_users, 0) AS n_users
                  FROM arms LEFT JOIN c USING (arm)),
            t AS (SELECT CAST(SUM(n_users) AS BIGINT) AS total FROM f),
            d AS (SELECT CAST(SUM((2 * n_users - total)
                               * (2 * n_users - total)) AS BIGINT) AS dev
                  FROM f CROSS JOIN t)
            SELECT f.arm, f.n_users, t.total AS total_users,
                   d.dev AS dev_sq_sum,
                   CAST(3841 AS BIGINT) AS crit_milli,
                   CAST(CASE WHEN 1000 * d.dev > 3841 * 2 * t.total
                        THEN 1 ELSE 0 END AS BIGINT) AS srm_flag
            FROM f CROSS JOIN t CROSS JOIN d ORDER BY f.arm
        """,
        "orders_weekday_index": """
            WITH d AS (SELECT CAST(isodow(o_orderdate) AS BIGINT) AS dow,
                              CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT) AS cents
                       FROM orders),
            a AS (SELECT dow, CAST(COUNT(*) AS BIGINT) AS n_orders,
                         CAST(SUM(cents) AS BIGINT) AS revenue_cents
                  FROM d GROUP BY dow),
            t AS (SELECT CAST(SUM(revenue_cents) AS BIGINT) AS total
                  FROM a)
            SELECT dow, n_orders, revenue_cents,
                   CAST(1000000 * 7 * CAST(revenue_cents AS HUGEINT)
                        // t.total AS BIGINT) AS index_micro
            FROM a CROSS JOIN t ORDER BY dow
        """,
        "events_interarrival_cv": """
            WITH e AS (SELECT event_type, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us
                       FROM events),
            l AS (SELECT event_type,
                         ts_us - LAG(ts_us) OVER (
                             PARTITION BY event_type
                             ORDER BY ts_us, event_id) AS g
                  FROM e),
            m AS (SELECT event_type,
                         CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(g) AS BIGINT) AS s1,
                         SUM(CAST(g AS HUGEINT) * g) AS s2
                  FROM l WHERE g IS NOT NULL GROUP BY event_type)
            SELECT event_type, n AS n_gaps,
                   s1 // n AS mean_gap_us,
                   CASE WHEN n <= 1 OR s1 = 0 THEN NULL
                        ELSE SQRT(CAST(CAST(n * s2 -
                                 CAST(s1 AS HUGEINT) * s1 AS VARCHAR)
                                 AS DOUBLE)
                                 / CAST(n * (n - 1) AS DOUBLE))
                             / (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
                   END AS cv
            FROM m ORDER BY event_type
        """,
        "customer_segment_migration": """
            WITH h AS (SELECT c_mktsegment,
                              CAST(('0x' || substr(md5(CAST(c_custkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM customer)
            SELECT c_mktsegment AS from_segment,
                   CASE WHEN hb < 100 THEN 'CHURNED'
                        WHEN hb < 300 THEN 'MIGRATED'
                        ELSE c_mktsegment END AS to_segment,
                   CAST(COUNT(*) AS BIGINT) AS n_customers
            FROM h GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_type_peak_hour": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) AS BIGINT)
                              // 3600000000 AS hr,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            m AS (SELECT event_type, MAX(n) AS mx FROM c
                  GROUP BY event_type)
            SELECT c.event_type, c.hr AS peak_hour, c.n AS n_events
            FROM c JOIN m ON m.event_type = c.event_type
                         AND c.n = m.mx
            ORDER BY c.event_type, c.hr
        """,
        "orders_bitemporal_state": """
            WITH h AS (SELECT o_orderkey, o_custkey, o_orderdate,
                              o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            v0 AS (SELECT o_orderkey, o_custkey, o_orderdate,
                          0 AS version, 'U' AS op,
                          o_totalprice AS price FROM orders),
            v1 AS (SELECT o_orderkey, o_custkey, o_orderdate,
                          1 AS version,
                          CASE WHEN hb < 100 THEN 'D' ELSE 'U' END AS op,
                          o_totalprice + 10.0 AS price
                   FROM h WHERE hb < 300),
            allr AS (SELECT * FROM v0 UNION ALL SELECT * FROM v1),
            latest AS (SELECT *, ROW_NUMBER() OVER (
                           PARTITION BY o_orderkey
                           ORDER BY version DESC) AS rn
                       FROM allr),
            facts AS (SELECT o_custkey,
                             CAST(epoch_us(o_orderdate) AS BIGINT)
                                 AS ots,
                             CAST(FLOOR(price * 100.0 + 0.5) AS BIGINT)
                                 AS cents
                      FROM latest WHERE rn = 1 AND op = 'U'),
            ch AS (SELECT c_custkey, c_mktsegment,
                          CAST(('0x' || substr(md5(CAST(c_custkey
                               AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                              AS hb
                   FROM customer),
            dim AS (SELECT c_custkey,
                           CAST(631152000000000 AS BIGINT) AS vts,
                           c_mktsegment AS segment FROM ch
                    UNION ALL
                    SELECT c_custkey, 804556800000000, 'MIGRATED'
                    FROM ch WHERE hb < 300
                    UNION ALL
                    SELECT c_custkey, 836179200000000, 'CHURNED'
                    FROM ch WHERE hb < 100),
            iv AS (SELECT c_custkey, segment, vts,
                          LEAD(vts, 1,
                               CAST(9223372036854775807 AS BIGINT))
                              OVER (PARTITION BY c_custkey
                                    ORDER BY vts) AS vend
                   FROM dim)
            SELECT iv.segment, CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(f.cents) AS BIGINT) AS revenue_cents
            FROM facts f JOIN iv
              ON f.o_custkey = iv.c_custkey
             AND f.ots >= iv.vts AND f.ots < iv.vend
            GROUP BY iv.segment ORDER BY iv.segment
        """,
        "part_hierarchy_paths": """
            WITH RECURSIVE p(node, cur, path) AS (
                SELECT p_partkey, p_partkey,
                       CAST(p_partkey AS VARCHAR) FROM part
                UNION ALL
                SELECT node, cur // 4,
                       CAST(cur // 4 AS VARCHAR) || '/' || path
                FROM p WHERE cur >= 1)
            SELECT node, path,
                   CAST(length(path) - length(replace(path, '/', ''))
                        AS BIGINT) AS depth
            FROM p WHERE cur = 0 ORDER BY node
        """,
        "part_subtree_revenue": """
            WITH RECURSIVE p(node, cur, path) AS (
                SELECT p_partkey, p_partkey,
                       CAST(p_partkey AS VARCHAR) FROM part
                UNION ALL
                SELECT node, cur // 4,
                       CAST(cur // 4 AS VARCHAR) || '/' || path
                FROM p WHERE cur >= 1),
            lab AS (SELECT node, path FROM p WHERE cur = 0),
            c AS (SELECT p_partkey AS node,
                         CAST(FLOOR(p_retailprice * 100.0 + 0.5)
                              AS BIGINT) AS cents
                  FROM part),
            s AS (SELECT c.cents FROM lab JOIN c USING (node)
                  WHERE lab.path LIKE '0/1/%' OR lab.path = '0/1')
            SELECT CAST(1 AS BIGINT) AS subtree_root,
                   CAST(COUNT(*) AS BIGINT) AS n_nodes,
                   CAST(SUM(cents) AS BIGINT) AS subtree_cents
            FROM s
        """,
        "supplier_late_wilson": """
            WITH j AS (SELECT l.l_suppkey,
                              CASE WHEN CAST(epoch_us(l.l_shipdate)
                                   AS BIGINT)
                                   - CAST(epoch_us(o.o_orderdate)
                                          AS BIGINT) > 6480000000000
                                   THEN 1 ELSE 0 END AS late
                       FROM lineitem l
                       JOIN orders o ON o.o_orderkey = l.l_orderkey),
            a AS (SELECT CAST(l_suppkey AS BIGINT) AS l_suppkey,
                         CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(late) AS BIGINT) AS k
                  FROM j GROUP BY 1),
            w AS (SELECT l_suppkey, n, k,
                         CAST(k AS DOUBLE) / CAST(n AS DOUBLE) AS p
                  FROM a)
            SELECT l_suppkey, n, k, p AS late_rate,
                   ((p + 1.96e0 * 1.96e0 / (2.0e0 * n))
                    + 1.96e0 * sqrt(p * (1.0e0 - p) / n
                                    + 1.96e0 * 1.96e0
                                      / (4.0e0 * n * n)))
                   / (1.0e0 + 1.96e0 * 1.96e0 / n) AS wilson_hi
            FROM w ORDER BY l_suppkey
        """,
        "top_supplier_revenue": """
            WITH r AS (SELECT l_suppkey AS s_suppkey,
                              CAST(SUM(CAST(FLOOR(l_extendedprice
                                   * (1.0 - l_discount) * 100.0 + 0.5)
                                   AS BIGINT)) AS BIGINT)
                                  AS total_revenue_cents
                       FROM lineitem
                       WHERE l_shipdate >= DATE '1996-01-01'
                         AND l_shipdate < DATE '1996-04-01'
                       GROUP BY 1),
            m AS (SELECT MAX(total_revenue_cents) AS mx FROM r)
            SELECT s.s_suppkey, s.s_name, r.total_revenue_cents
            FROM r JOIN supplier s ON s.s_suppkey = r.s_suppkey
                 CROSS JOIN m
            WHERE r.total_revenue_cents = m.mx
            ORDER BY s.s_suppkey
        """,
        "token_zipf_slope": f"""
            WITH toks AS (SELECT unnest({_TOKS}) AS token
                          FROM documents WHERE trim(text) <> ''),
            tc AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
                   FROM toks GROUP BY 1),
            top AS (SELECT cnt, ROW_NUMBER() OVER (ORDER BY cnt DESC,
                                                   token) AS r
                    FROM tc),
            lp AS (SELECT CAST(FLOOR(ln(CAST(r AS DOUBLE))
                                     * 1000000.0) AS BIGINT) AS lx,
                          CAST(FLOOR(ln(CAST(cnt AS DOUBLE))
                                     * 1000000.0) AS BIGINT) AS ly
                   FROM top WHERE r <= 1000),
            m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n,
                         SUM(CAST(lx AS HUGEINT)) AS sx,
                         SUM(CAST(ly AS HUGEINT)) AS sy,
                         SUM(CAST(lx AS HUGEINT) * lx) AS sxx,
                         SUM(CAST(lx AS HUGEINT) * ly) AS sxy
                  FROM lp),
            s AS (SELECT n, sx, sy,
                         CAST(n*sxy - sx*sy AS DOUBLE)
                             / CAST(n*sxx - sx*sx AS DOUBLE) AS slope
                  FROM m)
            SELECT CAST(n AS BIGINT) AS n_points, slope,
                   (CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE))
                       / CAST(n AS DOUBLE) AS intercept_micronats
            FROM s
        """,
        "token_burstiness": f"""
            WITH toks AS (SELECT doc_id, unnest({_TOKS}) AS token
                          FROM documents WHERE trim(text) <> ''),
            dt AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS c
                   FROM toks GROUP BY 1, 2),
            d AS (SELECT CAST(COUNT(*) AS BIGINT) AS nd FROM documents),
            tk AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS df,
                          CAST(SUM(c) AS BIGINT) AS s,
                          CAST(SUM(c*c) AS BIGINT) AS s2
                   FROM dt GROUP BY 1),
            ky AS (SELECT token, df, s, s2,
                          CAST(d.nd * s2 - s*s AS DOUBLE)
                              / CAST(s * (d.nd - 1) AS DOUBLE) AS vmr
                   FROM tk CROSS JOIN d WHERE s >= 30),
            r AS (SELECT token, df, s AS total_count, s2 AS sum_sq, vmr,
                         ROW_NUMBER() OVER (ORDER BY vmr DESC, token)
                             AS rank
                  FROM ky)
            SELECT token, df, total_count, sum_sq, vmr, rank
            FROM r WHERE rank <= 20 ORDER BY rank
        """,
        "user_overlap_kmv": """
            WITH u AS (SELECT user_id,
                              CAST(MAX(CASE WHEN event_type = 'purchase'
                                   THEN 1 ELSE 0 END) AS BIGINT) AS ia,
                              CAST(MAX(CASE WHEN event_type = 'view'
                                   THEN 1 ELSE 0 END) AS BIGINT) AS ib
                       FROM events GROUP BY 1),
            f AS (SELECT user_id, ia, ib, ia*ib AS inb
                  FROM u WHERE ia + ib > 0),
            t AS (SELECT CAST(SUM(ia) AS BIGINT) AS na,
                         CAST(SUM(ib) AS BIGINT) AS nb,
                         CAST(SUM(inb) AS BIGINT) AS ni,
                         CAST(COUNT(*) AS BIGINT) AS nu
                  FROM f),
            h AS (SELECT inb,
                         CAST(('0x' || substr(md5(CAST(user_id
                              AS VARCHAR)), 1, 8)) AS BIGINT) AS hv,
                         ROW_NUMBER() OVER (ORDER BY
                             CAST(('0x' || substr(md5(CAST(user_id
                                  AS VARCHAR)), 1, 8)) AS BIGINT),
                             user_id) AS rn
                  FROM f),
            s AS (SELECT MAX(CASE WHEN rn = LEAST((SELECT nu FROM t),
                                                  256)
                                  THEN hv END) AS kth,
                         CAST(SUM(CASE WHEN rn <= 256 THEN inb
                                       ELSE 0 END) AS BIGINT) AS in_both
                  FROM h),
            est AS (SELECT t.na, t.nb, t.ni, t.nu, s.kth, s.in_both,
                           CASE WHEN t.nu < 256 THEN CAST(t.nu AS DOUBLE)
                                ELSE CAST(255 AS DOUBLE) * 4294967296.0
                                     / CAST(s.kth AS DOUBLE)
                           END AS union_est,
                           CASE WHEN t.nu < 256 THEN
                                    CASE WHEN t.nu > 0
                                         THEN CAST(t.ni AS DOUBLE)
                                              / CAST(t.nu AS DOUBLE)
                                         ELSE 0.0 END
                                ELSE CAST(s.in_both AS DOUBLE)
                                     / CAST(256 AS DOUBLE)
                           END AS jaccard_est
                    FROM t CROSS JOIN s)
            SELECT na AS n_purchasers, nb AS n_viewers,
                   ni AS n_inter_exact, nu AS n_union_exact,
                   kth AS kth_hash, in_both AS sketch_in_both,
                   union_est, jaccard_est,
                   jaccard_est * union_est AS inter_est
            FROM est
        """,
        "source_keyness_tokens": f"""
            WITH toks AS (SELECT source, unnest({_TOKS}) AS token
                          FROM documents WHERE trim(text) <> ''),
            st AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS a
                   FROM toks GROUP BY 1, 2),
            tt AS (SELECT token, CAST(SUM(a) AS BIGINT) AS ct
                   FROM st GROUP BY 1),
            srct AS (SELECT source, CAST(SUM(a) AS BIGINT) AS na
                     FROM st GROUP BY 1),
            tot AS (SELECT CAST(SUM(a) AS BIGINT) AS n FROM st),
            sc AS (SELECT st.source, st.token, st.a AS a,
                          tt.ct - st.a AS b, srct.na AS na,
                          tot.n - srct.na AS nb, tot.n AS n
                   FROM st JOIN tt USING (token)
                        JOIN srct USING (source) CROSS JOIN tot),
            ky AS (SELECT source, token, a, b,
                          2.0 * (CAST(a AS DOUBLE)
                                 * ln(CAST(a*n AS DOUBLE)
                                      / CAST(na*(a+b) AS DOUBLE))
                                 + CASE WHEN b > 0
                                        THEN CAST(b AS DOUBLE)
                                             * ln(CAST(b*n AS DOUBLE)
                                                  / CAST(nb*(a+b)
                                                         AS DOUBLE))
                                        ELSE 0.0 END) AS keyness
                   FROM sc WHERE a + b >= 5 AND a * nb > b * na),
            r AS (SELECT source, token, a AS n_source, b AS n_rest,
                         keyness,
                         ROW_NUMBER() OVER (PARTITION BY source
                             ORDER BY keyness DESC, token) AS rank
                  FROM ky)
            SELECT source, token, n_source, n_rest, keyness, rank
            FROM r WHERE rank <= 5 ORDER BY source, rank
        """,
        "events_hourly_ewma": """
            WITH RECURSIVE h AS (
                SELECT event_type,
                       CAST(epoch_us(ts) AS BIGINT) // 3600000000
                           AS hour,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM events GROUP BY 1, 2),
            idx AS (SELECT event_type, hour, c,
                           ROW_NUMBER() OVER (PARTITION BY event_type
                               ORDER BY hour) AS i
                    FROM h),
            rec(event_type, hour, c, i, s) AS (
                SELECT event_type, hour, c, i, c * 1000000
                FROM idx WHERE i = 1
                UNION ALL
                SELECT n.event_type, n.hour, n.c, n.i,
                       (3 * rec.s + n.c * 1000000) // 4
                FROM rec JOIN idx n ON n.event_type = rec.event_type
                     AND n.i = rec.i + 1
            )
            SELECT event_type, hour, c AS n_events,
                   CAST(s AS BIGINT) AS ewma_fp
            FROM rec
        """,
        "part_revenue_abc": """
            WITH r AS (SELECT l_partkey,
                              CAST(SUM(CAST(FLOOR(l_extendedprice
                                   * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
                                  AS revenue_cents
                       FROM lineitem GROUP BY 1),
            t AS (SELECT CAST(SUM(revenue_cents) AS BIGINT) AS total
                  FROM r),
            c AS (SELECT l_partkey, revenue_cents,
                         CAST(SUM(revenue_cents) OVER (
                             ORDER BY revenue_cents DESC, l_partkey
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
                             AS cum_cents
                  FROM r)
            SELECT c.l_partkey, c.revenue_cents, c.cum_cents,
                   CASE WHEN c.cum_cents * 100 <= 80 * t.total THEN 'A'
                        WHEN c.cum_cents * 100 <= 95 * t.total THEN 'B'
                        ELSE 'C' END AS abc_class
            FROM c CROSS JOIN t
        """,
        "orderkey_gaps": """
            WITH k AS (SELECT o_orderkey AS k,
                              LAG(o_orderkey) OVER (ORDER BY o_orderkey)
                                  AS prev_k
                       FROM orders
                       WHERE o_orderpriority = '1-URGENT')
            SELECT prev_k + 1 AS gap_start, k - 1 AS gap_end,
                   k - prev_k - 1 AS width
            FROM k WHERE prev_k IS NOT NULL AND k - prev_k > 1
        """,
        "user_ctr_shrunk": """
            WITH u AS (SELECT user_id,
                              CAST(COUNT(*) FILTER (WHERE event_type
                                   = 'view') AS BIGINT) AS n_views,
                              CAST(COUNT(*) FILTER (WHERE event_type
                                   = 'click') AS BIGINT) AS n_clicks
                       FROM events GROUP BY 1),
            m AS (SELECT CAST(CAST(SUM(n_clicks) AS BIGINT) AS DOUBLE)
                         / CAST(CAST(SUM(n_views) AS BIGINT) AS DOUBLE)
                             AS m
                  FROM u)
            SELECT user_id, n_views, n_clicks,
                   CASE WHEN n_views > 0
                        THEN CAST(n_clicks AS DOUBLE)
                             / CAST(n_views AS DOUBLE)
                        ELSE 0.0 END AS ctr_raw,
                   (CAST(n_clicks AS DOUBLE) + 20.0 * m.m)
                       / (CAST(n_views AS DOUBLE) + 20.0) AS ctr_shrunk
            FROM u CROSS JOIN m
        """,
        "session_bounce_rates": """
            WITH e AS (SELECT user_id, event_type, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us
                       FROM events),
            l AS (SELECT *, CASE WHEN LAG(ts_us) OVER w IS NULL
                                   OR ts_us - LAG(ts_us) OVER w
                                      > 1800000000
                                 THEN 1 ELSE 0 END AS new_s
                  FROM e
                  WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts_us, event_id)),
            s AS (SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                      ORDER BY ts_us, event_id
                      ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, sid
                      ORDER BY ts_us, event_id) AS rn
                  FROM s),
            g AS (SELECT user_id, sid, CAST(COUNT(*) AS BIGINT) AS len
                  FROM r GROUP BY 1, 2),
            en AS (SELECT user_id, sid, event_type AS entry_type
                   FROM r WHERE rn = 1)
            SELECT en.entry_type,
                   CAST(COUNT(*) AS BIGINT) AS n_sessions,
                   CAST(COUNT(*) FILTER (WHERE g.len = 1) AS BIGINT)
                       AS n_bounces,
                   CAST(COUNT(*) FILTER (WHERE g.len = 1) AS DOUBLE)
                       / CAST(COUNT(*) AS DOUBLE) AS bounce_rate
            FROM g JOIN en ON en.user_id = g.user_id AND en.sid = g.sid
            GROUP BY 1
        """,
        "order_ship_lag_quantiles": """
            WITH f AS (SELECT l_orderkey,
                              MIN(CAST(epoch_us(l_shipdate) AS BIGINT))
                                  AS ship_us
                       FROM lineitem GROUP BY 1),
            lag AS (SELECT o.o_orderpriority AS priority,
                           (f.ship_us
                            - CAST(epoch_us(o.o_orderdate) AS BIGINT))
                           // 86400000000 AS lag_days
                    FROM orders o JOIN f ON f.l_orderkey = o.o_orderkey)
            SELECT priority, COUNT(*) AS n,
                   quantile_disc(lag_days, 0.5) AS p50_days,
                   quantile_disc(lag_days, 0.95) AS p95_days
            FROM lag GROUP BY 1
        """,
        "sessions_peak_concurrency": """
            WITH e AS (SELECT user_id, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us
                       FROM events),
            l AS (SELECT *, CASE WHEN LAG(ts_us) OVER w IS NULL
                                   OR ts_us - LAG(ts_us) OVER w
                                      > 1800000000
                                 THEN 1 ELSE 0 END AS new_s
                  FROM e
                  WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts_us, event_id)),
            s AS (SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                      ORDER BY ts_us, event_id
                      ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l),
            iv AS (SELECT user_id, sid, MIN(ts_us) AS start_us,
                          MAX(ts_us) AS end_us
                   FROM s GROUP BY 1, 2),
            sw AS (SELECT start_us AS ts_us, 0 AS kind, 1 AS delta
                   FROM iv
                   UNION ALL SELECT end_us, 1, -1 FROM iv),
            c AS (SELECT ts_us, kind,
                         SUM(delta) OVER (ORDER BY ts_us, kind
                             ROWS UNBOUNDED PRECEDING) AS active
                  FROM sw)
            SELECT CAST(active AS BIGINT) AS peak_sessions,
                   CAST(ts_us AS BIGINT) AS at_us
            FROM c ORDER BY active DESC, ts_us LIMIT 1
        """,
        "orders_join_ivm": """
            WITH l AS (SELECT l_orderkey,
                              CASE WHEN CAST(('0x' || substr(md5(CAST(
                                       l_orderkey AS VARCHAR)), 1, 8))
                                       AS BIGINT) % 10 = 0
                                   THEN 1 ELSE 0 END AS is_delta,
                              CAST(FLOOR(l_extendedprice * 100.0 + 0.5)
                                   AS BIGINT) AS cents
                       FROM lineitem),
            j AS (SELECT o.o_orderpriority AS priority, l.is_delta,
                         l.cents
                  FROM l JOIN orders o ON o.o_orderkey = l.l_orderkey)
            SELECT priority,
                   CAST(SUM(1 - is_delta) AS BIGINT) AS n_base,
                   CAST(SUM(is_delta) AS BIGINT) AS n_delta,
                   CAST(COUNT(*) AS BIGINT) AS n_maintained,
                   CAST(SUM(cents) AS BIGINT) AS cents_maintained
            FROM j GROUP BY 1
        """,
        "region_revenue_rollup": """
            SELECT r.r_name AS region, n.n_name AS nation,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o.o_totalprice * 100.0 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
                 JOIN nation n ON n.n_nationkey = c.c_nationkey
                 JOIN region r ON r.r_regionkey = n.n_regionkey
            GROUP BY ROLLUP(r.r_name, n.n_name)
        """,
        "purchase_position_attribution": """
            WITH pr AS (
                SELECT p.event_id AS purchase_id, v.event_id AS view_id,
                       p.user_id,
                       (CAST(epoch_us(p.ts) AS BIGINT)
                        - CAST(epoch_us(v.ts) AS BIGINT)) AS lag
                FROM events p JOIN events v ON p.user_id = v.user_id
                WHERE p.event_type = 'purchase'
                  AND v.event_type = 'view'
                  AND v.ts <= p.ts
                  AND v.ts >= p.ts - INTERVAL 60 MINUTE
            ),
            rk AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY purchase_id
                       ORDER BY lag DESC, view_id) AS rn,
                       COUNT(*) OVER (PARTITION BY purchase_id) AS n
                   FROM pr),
            cr AS (SELECT user_id,
                          CASE WHEN n = 1 THEN 1000000
                               WHEN n = 2 THEN 500000
                               WHEN rn = 1 THEN 400000
                               WHEN rn = n THEN 400000
                               WHEN rn = 2 THEN 200000 // (n - 2)
                                    + 200000 - (200000 // (n - 2))
                                      * (n - 2)
                               ELSE 200000 // (n - 2)
                          END AS uc
                   FROM rk)
            SELECT user_id, CAST(SUM(uc) AS BIGINT) AS ucredits
            FROM cr GROUP BY 1
        """,
        "event_sequence_patterns": """
            WITH ut AS (SELECT user_id, event_type,
                               MIN(CAST(epoch_us(ts) AS BIGINT)) AS mn,
                               MAX(CAST(epoch_us(ts) AS BIGINT)) AS mx
                        FROM events GROUP BY 1, 2)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM ut a JOIN ut b ON a.user_id = b.user_id
                 AND a.event_type <> b.event_type
            WHERE a.mn < b.mx
            GROUP BY 1, 2
        """,
        "session_top_paths": """
            WITH e AS (SELECT user_id, event_type, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ts_us
                       FROM events),
            l AS (SELECT *, CASE WHEN LAG(ts_us) OVER w IS NULL
                                   OR ts_us - LAG(ts_us) OVER w
                                      > 1800000000
                                 THEN 1 ELSE 0 END AS new_s
                  FROM e
                  WINDOW w AS (PARTITION BY user_id
                               ORDER BY ts_us, event_id)),
            s AS (SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                      ORDER BY ts_us, event_id
                      ROWS UNBOUNDED PRECEDING) AS sid
                  FROM l),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, sid
                      ORDER BY ts_us, event_id) AS rn
                  FROM s),
            p AS (SELECT user_id, sid,
                         string_agg(event_type, '>' ORDER BY rn) AS path
                  FROM r WHERE rn <= 3 GROUP BY 1, 2)
            SELECT path, CAST(COUNT(*) AS BIGINT) AS n_sessions
            FROM p GROUP BY 1
            ORDER BY n_sessions DESC, path
            LIMIT 20
        """,
        "part_supplier_hhi": """
            WITH c AS (SELECT l_partkey, l_suppkey,
                              CAST(COUNT(*) AS BIGINT) AS c
                       FROM lineitem GROUP BY 1, 2),
            a AS (SELECT l_partkey, CAST(SUM(c) AS BIGINT) AS t,
                         CAST(SUM(c * c) AS BIGINT) AS ss,
                         CAST(COUNT(*) AS BIGINT) AS n_suppliers
                  FROM c GROUP BY 1)
            SELECT l_partkey, t AS n_lineitems, n_suppliers,
                   CAST(ss AS DOUBLE) / CAST(t * t AS DOUBLE) AS hhi
            FROM a
        """,
        "events_adoption_curve": """
            WITH f AS (SELECT user_id,
                              MIN(CAST(epoch_us(ts) AS BIGINT))
                                  // 86400000000 AS day
                       FROM events GROUP BY 1),
            d AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS n_new
                  FROM f GROUP BY 1)
            SELECT day, n_new,
                   CAST(SUM(n_new) OVER (ORDER BY day
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_cum
            FROM d
        """,
        "events_conformal_coverage": """
            WITH e AS (SELECT event_type,
                              CAST(('0x' || substr(md5(CAST(event_id
                                         AS VARCHAR)), 1, 8)) AS BIGINT)
                                  % 2 AS par,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS cents
                       FROM events),
            m AS (SELECT event_type,
                         CAST(SUM(CASE WHEN par = 0 THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_a,
                         CAST(SUM(CASE WHEN par = 0 THEN cents ELSE 0
                                  END) AS BIGINT) AS s_a
                  FROM e GROUP BY 1),
            sc AS (SELECT e.event_type, e.par,
                          ABS(e.cents * m.n_a - m.s_a) AS s
                   FROM e JOIN m ON m.event_type = e.event_type),
            a AS (SELECT event_type, s,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY s) AS rn,
                         COUNT(*) OVER (PARTITION BY event_type) AS n_a
                  FROM sc WHERE par = 0),
            q AS (SELECT event_type, CAST(MAX(n_a) AS BIGINT) AS n_cal,
                         CAST(COALESCE(
                             MIN(CASE WHEN rn >=
                                 (9 * (n_a + 1) + 9) // 10
                                 THEN s END),
                             MAX(s)) AS BIGINT) AS qhat_scaled
                  FROM a GROUP BY event_type),
            c AS (SELECT sc.event_type,
                         CAST(COUNT(*) AS BIGINT) AS n_eval,
                         CAST(COUNT(*) FILTER (WHERE sc.s
                              <= q.qhat_scaled) AS BIGINT) AS n_covered
                  FROM sc JOIN q ON q.event_type = sc.event_type
                  WHERE sc.par = 1
                  GROUP BY 1)
            SELECT q.event_type, q.n_cal,
                   CAST(COALESCE(c.n_eval, 0) AS BIGINT) AS n_eval,
                   q.qhat_scaled,
                   CAST(COALESCE(c.n_covered, 0) AS BIGINT) AS n_covered
            FROM q LEFT JOIN c ON c.event_type = q.event_type
        """,
        "customer_part_recs": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b, c FROM counted WHERE c >= 2),
            sym AS (SELECT a AS part, b AS cand, c AS w FROM e
                    UNION ALL SELECT b, a, c FROM e),
            owned AS (SELECT DISTINCT o.o_custkey AS custkey,
                             l.l_partkey AS part
                      FROM orders o JOIN lineitem l
                           ON l.l_orderkey = o.o_orderkey),
            sc AS (SELECT ow.custkey, s.cand,
                          CAST(SUM(s.w) AS BIGINT) AS score
                   FROM owned ow JOIN sym s ON s.part = ow.part
                   GROUP BY 1, 2),
            fresh AS (SELECT * FROM sc WHERE NOT EXISTS (
                          SELECT 1 FROM owned ow
                          WHERE ow.custkey = sc.custkey
                            AND ow.part = sc.cand)),
            r AS (SELECT custkey, cand AS rec_part, score,
                         ROW_NUMBER() OVER (PARTITION BY custkey
                             ORDER BY score DESC, cand) AS rank
                  FROM fresh)
            SELECT custkey, rec_part, score, CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 3
        """,
        "doc_novelty_scores": """
            WITH t AS (SELECT doc_id,
                              regexp_split_to_array(trim(text), '\\s+')
                                  AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            g AS (SELECT doc_id,
                         list_distinct(list_transform(
                             generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' '
                                  || toks[i+2])) AS gs
                  FROM t WHERE len(toks) >= 3),
            p AS (SELECT doc_id, unnest(gs) AS gram FROM g),
            f AS (SELECT gram, MIN(doc_id) AS first_doc
                  FROM p GROUP BY 1)
            SELECT p.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
                   CAST(COUNT(*) FILTER (WHERE p.doc_id = f.first_doc)
                        AS BIGINT) AS n_novel
            FROM p JOIN f ON f.gram = p.gram
            GROUP BY 1
        """,
        "events_cuped_estimate": """
            WITH u AS (SELECT user_id,
                              CAST(SUM(CASE WHEN event_type = 'purchase'
                                   AND CAST(epoch_us(ts) AS BIGINT)
                                       < 1705406400000000
                                   THEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT)
                                   ELSE 0 END) AS BIGINT) AS x,
                              CAST(SUM(CASE WHEN event_type = 'purchase'
                                   AND CAST(epoch_us(ts) AS BIGINT)
                                       >= 1705406400000000
                                   THEN CAST(FLOOR(value * 100.0 + 0.5)
                                             AS BIGINT)
                                   ELSE 0 END) AS BIGINT) AS y
                       FROM events GROUP BY 1),
            m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(x * x) AS BIGINT) AS sxx,
                         CAST(SUM(x * y) AS BIGINT) AS sxy
                  FROM u),
            t AS (SELECT CASE WHEN n * sxx - sx * sx = 0 THEN 0.0
                              ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                                   / CAST(n * sxx - sx * sx AS DOUBLE)
                         END AS theta,
                         CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS mu
                  FROM m),
            a AS (SELECT CAST(('0x' || substr(md5(CAST(u.user_id
                                  AS VARCHAR)), 1, 8)) AS BIGINT) % 2
                             AS variant,
                         u.y,
                         CAST(FLOOR(1000000.0
                             * (CAST(u.y AS DOUBLE)
                                - t.theta * (CAST(u.x AS DOUBLE)
                                             - t.mu)) + 0.5) AS BIGINT)
                             AS adj
                  FROM u CROSS JOIN t)
            SELECT variant, CAST(COUNT(*) AS BIGINT) AS n_users,
                   CAST(CAST(SUM(y) AS BIGINT) AS DOUBLE)
                       / CAST(COUNT(*) AS DOUBLE) AS mean_y_cents,
                   CAST(CAST(SUM(adj) AS BIGINT) AS DOUBLE)
                       / CAST(COUNT(*) AS DOUBLE) AS mean_adj_ucents
            FROM a GROUP BY 1
        """,
        "events_markov_stationary": """
            WITH l AS (SELECT user_id, event_type,
                              LAG(event_type) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS from_type
                       FROM events),
            tr AS (SELECT from_type, event_type AS to_type,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM l WHERE from_type IS NOT NULL GROUP BY 1, 2),
            r AS (SELECT from_type, CAST(SUM(n) AS BIGINT) AS rs
                  FROM tr GROUP BY 1),
            ty AS (SELECT from_type AS t FROM r),
            kk AS (SELECT CAST(COUNT(*) AS BIGINT) AS k FROM ty),
            p0 AS (SELECT t, 1000000000000 // kk.k AS v
                   FROM ty CROSS JOIN kk),
            p1 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p0.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p0 JOIN tr ON tr.from_type = p0.t
                       JOIN r ON r.from_type = p0.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p2 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p1.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p1 JOIN tr ON tr.from_type = p1.t
                       JOIN r ON r.from_type = p1.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p3 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p2.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p2 JOIN tr ON tr.from_type = p2.t
                       JOIN r ON r.from_type = p2.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p4 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p3.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p3 JOIN tr ON tr.from_type = p3.t
                       JOIN r ON r.from_type = p3.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p5 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p4.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p4 JOIN tr ON tr.from_type = p4.t
                       JOIN r ON r.from_type = p4.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p6 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p5.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p5 JOIN tr ON tr.from_type = p5.t
                       JOIN r ON r.from_type = p5.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p7 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p6.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p6 JOIN tr ON tr.from_type = p6.t
                       JOIN r ON r.from_type = p6.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p8 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p7.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p7 JOIN tr ON tr.from_type = p7.t
                       JOIN r ON r.from_type = p7.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p9 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p8.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p8 JOIN tr ON tr.from_type = p8.t
                       JOIN r ON r.from_type = p8.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1),
            p10 AS (SELECT tr.to_type AS t,
                         CAST(SUM(p9.v * tr.n // r.rs) AS BIGINT) AS v
                  FROM p9 JOIN tr ON tr.from_type = p9.t
                       JOIN r ON r.from_type = p9.t
                  WHERE tr.to_type IN (SELECT t FROM ty)
                  GROUP BY 1)
            SELECT ty.t AS event_type,
                   CAST(COALESCE(p10.v, 0) AS BIGINT) AS stationary_fp
            FROM ty LEFT JOIN p10 ON p10.t = ty.t
        """,
        "user_conversion_survival": """
            WITH h AS (SELECT CAST(MAX(epoch_us(ts)) AS BIGINT)
                           AS horizon FROM events),
            fv AS (SELECT user_id, CAST(MIN(epoch_us(ts)) AS BIGINT)
                       AS t0
                   FROM events WHERE event_type = 'view' GROUP BY 1),
            cv AS (SELECT e.user_id,
                          CAST(MIN(epoch_us(e.ts)) AS BIGINT) AS ct
                   FROM events e JOIN fv ON fv.user_id = e.user_id
                   WHERE e.event_type = 'purchase'
                     AND CAST(epoch_us(e.ts) AS BIGINT) >= fv.t0
                   GROUP BY 1),
            f AS (SELECT fv.user_id, fv.t0, cv.ct, h.horizon
                  FROM fv LEFT JOIN cv USING (user_id) CROSS JOIN h),
            d AS (SELECT CASE WHEN ct IS NOT NULL
                              THEN (ct - t0) // 86400000000
                              ELSE (horizon - t0) // 86400000000
                         END AS day,
                         CASE WHEN ct IS NOT NULL THEN 1 ELSE 0 END
                             AS conv
                  FROM f),
            g AS (SELECT day, CAST(SUM(conv) AS BIGINT) AS n_converted,
                         CAST(SUM(1 - conv) AS BIGINT) AS n_censored
                  FROM d GROUP BY 1)
            SELECT day,
                   CAST(SUM(n_converted + n_censored) OVER (
                       ORDER BY day DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS BIGINT) AS n_at_risk,
                   n_converted, n_censored
            FROM g
        """,
        "events_hourly_changepoint": """
            WITH e AS (SELECT event_type,
                              CAST(epoch_us(ts) AS BIGINT) // 3600000000
                                  AS hour
                       FROM events),
            hh AS (SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS c
                   FROM e GROUP BY 1, 2),
            c AS (SELECT event_type, hour,
                         CAST(SUM(c) OVER w AS BIGINT) AS sl,
                         CAST(SUM(c * c) OVER w AS BIGINT) AS sxxl,
                         CAST(COUNT(*) OVER w AS BIGINT) AS nl,
                         CAST(SUM(c) OVER p AS BIGINT) AS s,
                         CAST(SUM(c * c) OVER p AS BIGINT) AS sxx,
                         CAST(COUNT(*) OVER p AS BIGINT) AS n
                  FROM hh
                  WINDOW w AS (PARTITION BY event_type ORDER BY hour
                               ROWS UNBOUNDED PRECEDING),
                         p AS (PARTITION BY event_type)),
            s AS (SELECT event_type, hour AS split_hour,
                         (CAST(sxxl AS DOUBLE)
                          - CAST(sl * sl AS DOUBLE) / CAST(nl AS DOUBLE))
                         + (CAST(sxx - sxxl AS DOUBLE)
                            - CAST((s - sl) * (s - sl) AS DOUBLE)
                              / CAST(n - nl AS DOUBLE)) AS cost
                  FROM c WHERE nl < n),
            rr AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY event_type
                       ORDER BY cost, split_hour) AS rn
                   FROM s)
            SELECT event_type, split_hour, cost FROM rr WHERE rn = 1
        """,
        "orders_cohort_ltv": """
            WITH o AS (SELECT o_custkey,
                              CAST(12 * EXTRACT(YEAR FROM o_orderdate)
                                   + EXTRACT(MONTH FROM o_orderdate) - 1
                                   AS BIGINT) AS mi,
                              CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT) AS cents
                       FROM orders),
            c AS (SELECT o_custkey, MIN(mi) AS cohort_month
                  FROM o GROUP BY 1)
            SELECT c.cohort_month, o.mi - c.cohort_month AS months_since,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(o.cents) AS BIGINT) AS revenue_cents
            FROM o JOIN c ON c.o_custkey = o.o_custkey
            GROUP BY 1, 2
        """,
        "events_watermark_hourly": """
            WITH a AS (
                SELECT user_id, event_id, event_type,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents,
                       event_id
                       + CAST(('0x' || substr(md5(CAST(event_id
                                      AS VARCHAR)), 1, 8)) AS BIGINT)
                         % 200 AS arr,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ), w AS (
                SELECT event_type, cents, ts_us,
                       MAX(ts_us) OVER (
                           PARTITION BY user_id ORDER BY arr, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm_us
                FROM a
            )
            SELECT event_type,
                   ts_us // 3600000000 AS epoch_hour,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(cents) AS BIGINT) AS value_cents
            FROM w
            WHERE wm_us IS NULL OR ts_us >= wm_us - 3600000000
            GROUP BY 1, 2
        """,
        "part_substring_search": """
            WITH q AS (SELECT unnest(['ring', 'sma', 'idget', 'olt',
                                      'blue']) AS query)
            SELECT q.query, p.p_partkey
            FROM part p CROSS JOIN q
            WHERE p.p_name LIKE '%' || q.query || '%'
        """,
        "token_trending": """
            WITH d AS (SELECT doc_id,
                              CAST(('0x' || substr(md5(CAST(doc_id
                                         AS VARCHAR)), 1, 8)) AS BIGINT)
                                  % 2 AS w,
                              regexp_split_to_array(trim(text), '\\s+')
                                  AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            t AS (SELECT w, unnest(toks) AS token FROM d),
            c AS (SELECT token,
                         CAST(COUNT(*) FILTER (WHERE w = 0) AS BIGINT)
                             AS c_a,
                         CAST(COUNT(*) FILTER (WHERE w = 1) AS BIGINT)
                             AS c_b
                  FROM t GROUP BY token)
            SELECT token, c_a, c_b,
                   CAST(c_b + 1 AS DOUBLE) / CAST(c_a + 1 AS DOUBLE)
                       AS trend_ratio
            FROM c
            ORDER BY trend_ratio DESC, token
            LIMIT 25
        """,
        "copurchase_edge_support": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM e e1 JOIN e e2 ON e2.a = e1.b
                     JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ),
            te AS (SELECT x AS pa, y AS pb FROM tri
                   UNION ALL SELECT x, z FROM tri
                   UNION ALL SELECT y, z FROM tri),
            sup AS (SELECT pa, pb, CAST(COUNT(*) AS BIGINT)
                        AS n_triangles
                    FROM te GROUP BY 1, 2)
            SELECT e.a AS part_a, e.b AS part_b,
                   CAST(COALESCE(sup.n_triangles, 0) AS BIGINT)
                       AS n_triangles
            FROM e LEFT JOIN sup ON sup.pa = e.a AND sup.pb = e.b
        """,
        "embedding_dbscan": """
            WITH RECURSIVE q AS (
                SELECT vec_id,
                       list_transform(embedding,
                           x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1048576.0
                                           + 0.5) AS BIGINT)) AS qv
                FROM embeddings),
            p AS (
                SELECT a.vec_id AS ia, b.vec_id AS ib
                FROM q a JOIN q b ON a.vec_id < b.vec_id
                WHERE CAST(list_sum(list_transform(
                          generate_series(1, len(a.qv)),
                          i -> (a.qv[i] - b.qv[i])
                               * (a.qv[i] - b.qv[i]))) AS BIGINT)
                      <= 1583296240681
            ),
            dirs AS (SELECT ia AS v, ib AS o FROM p
                     UNION ALL SELECT ib, ia FROM p),
            deg AS (SELECT v, COUNT(*) + 1 AS n FROM dirs GROUP BY v),
            flags AS (SELECT e.vec_id,
                             CASE WHEN COALESCE(d.n, 1) >= 5
                                  THEN 1 ELSE 0 END AS is_core
                      FROM (SELECT vec_id FROM embeddings) e
                      LEFT JOIN deg d ON d.v = e.vec_id),
            cores AS (SELECT vec_id FROM flags WHERE is_core = 1),
            ce AS (SELECT ia, ib FROM p
                   WHERE ia IN (SELECT vec_id FROM cores)
                     AND ib IN (SELECT vec_id FROM cores)),
            cesym AS (SELECT ia AS src, ib AS dst FROM ce
                      UNION ALL SELECT ib, ia FROM ce),
            reach(node, r) AS (
                SELECT vec_id, vec_id FROM cores
                UNION
                SELECT reach.node, cesym.dst
                FROM reach JOIN cesym ON cesym.src = reach.r),
            cc AS (SELECT node, MIN(r) AS cluster_id
                   FROM reach GROUP BY node),
            border AS (SELECT d.v AS vec_id,
                              CAST(MIN(cc.cluster_id) AS BIGINT)
                                  AS cluster_id,
                              CAST(0 AS BIGINT) AS is_core
                       FROM dirs d JOIN cc ON cc.node = d.o
                       WHERE d.v NOT IN (SELECT vec_id FROM cores)
                       GROUP BY d.v),
            assigned AS (
                SELECT node AS vec_id, CAST(cluster_id AS BIGINT)
                           AS cluster_id, CAST(1 AS BIGINT) AS is_core
                FROM cc
                UNION ALL SELECT vec_id, cluster_id, is_core FROM border)
            SELECT vec_id, cluster_id, is_core FROM assigned
            UNION ALL
            SELECT e.vec_id, CAST(-1 AS BIGINT), CAST(0 AS BIGINT)
            FROM embeddings e
            WHERE e.vec_id NOT IN (SELECT vec_id FROM assigned)
        """,
        "events_kanonymity": """
            WITH uc AS (SELECT user_id, event_type,
                               CAST(COUNT(*) AS BIGINT) AS c
                        FROM events GROUP BY 1, 2),
            modal AS (SELECT user_id, event_type AS modal_type,
                             ROW_NUMBER() OVER (PARTITION BY user_id
                                 ORDER BY c DESC, event_type) AS rn
                      FROM uc),
            qi AS (SELECT t.user_id, t.n_events, m.modal_type
                   FROM (SELECT user_id, CAST(SUM(c) AS BIGINT)
                             AS n_events
                         FROM uc GROUP BY 1) t
                   JOIN modal m ON m.user_id = t.user_id AND m.rn = 1),
            cls AS (SELECT n_events, modal_type,
                           CAST(COUNT(*) AS BIGINT) AS class_size
                    FROM qi GROUP BY 1, 2)
            SELECT class_size, CAST(COUNT(*) AS BIGINT) AS n_classes,
                   CAST(SUM(class_size) AS BIGINT) AS n_users,
                   CAST(CASE WHEN class_size < 5 THEN 1 ELSE 0 END
                        AS BIGINT) AS at_risk
            FROM cls GROUP BY class_size
        """,
        "events_dp_counts": """
            WITH c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT)
                           AS n_events
                       FROM events GROUP BY 1),
            u AS (SELECT event_type, n_events,
                         CAST(('0x' || substr(md5(event_type), 1, 15))
                              AS BIGINT) % 1099511627776 AS u40
                  FROM c),
            k AS (SELECT event_type, n_events,
                         CAST(CASE
                             WHEN u40 < 3121904 THEN -12
                             WHEN u40 < 11608119 THEN -11
                             WHEN u40 < 34676044 THEN -10
                             WHEN u40 < 97381167 THEN -9
                             WHEN u40 < 267831360 THEN -8
                             WHEN u40 < 731163025 THEN -7
                             WHEN u40 < 1990629070 THEN -6
                             WHEN u40 < 5414212734 THEN -5
                             WHEN u40 < 14720477996 THEN -4
                             WHEN u40 < 40017529749 THEN -3
                             WHEN u40 < 108782045841 THEN -2
                             WHEN u40 < 295703380377 THEN -1
                             WHEN u40 < 803808247398 THEN 0
                             WHEN u40 < 990729581934 THEN 1
                             WHEN u40 < 1059494098026 THEN 2
                             WHEN u40 < 1084791149779 THEN 3
                             WHEN u40 < 1094097415041 THEN 4
                             WHEN u40 < 1097520998705 THEN 5
                             WHEN u40 < 1098780464750 THEN 6
                             WHEN u40 < 1099243796415 THEN 7
                             WHEN u40 < 1099414246608 THEN 8
                             WHEN u40 < 1099476951731 THEN 9
                             WHEN u40 < 1099500019656 THEN 10
                             WHEN u40 < 1099508505871 THEN 11
                             ELSE 12 END AS BIGINT) AS dp_noise
                  FROM u)
            SELECT event_type, n_events, dp_noise,
                   n_events + dp_noise AS dp_count
            FROM k
        """,
        "part_components": """
            WITH RECURSIVE counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            nodes AS (SELECT DISTINCT src AS node FROM sym),
            reach(node, r) AS (
                SELECT node, node FROM nodes
                UNION
                SELECT reach.node, sym.dst
                FROM reach JOIN sym ON sym.src = reach.r
            )
            SELECT node AS part, CAST(MIN(r) AS BIGINT) AS component
            FROM reach GROUP BY node
        """,
        "events_value_mad_outliers": """
            WITH e AS (SELECT event_type,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS cents
                       FROM events),
            v AS (SELECT event_type, cents,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY cents) - 1 AS i,
                         COUNT(*) OVER (PARTITION BY event_type) AS n
                  FROM e),
            m AS (SELECT event_type, CAST(MAX(n) AS BIGINT) AS n,
                         CAST(SUM(CASE WHEN i = (n - 1) // 2
                                       THEN cents ELSE 0 END)
                            + SUM(CASE WHEN i = n // 2
                                       THEN cents ELSE 0 END)
                              AS BIGINT) AS med2
                  FROM v GROUP BY event_type),
            d AS (SELECT e.event_type,
                         ABS(2 * e.cents - m.med2) AS dev
                  FROM e JOIN m ON m.event_type = e.event_type),
            dv AS (SELECT event_type, dev,
                          ROW_NUMBER() OVER (PARTITION BY event_type
                              ORDER BY dev) - 1 AS i,
                          COUNT(*) OVER (PARTITION BY event_type) AS n
                   FROM d),
            md AS (SELECT event_type,
                          CAST(SUM(CASE WHEN i = (n - 1) // 2
                                        THEN dev ELSE 0 END)
                             + SUM(CASE WHEN i = n // 2
                                        THEN dev ELSE 0 END)
                               AS BIGINT) AS mad2
                   FROM dv GROUP BY event_type)
            SELECT m.event_type, m.n AS n_events, m.med2 AS med2_cents,
                   md.mad2 AS mad2_cents,
                   CAST(COUNT(*) FILTER (WHERE
                       2 * ABS(2 * e.cents - m.med2) > 3 * md.mad2)
                       AS BIGINT) AS n_outliers
            FROM e JOIN m ON m.event_type = e.event_type
                   JOIN md ON md.event_type = e.event_type
            GROUP BY 1, 2, 3, 4
        """,
        "part_price_stump": """
            WITH p AS (SELECT CAST(FLOOR(p_retailprice * 100.0 + 0.5)
                                   AS BIGINT) AS cents,
                              CASE WHEN p_type IN ('SMALL', 'ECONOMY')
                                   THEN 1 ELSE 0 END AS y
                       FROM part),
            h AS (SELECT cents, CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(y) AS BIGINT) AS pos
                  FROM p GROUP BY 1),
            c AS (SELECT cents,
                         CAST(SUM(n) OVER w AS BIGINT) AS n_left,
                         CAST(SUM(pos) OVER w AS BIGINT) AS pos_left,
                         CAST((SELECT SUM(n) FROM h) AS BIGINT) AS nt,
                         CAST((SELECT SUM(pos) FROM h) AS BIGINT) AS pt
                  FROM h
                  WINDOW w AS (ORDER BY cents ROWS UNBOUNDED PRECEDING)),
            s AS (SELECT cents AS split_cents, n_left, pos_left,
                         nt - n_left AS n_right, pt - pos_left AS pos_right
                  FROM c WHERE n_left < nt)
            SELECT split_cents, n_left, pos_left, n_right, pos_right,
                   (CAST(n_left AS DOUBLE)
                    - CAST(pos_left * pos_left
                           + (n_left - pos_left) * (n_left - pos_left)
                           AS DOUBLE) / CAST(n_left AS DOUBLE))
                   + (CAST(n_right AS DOUBLE)
                      - CAST(pos_right * pos_right
                             + (n_right - pos_right) * (n_right - pos_right)
                             AS DOUBLE) / CAST(n_right AS DOUBLE))
                       AS gini_weighted
            FROM s
            ORDER BY gini_weighted, split_cents
            LIMIT 1
        """,
        "shingle_containment_pairs": f"""
            WITH t AS (SELECT doc_id,
                              regexp_split_to_array(trim(text), '\\s+')
                                  AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            s AS (SELECT doc_id,
                         list_distinct(list_transform(
                             generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' '
                                  || toks[i+2])) AS sh
                  FROM t WHERE len(toks) >= 3)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.sh, b.sh)) AS BIGINT)
                       AS n_inter,
                   CAST(len(a.sh) AS BIGINT) AS size_a
            FROM s a JOIN s b ON a.doc_id <> b.doc_id
            WHERE len(list_intersect(a.sh, b.sh)) * 5 >= 4 * len(a.sh)
        """,
        "events_value_regression": """
            WITH e AS (SELECT event_type,
                              CAST(epoch_us(ts) AS BIGINT) // 3600000000
                                  - 473352 AS x,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS y
                       FROM events),
            s AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(x * y) AS BIGINT) AS sxy,
                         CAST(SUM(x * x) AS BIGINT) AS sxx
                  FROM e GROUP BY 1)
            SELECT event_type, n AS n_events,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE)
                       AS slope_cents_per_hour,
                   (CAST(sy AS DOUBLE)
                    - (CAST(n * sxy - sx * sy AS DOUBLE)
                       / CAST(n * sxx - sx * sx AS DOUBLE))
                      * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
                       AS intercept_cents
            FROM s
        """,
        "user_type_entropy": """
            WITH ut AS (SELECT user_id, event_type,
                               CAST(COUNT(*) AS BIGINT) AS c
                        FROM events GROUP BY 1, 2),
            q AS (SELECT user_id, c,
                         CAST(FLOOR(1000000.0 * c * ln(c) + 0.5)
                              AS BIGINT) AS term
                  FROM ut),
            a AS (SELECT user_id, CAST(SUM(c) AS BIGINT) AS n_events,
                         CAST(COUNT(*) AS BIGINT) AS n_types,
                         CAST(SUM(term) AS BIGINT) AS s
                  FROM q GROUP BY 1)
            SELECT user_id, n_events, n_types,
                   (CAST(FLOOR(1000000.0 * n_events * ln(n_events) + 0.5)
                         AS BIGINT) - s) // n_events AS entropy_unat
            FROM a
        """,
        "copurchase_rules": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b, c FROM counted WHERE c >= 2),
            ic AS (SELECT l_partkey AS p, CAST(COUNT(*) AS BIGINT) AS c
                   FROM lineitem GROUP BY 1),
            nl AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM lineitem),
            d AS (SELECT a AS antecedent, b AS consequent, c FROM e
                  UNION ALL SELECT b, a, c FROM e)
            SELECT d.antecedent, d.consequent, d.c AS n_copurchase,
                   CAST(d.c AS DOUBLE) / CAST(ia.c AS DOUBLE)
                       AS confidence,
                   CAST(nl.n * d.c AS DOUBLE)
                       / CAST(ia.c * ico.c AS DOUBLE) AS lift
            FROM d JOIN ic ia ON ia.p = d.antecedent
                   JOIN ic ico ON ico.p = d.consequent
                   CROSS JOIN nl
            ORDER BY confidence DESC, d.antecedent, d.consequent
            LIMIT 50
        """,
        "part_random_walks": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), e AS (SELECT a, b FROM counted WHERE c >= 2),
            sym AS (SELECT a AS src, b AS dst FROM e
                    UNION ALL SELECT b, a FROM e),
            seeds AS (SELECT DISTINCT src AS walk FROM sym
                      WHERE CAST(('0x' || substr(md5(CAST(src AS VARCHAR)),
                                                 1, 8)) AS BIGINT)
                            % 20 = 0),
            s1 AS (SELECT walk, dst AS node,
                          ROW_NUMBER() OVER (PARTITION BY walk ORDER BY
                              CAST(('0x' || substr(md5(CAST(
                                  walk * 17179869184 + 1 * 4294967296
                                  + dst AS VARCHAR)), 1, 15)) AS BIGINT),
                              dst) AS rn
                   FROM seeds JOIN sym ON sym.src = seeds.walk),
            w1 AS (SELECT walk, node FROM s1 WHERE rn = 1),
            s2 AS (SELECT w1.walk, sym.dst AS node,
                          ROW_NUMBER() OVER (PARTITION BY w1.walk ORDER BY
                              CAST(('0x' || substr(md5(CAST(
                                  w1.walk * 17179869184 + 2 * 4294967296
                                  + sym.dst AS VARCHAR)), 1, 15))
                                  AS BIGINT), sym.dst) AS rn
                   FROM w1 JOIN sym ON sym.src = w1.node),
            w2 AS (SELECT walk, node FROM s2 WHERE rn = 1),
            s3 AS (SELECT w2.walk, sym.dst AS node,
                          ROW_NUMBER() OVER (PARTITION BY w2.walk ORDER BY
                              CAST(('0x' || substr(md5(CAST(
                                  w2.walk * 17179869184 + 3 * 4294967296
                                  + sym.dst AS VARCHAR)), 1, 15))
                                  AS BIGINT), sym.dst) AS rn
                   FROM w2 JOIN sym ON sym.src = w2.node),
            w3 AS (SELECT walk, node FROM s3 WHERE rn = 1)
            SELECT walk, CAST(0 AS BIGINT) AS step, walk AS node
            FROM seeds
            UNION ALL SELECT walk, CAST(1 AS BIGINT), node FROM w1
            UNION ALL SELECT walk, CAST(2 AS BIGINT), node FROM w2
            UNION ALL SELECT walk, CAST(3 AS BIGINT), node FROM w3
        """,
        "xml_event_stats": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "bigram_logprob": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            b AS (SELECT doc_id, toks[i] AS w1, toks[i + 1] AS w2
                  FROM t, UNNEST(generate_series(1, len(toks) - 1)) AS u(i)),
            tf AS (SELECT doc_id, w1, w2, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM b GROUP BY 1, 2, 3),
            cnt2 AS (SELECT w1, w2, CAST(SUM(tf) AS BIGINT) AS c12
                     FROM tf GROUP BY 1, 2),
            cnt1 AS (SELECT w1, CAST(SUM(c12) AS BIGINT) AS c1
                     FROM cnt2 GROUP BY 1),
            s AS (SELECT tf.doc_id, tf.tf,
                         tf.tf * CAST(FLOOR(ln(CAST(c12 AS DOUBLE)
                                               / CAST(c1 AS DOUBLE)) * 1e6)
                                      AS BIGINT) AS c
                  FROM tf JOIN cnt2 USING (w1, w2) JOIN cnt1 USING (w1))
            SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS n_bigrams,
                   CAST(SUM(c) AS BIGINT) AS logprob_micronats,
                   CAST(SUM(c) AS DOUBLE) / CAST(SUM(tf) AS DOUBLE)
                       AS avg_logprob_micronats
            FROM s GROUP BY doc_id
        """,
        "bigram_kn_logprob": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            b AS (SELECT doc_id, toks[i] AS w1, toks[i + 1] AS w2
                  FROM t, UNNEST(generate_series(1, len(toks) - 1)) AS u(i)),
            tf AS (SELECT doc_id, w1, w2, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM b GROUP BY 1, 2, 3),
            cnt2 AS (SELECT w1, w2, CAST(SUM(tf) AS BIGINT) AS c12
                     FROM tf GROUP BY 1, 2),
            cnt1 AS (SELECT w1, CAST(SUM(c12) AS BIGINT) AS c1,
                            CAST(COUNT(*) AS BIGINT) AS n1p
                     FROM cnt2 GROUP BY 1),
            cw2 AS (SELECT w2, CAST(COUNT(*) AS BIGINT) AS nc
                    FROM cnt2 GROUP BY 1),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS tt FROM cnt2),
            s AS (SELECT tf.doc_id, tf.tf,
                         tf.tf * CAST(FLOOR(ln(
                             (GREATEST(CAST(c12 AS DOUBLE) - 0.75, 0.0)
                              / CAST(c1 AS DOUBLE))
                             + ((0.75 * CAST(n1p AS DOUBLE))
                                / CAST(c1 AS DOUBLE))
                               * (CAST(nc AS DOUBLE) / CAST(tt AS DOUBLE))
                         ) * 1e6) AS BIGINT) AS c
                  FROM tf JOIN cnt2 USING (w1, w2) JOIN cnt1 USING (w1)
                          JOIN cw2 USING (w2) CROSS JOIN tot)
            SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS n_bigrams,
                   CAST(SUM(c) AS BIGINT) AS logprob_micronats,
                   CAST(SUM(c) AS DOUBLE) / CAST(SUM(tf) AS DOUBLE)
                       AS avg_logprob_micronats
            FROM s GROUP BY doc_id
        """,
        "decontaminate": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            g AS (SELECT DISTINCT doc_id, g
                  FROM t, UNNEST(list_transform(
                      generate_series(1, len(toks) - 7),
                      i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                           || ' ' || toks[i+3] || ' ' || toks[i+4] || ' '
                           || toks[i+5] || ' ' || toks[i+6] || ' '
                           || toks[i+7])) AS u(g)),
            ev AS (SELECT DISTINCT g FROM g
                   WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                              1, 8)) AS BIGINT) % 1000 < 50),
            hit AS (SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams,
                           CAST(SUM(CASE WHEN ev.g IS NOT NULL
                                         THEN 1 ELSE 0 END) AS BIGINT)
                               AS n_overlap
                    FROM g LEFT JOIN ev ON g.g = ev.g GROUP BY g.doc_id)
            SELECT d.doc_id,
                   COALESCE(h.n_grams, 0) AS n_grams,
                   COALESCE(h.n_overlap, 0) AS n_overlap
            FROM documents d LEFT JOIN hit h USING (doc_id)
            WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)),
                                       1, 8)) AS BIGINT) % 1000 >= 50
        """,
        "pii_scrub": """
            WITH base AS (
                SELECT doc_id,
                       text || CASE WHEN CAST(('0x' || substr(md5(
                                        CAST(doc_id AS VARCHAR)), 1, 8))
                                        AS BIGINT) % 1000 < 300
                           THEN chr(10) || 'Contact: user' || doc_id
                                || '@example.com or 10.' || (doc_id % 256)
                                || '.' || ((doc_id // 256) % 256)
                                || '.7, call 555-' || (100 + doc_id % 900)
                                || '-' || (1000 + doc_id % 9000) || '.'
                           ELSE '' END AS t0
                FROM documents),
            s1 AS (SELECT doc_id,
                          CAST(len(regexp_extract_all(t0,
                               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                               AS BIGINT) AS n_email,
                          regexp_replace(t0,
                               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                               '<EMAIL>', 'g') AS t1
                   FROM base),
            s2 AS (SELECT doc_id, n_email,
                          CAST(len(regexp_extract_all(t1,
                               '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))
                               AS BIGINT) AS n_ip,
                          regexp_replace(t1,
                               '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                               '<IP>', 'g') AS t2
                   FROM s1)
            SELECT doc_id, n_email, n_ip,
                   CAST(len(regexp_extract_all(t2,
                        '\\b\\d{3}-\\d{3}-\\d{4}\\b')) AS BIGINT) AS n_phone,
                   regexp_replace(t2, '\\b\\d{3}-\\d{3}-\\d{4}\\b',
                                  '<PHONE>', 'g') AS text_clean
            FROM s2
        """,
        "incremental_dedup": """
            WITH m AS (SELECT (4 * (max(doc_id) + 1)) // 5 AS thr,
                              max(doc_id) + 1 AS base FROM documents),
            h AS (SELECT doc_id, md5(text) AS text_hash FROM documents),
            new AS (SELECT h.doc_id, h.text_hash FROM h, m
                    WHERE h.doc_id >= m.thr
                    UNION ALL
                    SELECT h.doc_id + m.base AS doc_id, h.text_hash
                    FROM h, m
                    WHERE CAST(('0x' || substr(md5(CAST(h.doc_id AS VARCHAR)),
                                               1, 8)) AS BIGINT) % 1000 < 100),
            old AS (SELECT DISTINCT h.text_hash FROM h, m
                    WHERE h.doc_id < m.thr),
            f AS (SELECT text_hash, CAST(min(doc_id) AS BIGINT)
                             AS first_doc_id
                  FROM new GROUP BY 1)
            SELECT n.doc_id, n.text_hash,
                   CASE WHEN o.text_hash IS NOT NULL THEN 'dup_existing'
                        WHEN n.doc_id <> f.first_doc_id THEN 'dup_batch'
                        ELSE 'new' END AS status
            FROM new n JOIN f USING (text_hash)
                 LEFT JOIN old o USING (text_hash)
        """,
        "events_value_histogram": """
            SELECT event_type,
                   CAST(FLOOR(value / 50.0) AS BIGINT) AS value_bin,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events
            GROUP BY 1, 2
        """,
        "ipc_token_stats": f"""
            SELECT doc_id,
                   CASE WHEN len(trim(text)) = 0 THEN 0
                        ELSE len({_TOKS}) END AS n_tokens,
                   len(text) AS n_chars
            FROM documents
        """,
        "jsonl_token_stats": f"""
            SELECT doc_id,
                   CASE WHEN len(trim(text)) = 0 THEN 0
                        ELSE len({_TOKS}) END AS n_tokens,
                   len(text) AS n_chars
            FROM documents
        """,
        "heavy_hitter_tokens": f"""
            WITH t AS (SELECT unnest({_TOKS}) AS token
                       FROM documents WHERE len(trim(text)) > 0),
            n AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM t)
            SELECT token, CAST(COUNT(*) AS BIGINT) AS cnt
            FROM t CROSS JOIN n
            GROUP BY token, n.total
            HAVING COUNT(*) >= CEIL(0.005 * n.total)
        """,
        "duplicate_ngram_fraction": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            g AS (SELECT DISTINCT doc_id, g
                  FROM t, UNNEST(list_transform(
                      generate_series(1, len(toks) - 2),
                      i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
                      AS u(g)),
            df AS (SELECT g, CAST(COUNT(*) AS BIGINT) AS df
                   FROM g GROUP BY g)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_grams,
                   CAST(SUM(CASE WHEN df >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup_grams,
                   CAST(SUM(CASE WHEN df >= 2 THEN 1 ELSE 0 END) AS DOUBLE)
                       / CAST(COUNT(*) AS DOUBLE) AS dup_fraction
            FROM g JOIN df USING (g)
            GROUP BY doc_id
        """,
        "source_mix_sample": """
            SELECT doc_id, source, lang, n_chars FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                       AS BIGINT) % 1000
                  < CASE CAST(substr(source, 4) AS BIGINT) % 4
                        WHEN 0 THEN 1000 WHEN 1 THEN 500
                        WHEN 2 THEN 250 ELSE 125 END
        """,
        "events_hash_sample": """
            SELECT event_id, user_id, event_type FROM events
            WHERE CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)), 1, 8))
                       AS BIGINT) % 1000 < 50
        """,
        "user_event_sample": """
            WITH h AS (SELECT user_id, event_id,
                              CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                                                   1, 8)) AS BIGINT) AS hv
                       FROM events),
            r AS (SELECT user_id, event_id,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY hv, event_id) AS sample_rank
                  FROM h)
            SELECT user_id, event_id,
                   CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r WHERE sample_rank <= 5
        """,
        "lang_balanced_sample": """
            WITH m AS (SELECT MIN(n) AS m FROM (
                           SELECT lang, COUNT(*) AS n
                           FROM documents GROUP BY lang)),
            h AS (SELECT doc_id, lang,
                         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                              1, 8)) AS BIGINT) AS hv
                  FROM documents),
            r AS (SELECT doc_id, lang,
                         ROW_NUMBER() OVER (PARTITION BY lang
                             ORDER BY hv, doc_id) AS sample_rank
                  FROM h)
            SELECT doc_id, lang,
                   CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r, m WHERE sample_rank <= m.m
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS keep_doc_id,
                   count(*) AS n_copies
            FROM documents
            GROUP BY md5(text)
        """,
        "softdedup_weights": """
            SELECT doc_id, cnt AS n_copies,
                   1000000 // cnt AS weight_ppm
            FROM (SELECT doc_id,
                         count(*) OVER (PARTITION BY md5(text)) AS cnt
                  FROM documents)
        """,
        "dup_count_histogram": """
            SELECT n_copies,
                   count(*) AS n_texts,
                   CAST(SUM(n_copies) AS BIGINT) AS n_docs
            FROM (SELECT count(*) AS n_copies
                  FROM documents GROUP BY md5(text))
            GROUP BY n_copies
        """,
        "jaccard_pairs": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            s AS (SELECT doc_id,
                         list_distinct(list_transform(generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh
                  FROM t WHERE len(toks) >= 3)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.sh, b.sh)) * 1.0
                  / (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) >= 0.5
        """,
        # prefix filtering is exact: the scale path must reproduce the
        # brute-force oracle bit-for-bit (same SQL as jaccard_pairs)
        "jaccard_prefix_pairs": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            s AS (SELECT doc_id,
                         list_distinct(list_transform(generate_series(1, len(toks) - 2),
                             i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS sh
                  FROM t WHERE len(toks) >= 3)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.sh, b.sh)) * 1.0
                  / (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) >= 0.5
        """,
        "embedding_neardup": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.4
        """,
        "knn_label_predictions": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
                              label FROM embeddings),
            nb AS (SELECT q.vec_id AS vid, e.label,
                          row_number() OVER (PARTITION BY q.vec_id
                              ORDER BY list_cosine_similarity(q.v, e.v)
                                  DESC, e.vec_id) AS rn
                   FROM e q JOIN e ON e.vec_id <> q.vec_id
                   QUALIFY rn <= 5),
            votes AS (SELECT vid, label, CAST(COUNT(*) AS BIGINT) AS n_votes
                      FROM nb GROUP BY 1, 2)
            SELECT vid AS vec_id, CAST(label AS BIGINT) AS pred_label,
                   n_votes
            FROM votes
            QUALIFY row_number() OVER (PARTITION BY vid
                ORDER BY n_votes DESC, label ASC) = 1
        """,
        "ann_topk": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
            q AS (SELECT vec_id AS qid, v AS qv FROM e ORDER BY vec_id LIMIT 5)
            SELECT qid AS query_id,
                   CAST(row_number() OVER (PARTITION BY qid
                        ORDER BY list_cosine_similarity(qv, v) DESC, vec_id) AS BIGINT) AS rank,
                   vec_id AS neighbor_id
            FROM q JOIN e ON e.vec_id <> q.qid
            QUALIFY rank <= 10
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   CAST(SUM(CAST(FLOOR((l_extendedprice * (1.0 - l_discount)) * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_revenue_cents,
                   COUNT(*) AS count_order
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1998-09-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "top_customers": """
            SELECT o_custkey AS c_custkey, c_name,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n_orders
            FROM orders JOIN customer ON c_custkey = o_custkey
            GROUP BY o_custkey, c_name
            ORDER BY total_cents DESC, c_custkey
            LIMIT 10
        """,
        "supplier_nation_counts": """
            SELECT n_name, r_name,
                   COUNT(*) AS n_suppliers,
                   CAST(SUM(CAST(FLOOR(s_acctbal * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_cents
            FROM supplier
            JOIN nation ON n_nationkey = s_nationkey
            JOIN region ON r_regionkey = n_regionkey
            GROUP BY n_name, r_name
        """,
        "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer",
        "users_both_active": """
            SELECT user_id FROM events
            INTERSECT
            SELECT o_custkey FROM orders
        """,
        "buyers_never_active": """
            SELECT o_custkey AS user_id FROM orders
            EXCEPT
            SELECT user_id FROM events
        """,
        "events_hourly": """
            SELECT event_type,
                   CAST(FLOOR(epoch(ts) / 3600.0) AS BIGINT) AS epoch_hour,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events
            GROUP BY 1, 2
        """,
        "events_hopping": """
            SELECT event_type,
                   CAST(FLOOR(epoch(ts) / 3600.0) AS BIGINT) - off AS window_hour,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events CROSS JOIN (VALUES (0), (1), (2)) AS t(off)
            GROUP BY 1, 2
        """,
        "events_asof_orders": """
            WITH o1 AS (SELECT o_custkey AS user_id,
                               CAST(epoch_us(o_orderdate) AS BIGINT) AS ord_us,
                               MAX(o_orderkey) AS o_orderkey
                        FROM orders GROUP BY 1, 2)
            SELECT e.user_id, e.event_id,
                   CAST(epoch_us(e.ts) AS BIGINT) AS ev_us,
                   o1.o_orderkey
            FROM events e
            ASOF LEFT JOIN o1
              ON e.user_id = o1.user_id
             AND CAST(epoch_us(e.ts) AS BIGINT) >= o1.ord_us
        """,
        "events_recent_orders": """
            SELECT e.user_id, e.event_id,
                   CAST(epoch_us(e.ts) AS BIGINT) AS ev_us,
                   CAST(COUNT(o.o_custkey) AS BIGINT) AS n_recent_orders
            FROM events e LEFT JOIN orders o
              ON o.o_custkey = e.user_id
             AND CAST(epoch_us(o.o_orderdate) AS BIGINT)
                 BETWEEN CAST(epoch_us(e.ts) AS BIGINT) - 2592000000000
                     AND CAST(epoch_us(e.ts) AS BIGINT)
            GROUP BY 1, 2, 3
        """,
        "events_rollup": """
            SELECT event_type,
                   CAST(FLOOR(epoch(ts) / 86400.0) AS BIGINT) AS epoch_day,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents
            FROM events
            GROUP BY ROLLUP(1, 2)
        """,
        "purchase_last_touch": """
            WITH pairs AS (
                SELECT p.event_id AS purchase_id, v.event_id AS view_id,
                       p.user_id AS user_id,
                       (CAST(epoch_us(p.ts) AS BIGINT)
                        - CAST(epoch_us(v.ts) AS BIGINT)) AS lag_us
                FROM events p JOIN events v ON p.user_id = v.user_id
                WHERE p.event_type = 'purchase' AND v.event_type = 'view'
                  AND v.ts <= p.ts
                  AND v.ts >= p.ts - INTERVAL 1440 MINUTE)
            SELECT purchase_id, view_id, user_id, lag_us
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY purchase_id
                      ORDER BY lag_us ASC, view_id ASC) AS rn
                  FROM pairs)
            WHERE rn = 1
        """,
        "purchase_view_attribution": """
            SELECT p.event_id AS purchase_id, v.event_id AS view_id,
                   p.user_id AS user_id,
                   (CAST(epoch_us(p.ts) AS BIGINT)
                    - CAST(epoch_us(v.ts) AS BIGINT)) AS lag_us
            FROM events p JOIN events v ON p.user_id = v.user_id
            WHERE p.event_type = 'purchase' AND v.event_type = 'view'
              AND v.ts <= p.ts
              AND v.ts >= p.ts - INTERVAL 60 MINUTE
        """,
        "user_day_purchase_views": """
            WITH p AS (SELECT user_id,
                              CAST(epoch_us(ts) AS BIGINT) // 86400000000
                                  AS epoch_day,
                              CAST(COUNT(*) AS BIGINT) AS n_purchases,
                              CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5)
                                            AS BIGINT)) AS BIGINT)
                                  AS purchase_cents
                       FROM events WHERE event_type = 'purchase'
                       GROUP BY 1, 2),
            v AS (SELECT user_id,
                         CAST(epoch_us(ts) AS BIGINT) // 86400000000
                             AS epoch_day,
                         CAST(COUNT(*) AS BIGINT) AS n_views
                  FROM events WHERE event_type = 'view'
                  GROUP BY 1, 2)
            SELECT p.user_id, p.epoch_day, p.n_purchases, p.purchase_cents,
                   CAST(COALESCE(v.n_views, 0) AS BIGINT) AS n_views
            FROM p LEFT JOIN v
              ON p.user_id = v.user_id AND p.epoch_day = v.epoch_day
        """,
        "events_orders_daily": """
            WITH e AS (SELECT CAST(FLOOR(epoch(ts) / 86400.0) AS BIGINT) AS epoch_day,
                              COUNT(*) AS n_events
                       FROM events GROUP BY 1),
            o AS (SELECT CAST(FLOOR(epoch(o_orderdate) / 86400.0) AS BIGINT) AS epoch_day,
                         COUNT(*) AS n_orders
                  FROM orders GROUP BY 1)
            SELECT COALESCE(e.epoch_day, o.epoch_day) AS epoch_day,
                   CAST(COALESCE(e.n_events, 0) AS BIGINT) AS n_events,
                   CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders
            FROM e FULL OUTER JOIN o ON e.epoch_day = o.epoch_day
        """,
        "priority_status_pivot": """
            SELECT o_orderpriority,
                   CAST(SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS BIGINT) AS n_F,
                   CAST(SUM(CASE WHEN o_orderstatus = 'O' THEN 1 ELSE 0 END) AS BIGINT) AS n_O,
                   CAST(SUM(CASE WHEN o_orderstatus = 'P' THEN 1 ELSE 0 END) AS BIGINT) AS n_P,
                   CAST(SUM(CASE WHEN o_orderstatus = 'F'
                            THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_F,
                   CAST(SUM(CASE WHEN o_orderstatus = 'O'
                            THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_O,
                   CAST(SUM(CASE WHEN o_orderstatus = 'P'
                            THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_P
            FROM orders
            GROUP BY o_orderpriority
        """,
        "events_recent_order_value": """
            SELECT e.user_id, e.event_id,
                   CAST(epoch_us(e.ts) AS BIGINT) AS ev_us,
                   CAST(COUNT(o.o_custkey) AS BIGINT) AS n_recent_orders,
                   CAST(COALESCE(SUM(CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)), 0) AS BIGINT) AS recent_cents
            FROM events e LEFT JOIN orders o
              ON o.o_custkey = e.user_id
             AND CAST(epoch_us(o.o_orderdate) AS BIGINT)
                 BETWEEN CAST(epoch_us(e.ts) AS BIGINT) - 2592000000000
                     AND CAST(epoch_us(e.ts) AS BIGINT)
            GROUP BY 1, 2, 3
        """,
        "customers_no_urgent_orders": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderpriority = '1-URGENT')
        """,
        "events_value_quantiles": """
            SELECT event_type, COUNT(*) AS n,
                   quantile_disc(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT), 0.5) AS p50_cents,
                   quantile_disc(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT), 0.95) AS p95_cents
            FROM events
            GROUP BY 1
        """,
        "events_value_quantiles_cont": """
            SELECT event_type, COUNT(*) AS n,
                   quantile_cont(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT), 0.5) AS p50_cents,
                   quantile_cont(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT), 0.9) AS p90_cents
            FROM events
            GROUP BY 1
        """,
        "priority_top_orders": """
            SELECT o_orderpriority, o_orderkey, total_cents, "rank" FROM (
                SELECT o_orderpriority, o_orderkey,
                       CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) AS total_cents,
                       CAST(ROW_NUMBER() OVER (
                            PARTITION BY o_orderpriority
                            ORDER BY CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) DESC,
                                     o_orderkey) AS BIGINT) AS "rank"
                FROM orders)
            WHERE "rank" <= 3
        """,
        "order_priority_revenue": """
            SELECT o_orderpriority,
                   CAST(SUM(CAST(FLOOR((l_extendedprice * (1.0 - l_discount)) * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_items
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority
        """,
        "embedding_quantize": """
            WITH e AS (SELECT vec_id,
                              generate_subscripts(embedding, 1) AS dim,
                              CAST(unnest(embedding) AS DOUBLE) AS x
                       FROM embeddings),
            mm AS (SELECT dim, min(x) AS mn, max(x) AS mx
                   FROM e GROUP BY 1),
            q AS (SELECT e.vec_id, e.dim,
                         CASE WHEN mm.mx = mm.mn THEN 0
                              ELSE CAST(LEAST(GREATEST(FLOOR(
                                   (e.x - mm.mn) * 255.0 / (mm.mx - mm.mn)
                                   + 0.5), 0), 255) AS BIGINT) END AS qv
                  FROM e JOIN mm USING (dim))
            SELECT vec_id, list(qv ORDER BY dim) AS qvec
            FROM q GROUP BY vec_id
        """,
        "events_value_trend": """
            WITH c AS (
                SELECT event_type,
                       CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                           AS value_cents
                FROM events
                WHERE ts IS NOT NULL AND value IS NOT NULL
            ), m AS (
                SELECT event_type,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       SUM(CAST(hour AS HUGEINT)) AS sx,
                       SUM(CAST(value_cents AS HUGEINT)) AS sy,
                       SUM(CAST(hour AS HUGEINT) * hour) AS sxx,
                       SUM(CAST(hour AS HUGEINT) * value_cents) AS sxy
                FROM c GROUP BY event_type
            )
            SELECT event_type, n,
                   CASE WHEN n <= 1 OR n * sxx - sx * sx <= 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / CAST(n * sxx - sx * sx AS DOUBLE) END
                       AS slope,
                   CASE WHEN n <= 1 OR n * sxx - sx * sx <= 0 THEN NULL
                        ELSE (CAST(sy AS DOUBLE)
                              - (CAST(n * sxy - sx * sy AS DOUBLE)
                                 / CAST(n * sxx - sx * sx AS DOUBLE))
                                * CAST(sx AS DOUBLE))
                             / CAST(n AS DOUBLE) END AS intercept
            FROM m
        """,
        "events_value_outliers": """
            WITH e AS (SELECT event_id, event_type,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS value_cents
                       FROM events),
            med AS (SELECT event_type,
                           quantile_disc(value_cents, 0.5) AS med_cents
                    FROM e GROUP BY 1),
            mad AS (SELECT e.event_type,
                           quantile_disc(abs(e.value_cents - m.med_cents),
                                         0.5) AS mad_cents
                    FROM e JOIN med m USING (event_type) GROUP BY 1)
            SELECT e.event_id, e.event_type, e.value_cents,
                   m.med_cents, d.mad_cents
            FROM e JOIN med m USING (event_type)
                 JOIN mad d USING (event_type)
            WHERE abs(e.value_cents - m.med_cents) > 3 * d.mad_cents
        """,
        "part_copurchase_topk": """
            SELECT l1.l_partkey AS part_a, l2.l_partkey AS part_b,
                   COUNT(*) AS n_copurchase
            FROM lineitem l1 JOIN lineitem l2
                 ON l1.l_orderkey = l2.l_orderkey
                AND l1.l_partkey < l2.l_partkey
            GROUP BY 1, 2
            ORDER BY n_copurchase DESC, part_a, part_b
            LIMIT 20
        """,
        "csv_event_stats": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "sqlite_event_stats": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "orc_order_stats": """
            SELECT o_orderpriority,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS price_cents,
                   COUNT(*) AS n_orders
            FROM orders GROUP BY o_orderpriority
        """,
        "hive_event_stats": """
            SELECT user_id,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n_events
            FROM events WHERE event_type = 'purchase'
            GROUP BY user_id
        """,
        "shipmode_priority_counts": """
            SELECT l_returnflag,
                   CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
                   CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_shipdate >= TIMESTAMP '1998-01-01'
              AND l_shipdate < TIMESTAMP '1999-01-01'
            GROUP BY l_returnflag
        """,
        "priority_counts_ivm": """
            WITH h AS (
                SELECT o_orderkey, o_orderpriority, o_totalprice,
                       CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)),
                                            1, 8)) AS BIGINT) % 1000 AS hb
                FROM orders
            ), final AS (
                -- full recompute over the post-changelog state: deletes
                -- (hb<100) gone, updates (100<=hb<300) reprioritized at
                -- price+10 — the oracle enforces the incremental
                -- maintenance law bitwise
                SELECT CASE WHEN hb >= 100 AND hb < 300
                            THEN '1-URGENT' ELSE o_orderpriority
                       END AS o_orderpriority,
                       CASE WHEN hb >= 100 AND hb < 300
                            THEN o_totalprice + 10.0 ELSE o_totalprice
                       END AS price
                FROM h WHERE hb >= 100
            )
            SELECT o_orderpriority,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(price * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM final GROUP BY o_orderpriority
        """,
        "order_price_global_rank": """
            SELECT o_orderkey,
                   CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)
                       AS total_cents,
                   CAST(RANK() OVER w AS BIGINT) AS rank,
                   PERCENT_RANK() OVER w AS percent_rank,
                   CUME_DIST() OVER w AS cume_dist
            FROM orders
            WINDOW w AS (ORDER BY CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                       AS BIGINT))
        """,
        "chars_zh_auc": """
            WITH s AS (
                SELECT n_chars AS score,
                       CASE WHEN lang = 'zh' THEN 1 ELSE 0 END AS pos
                FROM documents
            ), g AS (
                SELECT score, COUNT(*) AS n, SUM(pos) AS np
                FROM s GROUP BY score
            ), o AS (
                SELECT n, np,
                       SUM(n) OVER (ORDER BY score
                                    ROWS UNBOUNDED PRECEDING) - n AS below
                FROM g
            ), tot AS (
                SELECT SUM(pos) AS p, COUNT(*) - SUM(pos) AS q FROM s
            )
            SELECT CAST(SUM(o.np * (2 * o.below + o.n + 1))
                        - tot.p * (tot.p + 1) AS DOUBLE)
                       / CAST(2 * tot.p * tot.q AS DOUBLE) AS auc,
                   CAST(tot.p AS BIGINT) AS n_pos,
                   CAST(tot.q AS BIGINT) AS n_neg
            FROM o, tot GROUP BY tot.p, tot.q
        """,
        "evolved_event_stats": """
            SELECT event_type,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents,
                   COUNT(*) AS n_events,
                   CAST(COUNT(CASE WHEN event_id % 3 <> 0
                                   THEN props END) AS BIGINT) AS n_props
            FROM events GROUP BY event_type
        """,
        "bucketed_order_revenue": """
            SELECT o_orderpriority,
                   CAST(SUM(CAST(FLOOR((l_extendedprice * (1.0 - l_discount)) * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_items,
                   CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_orders
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority
        """,
        "type_user_counts": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1
        """,
        "user_event_gaps": """
            SELECT user_id, event_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                   CAST(COALESCE(CAST(epoch_us(ts) AS BIGINT)
                        - LAG(CAST(epoch_us(ts) AS BIGINT)) OVER (
                              PARTITION BY user_id ORDER BY ts, event_id),
                        -1) AS BIGINT) AS gap_us
            FROM events
        """,
        "user_next_event_gap": """
            SELECT user_id, event_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                   CAST(COALESCE(LEAD(CAST(epoch_us(ts) AS BIGINT)) OVER (
                            PARTITION BY user_id ORDER BY ts, event_id)
                        - CAST(epoch_us(ts) AS BIGINT), -1) AS BIGINT) AS gap_us
            FROM events
        """,
        "customer_order_ranks": """
            SELECT o_custkey, o_orderkey,
                   CAST(RANK() OVER (PARTITION BY o_custkey
                        ORDER BY o_orderdate) AS BIGINT) AS date_rank,
                   CAST(DENSE_RANK() OVER (PARTITION BY o_custkey
                        ORDER BY o_orderdate) AS BIGINT) AS date_dense_rank
            FROM orders
        """,
        "customer_order_seq": """
            SELECT o_custkey, o_orderkey,
                   CAST(ROW_NUMBER() OVER (PARTITION BY o_custkey
                        ORDER BY o_orderdate, o_orderkey) AS BIGINT) AS seq
            FROM orders
        """,
        "customer_order_quartiles": """
            SELECT o_custkey, o_orderkey,
                   CAST(NTILE(4) OVER w AS BIGINT) AS ntile,
                   PERCENT_RANK() OVER w AS percent_rank,
                   CUME_DIST() OVER w AS cume_dist
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey
                         ORDER BY o_orderdate, o_orderkey)
        """,
        "events_value_bands": """
            WITH bands(band, lo, hi) AS (VALUES
                ('micro', 0.0, 10.0), ('small', 10.0, 50.0),
                ('mid', 50.0, 150.0), ('large', 150.0, 1e18))
            SELECT band,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events e JOIN bands b ON e.value >= b.lo AND e.value < b.hi
            GROUP BY band
        """,
        "events_value_tiers": """
            WITH tiers(tier, lo, hi) AS (VALUES
                ('over_10', 10.0, 1e18), ('over_50', 50.0, 1e18),
                ('over_150', 150.0, 1e18))
            SELECT tier,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events e JOIN tiers t ON e.value >= t.lo AND e.value < t.hi
            GROUP BY tier
        """,
        "events_cube": """
            SELECT event_type,
                   CAST(((CAST(epoch_us(ts) AS BIGINT) // 86400000000) + 4) % 7
                        AS BIGINT) AS dow,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events
            GROUP BY CUBE(event_type, dow)
        """,
        "events_grouping_sets": """
            SELECT event_type,
                   CAST(((CAST(epoch_us(ts) AS BIGINT) // 86400000000) + 4) % 7
                        AS BIGINT) AS dow,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events
            GROUP BY GROUPING SETS ((event_type), (dow))
        """,
        "user_running_value": """
            SELECT user_id, event_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                   CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS value_cents,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS running_cents
            FROM events
        """,
        "user_event_type_seq": """
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   string_agg(event_type, ',' ORDER BY ts, event_id)
                       AS type_seq
            FROM events
            GROUP BY user_id
        """,
        "user_type_value_share": """
            WITH p AS (
                SELECT user_id, event_type,
                       CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                            AS BIGINT) AS type_cents
                FROM events
                GROUP BY user_id, event_type
            )
            SELECT user_id, event_type, type_cents,
                   CAST(SUM(type_cents) OVER (PARTITION BY user_id)
                        AS BIGINT) AS user_cents,
                   CAST(type_cents AS DOUBLE) /
                       CAST(SUM(type_cents) OVER (PARTITION BY user_id)
                            AS DOUBLE) AS share
            FROM p
        """,
        "priority_status_unpivot": """
            WITH wide AS (
                SELECT o_orderpriority,
                       CAST(SUM(CASE WHEN o_orderstatus = 'F'
                                THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_F,
                       CAST(SUM(CASE WHEN o_orderstatus = 'O'
                                THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_O,
                       CAST(SUM(CASE WHEN o_orderstatus = 'P'
                                THEN CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT) ELSE 0 END) AS BIGINT) AS sum_P
                FROM orders
                GROUP BY o_orderpriority
            )
            SELECT o_orderpriority, status_col, total_cents
            FROM wide
            UNPIVOT (total_cents FOR status_col IN (sum_F, sum_O, sum_P))
        """,
        # moment arithmetic is exact (HUGEINT), mirroring the engine's
        # decimal128 sums; the IEEE steps (cast, divide, sqrt) appear in
        # the same operand order as stages/stats.py finalize — bitwise
        "event_value_stats": """
            WITH c AS (
                SELECT event_type,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events WHERE value IS NOT NULL
            ), m AS (
                SELECT event_type,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       SUM(CAST(cents AS HUGEINT)) AS sx,
                       SUM(CAST(cents AS HUGEINT) * cents) AS sxx
                FROM c GROUP BY event_type
            )
            SELECT event_type, n,
                   CAST(sx AS BIGINT) AS sum_cents,
                   CASE WHEN n <= 1 THEN NULL
                        ELSE CAST(n * sxx - sx * sx AS DOUBLE)
                             / CAST(n * (CAST(n AS HUGEINT) - 1) AS DOUBLE)
                   END AS var_cents,
                   CASE WHEN n <= 1 THEN NULL
                        ELSE SQRT(CAST(n * sxx - sx * sx AS DOUBLE)
                                  / CAST(n * (CAST(n AS HUGEINT) - 1)
                                         AS DOUBLE))
                   END AS std_cents
            FROM m
        """,
        "lineitem_qty_price_corr": """
            WITH c AS (
                SELECT l_returnflag,
                       CAST(FLOOR(l_quantity * 100.0 + 0.5) AS BIGINT)
                           AS qty_c,
                       CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                           AS price_c
                FROM lineitem
                WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
            ), m AS (
                SELECT l_returnflag,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       SUM(CAST(qty_c AS HUGEINT)) AS sx,
                       SUM(CAST(price_c AS HUGEINT)) AS sy,
                       SUM(CAST(qty_c AS HUGEINT) * qty_c) AS sxx,
                       SUM(CAST(price_c AS HUGEINT) * price_c) AS syy,
                       SUM(CAST(qty_c AS HUGEINT) * price_c) AS sxy
                FROM c GROUP BY l_returnflag
            )
            SELECT l_returnflag, n,
                   CASE WHEN n <= 1 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / CAST(n * (CAST(n AS HUGEINT) - 1) AS DOUBLE)
                   END AS covar_qp,
                   CASE WHEN n <= 1 OR n * sxx - sx * sx <= 0
                             OR n * syy - sy * sy <= 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
                             / SQRT(CAST(n * syy - sy * sy AS DOUBLE))
                   END AS corr_qp
            FROM m
        """,
        "user_latest_event": """
            WITH r AS (
                SELECT user_id, event_id,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us, event_type,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id) AS rn
                FROM events
            )
            SELECT user_id, event_id AS last_event_id,
                   ts_us AS last_ts_us, event_type AS last_type
            FROM r WHERE rn = 1
        """,
        "type_value_mode": """
            WITH c AS (
                SELECT event_type,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2
            ), r AS (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY event_type
                              ORDER BY n DESC, cents) AS rn
                FROM c
            )
            SELECT event_type, cents AS mode_cents, n AS mode_n
            FROM r WHERE rn = 1
        """,
        "user_first_last_event": """
            SELECT user_id, event_id,
                   FIRST_VALUE(event_type) OVER w AS first_type,
                   LAST_VALUE(event_type) OVER w AS last_type
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND UNBOUNDED FOLLOWING)
        """,
        "top_revenue_suppliers": """
            WITH rev AS (
                SELECT l_suppkey AS s_suppkey,
                       CAST(SUM(CAST(FLOOR(l_extendedprice
                            * (1 - l_discount) * 100.0 + 0.5) AS BIGINT))
                            AS BIGINT) AS total_revenue_cents
                FROM lineitem
                WHERE l_shipdate >= DATE '1996-01-01'
                  AND l_shipdate <  DATE '1996-04-01'
                GROUP BY 1)
            SELECT r.s_suppkey, s.s_name, r.total_revenue_cents
            FROM rev r JOIN supplier s ON r.s_suppkey = s.s_suppkey
            WHERE r.total_revenue_cents =
                  (SELECT MAX(total_revenue_cents) FROM rev)
        """,
        "idle_rich_customers": """
            WITH cents AS (
                SELECT c_custkey, c_nationkey,
                       CAST(FLOOR(c_acctbal * 100.0 + 0.5) AS BIGINT)
                           AS bal
                FROM customer),
            pos AS (SELECT CAST(SUM(bal) AS BIGINT) AS s,
                           CAST(COUNT(*) AS BIGINT) AS n
                    FROM cents WHERE bal > 0)
            SELECT c_nationkey,
                   CAST(COUNT(*) AS BIGINT) AS numcust,
                   CAST(SUM(bal) AS BIGINT) AS totacctbal_cents
            FROM cents, pos
            WHERE bal * n > s
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = cents.c_custkey
                                AND o.o_orderdate >= DATE '1998-01-01')
            GROUP BY c_nationkey
        """,
        "user_rolling_median": """
            WITH c AS (
                SELECT user_id, event_id, ts,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events
            )
            SELECT user_id, event_id,
                   CAST(quantile_disc(cents, 0.5) OVER w AS BIGINT)
                       AS roll_med
            FROM c
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
        """,
        "user_rolling_value": """
            WITH c AS (
                SELECT user_id, event_id, ts,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events
            )
            SELECT user_id, event_id,
                   CAST(SUM(cents) OVER w AS BIGINT) AS roll_sum,
                   CAST(COUNT(cents) OVER w AS BIGINT) AS roll_n,
                   CAST(MIN(cents) OVER w AS BIGINT) AS roll_min,
                   CAST(MAX(cents) OVER w AS BIGINT) AS roll_max,
                   CAST(SUM(cents) OVER w AS DOUBLE)
                       / CAST(COUNT(cents) OVER w AS DOUBLE) AS roll_avg
            FROM c
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
        """,
        # engine expression mirrored operand-for-operand: every SUM is an
        # exact HUGEINT over integer cents powers, each operand CAST to
        # DOUBLE once, then the identical IEEE step order (see
        # stages/stats.py:grouped_skew_kurt docstring)
        "event_value_moments": """
            WITH c AS (
                SELECT event_type,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events WHERE value IS NOT NULL
            ), m AS (
                SELECT event_type,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       SUM(CAST(cents AS HUGEINT)) AS sx,
                       SUM(CAST(cents AS HUGEINT) * cents) AS sxx,
                       SUM(CAST(cents AS HUGEINT) * cents * cents) AS sx3,
                       SUM(CAST(cents AS HUGEINT) * cents * cents * cents)
                           AS sx4
                FROM c GROUP BY event_type
            ), d AS (
                -- HUGEINT → VARCHAR → DOUBLE: DuckDB's direct
                -- hugeint→double cast double-rounds above 2^53
                -- (hi·2⁶⁴ + lo in doubles); strtod is correctly
                -- rounded and matches Python's float(int) bitwise
                SELECT event_type, n,
                       CAST(n AS DOUBLE) AS nd,
                       CAST(CAST(sx AS VARCHAR) AS DOUBLE)
                           / CAST(n AS DOUBLE) AS mu,
                       CAST(CAST(sxx AS VARCHAR) AS DOUBLE) AS fxx,
                       CAST(CAST(sx3 AS VARCHAR) AS DOUBLE) AS fx3,
                       CAST(CAST(sx4 AS VARCHAR) AS DOUBLE) AS fx4
                FROM m
            ), mm AS (
                SELECT *, fxx / nd - mu * mu AS m2 FROM d
            )
            SELECT event_type, n,
                   CASE WHEN n <= 1 OR m2 <= 0.0 THEN NULL
                        ELSE (fx3 / nd - 3.0 * mu * (fxx / nd)
                              + 2.0 * mu * mu * mu)
                             / (SQRT(m2) * SQRT(m2) * SQRT(m2))
                   END AS skew_x,
                   CASE WHEN n <= 1 OR m2 <= 0.0 THEN NULL
                        ELSE (fx4 / nd - 4.0 * mu * (fx3 / nd)
                              + 6.0 * mu * mu * (fxx / nd)
                              - 3.0 * mu * mu * mu * mu)
                             / (m2 * m2) - 3.0
                   END AS kurt_x
            FROM mm
        """,
        "user_trailing_value": """
            SELECT user_id, event_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                   CAST(COUNT(*) OVER w AS BIGINT) AS n_trailing,
                   CAST(COALESCE(SUM(CAST(FLOOR(value * 100.0 + 0.5)
                                          AS BIGINT)) OVER w, 0)
                        AS BIGINT) AS trailing_cents
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                               AND CURRENT ROW)
        """,
        "purchases_except_views_all": """
            SELECT user_id FROM events WHERE event_type = 'purchase'
            EXCEPT ALL
            SELECT user_id FROM events WHERE event_type = 'view'
        """,
        "purchases_intersect_views_all": """
            SELECT user_id FROM events WHERE event_type = 'purchase'
            INTERSECT ALL
            SELECT user_id FROM events WHERE event_type = 'view'
        """,
        "local_supplier_volume": """
            WITH rev AS (
                SELECT n.n_name,
                       CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                  * 100.0 + 0.5) AS BIGINT) AS cents
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation n ON s.s_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                WHERE c.c_nationkey = s.s_nationkey
                  AND r.r_name = 'ASIA'
                  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o.o_orderdate < TIMESTAMP '1997-01-01'
            )
            SELECT n_name, CAST(SUM(cents) AS BIGINT) AS revenue_cents
            FROM rev GROUP BY n_name
        """,
        "nation_pair_volume": """
            WITH pairs AS (
                SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT)
                           AS l_year,
                       CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                  * 100.0 + 0.5) AS BIGINT) AS cents
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation sn ON s.s_nationkey = sn.n_nationkey
                JOIN nation cn ON c.c_nationkey = cn.n_nationkey
                WHERE ((sn.n_name = 'NATION_3' AND cn.n_name = 'NATION_8')
                    OR (sn.n_name = 'NATION_8' AND cn.n_name = 'NATION_3'))
                  AND l.l_shipdate >= TIMESTAMP '1995-01-01'
                  AND l.l_shipdate <  TIMESTAMP '1997-01-01'
            )
            SELECT supp_nation, cust_nation, l_year,
                   CAST(SUM(cents) AS BIGINT) AS revenue_cents
            FROM pairs GROUP BY supp_nation, cust_nation, l_year
        """,
        "market_share": """
            WITH f AS (
                SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                           AS o_year,
                       CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                  * 100.0 + 0.5) AS BIGINT) AS cents,
                       CASE WHEN n2.n_name = 'NATION_8'
                            THEN 1 ELSE 0 END AS is_t
                FROM lineitem l
                JOIN part p ON l.l_partkey = p.p_partkey
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN nation n1 ON c.c_nationkey = n1.n_nationkey
                JOIN region r ON n1.n_regionkey = r.r_regionkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation n2 ON s.s_nationkey = n2.n_nationkey
                WHERE r.r_name = 'ASIA' AND p.p_type = 'MEDIUM'
                  AND o.o_orderdate >= TIMESTAMP '1995-01-01'
                  AND o.o_orderdate <  TIMESTAMP '1997-01-01'
            )
            SELECT o_year,
                   CAST(SUM(cents * is_t) AS BIGINT) AS nation_cents,
                   CAST(SUM(cents) AS BIGINT) AS total_cents,
                   CAST(CAST(SUM(cents * is_t) AS BIGINT) AS DOUBLE)
                       / CAST(CAST(SUM(cents) AS BIGINT) AS DOUBLE)
                       AS mkt_share
            FROM f GROUP BY o_year
        """,
        "customer_order_dist": """
            WITH co AS (
                SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
                FROM customer c LEFT JOIN orders o
                  ON c.c_custkey = o.o_custkey
                 AND o.o_orderpriority <> '1-URGENT'
                GROUP BY c.c_custkey
            )
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   CAST(COUNT(*) AS BIGINT) AS custdist
            FROM co GROUP BY c_count
        """,
        "purchase_value_by_engagement": """
            WITH v AS (
                SELECT user_id, COUNT(*) AS n_views FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ), p AS (
                SELECT user_id,
                       CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events WHERE event_type = 'purchase'
            )
            SELECT CAST(v.n_views // 10 AS BIGINT) AS tier,
                   CAST(SUM(p.cents) AS BIGINT) AS purchase_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_purchases
            FROM p JOIN v USING (user_id)
            GROUP BY tier
        """,
        "small_qty_part_revenue": """
            WITH l AS (
                SELECT l_partkey, CAST(l_quantity AS BIGINT) AS qty,
                       CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                           AS price_cents
                FROM lineitem
            ), t AS (
                SELECT l_partkey, SUM(qty) AS sum_qty,
                       COUNT(*) AS n_line
                FROM l GROUP BY l_partkey
            )
            SELECT p.p_brand,
                   CAST(SUM(l.price_cents) AS BIGINT)
                       AS small_revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_small
            FROM l
            JOIN t ON l.l_partkey = t.l_partkey
            JOIN part p ON l.l_partkey = p.p_partkey
            WHERE 5 * l.qty * t.n_line < t.sum_qty
            GROUP BY p.p_brand
        """,
        "user_funnel_counts": """
            WITH v AS (
                SELECT user_id, MIN(ts) AS t1 FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ), c AS (
                SELECT e.user_id, MIN(e.ts) AS t2
                FROM events e JOIN v ON e.user_id = v.user_id
                WHERE e.event_type = 'click' AND e.ts > v.t1
                GROUP BY e.user_id
            ), p AS (
                SELECT e.user_id, MIN(e.ts) AS t3
                FROM events e JOIN c ON e.user_id = c.user_id
                WHERE e.event_type = 'purchase' AND e.ts > c.t2
                GROUP BY e.user_id
            )
            SELECT '1_view' AS stage, CAST(COUNT(*) AS BIGINT) AS n_users
            FROM v HAVING COUNT(*) > 0
            UNION ALL
            SELECT '2_click', CAST(COUNT(*) AS BIGINT)
            FROM c HAVING COUNT(*) > 0
            UNION ALL
            SELECT '3_purchase', CAST(COUNT(*) AS BIGINT)
            FROM p HAVING COUNT(*) > 0
        """,
        # Monday-aligned epoch weeks via pure integer day arithmetic
        # (day 0 = 1970-01-01 = Thursday), mirrored in the engine
        "weekly_retention": """
            WITH wk AS (
                SELECT user_id,
                       (CAST(epoch_us(ts) AS BIGINT) // 86400000000)
                       - ((CAST(epoch_us(ts) AS BIGINT) // 86400000000 + 3)
                          % 7) AS week
                FROM events
            ), cohort AS (
                SELECT user_id, MIN(week) AS cohort_week
                FROM wk GROUP BY user_id
            ), active AS (
                SELECT DISTINCT user_id, week FROM wk
            )
            SELECT c.cohort_week,
                   (a.week - c.cohort_week) // 7 AS weeks_since,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM active a JOIN cohort c ON a.user_id = c.user_id
            GROUP BY 1, 2
        """,
        "events_hourly_dense": """
            WITH h AS (
                SELECT event_type,
                       CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour
                FROM events
            ), counts AS (
                SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS n
                FROM h GROUP BY 1, 2
            ), bounds AS (SELECT MIN(hour) AS lo, MAX(hour) AS hi FROM h),
            hours AS (
                SELECT UNNEST(generate_series(lo, hi)) AS epoch_hour
                FROM bounds
            ), types AS (SELECT DISTINCT event_type FROM events)
            SELECT t.event_type, hh.epoch_hour,
                   COALESCE(c.n, 0) AS n_events
            FROM types t CROSS JOIN hours hh
            LEFT JOIN counts c ON c.event_type = t.event_type
                              AND c.hour = hh.epoch_hour
        """,
        "events_profile": """
            SELECT 'event_id' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(CASE WHEN event_id IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_nulls,
                   CAST(COUNT(DISTINCT event_id) AS BIGINT) AS n_distinct
            FROM events
            UNION ALL
            SELECT 'ts', CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN ts IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT ts) AS BIGINT) FROM events
            UNION ALL
            SELECT 'user_id', CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) FROM events
            UNION ALL
            SELECT 'event_type', CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN event_type IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT event_type) AS BIGINT) FROM events
            UNION ALL
            SELECT 'value', CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN value IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT value) AS BIGINT) FROM events
            UNION ALL
            SELECT 'props', CAST(COUNT(*) AS BIGINT),
                   CAST(SUM(CASE WHEN props IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(COUNT(DISTINCT props) AS BIGINT) FROM events
        """,
        # quadratic levenshtein plan is the gate-scale oracle only; the
        # engine's deletion-neighborhood join never compares all pairs
        "token_fuzzy_pairs": """
            WITH tok AS (
                SELECT DISTINCT unnest(regexp_split_to_array(trim(text),
                                                             '\\s+')) AS t
                FROM documents WHERE len(trim(text)) > 0
            ), f AS (
                SELECT t FROM tok WHERE regexp_matches(t, '^[a-z]{4,12}$')
            ), aug AS (
                SELECT t FROM f
                UNION
                SELECT t || 's' FROM f
                WHERE CAST(('0x' || substr(md5(t), 1, 8)) AS BIGINT)
                      % 1000 < 250
            )
            SELECT a.t AS tok_a, b.t AS tok_b
            FROM aug a JOIN aug b
              ON a.t < b.t AND abs(len(a.t) - len(b.t)) <= 1
                 AND levenshtein(a.t, b.t) <= 1
        """,
        "chunk_documents": r"""
            WITH t AS (
                SELECT doc_id,
                       regexp_split_to_array(trim(text), '\s+') AS toks
                FROM documents WHERE len(trim(text)) > 0
            )
            , c AS (
                SELECT doc_id, toks,
                       unnest(generate_series(0, len(toks) - 1, 48)) AS g
                FROM t
            )
            SELECT doc_id,
                   g // 48 AS chunk_id,
                   g AS begin_tok,
                   LEAST(g + 64, len(toks)) AS end_tok,
                   LEAST(g + 64, len(toks)) - g AS n_tokens,
                   array_to_string(
                       list_slice(toks, g + 1,
                                  LEAST(g + 64, len(toks))), ' ')
                       AS chunk_text
            FROM c
        """,
        "token_fuzzy_pairs_d2": """
            WITH tok AS (
                SELECT DISTINCT unnest(regexp_split_to_array(trim(text),
                                                             '\\s+')) AS t
                FROM documents WHERE len(trim(text)) > 0
            ), f AS (
                SELECT t FROM tok WHERE regexp_matches(t, '^[a-z]{4,12}$')
            ), aug AS (
                SELECT t FROM f
                UNION
                SELECT t || 's' FROM f
                WHERE CAST(('0x' || substr(md5(t), 1, 8)) AS BIGINT)
                      % 1000 < 250
                UNION
                SELECT t || 'ed' FROM f
                WHERE CAST(('0x' || substr(md5(t), 1, 8)) AS BIGINT)
                      % 1000 < 250
            )
            SELECT a.t AS tok_a, b.t AS tok_b
            FROM aug a JOIN aug b
              ON a.t < b.t AND abs(len(a.t) - len(b.t)) <= 2
                 AND levenshtein(a.t, b.t) <= 2
        """,
        "user_sessions": """
            WITH d AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            )
            SELECT user_id, COUNT(*) AS n_events,
                   CAST(SUM(new_s) AS BIGINT) AS n_sessions
            FROM d GROUP BY user_id
        """,
        "copurchase_triangles": """
            WITH e AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2
            )
            SELECT e1.a AS part_a, e1.b AS part_b, e2.b AS part_c
            FROM e e1
            JOIN e e2 ON e1.b = e2.a
            JOIN e e3 ON e1.a = e3.a AND e2.b = e3.b
        """,
        "part_clustering_coefficient": """
            WITH e AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2
            ),
            tri AS (
                SELECT e1.a AS part_a, e1.b AS part_b, e2.b AS part_c
                FROM e e1
                JOIN e e2 ON e1.b = e2.a
                JOIN e e3 ON e1.a = e3.a AND e2.b = e3.b
            ),
            tn AS (SELECT part, CAST(COUNT(*) AS BIGINT) AS n_tri FROM (
                       SELECT part_a AS part FROM tri
                       UNION ALL SELECT part_b FROM tri
                       UNION ALL SELECT part_c FROM tri)
                   GROUP BY 1),
            dg AS (SELECT part, CAST(COUNT(*) AS BIGINT) AS degree FROM (
                       SELECT a AS part FROM e
                       UNION ALL SELECT b FROM e)
                   GROUP BY 1)
            SELECT dg.part, degree,
                   CAST(COALESCE(n_tri, 0) AS BIGINT) AS n_tri,
                   CASE WHEN degree * (degree - 1) > 0
                        THEN CAST(2 * COALESCE(n_tri, 0) AS DOUBLE)
                             / CAST(degree * (degree - 1) AS DOUBLE)
                        ELSE 0.0 END AS clustering
            FROM dg LEFT JOIN tn USING (part)
        """,
        "revenue_forecast": """
            SELECT CAST(COALESCE(SUM(CAST(FLOOR(
                       l_extendedprice * l_discount * 100.0 + 0.5)
                       AS BIGINT)), 0) AS BIGINT) AS revenue_cents,
                   COUNT(*) AS n_items
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
              AND l_shipdate <  TIMESTAMP '1998-01-01'
              AND l_discount >= 0.05 AND l_discount <= 0.07
              AND l_quantity < 24.0
        """,
        "promo_revenue_share": """
            WITH j AS (
                SELECT CAST(FLOOR(l_extendedprice * (1.0 - l_discount)
                            * 100.0 + 0.5) AS BIGINT) AS rc, p_type
                FROM lineitem JOIN part ON l_partkey = p_partkey
                WHERE l_shipdate >= TIMESTAMP '1997-09-01'
                  AND l_shipdate <  TIMESTAMP '1997-10-01'
            )
            SELECT CAST(SUM(CASE WHEN p_type = 'PROMO' THEN rc ELSE 0 END)
                        AS BIGINT) AS promo_cents,
                   CAST(SUM(rc) AS BIGINT) AS total_cents,
                   CAST(SUM(CASE WHEN p_type = 'PROMO' THEN rc ELSE 0 END)
                        AS BIGINT) * 100.0
                   / CAST(SUM(rc) AS BIGINT) AS promo_share
            FROM j
        """,
        "large_orders": """
            WITH big AS (
                SELECT l_orderkey,
                       CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                            AS BIGINT) AS sum_qty
                FROM lineitem GROUP BY l_orderkey HAVING sum_qty > 150
            )
            SELECT o.o_orderkey AS orderkey, big.sum_qty,
                   o.o_custkey AS c_custkey, o.o_orderdate,
                   CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
                       AS total_cents,
                   c.c_name
            FROM big
            JOIN orders o ON big.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "event_props_stats": """
            SELECT event_type, COUNT(*) AS n_events,
                   CAST(SUM(CAST(props->>'$.k' AS BIGINT)) AS BIGINT)
                       AS sum_k,
                   MIN(CAST(props->>'$.k' AS BIGINT)) AS min_k,
                   MAX(CAST(props->>'$.k' AS BIGINT)) AS max_k
            FROM events
            WHERE props->>'$.k' IS NOT NULL
            GROUP BY event_type
        """,
        "orders_lineitem_consistency": """
            SELECT
                (SELECT COUNT(*) FROM orders) AS n_orders,
                (SELECT COUNT(*) FROM orders o
                 WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                                   WHERE l.l_orderkey = o.o_orderkey))
                    AS n_childless_orders,
                (SELECT COUNT(*) FROM lineitem) AS n_lineitems,
                (SELECT COUNT(*) FROM lineitem l
                 WHERE NOT EXISTS (SELECT 1 FROM orders o
                                   WHERE o.o_orderkey = l.l_orderkey))
                    AS n_orphan_lineitems
        """,
        "orders_price_band": """
            SELECT COUNT(*) AS n_orders,
                   CAST(COALESCE(SUM(CAST(FLOOR(o_totalprice * 100.0
                        + 0.5) AS BIGINT)), 0) AS BIGINT) AS sum_cents
            FROM orders
            WHERE CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)
                  BETWEEN 1000000 AND 2000000
        """,
        "events_keyset_page": """
            SELECT CAST(epoch_us(ts) AS BIGINT) AS ev_us, event_id,
                   user_id, event_type
            FROM events
            WHERE CAST(epoch_us(ts) AS BIGINT) > 1705000000000000
               OR (CAST(epoch_us(ts) AS BIGINT) = 1705000000000000
                   AND event_id > -1)
            ORDER BY ev_us, event_id
            LIMIT 200
        """,
        "events_hourly_bursts": """
            WITH h AS (
                SELECT event_type,
                       CAST(epoch_us(ts) AS BIGINT) // 3600000000
                           AS epoch_hour,
                       COUNT(*) AS c
                FROM events GROUP BY event_type, epoch_hour),
            m AS (SELECT event_type, COUNT(*) AS t,
                         CAST(SUM(c) AS BIGINT) AS s,
                         CAST(SUM(c * c) AS BIGINT) AS sxx
                  FROM h GROUP BY event_type)
            SELECT h.event_type, h.epoch_hour, h.c
            FROM h JOIN m USING (event_type)
            WHERE (h.c * m.t - m.s) > 0
              AND (h.c * m.t - m.s) * (h.c * m.t - m.s)
                  > 9 * (m.t * m.sxx - m.s * m.s)
        """,
        "events_ctr_wilson": """
            WITH a AS (
                SELECT event_type, COUNT(*) AS n,
                       CAST(SUM(CASE WHEN CAST(FLOOR(value * 100.0 + 0.5)
                            AS BIGINT) > 25000 THEN 1 ELSE 0 END)
                            AS BIGINT) AS k
                FROM events GROUP BY event_type),
            w AS (SELECT event_type, n, k,
                         CAST(k AS DOUBLE) / CAST(n AS DOUBLE) AS p
                  FROM a)
            SELECT event_type, n, k, p AS rate,
                   ((p + 1.96e0 * 1.96e0 / (2.0e0 * n))
                    - 1.96e0 * sqrt(p * (1.0e0 - p) / n
                                    + 1.96e0 * 1.96e0 / (4.0e0 * n * n)))
                   / (1.0e0 + 1.96e0 * 1.96e0 / n) AS wilson_lo
            FROM w
        """,
        "copurchase_pmi": """
            WITH pc_ AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b,
                       CAST(COUNT(*) AS BIGINT) AS c_ab
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2),
            ic AS (SELECT l_partkey AS p, CAST(COUNT(*) AS BIGINT) AS c
                   FROM lineitem GROUP BY l_partkey),
            no AS (SELECT CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n
                   FROM lineitem)
            SELECT pc_.a AS part_a, pc_.b AS part_b,
                   pc_.c_ab AS n_copurchase,
                   ln(CAST(no.n * pc_.c_ab AS DOUBLE)
                      / CAST(ca.c * cb.c AS DOUBLE)) AS pmi
            FROM pc_
            CROSS JOIN no
            JOIN ic ca ON pc_.a = ca.p
            JOIN ic cb ON pc_.b = cb.p
            ORDER BY pmi DESC, part_a, part_b
            LIMIT 50
        """,
        "events_hourly_incremental": """
            SELECT event_type,
                   CAST(epoch_us(ts) AS BIGINT) // 3600000000
                       AS epoch_hour,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM events GROUP BY event_type, epoch_hour
        """,
        "user_weekly_streaks": """
            WITH w AS (SELECT DISTINCT user_id,
                              (CAST(epoch_us(ts) AS BIGINT)
                               // 86400000000 + 3) // 7 AS week
                       FROM events),
            g AS (SELECT user_id, week,
                         week - ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY week) AS grp
                  FROM w),
            s AS (SELECT user_id, grp, COUNT(*) AS len
                  FROM g GROUP BY user_id, grp)
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_weeks,
                   MAX(len) AS max_streak
            FROM s GROUP BY user_id
        """,
        "orders_monthly_seasonality": """
            SELECT CAST(EXTRACT(YEAR FROM o_orderdate) AS BIGINT) AS year,
                   CAST(EXTRACT(MONTH FROM o_orderdate) AS BIGINT)
                       AS month,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                        AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders GROUP BY year, month
        """,
        "orders_quarter_growth": """
            WITH q AS (
                SELECT CAST(EXTRACT(YEAR FROM o_orderdate) AS BIGINT)
                           AS year,
                       CAST(EXTRACT(QUARTER FROM o_orderdate) AS BIGINT)
                           AS quarter,
                       CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                            AS BIGINT)) AS BIGINT) AS revenue_cents
                FROM orders GROUP BY year, quarter
            ),
            l AS (SELECT *, LAG(revenue_cents) OVER (
                      ORDER BY year, quarter) AS prev_cents
                  FROM q)
            SELECT year, quarter, revenue_cents, prev_cents,
                   CASE WHEN prev_cents IS NULL OR prev_cents = 0
                        THEN NULL
                        ELSE (revenue_cents - prev_cents) * 100.0
                             / prev_cents
                   END AS growth_pct
            FROM l
        """,
        "customer_rfm_segments": """
            WITH m AS (SELECT o_custkey AS c_custkey,
                              MAX(CAST(epoch_us(o_orderdate) AS BIGINT))
                                  AS r_us,
                              COUNT(*) AS f,
                              CAST(SUM(CAST(FLOOR(o_totalprice * 100.0
                                   + 0.5) AS BIGINT)) AS BIGINT) AS m_cents
                       FROM orders GROUP BY o_custkey),
            q AS (SELECT quantile_disc(r_us, 0.25) AS r1,
                         quantile_disc(r_us, 0.50) AS r2,
                         quantile_disc(r_us, 0.75) AS r3,
                         quantile_disc(f, 0.25) AS f1,
                         quantile_disc(f, 0.50) AS f2,
                         quantile_disc(f, 0.75) AS f3,
                         quantile_disc(m_cents, 0.25) AS m1,
                         quantile_disc(m_cents, 0.50) AS m2,
                         quantile_disc(m_cents, 0.75) AS m3
                  FROM m),
            s AS (SELECT m.*,
                         1 + CAST(r_us > r1 AS BIGINT)
                           + CAST(r_us > r2 AS BIGINT)
                           + CAST(r_us > r3 AS BIGINT) AS r_score,
                         1 + CAST(f > f1 AS BIGINT)
                           + CAST(f > f2 AS BIGINT)
                           + CAST(f > f3 AS BIGINT) AS f_score,
                         1 + CAST(m_cents > m1 AS BIGINT)
                           + CAST(m_cents > m2 AS BIGINT)
                           + CAST(m_cents > m3 AS BIGINT) AS m_score
                  FROM m, q)
            SELECT c_custkey, r_us, f, m_cents, r_score, f_score, m_score,
                   CAST(r_score AS VARCHAR) || CAST(f_score AS VARCHAR)
                       || CAST(m_score AS VARCHAR) AS segment
            FROM s
        """,
        "event_type_transitions": """
            WITH l AS (SELECT user_id, event_type,
                              LAG(event_type) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS from_type
                       FROM events)
            SELECT from_type, event_type AS to_type, COUNT(*) AS n
            FROM l WHERE from_type IS NOT NULL
            GROUP BY from_type, event_type
        """,
        "events_value_winsorized": """
            WITH c AS (SELECT event_type,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS vc
                       FROM events),
            q AS (SELECT event_type,
                         quantile_disc(vc, 0.05) AS lo,
                         quantile_disc(vc, 0.95) AS hi
                  FROM c GROUP BY event_type)
            SELECT c.event_type, COUNT(*) AS n_events,
                   CAST(SUM(vc) AS BIGINT) AS sum_cents,
                   CAST(SUM(LEAST(GREATEST(vc, lo), hi)) AS BIGINT)
                       AS winsor_cents,
                   CAST(SUM(CASE WHEN vc < lo OR vc > hi THEN 1 ELSE 0
                            END) AS BIGINT) AS n_clipped
            FROM c JOIN q USING (event_type) GROUP BY c.event_type
        """,
        "user_key_skew": """
            WITH c AS (SELECT user_id, COUNT(*) AS cnt
                       FROM events GROUP BY user_id),
            s AS (SELECT COUNT(*) AS n_keys,
                         CAST(SUM(cnt) AS BIGINT) AS n_rows,
                         MAX(cnt) AS max_count,
                         CAST(SUM(cnt * cnt) AS BIGINT) AS sum_sq
                  FROM c)
            SELECT n_keys, n_rows, max_count, sum_sq,
                   CAST(max_count AS DOUBLE) / CAST(n_rows AS DOUBLE)
                       AS top_share,
                   CAST(sum_sq AS DOUBLE)
                       / CAST(n_rows * n_rows AS DOUBLE) AS hhi
            FROM s
        """,
        "user_value_twap": """
            WITH e AS (SELECT user_id, event_id,
                              CAST(epoch_us(ts) AS BIGINT) AS ev_us,
                              CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT)
                                  AS vc
                       FROM events),
            l AS (SELECT user_id, vc, ev_us,
                         LEAD(ev_us) OVER (PARTITION BY user_id
                             ORDER BY ev_us, event_id) AS nxt
                  FROM e),
            w AS (SELECT user_id,
                         CAST(SUM(vc * ((nxt - ev_us) // 1000))
                              AS BIGINT) AS wsum
                  FROM l WHERE nxt IS NOT NULL GROUP BY user_id),
            b AS (SELECT user_id, COUNT(*) AS n_events,
                         MIN(ev_us) AS mn, MAX(ev_us) AS mx
                  FROM e GROUP BY user_id)
            SELECT b.user_id, b.n_events,
                   (b.mx - b.mn) // 1000 AS span_ms,
                   CAST(COALESCE(w.wsum, 0) AS BIGINT) AS wsum,
                   CASE WHEN (b.mx - b.mn) // 1000 = 0 THEN NULL
                        ELSE CAST(COALESCE(w.wsum, 0) AS DOUBLE)
                             / CAST((b.mx - b.mn) // 1000 AS DOUBLE)
                   END AS twap_cents
            FROM b LEFT JOIN w USING (user_id)
        """,
        "copurchase_degree_hist": """
            WITH e AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b
                FROM lineitem l1 JOIN lineitem l2
                  ON l1.l_orderkey = l2.l_orderkey
                 AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2 HAVING COUNT(*) >= 2
            ),
            d AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS degree
                  FROM (SELECT a AS v FROM e
                        UNION ALL SELECT b AS v FROM e)
                  GROUP BY v)
            SELECT degree, COUNT(*) AS n_nodes FROM d GROUP BY degree
        """,
        "token_postings": f"""
            WITH p AS (SELECT DISTINCT tok AS token, doc_id
                       FROM documents, unnest({_TOKS}) AS u(tok)
                       WHERE len(trim(text)) > 0)
            SELECT token, COUNT(*) AS n_docs,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM p GROUP BY token
        """,
        "pareto_orders": """
            WITH o AS (SELECT o_orderkey,
                              CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT) AS total_cents,
                              CAST(epoch_us(o_orderdate) AS BIGINT)
                                  AS date_us
                       FROM orders)
            SELECT o_orderkey, total_cents, date_us FROM o
            WHERE NOT EXISTS (
                SELECT 1 FROM o x
                WHERE x.total_cents >= o.total_cents
                  AND x.date_us >= o.date_us
                  AND (x.total_cents > o.total_cents
                       OR x.date_us > o.date_us))
        """,
        "embedding_dim_stats": """
            WITH e AS (SELECT generate_subscripts(embedding, 1) AS dim,
                              CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                   * 65536.0 + 0.5) AS BIGINT) AS q
                       FROM embeddings)
            SELECT CAST(dim AS BIGINT) AS dim, COUNT(*) AS n,
                   CAST(SUM(q) AS BIGINT) AS sum_q,
                   MIN(q) AS min_q, MAX(q) AS max_q
            FROM e GROUP BY dim
        """,
        "logline_stats": """
            SELECT event_type,
                   COUNT(*) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 100.0 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents,
                   MAX(user_id) AS max_user
            FROM events GROUP BY event_type
        """,
        "orders_scd2": """
            WITH h AS (SELECT o_orderkey, o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            base AS (SELECT o_orderkey, 0 AS version, 'U' AS op,
                            CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT) AS price_cents
                     FROM orders),
            chg AS (SELECT o_orderkey, 1 AS version,
                           CASE WHEN hb < 100 THEN 'D' ELSE 'U' END AS op,
                           CAST(FLOOR((o_totalprice + 10.0) * 100.0 + 0.5)
                                AS BIGINT) AS price_cents
                    FROM h WHERE hb < 300),
            allr AS (SELECT * FROM base UNION ALL SELECT * FROM chg),
            closed AS (SELECT *, LEAD(version) OVER (
                           PARTITION BY o_orderkey
                           ORDER BY version) AS valid_to
                       FROM allr)
            SELECT o_orderkey, CAST(version AS BIGINT) AS valid_from,
                   CAST(valid_to AS BIGINT) AS valid_to, price_cents,
                   (valid_to IS NULL) AS is_current
            FROM closed WHERE op = 'U'
        """,
        "lineitem_scd2_pit": """
            WITH h AS (SELECT o_orderkey, o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            base AS (SELECT o_orderkey, 0 AS version, 'U' AS op,
                            CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT) AS price_cents
                     FROM orders),
            chg AS (SELECT o_orderkey, 1 AS version,
                           CASE WHEN hb < 100 THEN 'D' ELSE 'U' END AS op,
                           CAST(FLOOR((o_totalprice + 10.0) * 100.0 + 0.5)
                                AS BIGINT) AS price_cents
                    FROM h WHERE hb < 300),
            allr AS (SELECT * FROM base UNION ALL SELECT * FROM chg),
            closed AS (SELECT *, LEAD(version) OVER (
                           PARTITION BY o_orderkey
                           ORDER BY version) AS valid_to
                       FROM allr),
            dim AS (SELECT o_orderkey, CAST(version AS BIGINT) AS valid_from,
                           CAST(valid_to AS BIGINT) AS valid_to, price_cents
                    FROM closed WHERE op = 'U'),
            f AS (SELECT l_orderkey AS o_orderkey,
                         CAST(l_linenumber AS BIGINT) AS l_linenumber,
                         CAST(l_linenumber % 2 AS BIGINT) AS v_asof
                  FROM lineitem)
            SELECT f.o_orderkey, f.l_linenumber, f.v_asof, d.price_cents
            FROM f JOIN dim d ON d.o_orderkey = f.o_orderkey
                AND d.valid_from <= f.v_asof
                AND (d.valid_to IS NULL OR f.v_asof < d.valid_to)
        """,
        "orders_snapshot_diff": """
            WITH h AS (SELECT o_orderkey, o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            a AS (SELECT o_orderkey AS key,
                         CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)
                             AS price_cents_a
                  FROM orders),
            b AS (SELECT o_orderkey AS key,
                         CASE WHEN hb < 300
                              THEN CAST(FLOOR((o_totalprice + 10.0) * 100.0
                                              + 0.5) AS BIGINT)
                              ELSE CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                        AS BIGINT) END AS price_cents_b
                  FROM h WHERE hb >= 100
                  UNION ALL
                  SELECT o_orderkey + 10000000,
                         CAST(FLOOR(o_totalprice * 100.0 + 0.5) AS BIGINT)
                  FROM h WHERE hb >= 900)
            SELECT COALESCE(a.key, b.key) AS key,
                   CASE WHEN a.key IS NULL THEN 'added'
                        WHEN b.key IS NULL THEN 'removed'
                        ELSE 'changed' END AS change_type,
                   a.price_cents_a, b.price_cents_b
            FROM a FULL JOIN b ON a.key = b.key
            WHERE a.key IS NULL OR b.key IS NULL
               OR a.price_cents_a <> b.price_cents_b
        """,
        "waiting_suppliers": """
            WITH lo AS (
                SELECT l_orderkey, l_suppkey,
                       CAST(l_shipdate > o_orderdate + INTERVAL 75 DAY
                            AS BIGINT) AS late
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
                WHERE o_orderstatus = 'F'),
            ps AS (SELECT l_orderkey, l_suppkey, MAX(late) AS late
                   FROM lo GROUP BY l_orderkey, l_suppkey),
            po AS (SELECT l_orderkey,
                          COUNT(*) AS n_supp,
                          SUM(late) AS n_late,
                          MIN(CASE WHEN late = 1 THEN l_suppkey END)
                              AS late_supp
                   FROM ps GROUP BY l_orderkey)
            SELECT s_suppkey, s_name, COUNT(*) AS numwait
            FROM po JOIN supplier ON s_suppkey = late_supp
            WHERE n_supp > 1 AND n_late = 1
            GROUP BY s_suppkey, s_name
            ORDER BY numwait DESC, s_name
            LIMIT 50
        """,
        "orders_cdc_latest": """
            WITH h AS (SELECT o_orderkey, o_totalprice,
                              CAST(('0x' || substr(md5(CAST(o_orderkey
                                   AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                  AS hb
                       FROM orders),
            base AS (SELECT o_orderkey, 0 AS version, 'U' AS op,
                            o_totalprice AS price FROM orders),
            chg AS (SELECT o_orderkey, 1 AS version,
                           CASE WHEN hb < 100 THEN 'D' ELSE 'U' END AS op,
                           o_totalprice + 10.0 AS price
                    FROM h WHERE hb < 300),
            allr AS (SELECT * FROM base UNION ALL SELECT * FROM chg),
            latest AS (SELECT *, ROW_NUMBER() OVER (
                           PARTITION BY o_orderkey
                           ORDER BY version DESC) AS rn
                       FROM allr)
            SELECT o_orderkey,
                   CAST(FLOOR(price * 100.0 + 0.5) AS BIGINT)
                       AS total_cents,
                   CAST(version AS BIGINT) AS version
            FROM latest WHERE rn = 1 AND op = 'U'
        """,
        "orders_above_cust_avg": """
            WITH a AS (
                SELECT o_custkey,
                       CAST(SUM(CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                            AS BIGINT)) AS BIGINT) AS sum_cents,
                       COUNT(*) AS n_orders
                FROM orders GROUP BY o_custkey
            )
            SELECT o.o_orderkey, o.o_custkey,
                   CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
                       AS total_cents
            FROM orders o JOIN a USING (o_custkey)
            WHERE CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
                  * a.n_orders > a.sum_cents
        """,
        "fk_orphan_audit": """
            WITH ev AS (
                SELECT event_type,
                       CASE WHEN CAST(('0x' || substr(md5(CAST(event_id
                                 AS VARCHAR)), 1, 8)) AS BIGINT) % 1000
                                 < 100
                            THEN user_id + 1000000 ELSE user_id
                       END AS user_id
                FROM events
            )
            SELECT ev.event_type, COUNT(*) AS n_events,
                   CAST(SUM(CASE WHEN c.c_custkey IS NULL THEN 1 ELSE 0
                            END) AS BIGINT) AS n_orphans
            FROM ev LEFT JOIN customer c ON ev.user_id = c.c_custkey
            GROUP BY ev.event_type
        """,
        "dedup_substring_mask": f"""
            WITH t AS (SELECT doc_id, {_TOKS} AS toks
                       FROM documents WHERE len(trim(text)) > 0),
            occ AS (SELECT doc_id, i,
                           toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                               AS g
                    FROM t, UNNEST(generate_series(1, len(toks) - 2))
                        AS u(i)),
            df AS (SELECT g, COUNT(DISTINCT doc_id) AS df
                   FROM occ GROUP BY g),
            cov AS (SELECT DISTINCT occ.doc_id, occ.i + o AS pos
                    FROM occ JOIN df USING (g),
                         UNNEST(generate_series(0, 2)) AS v(o)
                    WHERE df.df >= 2),
            m AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_masked
                  FROM cov GROUP BY doc_id)
            SELECT t.doc_id, len(t.toks) AS n_tokens,
                   CAST(COALESCE(m.n_masked, 0) AS BIGINT) AS n_masked,
                   CASE WHEN len(t.toks) = 0 THEN 0.0
                        ELSE CAST(COALESCE(m.n_masked, 0) AS DOUBLE)
                             / CAST(len(t.toks) AS DOUBLE)
                   END AS masked_fraction
            FROM t LEFT JOIN m USING (doc_id)
        """,
        "part_type_stats": """
            SELECT p_type,
                   COUNT(*) AS n_parts,
                   MIN(CAST(p_size AS BIGINT)) AS min_size,
                   MAX(CAST(p_size AS BIGINT)) AS max_size,
                   CAST(SUM(CAST(FLOOR(p_retailprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS price_cents
            FROM part
            GROUP BY p_type
        """,
        "shipping_priority_topk": """
            SELECT l.l_orderkey AS o_orderkey, o.o_orderdate,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                       * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1997-06-15'
              AND l.l_shipdate > TIMESTAMP '1997-06-15'
            GROUP BY 1, 2
            ORDER BY revenue_cents DESC, o_orderdate, o_orderkey
            LIMIT 10
        """,
        "late_order_priority_counts": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_late
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_shipdate > o.o_orderdate)
            GROUP BY o_orderpriority
        """,
        "returned_item_revenue": """
            SELECT c.c_custkey, c.c_name, c.c_acctbal, n.n_name,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                       * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            WHERE l.l_returnflag = 'R'
              AND o.o_orderdate >= TIMESTAMP '1997-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01' + INTERVAL 3 MONTH
            GROUP BY 1, 2, 3, 4
            ORDER BY revenue_cents DESC, c_custkey
            LIMIT 20
        """,
        "brand_supplier_counts": """
            SELECT p.p_brand, p.p_type, p.p_size,
                   CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE p.p_size <= 15 AND p.p_type <> 'STANDARD'
              AND l.l_suppkey NOT IN
                  (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
            GROUP BY 1, 2, 3
        """,
        "disjunctive_part_revenue": """
            SELECT CAST(COALESCE(SUM(CAST(FLOOR(l.l_extendedprice
                        * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)), 0)
                        AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE (p.p_brand = 'Brand#11' AND p.p_size <= 5
                   AND l.l_quantity BETWEEN 1 AND 11)
               OR (p.p_brand = 'Brand#12' AND p.p_size <= 10
                   AND l.l_quantity BETWEEN 10 AND 20)
               OR (p.p_brand = 'Brand#13' AND p.p_size <= 15
                   AND l.l_quantity BETWEEN 20 AND 30)
        """,
        "nation_year_profit": """
            WITH rev AS (
                SELECT n.n_name,
                       CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                           AS o_year,
                       CAST(FLOOR(l.l_extendedprice * (1.0 - l.l_discount)
                                  * 100.0 + 0.5) AS BIGINT) AS cents
                FROM lineitem l
                JOIN part p ON l.l_partkey = p.p_partkey
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation n ON s.s_nationkey = n.n_nationkey
                WHERE p.p_name LIKE '%gear%'
            )
            SELECT n_name, o_year,
                   CAST(SUM(cents) AS BIGINT) AS profit_cents
            FROM rev GROUP BY n_name, o_year
        """,
        "top_part_supplier": """
            WITH totals AS (
                SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
                       CAST(SUM(CAST(FLOOR(l_extendedprice
                            * (1.0 - l_discount) * 100.0 + 0.5) AS BIGINT))
                            AS BIGINT) AS total_cents
                FROM lineitem
                WHERE l_partkey IN
                      (SELECT p_partkey FROM part WHERE p_type = 'SMALL')
                GROUP BY 1, 2
            ), r AS (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY p_partkey
                            ORDER BY total_cents DESC, s_suppkey) AS rn
                FROM totals
            )
            SELECT r.p_partkey, p.p_name, r.s_suppkey, s.s_name,
                   r.total_cents
            FROM r JOIN part p ON r.p_partkey = p.p_partkey
                   JOIN supplier s ON r.s_suppkey = s.s_suppkey
            WHERE rn = 1
        """,
        "user_active_spans": """
            WITH iv AS (SELECT user_id,
                               CAST(epoch_us(ts) AS BIGINT) AS s,
                               CAST(epoch_us(ts) AS BIGINT) + 300000000
                                   AS e
                        FROM events),
            m AS (SELECT user_id, s, e,
                         MAX(e) OVER (PARTITION BY user_id ORDER BY s
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING) AS prev_max
                  FROM iv),
            g AS (SELECT user_id, s, e,
                         CASE WHEN prev_max IS NULL OR s > prev_max
                              THEN 1 ELSE 0 END AS brk
                  FROM m),
            i AS (SELECT user_id, s, e,
                         SUM(brk) OVER (PARTITION BY user_id ORDER BY s
                                        ROWS UNBOUNDED PRECEDING)
                             AS island
                  FROM g),
            isl AS (SELECT user_id, island, MIN(s) AS s0, MAX(e) AS e1
                    FROM i GROUP BY 1, 2)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_islands,
                   CAST(SUM(e1 - s0) AS BIGINT) AS active_us
            FROM isl GROUP BY user_id
        """,
        "events_user_time_rect": """
            SELECT CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COALESCE(SUM(CAST(FLOOR(value * 100.0 + 0.5)
                        AS BIGINT)), 0) AS BIGINT) AS sum_value_cents
            FROM events
            WHERE user_id BETWEEN 30 AND 59
              AND ts >= TIMESTAMP '2024-01-10'
              AND ts <  TIMESTAMP '2024-01-17'
        """,
        "order_value_percent_rank": """
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   percent_rank() OVER (PARTITION BY o_orderpriority
                                        ORDER BY o_totalprice) AS pct_rank,
                   cume_dist() OVER (PARTITION BY o_orderpriority
                                     ORDER BY o_totalprice) AS cume_dist
            FROM orders
        """,
        "part_copurchase_hops": """
            WITH RECURSIVE counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), edges AS (
                SELECT a AS src, b AS dst FROM counted WHERE c >= 2
                UNION ALL
                SELECT b AS src, a AS dst FROM counted WHERE c >= 2
            ), bfs AS (
                SELECT p_partkey AS node, 0 AS hop
                FROM part WHERE p_partkey % 101 = 0
                UNION
                SELECT e.dst AS node, b.hop + 1 AS hop
                FROM bfs b JOIN edges e ON b.node = e.src
                WHERE b.hop < 3
            )
            SELECT node AS p_partkey, CAST(MIN(hop) AS BIGINT) AS hop
            FROM bfs GROUP BY node
        """,
        "part_copurchase_cheapest": """
            -- Bellman-Ford as chained rounds (d1..d3), NOT recursive
            -- path enumeration: each round is the exact min-plus
            -- recurrence the distributed plan runs, integer-exact
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), edges AS (
                SELECT a AS src, b AS dst, 1000000 // c AS w
                FROM counted WHERE c >= 2
                UNION ALL
                SELECT b AS src, a AS dst, 1000000 // c AS w
                FROM counted WHERE c >= 2
            ), d0 AS (
                SELECT p_partkey AS node, CAST(0 AS BIGINT) AS cost
                FROM part WHERE p_partkey % 101 = 0
            ), d1 AS (
                SELECT node, MIN(cost) AS cost FROM (
                    SELECT node, cost FROM d0
                    UNION ALL
                    SELECT e.dst AS node, d.cost + e.w AS cost
                    FROM d0 d JOIN edges e ON e.src = d.node
                ) GROUP BY node
            ), d2 AS (
                SELECT node, MIN(cost) AS cost FROM (
                    SELECT node, cost FROM d1
                    UNION ALL
                    SELECT e.dst AS node, d.cost + e.w AS cost
                    FROM d1 d JOIN edges e ON e.src = d.node
                ) GROUP BY node
            ), d3 AS (
                SELECT node, MIN(cost) AS cost FROM (
                    SELECT node, cost FROM d2
                    UNION ALL
                    SELECT e.dst AS node, d.cost + e.w AS cost
                    FROM d2 d JOIN edges e ON e.src = d.node
                ) GROUP BY node
            )
            SELECT node AS p_partkey, CAST(cost AS BIGINT) AS min_cost
            FROM d3
        """,
        "events_ab_ztest": """
            WITH v AS (
                SELECT event_type,
                       CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                            1, 8)) AS BIGINT) % 2 AS variant,
                       CAST(FLOOR("value" * 100.0 + 0.5) AS BIGINT) AS cents
                FROM events
            ), m AS (
                SELECT event_type, variant,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       SUM(CAST(cents AS HUGEINT)) AS s,
                       SUM(CAST(cents AS HUGEINT) * cents) AS q
                FROM v GROUP BY event_type, variant
            ), w AS (
                SELECT a.event_type,
                       a.n AS n_a, b.n AS n_b,
                       CAST(a.s AS DOUBLE) / a.n AS mean_a,
                       CAST(b.s AS DOUBLE) / b.n AS mean_b,
                       CASE WHEN a.n <= 1 THEN NULL
                            ELSE CAST(a.n * a.q - a.s * a.s AS DOUBLE)
                                 / CAST(a.n * (CAST(a.n AS HUGEINT) - 1)
                                        AS DOUBLE) END AS va,
                       CASE WHEN b.n <= 1 THEN NULL
                            ELSE CAST(b.n * b.q - b.s * b.s AS DOUBLE)
                                 / CAST(b.n * (CAST(b.n AS HUGEINT) - 1)
                                        AS DOUBLE) END AS vb
                FROM m a JOIN m b ON a.event_type = b.event_type
                WHERE a.variant = 0 AND b.variant = 1
            )
            SELECT event_type, n_a, n_b, mean_a, mean_b,
                   CASE WHEN va IS NULL OR vb IS NULL
                             OR va / n_a + vb / n_b <= 0 THEN NULL
                        ELSE (mean_b - mean_a)
                             / SQRT(va / n_a + vb / n_b) END AS z_score
            FROM w
        """,
        "orders_range_checksums": """
            WITH fp AS (
                SELECT o_orderkey // 1000 AS bucket,
                       CAST(('0x' || substr(md5(
                           CAST(o_orderkey AS VARCHAR) || '|' ||
                           CAST(CAST(FLOOR(o_totalprice * 100.0 + 0.5)
                                     AS BIGINT) AS VARCHAR) || '|' ||
                           o_orderpriority), 1, 12)) AS BIGINT) AS f
                FROM orders
            )
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(f) AS BIGINT) AS fp_sum
            FROM fp GROUP BY bucket
        """,
        "source_capped_docs": """
            WITH h AS (
                SELECT doc_id, source,
                       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                            1, 8)) AS BIGINT) AS hv
                FROM documents
            ), r AS (
                SELECT doc_id, source,
                       ROW_NUMBER() OVER (PARTITION BY source
                           ORDER BY hv, doc_id) AS sample_rank
                FROM h
            )
            SELECT doc_id, source, CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r WHERE sample_rank <= 15
        """,
        "part_similarity_topk": """
            WITH counted AS (
                SELECT l1.l_partkey AS a, l2.l_partkey AS b, COUNT(*) AS c
                FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey
                GROUP BY 1, 2
            ), pairs AS (
                SELECT a AS part_a, b AS part_b, c FROM counted WHERE c >= 2
                UNION ALL
                SELECT b AS part_a, a AS part_b, c FROM counted WHERE c >= 2
            ), deg AS (
                SELECT l_partkey AS pk, CAST(COUNT(*) AS BIGINT) AS d
                FROM lineitem GROUP BY 1
            ), scored AS (
                SELECT p.part_a, p.part_b, CAST(p.c AS BIGINT) AS c_ab,
                       CAST(p.c AS DOUBLE)
                       / (SQRT(CAST(da.d AS DOUBLE))
                          * SQRT(CAST(db.d AS DOUBLE))) AS cosine
                FROM pairs p
                JOIN deg da ON da.pk = p.part_a
                JOIN deg db ON db.pk = p.part_b
            ), r AS (
                SELECT part_a, part_b, c_ab, cosine,
                       ROW_NUMBER() OVER (PARTITION BY part_a
                           ORDER BY cosine DESC, part_b) AS sim_rank
                FROM scored
            )
            SELECT part_a, part_b, c_ab, cosine,
                   CAST(sim_rank AS BIGINT) AS sim_rank
            FROM r WHERE sim_rank <= 5
        """,
        "weighted_doc_sample": """
            WITH h AS (
                SELECT doc_id, n_chars,
                       (CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                             1, 8)) AS BIGINT) + 1)
                       / 4294967296.0 AS u
                FROM documents
            ), s AS (
                SELECT doc_id, n_chars, LN(u) / n_chars AS es_key FROM h
            ), r AS (
                SELECT doc_id, n_chars, es_key,
                       ROW_NUMBER() OVER (ORDER BY es_key DESC, doc_id)
                           AS sample_rank
                FROM s
            )
            SELECT doc_id, n_chars, es_key,
                   CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r WHERE sample_rank <= 100
        """,
        "events_out_of_order": """
            -- arrival sequence = event_id + bounded md5 jitter (the
            -- generated stream is perfectly time-ordered, so the
            -- deterministic jitter simulates an out-of-order ingest)
            WITH a AS (
                SELECT user_id, event_id,
                       event_id
                       + CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                                              1, 8)) AS BIGINT) % 200 AS arr,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us
                FROM events
            ), w AS (
                SELECT user_id, event_id, ts_us,
                       MAX(ts_us) OVER (
                           PARTITION BY user_id ORDER BY arr, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm_us
                FROM a
            )
            SELECT user_id, event_id, ts_us, wm_us,
                   wm_us - ts_us AS late_us
            FROM w WHERE ts_us < wm_us
        """,
    }
