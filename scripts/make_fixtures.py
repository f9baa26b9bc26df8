"""Generate (or verify) expected-output parquet fixtures for the
queries whose semantics SQL cannot express (Viterbi tagging, linking,
LSH, IVF, winnowing, clustering, binary features).

The corpus generator, model training, and every hash/seed in these
pipelines are deterministic, so the engine's own output at sf0.01 is a
stable regression pin.  The fixtures become DuckDB oracles via
``SELECT * FROM read_parquet('<fixture>')`` in ``oracle_sql()`` —
turning the driver's rows-only check into a full value-hash gate.
Independent *correctness* (vs brute force, the reference CLI, serial
oracles, union-find) is pinned separately in ``tests/``.

Usage:
    python scripts/make_fixtures.py            # write fixtures
    python scripts/make_fixtures.py --verify   # fresh process: re-run
                                               # queries, assert equal
Run both (the second in a new process) before committing fixtures:
equality across fresh processes is the determinism evidence.
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF = "/root/testdata/sf0.01"
FIXDIR = os.path.join(REPO, "tests", "fixtures", "sf0.01")

FIXTURE_QUERIES = [
    "kg_graph", "kg_mentions", "hmm_tags_valid", "crf_tags_valid",
    "transformer_tags_valid",
    "extract_invariant", "kg_entities", "binary_features",
    "winnowing_fingerprints", "minhash_lsh_pairs", "simhash_pairs",
    "image_phash_pairs", "audio_fingerprint_pairs", "token_cms_counts",
    "embedding_truncation_recall", "video_scene_changes",
    "embedding_lsh_pairs", "ann_ivf_topk", "embedding_kmeans",
    "embedding_pca",
    "ann_pq_topk", "pq_codes", "ann_topk_with_deletes", "embedding_mmr_topk",
    "neardup_clusters", "neardup_keep_best",
    "event_user_distinct_hll", "entity_pagerank", "entity_ppr",
    "kg_transe_embeddings", "transformer_trained_tags",
    "entity_hits", "kg_link_prediction",
    "events_value_quantiles_approx", "dedup_lines", "packed_documents",
    "image_features", "audio_features", "video_features",
    "corpus_curation", "corpus_curation_sem", "page_site_counts",
    "doc_quality_scores", "dsir_selected",
    "bpe_merges", "bpe_token_counts", "semantic_dedup",
    "copurchase_kcore", "ann_hnsw_topk", "customer_golden_records",
    "entity_communities", "crawl_host_shards",
    "kg_predicate_stats", "kg_two_hop", "kg_functionality_violations",
    "kg_alias_ambiguity", "kg_subgraph_export", "kg_triple_recency",
    "kg_lineage_report", "kg_entity_cooccurrence", "copurchase_mst",
    "kg_gold_eval", "kg_gold_eval_transformer", "kg_alias_patch",
    "kg_graph_zh", "kg_entity_distance",
    "kg_schema_induction",
    "kg_graph_diff",
    "events_dp_median", "events_dp_p90", "events_dp_quantiles",
    "kg_zh_mention_stats",
    "events_weekly_hll_merge", "cross_source_dup_matrix",
    "kg_predicate_trend",
]


def _canonical(result) -> pa.Table:
    """Arrow table, columns name-sorted, rows sorted by all columns —
    byte-stable layout independent of block arrival order."""
    import ray
    import ray.data

    if isinstance(result, ray.data.Dataset):
        tables = [t for t in ray.get(result.to_arrow_refs()) if t.num_rows]
        tbl = (pa.concat_tables(tables, promote_options="permissive")
               if tables else result.schema().base_schema.empty_table())
    elif isinstance(result, pa.Table):
        tbl = result
    else:                                   # pandas
        tbl = pa.Table.from_pandas(result, preserve_index=False)
    tbl = tbl.select(sorted(tbl.schema.names))
    idx = pc.sort_indices(tbl, sort_keys=[(c, "ascending")
                                          for c in tbl.schema.names])
    return tbl.take(idx).combine_chunks()


def main():
    verify = "--verify" in sys.argv
    only = [a for a in sys.argv[1:] if not a.startswith("--")]

    import ray
    from kgray.raypatch import cancel_only_running_tasks

    cancel_only_running_tasks()
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                             len(os.sched_getaffinity(0)))),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    qs = entrymod.queries()

    os.makedirs(FIXDIR, exist_ok=True)
    bad = []
    for name in FIXTURE_QUERIES:
        if only and name not in only:
            continue
        got = _canonical(qs[name](SF))
        path = os.path.join(FIXDIR, f"{name}.parquet")
        if verify:
            exp = pq.read_table(path)
            if got.equals(exp):
                print(f"[deterministic] {name}: {got.num_rows} rows")
            else:
                bad.append(name)
                print(f"[MISMATCH] {name}: fresh run differs from fixture")
        else:
            pq.write_table(got, path)
            print(f"[written] {name}: {got.num_rows} rows -> {path}")
    ray.shutdown()
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
