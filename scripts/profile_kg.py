"""Per-operator profile of the flagship pipeline (Ray Data stats).

Usage: python scripts/profile_kg.py [sf_dir]
Runs the streaming phase (pages → linked triples parquet) and the graph
phase over its output, then prints per-operator wall, CPU and output
rows of each from the structured stats summary — the same walk
(``pipelines.kg.operator_stats``) that fills ``run_kg``'s lineage
records.  Wall and CPU are summed over each operator's tasks.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _print_ops(title: str, wall: float, summary) -> None:
    from kgray.pipelines.kg import operator_stats

    print(f"{title}: {wall:.1f}s")
    for op in operator_stats(summary):
        print(f"  {op['name'][:90]:<92} wall={op['wall_s']:.2f}s "
              f"cpu={op['cpu_s']:.2f}s rows={op['rows_out']}")


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"

    import logging

    import ray
    import ray.data as rd

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.canonical import canonical_graph

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    files = page_files(corpus)
    kg_dataset(files[:1], corpus, model_dir).count()      # warmup

    with tempfile.TemporaryDirectory() as triples_dir:
        t0 = time.perf_counter()
        ds = kg_dataset(files, corpus, model_dir)
        ds.write_parquet(triples_dir)
        t1 = time.perf_counter()
        graph = canonical_graph(rd.read_parquet(triples_dir)).materialize()
        t2 = time.perf_counter()
        _print_ops("stream (pages → triples parquet)", t1 - t0,
                   ds._write_ds._get_stats_summary())
        _print_ops(f"graph ({graph.count()} rows)", t2 - t1,
                   graph._get_stats_summary())
    ray.shutdown()


if __name__ == "__main__":
    main()
