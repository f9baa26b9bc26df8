"""Per-operator profile of the flagship pipeline (Ray Data stats).

Usage: python scripts/profile_kg.py [sf_dir]
Runs ``run_kg`` over the corpus in 2-file partition groups (one
streaming Dataset for all of them) and prints the per-operator wall,
CPU and output rows of that stream (``run_kg``'s ``stream_ops``, the
``pipelines.kg.operator_stats`` walk), then the same for the graph
phase rebuilt over its triples.  Wall and CPU are summed over each
operator's tasks.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _print_ops(title: str, wall: float, ops: list) -> None:
    print(f"{title}: {wall:.1f}s")
    for op in ops:
        print(f"  {op['name'][:90]:<92} wall={op['wall_s']:.2f}s "
              f"cpu={op['cpu_s']:.2f}s rows={op['rows_out']}")


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"

    import logging

    import ray
    import ray.data as rd

    from kgray.raypatch import cancel_only_running_tasks

    cancel_only_running_tasks()
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from kgray.pipelines.kg import kg_dataset, operator_stats, page_files, run_kg
    from kgray.sources.derived import corpus_for_sf, models_for_corpus
    from kgray.stages.canonical import canonical_graph

    corpus = corpus_for_sf(sf_dir)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    kg_dataset(page_files(corpus)[:1], corpus, model_dir).count()    # warmup

    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        stats = run_kg(corpus, out, model_dir=model_dir, tagger="hmm")
        t1 = time.perf_counter()
        graph = canonical_graph(
            rd.read_parquet(os.path.join(out, "triples"))).materialize()
        t2 = time.perf_counter()
        _print_ops(f"run_kg, {len(stats['groups_run'])} groups in one stream "
                   f"(+ graph phase {stats['graph_wall_sec']:.1f}s)", t1 - t0,
                   stats["stream_ops"])
        _print_ops(f"graph ({graph.count()} rows)", t2 - t1,
                   operator_stats(graph._get_stats_summary()))
    ray.shutdown()


if __name__ == "__main__":
    main()
