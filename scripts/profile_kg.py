"""Per-operator profile of the flagship pipeline (ds.stats()).

Usage: python scripts/profile_kg.py [sf_dir]
Prints per-operator wall/cpu/rows so stage-level regressions are
visible; used to drive the round-1 optimizations (see NOTES.md).
"""

from __future__ import annotations

import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"

    import logging

    import ray

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

    t0 = time.perf_counter()
    ds = kg_dataset(files, corpus, model_dir)
    graph = canonical_graph(ds).materialize()
    wall = time.perf_counter() - t0
    print(f"graph rows: {graph.count()}; wall: {wall:.1f}s")

    stats = graph.stats()
    for chunk in re.split(r"\n(?=Operator )", stats):
        header = chunk.split("\n")[0]
        m = re.search(r"Remote wall time: .*?, ([\d.]+)(m?s) total", chunk)
        rows = re.search(r"Output num rows per block: .*?, (\d+) total", chunk)
        wall_s = f"{m.group(1)}{m.group(2)}" if m else "?"
        print(f"  {header[:90]:<92} wall_total={wall_s} "
              f"rows={rows.group(1) if rows else '?'}")
    ray.shutdown()


if __name__ == "__main__":
    main()
