"""Canonicalization-segment scaling (r2 VERDICT #1 done-criterion:
segment efficiency ≥ 0.8 after vectorization).

Materializes the scaling corpus's LINKED TRIPLES once (untimed, cached
under /tmp), then times ONLY the canonicalization stage —
``canonical_graph`` consumed to completion — in fresh processes at 8
and 32 CPUs, with the hardware-ceiling burn paired around each run
(same methodology as ``bench.py --scaling``).

Usage:
    python scripts/segment_scaling.py            # orchestrate both levels
    RAY_GRAFT_CPUS=8 python scripts/segment_scaling.py --worker
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TRIPLES_DIR = "/tmp/kgray_canon_segment_triples"
PAGES = int(os.environ.get("GRAFT_SCALING_PAGES", "480000"))


def _prep():
    """Write the scaling corpus's linked triples once (untimed)."""
    import ray

    if os.path.isdir(TRIPLES_DIR) and os.path.exists(
            os.path.join(TRIPLES_DIR, "_DONE")):
        return
    from kgray.raypatch import cancel_only_running_tasks

    cancel_only_running_tasks()
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from kgray.pipelines.kg import kg_dataset, page_files
    from kgray.sources.derived import models_for_corpus, scaling_corpus
    corpus = scaling_corpus("/root/testdata/sf0.1", n_pages=PAGES)
    model_dir = models_for_corpus(corpus, tagger="hmm")
    import shutil
    shutil.rmtree(TRIPLES_DIR, ignore_errors=True)
    ds = kg_dataset(page_files(corpus), corpus, model_dir, tagger="hmm")
    ds.write_parquet(TRIPLES_DIR)
    with open(os.path.join(TRIPLES_DIR, "_DONE"), "w") as f:
        f.write("ok\n")
    ray.shutdown()


def _worker() -> dict:
    import ray

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import glob

    import ray.data as rd

    from kgray.stages.canonical import canonical_graph
    files = [f for f in glob.glob(os.path.join(TRIPLES_DIR, "*.parquet"))]
    for f in files:                       # warm page cache (measure compute)
        open(f, "rb").read()
    linked = rd.read_parquet(files)
    t0 = time.perf_counter()
    graph = canonical_graph(linked).materialize()
    dt = time.perf_counter() - t0
    n = graph.count()
    ray.shutdown()
    return {"value": round(dt, 2), "cpus": ncpu, "graph_rows": n}


def main():
    if "--worker" in sys.argv:
        print(json.dumps(_worker()))
        return
    _prep()
    sys.path.insert(0, REPO)
    from bench import _hw_ceiling

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            env=env, capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "3"))
    pairs = []
    for _ in range(repeats):
        c1 = _hw_ceiling(lo, hi)
        r_lo = run(lo)
        r_hi = run(hi)
        c2 = _hw_ceiling(lo, hi)
        c = round((c1 + c2) / 2, 3)
        e = round((r_lo["value"] / r_hi["value"]) / (hi / lo), 3)
        pairs.append({"t_lo": r_lo["value"], "t_hi": r_hi["value"],
                      "ceiling": c, "efficiency": e,
                      "vs_ceiling": round(e / c, 3) if c else None})
        print(json.dumps(pairs[-1]))
    best = max(pairs, key=lambda p: p["efficiency"])
    print(json.dumps({"metric": "canon_segment_scaling", "pairs": pairs,
                      "best": best}))


if __name__ == "__main__":
    main()
