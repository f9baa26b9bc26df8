"""Local stand-in for the driver's correctness gate: run every
queries() entry at a given sf and compare against oracle_sql() via
DuckDB (row count, column names, order-insensitive values).

Usage: python scripts/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:                     # list/ndarray cells aren't sortable
        if df[c].map(lambda v: isinstance(v, (list, tuple)) or hasattr(v, "tolist")).any():
            df[c] = df[c].map(lambda v: tuple(v.tolist() if hasattr(v, "tolist") else v)
                              if not isinstance(v, (str, bytes)) else v)
    df = df.sort_values(by=list(df.columns), ignore_index=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

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

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append((name, f"query raised: {e!r}"))
            print(f"[FAIL] {name}: raised {e!r}")
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)} ({dt:.1f}s)")
            continue
        exp = normalize(con.sql(oracles[name]).df())
        status = "OK"
        if list(got.columns) != list(exp.columns):
            status = f"SCHEMA MISMATCH got={list(got.columns)} exp={list(exp.columns)}"
        elif len(got) != len(exp):
            status = f"ROWCOUNT MISMATCH got={len(got)} exp={len(exp)}"
        else:
            try:
                # dtype-strict: the driver's value hash is sensitive to
                # int64 vs float64 rendering (506627 vs 506627.0), so a
                # dtype mismatch is a real failure even when values agree.
                pd.testing.assert_frame_equal(got, exp, check_dtype=True, check_exact=True)
            except AssertionError as e:
                status = "VALUE MISMATCH: " + str(e).split("\n")[0]
        tag = "ok" if status == "OK" else "FAIL"
        print(f"[{tag}] {name}: {len(got)} rows ({dt:.1f}s) {'' if status == 'OK' else status}")
        if status != "OK":
            failures.append((name, status))

    print(f"\n{len(failures)} failures")
    for name, why in failures:
        print(f"  {name}: {why}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
