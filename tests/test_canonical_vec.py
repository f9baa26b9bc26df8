"""Vectorized canonicalization: polynomial-hash parity, the map-side
combiner's partial table, and the batch-independent url sample."""

import numpy as np
import pyarrow as pa
import pytest

from kgray.functions.hashing import (POLY_M1, POLY_M2, POLY_SEED1,
                                     POLY_SEED2, polyhash64, polyhash64_batch)
from kgray.stages.canonical import combine_triples_batch


# --------------------------------------------------------------------- hash


def test_polyhash_batch_matches_scalar_twin():
    vals = ["", "a", "ab", "ba", "a" * 5000, "héllo wörld", "\x00", "x\x00y",
            "United States", "数据处理引擎", "a|b|c"]
    h = polyhash64_batch(pa.array(vals, type=pa.string()))
    for v, hv in zip(vals, h):
        assert int(hv) == polyhash64(v)
    h2 = polyhash64_batch(pa.array(vals), POLY_M2, POLY_SEED2)
    for v, hv in zip(vals, h2):
        assert int(hv) == polyhash64(v, int(POLY_M2), int(POLY_SEED2))


def test_polyhash_batch_slice_chunk_null_invariance():
    vals = ["aa", None, "", "bb", "cc", None, "dd", "a" * 100]
    arr = pa.array(vals, type=pa.string())
    full = polyhash64_batch(arr)
    assert list(polyhash64_batch(arr.slice(2, 4))) == list(full[2:6])
    chunked = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert list(polyhash64_batch(chunked)) == list(full)
    # nulls hash consistently and differently from the empty string
    assert full[1] == full[5]
    assert full[1] != full[2]


def test_polyhash_concat_boundary_distinct():
    # the length term separates ("ab","c") from ("a","bc") style splits
    assert polyhash64("ab") != polyhash64("a")
    assert polyhash64("") != polyhash64("\x00")
    a = polyhash64_batch(pa.array(["ab\x00c"]))[0]
    b = polyhash64_batch(pa.array(["a\x00bc"]))[0]
    assert a != b


def test_polyhash_empty_and_binary():
    assert polyhash64_batch(pa.array([], type=pa.string())).size == 0
    hb = polyhash64_batch(pa.array([b"ab", b""], type=pa.binary()))
    assert int(hb[0]) == polyhash64("ab")


# ------------------------------------------------------------- combiner


def _batch(rows):
    u, s, p, o = zip(*rows)
    return pa.table({"url": list(u), "subj": list(s),
                     "pred": list(p), "obj": list(o)})


def test_combine_triples_batch_counts_and_keys():
    rows = [(f"http://x/{i % 3}", "A", "likes", "B") for i in range(10)]
    rows += [("http://y/1", "C", "in", "D")]
    t = combine_triples_batch(_batch(rows), n_salts=4, subj_buckets=16)
    # partial rows: one per (triple, salt); support sums to the input
    assert t.column("support").to_pylist().count(1) >= 1
    assert sum(t.column("support").to_pylist()) == 11
    keys = list(zip(t.column("subj").to_pylist(), t.column("pred").to_pylist(),
                    t.column("obj").to_pylist(), t.column("salt").to_pylist()))
    assert len(keys) == len(set(keys))       # one row per (triple, salt)
    assert {k[:3] for k in keys} == {("A", "likes", "B"), ("C", "in", "D")}
    assert all(0 <= k[3] < 4 for k in keys)
    # the sink's bucket: polyhash64(subj) % subj_buckets, int32
    assert t.schema.field("subj_bucket").type == pa.int32()
    for s, b in zip(t.column("subj").to_pylist(),
                    t.column("subj_bucket").to_pylist()):
        assert b == polyhash64(s) % 16
    # url_min is the per-(triple,salt) MIN url (pure function of data)
    for salt_rows in t.filter(
            pa.compute.equal(t.column("subj"), "A")).to_pylist():
        urls = {u for u, s, _, _ in rows if s == "A"
                and combine_triples_batch(_batch([(u, "A", "likes", "B")]),
                                          n_salts=4)["salt"][0].as_py()
                == salt_rows["salt"]}
        assert salt_rows["url_min"] == min(urls)


def test_combine_triples_batch_empty():
    empty = pa.table({"url": pa.array([], type=pa.string()),
                      "subj": pa.array([], type=pa.string()),
                      "pred": pa.array([], type=pa.string()),
                      "obj": pa.array([], type=pa.string())})
    t = combine_triples_batch(empty)
    assert t.num_rows == 0
    assert t.schema.names == ["subj_bucket", "subj", "pred", "obj", "salt",
                              "support", "url_min"]
    assert t.schema == combine_triples_batch(_batch(
        [("http://x/1", "A", "likes", "B")])).schema


# ----------------------------------------------------------- end-to-end


@pytest.fixture(scope="module")
def triples_table():
    rng = np.random.default_rng(11)
    rows = []
    # a hot triple supported by many urls + a long tail
    for i in range(400):
        rows.append((f"http://hot/{i}", "United States", "capital",
                     "Washington"))
    for i in range(150):
        s = f"E{rng.integers(0, 40)}"
        rows.append((f"http://tail/{i}", s, "rel", f"F{rng.integers(0, 40)}"))
    return _batch(rows)


def _graph_df(tbl, batch_size):
    import ray.data as rd

    from kgray.stages.canonical import canonical_graph
    ds = rd.from_arrow(tbl)
    df = canonical_graph(ds, combine_batch_size=batch_size).to_pandas()
    df["sample_urls"] = df["sample_urls"].map(tuple)
    return df.sort_values(["subj", "pred", "obj"], ignore_index=True)


def test_canonical_graph_batch_size_invariant(ray_session, triples_table):
    """support AND sample_urls are pure functions of the data — identical
    across combiner batch sizes (the r2 bundle was batch-dependent)."""
    a = _graph_df(triples_table, 64)
    b = _graph_df(triples_table, 4096)
    import pandas as pd
    pd.testing.assert_frame_equal(a, b)
    hot = a[a.subj == "United States"]
    assert hot.support.iloc[0] == 400
    assert len(hot.sample_urls.iloc[0]) == 5          # bottom-K sample
    # K smallest of the per-salt min urls: all real supporting urls
    assert all(u.startswith("http://hot/") for u in hot.sample_urls.iloc[0])
    # serial oracle for support counts
    import collections
    cnt = collections.Counter(
        (s, p, o) for s, p, o in zip(triples_table["subj"].to_pylist(),
                                     triples_table["pred"].to_pylist(),
                                     triples_table["obj"].to_pylist()))
    got = {(r.subj, r.pred, r.obj): r.support for r in a.itertuples()}
    assert got == dict(cnt)


def test_entity_stats_matches_serial(ray_session, triples_table):
    import collections

    import ray.data as rd

    from kgray.stages.canonical import entity_stats
    df = entity_stats(rd.from_arrow(triples_table)).to_pandas()
    as_s = collections.Counter(triples_table["subj"].to_pylist())
    as_o = collections.Counter(triples_table["obj"].to_pylist())
    got_s = dict(zip(df.canonical_id, df.as_subj))
    got_o = dict(zip(df.canonical_id, df.as_obj))
    assert {k: v for k, v in got_s.items() if v} == dict(as_s)
    assert {k: v for k, v in got_o.items() if v} == dict(as_o)
