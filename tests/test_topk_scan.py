"""The per-query top-k selection kernel and the retrieval scan built on
it (``stages.topk.row_topk`` / ``scored_topk``), the IVF index cache
key, and the single-run contract of the driver-collected passes."""

import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest
from test_dedup_ann_text import SF


def _loop_topk(S, ids, k, q_ids, valid, descending):
    """Serial oracle: one lexsort per row, skip masked and own cells."""
    rows, cols = [], []
    for r in range(S.shape[0]):
        key = -S[r] if descending else S[r]
        picked = [c for c in np.lexsort((ids, key))
                  if (valid is None or valid[r, c])
                  and (q_ids is None or ids[c] != q_ids[r])][:k]
        rows += [r] * len(picked)
        cols += picked
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


@pytest.mark.parametrize("seed", range(6))
def test_row_topk_matches_per_query_loop(seed):
    from kgray.stages.topk import row_topk

    rng = np.random.default_rng(seed)
    for n in (0, 1, 3, 7, 40):                 # 0 = empty batch
        nq = int(rng.integers(1, 6))
        ids = rng.permutation(1000)[:n].astype(np.int64)
        # heavy ties: a handful of distinct scores, float and int
        S = rng.integers(0, 3, size=(nq, n))
        if seed % 2:
            S = S.astype(np.float64) / 3.0
        # self present for some queries, absent for others
        q_ids = np.where(rng.random(nq) < 0.5,
                         rng.choice(ids, nq) if n else -1,
                         2000 + np.arange(nq)).astype(np.int64)
        for valid in (None, rng.random((nq, n)) < 0.6):
            for k in (1, 4, n + 2):            # k + 1 > columns too
                for q in (None, q_ids):
                    for desc in (True, False):
                        got = row_topk(S, ids, k, q_ids=q, valid=valid,
                                       descending=desc)
                        want = _loop_topk(S, ids, k, q, valid, desc)
                        np.testing.assert_array_equal(got[0], want[0])
                        np.testing.assert_array_equal(got[1], want[1])


def test_row_topk_no_queries():
    from kgray.stages.topk import row_topk

    rows, cols = row_topk(np.zeros((0, 5)), np.arange(5), 3)
    assert rows.size == 0 and cols.size == 0


def _split_corpus(dst, rows_per_group):
    """The sf0.001 embeddings rewritten with small row groups."""
    os.makedirs(dst, exist_ok=True)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    pq.write_table(t, os.path.join(dst, "embeddings.parquet"),
                   row_group_size=rows_per_group)
    return str(dst)


def test_scan_merges_across_blocks(ray_session, tmp_path):
    """Bruteforce and PQ over a corpus read as many blocks return the
    one-block result row for row: the merge ranks survivors of every
    block."""
    import ray.data as rd
    from ray.data import DataContext

    from kgray.pipelines import ann

    one = {"bf": ann.ann_topk_bruteforce(SF, k=10),
           "pq": ann.ann_pq_topk(SF, k=10)}
    split = _split_corpus(tmp_path / "split", 50)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        assert rd.read_parquet(f"{split}/embeddings.parquet") \
            .materialize().num_blocks() > 1
        many = {"bf": ann.ann_topk_bruteforce(split, k=10),
                "pq": ann.ann_pq_topk(split, k=10)}
    finally:
        ctx.target_max_block_size = old
    for name in one:
        assert one[name].num_rows == 50
        assert many[name].equals(one[name]), name


def test_ivf_index_cache_follows_file(ray_session, tmp_path):
    """A corpus rewritten in place at the same path gets a fresh IVF
    index: the cache key includes the file's size and mtime."""
    from kgray.pipelines import ann

    sf = str(tmp_path)
    t = pq.read_table(f"{SF}/embeddings.parquet")
    pq.write_table(t, f"{sf}/embeddings.parquet")
    first = ann._ivf_index_dir(sf, 4)
    a = ann.ann_ivf_topk(sf, k=5, n_queries=3, n_clusters=4,
                         n_probe=4).to_pandas()
    assert os.path.exists(os.path.join(first, "_DONE"))

    kept = t.slice(0, 300)
    pq.write_table(kept, f"{sf}/embeddings.parquet")
    second = ann._ivf_index_dir(sf, 4)
    assert second != first
    b = ann.ann_ivf_topk(sf, k=5, n_queries=3, n_clusters=4,
                         n_probe=4).to_pandas()
    assert os.path.exists(os.path.join(second, "_DONE"))
    ids = set(kept.column("vec_id").to_pylist())
    assert set(b["neighbor_id"]) <= ids
    assert not set(a["neighbor_id"]) <= ids
    for d in (first, second):
        shutil.rmtree(d)


def _counting(path):
    """An identity batch UDF that appends one line to ``path`` per
    call (works across Ray worker processes)."""
    def udf(batch):
        with open(path, "a") as f:
            f.write("x\n")
        return batch
    return udf


def _calls(path) -> int:
    with open(path) as f:
        return len(f.readlines())


def test_global_topk_runs_upstream_once(ray_session, tmp_path):
    """``global_topk``'s upstream map runs once per block: a lazy
    Dataset's ``to_arrow_refs()`` would run the plan a second time for
    its schema."""
    import ray.data as rd

    from kgray.stages.topk import global_topk

    up = str(tmp_path / "upstream")
    ds = rd.range(400, override_num_blocks=4).map_batches(
        _counting(up), batch_format="pyarrow")
    top = global_topk(ds, [("id", "descending")], 3)
    assert top.column("id").to_pylist() == [399, 398, 397]
    assert _calls(up) == 4


def test_edge_pass_runs_once(ray_session, tmp_path):
    """``edge_interior_exchange`` runs its edge function once per
    block (the collected pass is pinned before ``to_arrow_refs()``)."""
    import ray.data as rd

    from kgray.stages._runs import edge_interior_exchange

    edge = str(tmp_path / "edge")
    srt = rd.range(400, override_num_blocks=4).materialize()
    count = _counting(edge)
    out = edge_interior_exchange(
        srt, lambda b: count(b).slice(0, 0), lambda b: b, lambda ts: None)
    assert out.count() == 400
    assert _calls(edge) == 4


def test_retrieval_registry_binds_ann_functions():
    """The tombstoned and MMR entries are the ``ann`` functions
    themselves, so ``queries_meta`` files them under ``ann`` from
    their module."""
    import __ray_entry__ as entry
    from kgray.pipelines import ann

    q = entry.queries()
    assert q["embedding_mmr_topk"] is ann.embedding_mmr_topk
    assert q["ann_topk_with_deletes"] is ann.ann_topk_with_deletes
    assert "embedding_mmr_topk" not in entry._FAMILY_OVERRIDES
    meta = entry.queries_meta()
    assert meta["embedding_mmr_topk"]["family"] == "ann"
    assert meta["ann_topk_with_deletes"]["family"] == "ann"
