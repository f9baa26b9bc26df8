"""The graph phase's one exchange (``stages/canonical.py``): the sort on
(subj_bucket, subj, pred, obj, salt) and the in-place merge of runs that
straddle sorted-block boundaries, checked against a pure-Python oracle,
plus the hot-key spread the salt sort key buys."""

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from kgray.functions.hashing import polyhash64_batch
from kgray.stages import canonical
from kgray.stages.canonical import combine_triples_batch

N_SALTS = 8


def _batch(rows):
    u, s, p, o = zip(*rows)
    return pa.table({"url": list(u), "subj": list(s),
                     "pred": list(p), "obj": list(o)})


def _salt(urls, n_salts):
    return (polyhash64_batch(pa.array(urls), mult=canonical._SALT_MULT)
            % np.uint64(n_salts)).astype(np.int64)


def _oracle(rows, k_urls):
    """{(subj, pred, obj): (support, K smallest per-salt min urls)}."""
    salts = _salt([r[0] for r in rows], N_SALTS)
    support = collections.Counter()
    per_salt = collections.defaultdict(dict)
    for (u, s, p, o), salt in zip(rows, salts):
        support[(s, p, o)] += 1
        m = per_salt[(s, p, o)]
        m[salt] = min(m.get(salt, u), u)
    return {k: (n, sorted(per_salt[k].values())[:k_urls])
            for k, n in support.items()}


def _key(r):
    return (r["subj_bucket"], r["subj"], r["pred"], r["obj"])


def test_boundary_runs_merge_in_place(ray_session, tmp_path):
    """Tiny sorted blocks: one triple spans 5 blocks (3 of them made of
    it alone), others straddle a single edge, one block is empty.  Each
    triple comes out exactly once with the oracle's support and sample,
    in sink order, and every subj_bucket is subj-sorted when its files
    are read in filename order."""
    import ray

    rows = [(f"http://hot/{i:03d}", "Hub", "links", "Spoke")
            for i in range(40)]
    for i in range(60):
        rows.append((f"http://t/{i:03d}", f"E{i % 7}", "rel", f"F{i % 5}"))
    # one row per combine batch: every input row is its own partial, so
    # the hot triple has many partials per salt
    parts = pa.concat_tables([combine_triples_batch(_batch([r]), N_SALTS,
                                                    subj_buckets=4)
                              for r in rows])
    srt = parts.sort_by([(c, "ascending") for c in canonical._SORT_KEY])
    cuts = [0, 3, 5, 5, 9, 12, 20, 26, 33, 41, 44]
    cuts += list(range(47, srt.num_rows, 4)) + [srt.num_rows]
    blocks = [srt.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
    assert sum(b.num_rows for b in blocks) == srt.num_rows
    assert any(b.num_rows == 0 for b in blocks)

    spans = collections.defaultdict(set)
    whole = 0
    for i, b in enumerate(blocks):
        keys = {_key(r) for r in b.to_pylist()}
        for k in keys:
            spans[k].add(i)
        whole += len(keys) == 1
    assert max(len(v) for v in spans.values()) >= 3
    assert whole >= 1
    assert sum(len(v) > 1 for v in spans.values()) >= 3

    refs = [ray.put(b) for b in blocks]
    # K below the salt count truncates the sample; K above it shows the
    # sample holds one url per salt, not the K smallest urls
    for k_urls, n_hub in ((3, 3), (12, N_SALTS)):
        out = canonical._merge_sorted_blocks(refs, k_urls, keep_bucket=True)
        got = out.take_all()
        keys = [_key(r) for r in got]
        assert keys == sorted(keys) and len(keys) == len(set(keys))
        oracle = _oracle(rows, k_urls)
        assert {k[1:]: (r["support"], list(r["sample_urls"]))
                for k, r in zip(keys, got)} == oracle
        assert oracle[("Hub", "links", "Spoke")][0] == 40
        assert len(oracle[("Hub", "links", "Spoke")][1]) == n_hub

    sink = str(tmp_path / "graph")
    out.write_parquet(sink, partition_cols=["subj_bucket"])
    dirs = sorted(glob.glob(os.path.join(sink, "subj_bucket=*")))
    assert len(dirs) > 1
    n = multi = 0
    for d in dirs:
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        multi += len(files) > 1          # the bucket spans several blocks
        t = pa.concat_tables([pq.read_table(f) for f in files])
        spo = list(zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                       t["obj"].to_pylist()))
        assert spo == sorted(spo)
        n += len(spo)
    assert n == len(oracle) and multi


def test_hot_key_spreads_over_sort_blocks(ray_session, monkeypatch):
    """One triple is the majority of the input rows, across 16 combine
    batches.  Its (triple, salt) partials land in more than one sorted
    block, no block holds >= 1/n_blocks of all partial rows because of
    it, and its support stays exact.  Each batch yields 10 partials, so
    the sort samples every row and its boundaries are deterministic;
    sorting the same partials without the salt key puts the whole hot
    triple in one block."""
    import ray
    import ray.data as rd

    n_salts = n_batches = 16
    cand = [f"http://hot/{i}" for i in range(4000)]
    by_salt = collections.defaultdict(list)
    for u, s in zip(cand, _salt(cand, n_salts)):
        by_salt[int(s)].append(u)
    batches, rows = [], []
    for j in range(n_batches):
        b = [(u, "Hot", "is", "Hub") for u in by_salt[j][:30]]
        b += [(f"http://t/{j}/{i}", f"T{j:02d}{i}", "rel", "X")
              for i in range(9)]
        batches.append(_batch(b))
        rows += b
    assert sum(r[1] == "Hot" for r in rows) > len(rows) / 2

    partials = rd.from_arrow(batches).map_batches(
        lambda b: combine_triples_batch(b, n_salts), batch_format="pyarrow",
        batch_size=None)
    sorted_blocks = []
    merge = canonical._merge_sorted_blocks

    def capture(refs, k_urls, keep_bucket):
        sorted_blocks.extend(ray.get(refs))
        return merge(refs, k_urls, keep_bucket)

    monkeypatch.setattr(canonical, "_merge_sorted_blocks", capture)
    got = {(r["subj"], r["pred"], r["obj"]): r["support"]
           for r in canonical.merge_partials(partials).take_all()}
    total = sum(b.num_rows for b in sorted_blocks)
    hot = [b.filter(pa.compute.equal(b["subj"], "Hot")).num_rows
           for b in sorted_blocks if b.num_rows]
    assert total == n_batches * 10 and sum(hot) == n_salts
    assert sum(h > 0 for h in hot) > 1
    assert max(hot) < total / len(sorted_blocks)
    assert got == collections.Counter((s, p, o) for _, s, p, o in rows)
    assert got[("Hot", "is", "Hub")] == 30 * n_batches

    unsalted = ray.get(partials.sort(canonical._KEY).materialize()
                       .to_arrow_refs())
    assert max(b.filter(pa.compute.equal(b["subj"], "Hot")).num_rows
               for b in unsalted if b.num_rows) >= total / len(unsalted)
