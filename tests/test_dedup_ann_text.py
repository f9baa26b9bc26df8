"""Dedup family, ANN, text analysis, multimodal plumbing — over the
driver-generated sf0.001 testdata (read-only) and unit-level checks."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _pairs(idx) -> set:
    """The distinct candidate pairs of a ``dedup._bucket_pairs`` index."""
    return {(r["src"], r["dst"]) for r in idx.edges().take_all()}


def _one_plan_both_branches(monkeypatch, fn):
    """``fn()`` with auto_join's broadcast branch (default limits) and
    again with its sorted-merge branch (both broadcast limits 0)."""
    from kgray.pipelines import dedup

    broadcast = fn()
    with monkeypatch.context() as m:
        m.setattr(dedup, "_BUCKET_BROADCAST_MAX", 0)
        m.setattr(dedup, "_VERIFY_BROADCAST_MAX", 0)
        merged = fn()
    return broadcast, merged


def test_minhash_lsh_matches_bruteforce(ray_session):
    """LSH candidates + exact verify must recover the brute-force pair
    set at threshold 0.5 (planted near-dups have J≈0.99 → the 32-band
    miss probability is ≈0)."""
    from kgray.pipelines import dedup

    brute = dedup.jaccard_pairs_bruteforce(SF, threshold=0.5)
    lsh = dedup.minhash_lsh_pairs(SF, threshold=0.5)
    bp = set(zip(brute["doc_a"].to_pylist(), brute["doc_b"].to_pylist()))
    lp = set(zip(lsh["doc_a"].to_pylist(), lsh["doc_b"].to_pylist()))
    assert len(bp) > 0
    assert lp == bp


def test_simhash_properties():
    from kgray.pipelines.dedup import simhash64

    a = "the quick brown fox jumps over the lazy dog".split()
    assert simhash64(a) == simhash64(list(a))          # deterministic
    assert simhash64([]) == 0
    b = a[:-1] + ["cat"]
    ham = bin(simhash64(a) ^ simhash64(b)).count("1")
    assert ham < 32                                    # near-identical docs are close
    c = "completely different words entirely unrelated content here".split()
    ham2 = bin(simhash64(a) ^ simhash64(c)).count("1")
    assert ham2 > ham


def test_simhash_pairs_catch_near_dups(ray_session):
    """Docs that are near-dups by Jaccard should also be simhash-close."""
    from kgray.pipelines import dedup

    brute = dedup.jaccard_pairs_bruteforce(SF, threshold=0.9)
    near = set(zip(brute["doc_a"].to_pylist(), brute["doc_b"].to_pylist()))
    sim = dedup.simhash_pairs(SF, max_hamming=10)
    sp = set(zip(sim["doc_a"].to_pylist(), sim["doc_b"].to_pylist()))
    assert near and near <= sp


def test_exact_dedup_counts(ray_session):
    from kgray.pipelines.dedup import exact_dedup
    import pyarrow.parquet as pq

    df = exact_dedup(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    n_distinct = len(set(docs["text"].to_pylist()))
    assert len(df) == n_distinct
    assert df["n_copies"].sum() == docs.num_rows


def test_ann_ivf_recall(ray_session):
    from kgray.pipelines import ann

    brute = ann.ann_topk_bruteforce(SF, k=10, n_queries=5).to_pandas()
    ivf = ann.ann_ivf_topk(SF, k=10, n_queries=5, n_clusters=16, n_probe=12).to_pandas()
    recalls = []
    for q in brute["query_id"].unique():
        b = set(brute[brute.query_id == q]["neighbor_id"])
        v = set(ivf[ivf.query_id == q]["neighbor_id"])
        recalls.append(len(b & v) / len(b))
    assert np.mean(recalls) >= 0.8, recalls


def test_ann_bruteforce_exact(ray_session):
    """Distributed brute-force top-k equals a direct numpy computation."""
    from kgray.pipelines import ann

    ids, E = ann.load_embeddings(SF)
    order = np.argsort(ids)
    ids = ids[order]
    En = E[order] / np.linalg.norm(E[order], axis=1, keepdims=True)
    got = ann.ann_topk_bruteforce(SF, k=5, n_queries=3).to_pandas()
    for qi in range(3):
        scores = En[qi] @ En.T
        cand = np.lexsort((ids, -scores))
        expect = [int(ids[j]) for j in cand if ids[j] != ids[qi]][:5]
        mine = got[got.query_id == ids[qi]].sort_values("rank")["neighbor_id"].tolist()
        assert mine == expect


def test_text_ops(ray_session):
    from kgray.pipelines import text
    import pyarrow.parquet as pq

    stats = text.token_stats(SF).to_pandas().set_index("doc_id")
    docs = pq.read_table(f"{SF}/documents.parquet").to_pydict()
    for did, t in list(zip(docs["doc_id"], docs["text"]))[:20]:
        toks = t.strip().split()
        assert stats.loc[did, "n_tokens"] == len(toks)
        assert stats.loc[did, "n_chars"] == len(t)
    q = text.quality_scores(SF).to_pandas()
    assert ((q["stop_ratio"] >= 0) & (q["stop_ratio"] <= 1)).all()
    langs = text.lang_id(SF).to_pandas()
    assert set(langs["pred_lang"]) <= {"en", "de", "fr"}


def test_repetition_scores_planted(ray_session, tmp_path):
    """Planted repetition: a boilerplate doc (one line repeated) must
    score dup fractions near 1; an all-unique doc scores 0."""
    import pyarrow.parquet as pq
    from kgray.pipelines import text

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "menu\nmenu\nmenu\nmenu",                  # 4 lines, 1 distinct
            "alpha\nbeta\ngamma",                      # all unique
            "x\nx\nlong unique line here\nx",          # mixed
        ], type=pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = text.repetition_scores(str(tmp_path)).to_pandas() \
        .set_index("doc_id").sort_index()

    assert got.loc[1, "n_lines"] == 4
    assert got.loc[1, "dup_line_frac"] == 3 / 4
    assert got.loc[1, "dup_char_frac"] == 1.0
    assert got.loc[1, "top_line_frac"] == 1.0

    assert got.loc[2, "dup_line_frac"] == 0.0
    assert got.loc[2, "dup_char_frac"] == 0.0
    assert got.loc[2, "top_line_frac"] == 1 / 3

    assert got.loc[3, "n_lines"] == 4
    assert got.loc[3, "dup_line_frac"] == 2 / 4
    assert got.loc[3, "dup_char_frac"] == 3 / (3 + 21)
    assert got.loc[3, "top_line_frac"] == 3 / 4


def test_multimodal_stub(ray_session, tiny_corpus_dir):
    from kgray.pipelines import multimodal
    from kgray.pipelines.kg import page_files

    with pytest.raises(NotImplementedError):
        multimodal.decode_image(b"\xff\xd8\xff")
    h = multimodal.byte_histogram(b"abc")
    assert h.sum() == 3 and h.shape == (16,)
    df = multimodal.binary_features(page_files(tiny_corpus_dir)).to_pandas()
    assert len(df) == 120
    assert (df["n_bytes"] > 0).all()
    assert all(sum(f) == n for f, n in zip(df["features"], df["n_bytes"]))


def test_multimodal_large_payloads(ray_session):
    """Fat binary rows (1 MB each) stream through the featurizer pool
    with a small batch_size — the memory-aware sizing path for
    image/audio payloads."""
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.multimodal import binary_features

    payloads = [bytes([i % 256]) * 1_000_000 for i in range(48)]
    src = rd.from_arrow(pa.table({
        "url": [f"blob://{i}" for i in range(48)],
        "html": payloads,
    })).repartition(6)
    df = binary_features(src, batch_size=8).to_pandas()
    assert len(df) == 48
    assert (df["n_bytes"] == 1_000_000).all()
    assert all(sum(f) == 1_000_000 for f in df["features"])


def test_embedding_lsh_finds_planted_neardups(ray_session):
    """Random-hyperplane LSH recovers planted cos≈0.98 pairs and agrees
    with exact cosine verification."""
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.dedup import embedding_lsh_pairs

    rng = np.random.default_rng(5)
    base = rng.standard_normal((60, 32))
    rows_id, rows_emb = [], []
    expected = set()
    for i in range(60):
        rows_id.append(i)
        rows_emb.append(base[i].tolist())
    for j in range(10):                       # planted near-dups of vectors 0..9
        nid = 100 + j
        noisy = base[j] + 0.05 * rng.standard_normal(32)
        rows_id.append(nid)
        rows_emb.append(noisy.tolist())
        expected.add((j, nid))
    ds = rd.from_arrow(pa.table({"vec_id": rows_id,
                                 "embedding": rows_emb})).repartition(4)
    got = embedding_lsh_pairs(ds, threshold=0.95, n_bits=128, band_bits=8, dim=32)
    pairs = set(zip(got["vec_a"].to_pylist(), got["vec_b"].to_pylist()))
    recall = len(pairs & expected) / len(expected)
    assert recall >= 0.9, (recall, pairs)
    # precision: every returned pair really has cosine >= threshold
    import numpy as _np
    emb = {i: _np.asarray(e) / _np.linalg.norm(e) for i, e in zip(rows_id, rows_emb)}
    for a, b in pairs:
        assert float(emb[a] @ emb[b]) >= 0.95


def test_minhash_degenerate_bucket_star(ray_session, tmp_path):
    """1,000 identical docs (boilerplate cluster): the over-cap bucket
    emits a min-id star (O(n) pairs, generated distributed), never an
    O(n²) driver pair loop; connectivity for clustering is preserved."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from kgray.pipelines import dedup

    boiler = "cookie policy accept all cookies to continue reading this site"
    texts = [boiler] * 1000 + [f"unique document number {i} with words {i*7} {i*13}"
                               for i in range(50)]
    pq.write_table(pa.table({"doc_id": pa.array(range(1050), type=pa.int64()),
                             "text": pa.array(texts)}),
                   tmp_path / "documents.parquet")
    got = dedup.minhash_lsh_pairs(str(tmp_path), threshold=0.5)
    pairs = set(zip(got["doc_a"].to_pylist(), got["doc_b"].to_pylist()))
    star = {(0, i) for i in range(1, 1000)}
    assert pairs == star                     # anchor=0 star, all verified J=1


def test_bucket_pairs_cap_boundary(ray_session):
    """Buckets at or below max_bucket keep exact pair semantics (sorted
    co-location path incl. block-boundary runs); above it → star."""
    import itertools
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.dedup import _bucket_pairs

    # one 5-member bucket (<= cap: full pairing), one 30-member (> cap: star)
    rows_b = [0] * 5 + [1] * 30 + list(range(2, 40))
    rows_id = list(range(100, 105)) + list(range(200, 230)) + list(range(300, 338))
    ds = rd.from_arrow(pa.table({"band": pa.array([0] * len(rows_b), type=pa.int32()),
                                 "val": pa.array(rows_b, type=pa.int64()),
                                 "vec_id": pa.array(rows_id, type=pa.int64())})
                       ).repartition(6)
    got = _pairs(_bucket_pairs(ds, ["band", "val"], "vec_id", max_bucket=8))
    full = set(itertools.combinations(range(100, 105), 2))
    star = {(200, i) for i in range(201, 230)}
    assert got == full | star


def test_bucket_pairs_joined_plan_matches_broadcast(ray_session, monkeypatch):
    """Bucket pairing's rows ⋈ sizes join on the mixed key gives the
    same pairs on auto_join's broadcast branch and on its sorted-merge
    branch (the one past ``_BUCKET_BROADCAST_MAX`` bucket keys, where no
    bucket key reaches the driver): full pairing at or below
    max_bucket, min-id star above it."""
    import itertools
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.dedup import _bucket_pairs

    rows_b = [0] * 5 + [1] * 30 + [2] * 7 + list(range(3, 40))
    rows_id = (list(range(100, 105)) + list(range(200, 230))
               + list(range(400, 407)) + list(range(300, 337)))
    ds = rd.from_arrow(pa.table({"band": pa.array([0] * len(rows_b), type=pa.int32()),
                                 "val": pa.array(rows_b, type=pa.int64()),
                                 "vec_id": pa.array(rows_id, type=pa.int64())})
                       ).repartition(6)
    broadcast, joined = _one_plan_both_branches(monkeypatch, lambda: _pairs(
        _bucket_pairs(ds, ["band", "val"], "vec_id", max_bucket=8)))
    expected = (set(itertools.combinations(range(100, 105), 2))
                | set(itertools.combinations(range(400, 407), 2))
                | {(200, i) for i in range(201, 230)})
    assert broadcast == expected
    assert joined == expected


def test_bucket_pairs_dedup_raw_task_blocks(ray_session, monkeypatch):
    """Pairs emitted in several bands collapse to one in the EdgeIndex:
    its raw-task path (many pinned blocks) returns exactly the distinct
    pairs of its driver-held path."""
    import itertools
    import pyarrow as pa
    import ray.data as rd
    from kgray.pipelines.dedup import _bucket_pairs
    from kgray.stages import propagate

    band, val, vid = [], [], []
    for b in range(4):                  # the same 6-member buckets per band
        for g in range(12):
            for i in range(6):
                band.append(b)
                val.append(g if b % 2 else g * 7 + b)
                vid.append(g * 10 + i)
    ds = rd.from_arrow(pa.table({"band": pa.array(band, type=pa.int32()),
                                 "val": pa.array(val, type=pa.int64()),
                                 "vec_id": pa.array(vid, type=pa.int64())})
                       ).repartition(5)
    expected = {p for g in range(12)
                for p in itertools.combinations(range(g * 10, g * 10 + 6), 2)}

    def rows(idx) -> list:
        return sorted((r["src"], r["dst"]) for r in idx.edges().take_all())

    local = _bucket_pairs(ds, ["band", "val"], "vec_id")
    monkeypatch.setattr(propagate, "_BLOCK_EDGES", 64)
    tasks = _bucket_pairs(ds, ["band", "val"], "vec_id")
    assert tasks.edges().num_blocks() > 1
    assert rows(tasks) == rows(local) == sorted(expected)


def test_ivf_partition_pruning(ray_session, tmp_path):
    """The IVF index is cluster-partitioned parquet; a probe's scan set
    is only its n_probe partition dirs — non-probed partitions are
    never read (pruned at the paths, not filtered post-read)."""
    import glob
    import pyarrow.parquet as pq
    from kgray.pipelines import ann

    idx = str(tmp_path / "ivf")
    C = ann.build_ivf_index(SF, idx, n_clusters=16)
    _, _, wanted, paths = ann.ivf_probe_plan(SF, idx, C, n_queries=3, n_probe=2)
    probed_dirs = {f.split("/cluster=")[1].split("/")[0] for f in paths}
    assert 1 <= len(probed_dirs) <= 3 * 2 < 16
    total = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    probed_rows = sum(pq.read_metadata(f).num_rows for f in paths)
    assert 0 < probed_rows < total
    got = ann.ann_ivf_topk(SF, k=5, n_queries=3, n_clusters=16, n_probe=2,
                           index_dir=idx).to_pandas()
    assert set(got["query_id"].unique()) and (got["rank"] >= 1).all()


def test_verify_plans_identical(ray_session, monkeypatch):
    """Verification returns pair-for-pair the same table on auto_join's
    broadcast branch and on its sorted-merge branch — the join plan may
    change runtime, never results."""
    from kgray.pipelines import dedup

    for fn in (dedup.minhash_lsh_pairs, dedup.simhash_pairs):
        d, j = _one_plan_both_branches(monkeypatch, lambda: fn(SF))
        assert d.num_rows > 0
        assert d.equals(j)
    d, j = _one_plan_both_branches(
        monkeypatch, lambda: dedup.embedding_lsh_pairs(SF, threshold=0.5))
    assert d.equals(j)


def test_heavy_hitters_exact_guarantee(ray_session):
    """Two-pass Misra-Gries == exact brute-force phi-heavy hitters on a
    skewed synthetic stream (superset candidates + exact recount)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from collections import Counter

    from kgray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(11)
    # zipf-ish: few hot values, long tail
    vals = ([f"hot{i}" for i in range(3) for _ in range(500 - 100 * i)]
            + [f"tail{i}" for i in rng.integers(0, 5000, 3000)])
    rng.shuffle(vals)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(13)

    phi = 0.02
    got = heavy_hitters(ds, "v", phi).to_pandas().sort_values("v")
    c = Counter(vals)
    thr = int(np.ceil(phi * len(vals)))
    exp = sorted((v, n) for v, n in c.items() if n >= thr)
    assert list(zip(got["v"], got["cnt"])) == exp


def test_hll_accuracy_and_determinism(ray_session):
    """HLL estimate within 5% of the exact distinct count at p=12, and
    bit-identical across two runs (order-independent max merge)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgray.stages.sketch import hll_group_distinct

    rng = np.random.default_rng(5)
    n = 20000
    tbl = pa.table({
        "g": pa.array(rng.choice(["a", "b"], n)),
        "v": pa.array([f"u{int(x)}" for x in rng.integers(0, 5000, n)]),
    })
    ds = rd.from_arrow(tbl).repartition(9)
    out1 = hll_group_distinct(ds, "g", "v", p=12).to_pandas()
    out2 = hll_group_distinct(ds.random_shuffle(seed=1), "g", "v",
                              p=12).to_pandas()
    assert out1.equals(out2.sort_values("g").reset_index(drop=True))
    import pandas as pd
    exact = (tbl.to_pandas().groupby("g")["v"].nunique())
    for _, row in out1.iterrows():
        e = exact[row["g"]]
        assert abs(row["approx_distinct"] - e) / e < 0.05, (row, e)


def test_approx_quantiles_error_bound(ray_session):
    """Histogram-sketch quantiles within one bin width of exact, and
    shuffle-invariant (deterministic merge)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgray.stages.sketch import approx_group_quantiles

    rng = np.random.default_rng(9)
    n = 30000
    tbl = pa.table({
        "g": pa.array(rng.choice(["a", "b", "c"], n)),
        "v": pa.array(rng.lognormal(3, 1, n)),
    })
    ds = rd.from_arrow(tbl).repartition(9)
    n_bins = 2048
    out = approx_group_quantiles(ds, "g", "v", qs=[0.5, 0.9, 0.99],
                                 n_bins=n_bins).to_pandas()
    out2 = approx_group_quantiles(ds.random_shuffle(seed=2), "g", "v",
                                  qs=[0.5, 0.9, 0.99],
                                  n_bins=n_bins).to_pandas()
    assert out.equals(out2.sort_values(["g", "q"]).reset_index(drop=True)
                      if not out2.equals(out) else out2)

    df = tbl.to_pandas()
    width = (df["v"].max() - df["v"].min()) / n_bins
    for _, row in out.iterrows():
        grp = np.sort(df[df["g"] == row["g"]]["v"].to_numpy())
        target = min(max(int(np.ceil(row["q"] * len(grp))), 1), len(grp))
        exact = grp[target - 1]
        assert abs(row["approx_value"] - exact) <= width + 1e-9, (row, exact)


def test_duplicate_ngram_fraction_planted(ray_session, tmp_path):
    """Docs sharing a boilerplate sentence score high; a unique doc
    scores 0; a doc with < 3 tokens emits no row."""
    import pyarrow.parquet as pq

    from kgray.pipelines import text

    boiler = "click here to subscribe to our newsletter today"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            f"{boiler} alpha beta gamma",
            f"{boiler} delta epsilon zeta",
            "completely unique words nowhere else repeated ever",
            "too short",
        ], type=pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = (text.duplicate_ngram_fraction(str(tmp_path))
           .to_pandas().set_index("doc_id").sort_index())

    assert 3 not in got.index                      # <3 tokens → no grams
    assert got.loc[2, "dup_fraction"] == 0.0
    # docs 0/1: 11 tokens → 9 trigrams, 6 inside the shared boilerplate
    assert got.loc[0, "n_grams"] == 9
    assert got.loc[0, "n_dup_grams"] == 6
    assert got.loc[1, "n_dup_grams"] == 6
    assert abs(got.loc[0, "dup_fraction"] - 6 / 9) < 1e-15


def test_dedup_lines_keeps_first_occurrence(ray_session):
    """Corpus-wide line dedup: every duplicated line survives exactly
    once at its globally-first (url, line_idx) position; unique lines
    all survive; fully-boilerplate pages vanish."""
    import ray.data as rd

    from kgray.pipelines.dedup import dedup_lines_ds

    pages = pa.table({
        "url": pa.array(["a://1", "a://2", "a://3", "a://4"]),
        "text": pa.array([
            "masthead\nunique one\nfooter",
            "masthead\nunique two\nfooter",
            "masthead\nfooter",            # fully boilerplate → vanishes
            "solo page line",
        ]),
    })
    got = (dedup_lines_ds(rd.from_arrow(pages).repartition(3))
           .to_pandas().set_index("url").sort_index())

    assert list(got.index) == ["a://1", "a://2", "a://4"]
    assert got.loc["a://1", "text_clean"] == "masthead\nunique one\nfooter"
    assert got.loc["a://2", "text_clean"] == "unique two"
    assert got.loc["a://4", "text_clean"] == "solo page line"
    assert got["n_lines_kept"].tolist() == [3, 1, 1]


def test_incremental_dedup_classification(ray_session):
    """Every new-batch doc is classified; re-crawled old content is
    dup_existing, within-batch repeats are dup_batch (min doc_id wins),
    and the rest are new.  Statuses re-derived here with a plain
    pandas/set oracle over the same deterministic batch construction."""
    import pandas as pd

    from kgray.functions.sampling import _md5_bucket
    from kgray.pipelines.dedup import incremental_dedup

    got = incremental_dedup(SF).to_pandas()

    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    import hashlib
    docs["text_hash"] = docs["text"].map(
        lambda t: hashlib.md5(t.encode()).hexdigest())
    base = int(docs["doc_id"].max()) + 1
    thr = (4 * base) // 5
    tail = docs[docs["doc_id"] >= thr][["doc_id", "text_hash"]]
    re_mask = _md5_bucket(docs["doc_id"].tolist(), 1000) < 100
    recrawl = docs[re_mask][["doc_id", "text_hash"]].copy()
    recrawl["doc_id"] += base
    new = pd.concat([tail, recrawl], ignore_index=True)
    old_hashes = set(docs.loc[docs["doc_id"] < thr, "text_hash"])
    first = new.groupby("text_hash")["doc_id"].min()

    def expect(row):
        if row.text_hash in old_hashes:
            return "dup_existing"
        return "dup_batch" if row.doc_id != first[row.text_hash] else "new"

    exp = new.assign(status=[expect(r) for r in new.itertuples()])
    got = got.sort_values(["doc_id"]).reset_index(drop=True)
    exp = exp.sort_values(["doc_id"]).reset_index(drop=True)
    assert len(got) == len(exp) and len(got) > 0
    pd.testing.assert_frame_equal(
        got[["doc_id", "text_hash", "status"]].astype({"doc_id": "int64"}),
        exp[["doc_id", "text_hash", "status"]].astype({"doc_id": "int64"}))
    # all three classes actually occur in the testdata
    assert set(got["status"]) == {"dup_existing", "dup_batch", "new"}


def test_embedding_kmeans_matches_serial_oracle(ray_session):
    """The distributed fixed-point Lloyd's must equal a serial NumPy
    implementation of the same rules bit-for-bit (integer sums make
    block order irrelevant), and every cluster must be non-trivial on
    the labeled testdata."""
    import pyarrow.parquet as pq

    from kgray.pipelines.ann import _KM_SCALE, embedding_kmeans

    k, iters = 8, 5
    got = embedding_kmeans(SF, k=k, iters=iters).to_pandas() \
        .sort_values("vec_id", ignore_index=True)

    tbl = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids)
    Xq = np.rint(np.array(tbl["embedding"].to_pylist(),
                          dtype=np.float64) * _KM_SCALE).astype(np.int64)
    ids, Xq = ids[order], Xq[order]
    C = Xq[:k].astype(np.float64)
    for _ in range(iters):
        d = (C * C).sum(axis=1)[None, :] - 2.0 * (Xq.astype(np.float64) @ C.T)
        a = np.argmin(d, axis=1)
        sums = np.zeros((k, Xq.shape[1]), dtype=np.int64)
        np.add.at(sums, a, Xq)
        cnt = np.bincount(a, minlength=k)
        nz = cnt > 0
        C = C.copy()
        C[nz] = sums[nz] / cnt[nz, None]
    d = (C * C).sum(axis=1)[None, :] - 2.0 * (Xq.astype(np.float64) @ C.T)
    want = np.argmin(d, axis=1)

    assert got.vec_id.tolist() == ids.tolist()
    assert got.cluster.tolist() == want.tolist()
    assert len(set(got.cluster)) == k


def test_semantic_dedup_matches_serial_oracle(ray_session, tmp_path):
    """SemDeDup kept-flags equal a serial arbitrary-precision oracle
    applied to the pipeline's own cluster assignment, and the exact
    >=-threshold boundary (cos == tau precisely) marks the LATER
    vector as a duplicate — no float rounding may flip it."""
    import pyarrow.parquet as pq

    from kgray.pipelines.ann import _KM_SCALE
    from kgray.pipelines.dedup import semantic_dedup

    rng = np.random.default_rng(11)
    dim = 8
    ids, vecs = [], []
    # group A: positive e0/e1 quadrant; group B: negative — k=2 separates
    for i in range(30):
        v = np.r_[1.0, 0.8, 0.1 * rng.standard_normal(dim - 2)]
        vecs.append(v + 0.3 * rng.standard_normal(dim))
        ids.append(i)
    for i in range(30, 60):
        v = np.r_[-1.0, -0.9, 0.1 * rng.standard_normal(dim - 2)]
        vecs.append(v + 0.3 * rng.standard_normal(dim))
        ids.append(i)
    # planted near-dups inside group A (cos ~ 0.999 >> tau)
    for j in range(5):
        ids.append(100 + j)
        vecs.append(np.asarray(vecs[j]) * 1.7)

    pq.write_table(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float64()))}),
        tmp_path / "embeddings.parquet")

    got = semantic_dedup(str(tmp_path), k=2, iters=4,
                         tau_num=3, tau_den=5).to_pandas() \
        .sort_values("vec_id", ignore_index=True)
    assert got.vec_id.tolist() == sorted(ids)

    # serial oracle: exact integer cosine test against EARLIER members
    # of the same (pipeline-assigned) cluster
    Q = {i: np.rint(np.asarray(v) * _KM_SCALE).astype(np.int64)
         for i, v in zip(ids, vecs)}
    cl = dict(zip(got.vec_id, got.cluster))
    p2, q2 = 9, 25

    def dup_of_earlier(v):
        qv = [int(x) for x in Q[v]]
        n2v = sum(x * x for x in qv)
        for u in sorted(ids):
            if u >= v or cl[u] != cl[v]:
                continue
            qu = [int(x) for x in Q[u]]
            dot = sum(x * y for x, y in zip(qu, qv))
            if dot >= 0 and q2 * dot * dot >= p2 * n2v * sum(x * x for x in qu):
                return True
        return False

    want = [not dup_of_earlier(v) for v in sorted(ids)]
    assert got.kept.tolist() == want

    kept = dict(zip(got.vec_id, got.kept))
    # planted scaled copies have an earlier cos≈1 twin — always dropped
    for j in range(5):
        assert not kept[100 + j]
    assert any(got.kept) and not all(got.kept)


def test_semantic_dedup_exact_threshold_boundary(ray_session, tmp_path):
    """cos == tau EXACTLY (3/5, exactly representable after the 2^20
    quantization) must mark the later vector as a duplicate (>=), and
    a vector one quantization unit BELOW the threshold must be kept —
    decisions are exact-integer, no float rounding may flip either."""
    import pyarrow.parquet as pq

    from kgray.pipelines.dedup import semantic_dedup

    # all coordinates dyadic with denominator 2^20 → quantization is identity
    a = [0.75, 1.0, 0.0, 0.0]             # q = (786432, 1048576)
    b_at = [1.0, 0.0, 0.0, 0.0]           # cos(a,·) == 3/5 EXACTLY → dup
    # reflection of b_at across a, second coord nudged down one
    # quantization unit: cos(a,·) = 0.5999997… < 3/5 → kept; its dot
    # with b_at is negative, so b_at can't anchor it either
    b_below = [-0.21875, 786431.0 / (1 << 20), 0.0, 0.0]
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], type=pa.int64()),
        "embedding": pa.array([a, b_at, b_below],
                              type=pa.list_(pa.float64()))}),
        tmp_path / "embeddings.parquet")

    got = semantic_dedup(str(tmp_path), k=1, iters=1,
                         tau_num=3, tau_den=5).to_pandas() \
        .sort_values("vec_id", ignore_index=True)
    assert got.kept.tolist() == [True, False, True]


def test_pq_codes_match_serial_oracle(ray_session):
    """PQ codes equal a serial same-rules NumPy oracle (codebook
    training is deterministic; encode is exact-int argmin, ties to the
    lowest code), and the codebook lives on the 2^20 integer grid."""
    from kgray.pipelines.ann import (_PQ_SCALE, _normalize, _pq_encode,
                                     load_embeddings, pq_codes,
                                     train_pq_codebook)

    books = train_pq_codebook(SF, m=8, n_centroids=16)
    assert books.dtype == np.int64
    got = pq_codes(SF, m=8, n_centroids=16).to_pandas() \
        .sort_values("vec_id", ignore_index=True)

    ids, E = load_embeddings(SF)
    order = np.argsort(ids)
    Xq = np.rint(_normalize(E[order]) * _PQ_SCALE).astype(np.int64)
    codes = _pq_encode(Xq, books)
    want = (codes << (8 * np.arange(8, dtype=np.int64))[None, :]).sum(axis=1)

    assert got.vec_id.tolist() == ids[order].tolist()
    assert got.code.tolist() == want.tolist()
    # unpacking recovers the per-subspace codes
    unpacked = (got.code.to_numpy()[:, None] >> (8 * np.arange(8))) & 0xFF
    np.testing.assert_array_equal(unpacked, codes)
    # codebook training is a pure function of the data
    books2 = train_pq_codebook(SF, m=8, n_centroids=16)
    np.testing.assert_array_equal(books, books2)


def test_ann_pq_rerank_recall(ray_session):
    """ADC shortlist + exact rerank recovers the exact brute-force
    top-10 with recall >= 0.8 per query, and every reported distance
    is the true exact integer distance in the quantized space."""
    from kgray.pipelines.ann import (_PQ_SCALE, _normalize,
                                     ann_pq_topk, ann_topk_bruteforce,
                                     load_embeddings)

    k = 10
    pq = ann_pq_topk(SF, k=k).to_pandas()
    bf = ann_topk_bruteforce(SF, k=k).to_pandas()
    ids, E = load_embeddings(SF)
    Xq = {i: v for i, v in zip(
        ids, np.rint(_normalize(E) * _PQ_SCALE).astype(np.int64))}
    for q in bf.query_id.unique():
        got = pq[pq.query_id == q]
        want = set(bf[bf.query_id == q].neighbor_id)
        assert len(got) == k
        assert len(set(got.neighbor_id) & want) / len(want) >= 0.8
        for _, r in got.iterrows():
            d = Xq[r.neighbor_id].astype(object) - Xq[q].astype(object)
            assert int(r.dist) == int((d * d).sum())
        # ranks are 1..k ordered by (dist, neighbor_id)
        assert got.sort_values(["dist", "neighbor_id"]).rank(
            method="first").iloc[:, 1].is_monotonic_increasing


def test_jaccard_prefix_matches_bruteforce(ray_session):
    """Prefix filtering is EXACT: identical pair set to brute force at
    several thresholds — including t=0.5, where t·L hits integer
    boundaries (a float ceil there would shorten prefixes by one and
    silently drop true pairs)."""
    from kgray.pipelines import dedup

    for t in (0.5, 0.35, 0.8):
        brute = dedup.jaccard_pairs_bruteforce(SF, threshold=t)
        pref = dedup.jaccard_prefix_pairs(SF, threshold=t)
        assert brute.equals(pref), t
    assert dedup.jaccard_pairs_bruteforce(SF, threshold=0.5).num_rows > 0


def test_jaccard_prefix_join_verify_plan(ray_session, monkeypatch):
    """The prefix caller returns the same pairs on auto_join's
    broadcast and sorted-merge branches."""
    from kgray.pipelines import dedup

    d, j = _one_plan_both_branches(
        monkeypatch, lambda: dedup.jaccard_prefix_pairs(SF, threshold=0.5))
    assert d.equals(j)


def test_embedding_pca_matches_serial_oracle(ray_session):
    """embedding_pca must equal a serial replay of its own exact
    integer law bit-for-bit (quantize -> exact int64 scatter -> driver
    eigh -> quantized-component integer projection), and the float
    result must agree with a plain float64 PCA to the documented
    2^-20 component-quantization tolerance."""
    import pyarrow.parquet as pq

    from kgray.functions.veccol import list_col_matrix
    from kgray.pipelines.ann import _KM_SCALE, embedding_pca

    got = embedding_pca(SF, n_components=2).to_pandas() \
        .sort_values("vec_id", ignore_index=True)

    tbl = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    order = np.argsort(ids)
    X = list_col_matrix(tbl.column("embedding"))[order]
    ids = ids[order]
    q = np.rint(X * _KM_SCALE).astype(np.int64)

    # serial replay of the exact-int law (arbitrary-precision sums)
    n, dim = q.shape
    s = q.sum(axis=0, dtype=object)
    ss = np.empty((dim, dim), dtype=object)
    qo = q.astype(object)
    for i in range(dim):
        ss[i] = (qo[:, i][:, None] * qo).sum(axis=0)
    S = ss.astype(np.float64)
    sv = s.astype(np.float64)
    cov = (S - np.outer(sv, sv) / n) / ((n - 1) * float(_KM_SCALE) ** 2)
    evals, evecs = np.linalg.eigh(cov)
    o = np.argsort(-evals, kind="stable")
    W = evecs[:, o[:2]]
    for c in range(2):
        j = int(np.argmax(np.abs(W[:, c])))
        if W[j, c] < 0:
            W[:, c] = -W[:, c]
    Wq = np.rint(W * _KM_SCALE).astype(np.int64)
    # the offset folds EXACT INTEGERS (r3-s5: a BLAS dot here drifted
    # with the driver's thread environment — see NOTES #78)
    off = np.array([
        float(sum(int(a) * int(w) for a, w in zip(s, Wq[:, c])))
        / (n * float(_KM_SCALE) ** 2) for c in range(2)])
    inv = 1.0 / (float(_KM_SCALE) ** 2)
    Y = (q @ Wq).astype(np.float64) * inv - off

    assert got.vec_id.tolist() == ids.tolist()
    # bitwise: the distributed path runs the identical integer ops
    assert got.pc_1.to_numpy().tolist() == Y[:, 0].tolist()
    assert got.pc_2.to_numpy().tolist() == Y[:, 1].tolist()

    # agreement with an unquantized float64 PCA within the grid bound
    Xc = X - X.mean(axis=0)
    covf = Xc.T @ Xc / (n - 1)
    ef, Vf = np.linalg.eigh(covf)
    of = np.argsort(-ef, kind="stable")
    Wf = Vf[:, of[:2]]
    for c in range(2):
        j = int(np.argmax(np.abs(Wf[:, c])))
        if Wf[j, c] < 0:
            Wf[:, c] = -Wf[:, c]
    Yf = Xc @ Wf
    assert np.abs(got[["pc_1", "pc_2"]].to_numpy() - Yf).max() < 1e-4
    # components actually separate variance: pc_1 var > pc_2 var
    assert got.pc_1.var() > got.pc_2.var()


def test_knn_label_predictions_bruteforce_parity(ray_session):
    """5-NN vote equals the serial O(n²) computation vector-for-vector
    (self excluded, score-desc/id-asc neighbor order, count-desc/
    label-asc vote tiebreak).  NB the synthetic labels are RANDOM with
    respect to geometry (1-NN agreement ≈ chance — same unlearnability
    as the documents' lang metadata, NOTES #60), so the pin is
    exactness, not accuracy."""
    import numpy as np
    import pyarrow.parquet as pq

    from kgray.pipelines.ann import knn_label_predictions

    sf = "/root/testdata/sf0.001"
    got = {r["vec_id"]: (r["pred_label"], r["n_votes"])
           for r in knn_label_predictions(sf).take_all()}

    t = pq.read_table(f"{sf}/embeddings.parquet")
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    lab = np.array(t.column("label").to_pylist(), dtype=np.int64)
    E = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    C = En @ En.T
    exp = {}
    for i in range(len(ids)):
        order = np.lexsort((ids, -C[i]))
        picked = [j for j in order if ids[j] != ids[i]][:5]
        uniq, cnt = np.unique(lab[picked], return_counts=True)
        exp[int(ids[i])] = (int(uniq[np.argmax(cnt)]), int(cnt.max()))
    assert got == exp
    assert all(1 <= nv <= 5 for _, nv in got.values())


def test_embedding_pca_blas_thread_independent():
    """Regression pin (r3-s5): the PCA centering offset once went
    through a BLAS dot whose last ulp varied with the driver's thread
    environment, breaking the bitwise gate between processes.  The
    offset now folds exact integers, so output is identical under
    different OPENBLAS/OMP thread counts — asserted across two fresh
    subprocesses."""
    import os
    import subprocess
    import sys

    script = """
import os, ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from kgray.pipelines.ann import embedding_pca
df = embedding_pca("/root/testdata/sf0.001").to_pandas() \\
    .sort_values("vec_id", ignore_index=True)
import hashlib
print("HASH", hashlib.md5(df.to_csv(float_format="%.17g")
                          .encode()).hexdigest())
ray.shutdown()
"""
    hashes = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300,
                             cwd="/root/repo")
        lines = [ln for ln in out.stdout.splitlines()
                 if ln.startswith("HASH ")]
        assert lines, out.stderr[-2000:]
        hashes.append(lines[0])
    assert hashes[0] == hashes[1]


def test_truncation_recall_sanity(ray_session):
    """dim=0 (full) recall is exactly 1.0; truncated recalls are in
    [0, 1] and overlap counts are consistent with the ratio."""
    from kgray.pipelines.ann import embedding_truncation_recall

    t = embedding_truncation_recall("/root/testdata/sf0.001").to_pandas()
    full = t[t["dim"] == 0].iloc[0]
    assert full["recall"] == 1.0
    assert full["sum_overlap"] == full["n_pairs"]
    for r in t.itertuples():
        assert 0.0 <= r.recall <= 1.0
        assert r.recall == r.sum_overlap / r.n_pairs


def test_ann_explicit_queries_match_adapter(ray_session):
    """The production ``queries=(q_ids, raw_vectors)`` input produces
    the same results as the sf_dir test-scale adapter on every ANN
    entry point (r3 VERDICT #5: query matrices are an explicit input;
    the adapter is a bounded streaming scan, never a full driver
    read)."""
    import numpy as np
    from kgray.pipelines import ann

    sf = "/root/testdata/sf0.001"
    q_ids, Eq = ann._query_rows(sf, 5)
    assert len(q_ids) == 5

    for fn in (ann.ann_topk_bruteforce, ann.ann_ivf_topk,
               ann.ann_pq_topk, ann.ann_hnsw_topk):
        a = fn(sf, n_queries=5).to_pandas().reset_index(drop=True)
        b = fn(sf, queries=(q_ids, Eq)).to_pandas().reset_index(drop=True)
        cols = sorted(a.columns)
        pd_a = a[cols].sort_values(cols).reset_index(drop=True)
        pd_b = b[cols].sort_values(cols).reset_index(drop=True)
        assert pd_a.equals(pd_b), fn.__name__


def test_softdedup_weights_law(ray_session):
    """Every copy kept, weight inversely proportional to its exact-dup
    count; unique docs get full weight; per-hash weight·copies ≈ 1e6
    (floor division)."""
    from kgray.pipelines.dedup import exact_dedup, softdedup_weights

    w = softdedup_weights(SF).to_pandas()
    ex = exact_dedup(SF).to_pandas()
    import pyarrow.parquet as pq
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert len(w) == n_docs                       # nothing dropped
    assert (w["weight_ppm"] == 1_000_000 // w["n_copies"]).all()
    # copy-count histogram must match exact_dedup's
    from collections import Counter
    assert (Counter(w["n_copies"] // 1)
            == Counter(ex["n_copies"].repeat(ex["n_copies"])))


def test_dup_count_histogram_planted(ray_session, tmp_path):
    """Planted multiplicities 1/2/5: histogram rows and the two
    conservation laws (Σ n_texts = distinct texts, Σ n_docs = rows)."""
    import pyarrow.parquet as pq
    from kgray.pipelines.dedup import dup_count_histogram

    texts = (["unique %d" % i for i in range(10)]
             + ["pair text"] * 2 + ["boiler"] * 5)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts)}), tmp_path / "documents.parquet")
    h = dup_count_histogram(str(tmp_path)).to_pandas() \
        .set_index("n_copies")
    assert h.loc[1, "n_texts"] == 10 and h.loc[1, "n_docs"] == 10
    assert h.loc[2, "n_texts"] == 1 and h.loc[2, "n_docs"] == 2
    assert h.loc[5, "n_texts"] == 1 and h.loc[5, "n_docs"] == 5
    assert h["n_docs"].sum() == len(texts)
    assert h["n_texts"].sum() == 12
