"""Session-28 batch: distributed Borůvka spanning forest (exact
serial-Kruskal equality under the total edge order + forest laws) and
the queryable gold-triple P/R/F1 surface (serial replay)."""

import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _edges(sf):
    import ray

    from kgray.pipelines.relational import (_copurchase_pair_counts,
                                            _unpack_pair)
    ds = (_copurchase_pair_counts(sf)
          .map_batches(_unpack_pair, batch_format="pyarrow",
                       zero_copy_batch=True)
          .filter(expr="n_copurchase >= 2"))
    out = []
    for t in ray.get(ds.to_arrow_refs()):
        if t.num_rows:
            out.extend(zip(t.column("part_a").to_pylist(),
                           t.column("part_b").to_pylist(),
                           t.column("n_copurchase").to_pylist()))
    return out


def _kruskal(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a, b, n in sorted(edges, key=lambda e: (-e[2], e[0], e[1])):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            chosen.append((a, b, n))
    return sorted(chosen)


def test_mst_equals_serial_kruskal(ray_session):
    from kgray.pipelines.graph import copurchase_mst

    got = copurchase_mst(SF).to_pylist()
    edges = _edges(SF)
    exp = _kruskal(edges)
    assert [(r["part_a"], r["part_b"], r["n_copurchase"])
            for r in got] == exp
    # forest law: |F| = |V| − #components
    nodes = {v for a, b, _ in edges for v in (a, b)}
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _n in exp:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    n_comp = len({find(v) for v in nodes})
    assert len(got) == len(nodes) - n_comp
    # Borůvka needs O(log n) rounds
    assert max(r["round_added"] for r in got) <= 12


def test_gold_eval_serial_replay(ray_session):
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_gold_eval
    from kgray.sources.derived import corpus_for_sf

    row = kg_gold_eval(SF).to_pylist()[0]
    graph = {(r["subj"], r["pred"], r["obj"])
             for r in entry.queries()["kg_graph"](SF).take_all()}
    gt = pq.read_table(f"{corpus_for_sf(SF)}/gold_triples.parquet",
                       columns=["subj", "pred", "obj"])
    gold = set(zip(gt.column("subj").to_pylist(),
                   gt.column("pred").to_pylist(),
                   gt.column("obj").to_pylist()))
    inter = len(graph & gold)
    assert row["n_extracted"] == len(graph)
    assert row["n_gold"] == len(gold)
    assert row["n_matched"] == inter
    assert row["precision_micro"] == 10**6 * inter // len(graph)
    assert row["recall_micro"] == 10**6 * inter // len(gold)
    assert row["f1_micro"] == \
        2 * 10**6 * inter // (len(graph) + len(gold))
    # the synthetic pipeline extracts only true facts
    assert row["precision_micro"] == 10**6


def test_schema_induction_laws(ray_session):
    from kgray.pipelines.graph import kg_schema_induction

    rows = kg_schema_induction(SF).to_pylist()
    assert rows
    per_pred = {}
    for r in rows:
        per_pred.setdefault(r["pred"], []).append(r)
    for pred, rs in per_pred.items():
        # shares are floors of a partition of the predicate's triples
        tot = sum(r["n_triples"] for r in rs)
        assert all(r["share_ppm"] == 10**6 * r["n_triples"] // tot
                   for r in rs)
        # dominant signature listed first per pred
        assert rs[0]["n_triples"] == max(r["n_triples"] for r in rs)
    by_sig = {(r["pred"], r["subj_type"], r["obj_type"]) for r in rows}
    # the generator's core relation typings must be induced as dominant
    dom = {p: max(rs, key=lambda r: r["n_triples"]) for p, rs in
           per_pred.items()}
    assert (dom["born_in"]["subj_type"], dom["born_in"]["obj_type"]) \
        == ("PER", "LOC")
    assert dom["works_for"]["obj_type"] == "ORG"
    assert len(by_sig) == len(rows)


def test_graph_diff_monotone_and_conserving(ray_session):
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_graph_diff

    rows = kg_graph_diff(SF, n_delta_files=1).take_all()
    full = entry.queries()["kg_graph"](SF).take_all()
    per_pred = {}
    for r in full:
        per_pred[r["pred"]] = per_pred.get(r["pred"], 0) + 1
    # added + kept partitions the FULL graph (extraction is monotone:
    # more pages never remove a triple)
    assert {r["pred"] for r in rows} == set(per_pred)
    for r in rows:
        assert r["n_added"] + r["n_kept"] == per_pred[r["pred"]]
        assert r["n_added"] >= 0 and r["n_kept"] >= 0
        assert r["support_gained"] >= 0


def test_mst_task_blocks_equal_driver_block(ray_session, monkeypatch):
    """At 64 edges a block, Borůvka's rounds run as raw Ray tasks over
    pinned blocks; the forest and its rounds equal the driver-held
    one-block run."""
    from kgray.pipelines.graph import copurchase_mst
    from kgray.stages import propagate

    driver = copurchase_mst(SF).to_pylist()
    monkeypatch.setattr(propagate, "_BLOCK_EDGES", 64)
    assert copurchase_mst(SF).to_pylist() == driver


def test_zh_mention_stats_replay(ray_session):
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_zh_mention_stats

    got = {r["etype"]: r for r in kg_zh_mention_stats(SF).take_all()}
    men = entry._kg_mentions(SF).take_all()
    zh = [m for m in men
          if any(ord(ch) > 127 for ch in m["surface"])]
    assert zh, "zh path must be non-vacuous"
    per = {}
    for m in zh:
        d = per.setdefault(m["etype"], {})
        d[m["surface"]] = d.get(m["surface"], 0) + 1
    assert set(got) == set(per)
    for t, d in per.items():
        assert got[t]["n_mentions"] == sum(d.values())
        assert got[t]["n_surfaces"] == len(d)


def test_predicate_trend_conservation(ray_session):
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_predicate_trend

    rows = kg_predicate_trend(SF).take_all()
    assert len({r["crawl_hour"] for r in rows}) > 1, "trend non-vacuous"
    # per-pred totals equal the canonical graph's support sums
    graph = entry.queries()["kg_graph"](SF).take_all()
    per_pred = {}
    for g in graph:
        per_pred[g["pred"]] = per_pred.get(g["pred"], 0) + g["support"]
    got = {}
    for r in rows:
        got[r["pred"]] = got.get(r["pred"], 0) + r["n_occurrences"]
    assert got == per_pred
