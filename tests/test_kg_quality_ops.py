

def test_alias_patch_incremental_equals_full(ray_session):
    """Alias-delta maintenance law: the incremental plan (re-link only
    sentences containing a patched surface, splice with the v1 linked
    checkpoint) equals a full re-link under the patched index — and
    the patch genuinely moves triples (non-vacuous)."""
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_alias_patch

    def canon(df):
        cols = sorted(df.columns)
        return df[cols].sort_values(cols, ignore_index=True)

    sf = "/root/testdata/sf0.001"
    inc = canon(kg_alias_patch(sf, plan="incremental").to_pandas())
    full = canon(kg_alias_patch(sf, plan="full").to_pandas())
    assert inc.equals(full)
    v1 = canon(entry._kg_graph(sf).to_pandas())
    assert not inc.equals(v1)


def test_kg_graph_zh_is_the_zh_subgraph(ray_session):
    """The zh-restricted graph's triples all carry zh-namespace
    entities and appear in the full graph with equal-or-lower support
    (zh pages are a subset of all pages)."""
    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_graph_zh

    sf = "/root/testdata/sf0.001"
    zh = kg_graph_zh(sf).to_pandas()
    assert len(zh) > 0
    full = entry._kg_graph(sf).to_pandas().set_index(
        ["subj", "pred", "obj"])["support"]
    for r in zh.itertuples():
        assert full.loc[(r.subj, r.pred, r.obj)] >= r.support


def test_kg_entity_distance_matches_serial_bfs(ray_session):
    """The distributed (shuffle-plan) bounded-depth BFS equals a serial
    BFS over the collected graph, seed for seed."""
    from collections import deque

    import __ray_entry__ as entry
    from kgray.pipelines.graph import kg_entity_distance

    sf = "/root/testdata/sf0.001"
    got = kg_entity_distance(sf, plan="shuffle").to_pandas() \
        .set_index("seed")
    g = entry._kg_graph(sf).to_pandas()
    adj: dict = {}
    for r in g.itertuples():
        adj.setdefault(r.subj, set()).add(r.obj)
        adj.setdefault(r.obj, set()).add(r.subj)
    for seed in got.index:
        dist = {seed: 0}
        dq = deque([seed])
        while dq:
            u = dq.popleft()
            if dist[u] >= 6:
                continue
            for v in adj.get(u, ()):  # max_depth = 6
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        n, s, m = len(dist), sum(dist.values()), max(dist.values())
        row = got.loc[seed]
        assert (row["n_reached"], row["sum_dist"],
                row["eccentricity_bounded"]) == (n, s, m), seed
        assert row["closeness_bounded_micro"] == 10**6 * (n - 1) // s
        assert row["max_depth"] == 6


def test_kg_entity_distance_dense_equals_shuffle(ray_session):
    """Plan twins: the collected-adjacency dense BFS and the
    sorted-merge-join shuffle BFS must emit identical tables, including
    the bfs_converged flag's first-empty-union-frontier rule."""
    from kgray.pipelines.graph import kg_entity_distance

    sf = "/root/testdata/sf0.001"
    dense = kg_entity_distance(sf, plan="dense").to_pandas() \
        .sort_values("seed").reset_index(drop=True)
    shuffle = kg_entity_distance(sf, plan="shuffle").to_pandas() \
        .sort_values("seed").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(dense, shuffle)
