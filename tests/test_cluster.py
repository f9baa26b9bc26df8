"""Connected-components dedup resolution vs a union-find oracle."""

import random

import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _union_find_oracle(pairs):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def test_connected_components_random_graphs(ray_session):
    """Random sparse graphs (chains, stars, cliques, isolated pairs):
    distributed min-label propagation == union-find, exactly."""
    import ray.data as rd
    from kgray.pipelines.cluster import connected_components

    rng = random.Random(5)
    pairs = set()
    # chains (deep components exercise the iteration bound)
    base = 1000
    for c in range(4):
        ids = [base + c * 50 + i for i in range(8)]
        pairs.update(zip(ids, ids[1:]))
    # stars
    for c in range(3):
        hub = 2000 + c * 100
        pairs.update((hub, hub + i) for i in range(1, 9))
    # random edges among a small id pool (merges components)
    pool = [3000 + i for i in range(40)]
    for _ in range(30):
        a, b = rng.sample(pool, 2)
        pairs.add((min(a, b), max(a, b)))
    tbl = pa.table({"id_a": pa.array([a for a, _ in pairs], type=pa.int64()),
                    "id_b": pa.array([b for _, b in pairs], type=pa.int64())})
    got = connected_components(rd.from_arrow(tbl).repartition(5)).to_pandas()
    got_map = dict(zip(got["node"], got["cluster_id"]))
    assert got_map == _union_find_oracle(pairs)


def test_connected_components_empty(ray_session):
    from kgray.pipelines.cluster import connected_components

    empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                      "id_b": pa.array([], type=pa.int64())})
    assert connected_components(empty).count() == 0


def test_connected_components_unconverged_raises(ray_session):
    """Running out of ``max_iters`` is an error, never an unconverged
    labelling: one round cannot also confirm a chain's fixpoint."""
    import pytest

    from kgray.pipelines.cluster import connected_components

    chain = pa.table({"id_a": pa.array(range(0, 6), type=pa.int64()),
                      "id_b": pa.array(range(1, 7), type=pa.int64())})
    with pytest.raises(RuntimeError, match="no fixpoint after 1 rounds"):
        connected_components(chain, max_iters=1)
    got = connected_components(chain, max_iters=2).to_pandas()
    assert (got["cluster_id"] == 0).all() and len(got) == 7


def test_connected_components_deep_path_default_rounds(ray_session):
    """A 100-node path whose smallest id sits at the far end (ids 1..99,
    then 0): min labels alone move 0 one hop per round, so this needs
    root hooking to settle within the default ``max_iters``."""
    from kgray.pipelines.cluster import connected_components

    ids = list(range(1, 100)) + [0]
    pairs = {(min(a, b), max(a, b)) for a, b in zip(ids, ids[1:])}
    tbl = pa.table({"id_a": pa.array([a for a, _ in pairs], type=pa.int64()),
                    "id_b": pa.array([b for _, b in pairs], type=pa.int64())})
    got = connected_components(tbl).to_pandas()
    assert dict(zip(got["node"], got["cluster_id"])) == \
        _union_find_oracle(pairs)


def test_neardup_clusters_e2e(ray_session):
    """Pairs → clusters → keep-one over the sf0.001 documents table;
    exactly the union-find resolution of the verified LSH pair set."""
    from kgray.pipelines.cluster import neardup_clusters
    from kgray.pipelines.dedup import minhash_lsh_pairs

    pairs_tbl = minhash_lsh_pairs(SF, threshold=0.5)
    pairs = set(zip(pairs_tbl["doc_a"].to_pylist(), pairs_tbl["doc_b"].to_pylist()))
    assert pairs
    oracle = _union_find_oracle(pairs)
    got = neardup_clusters(SF, threshold=0.5).to_pandas()
    assert dict(zip(got["doc_id"], got["cluster_id"])) == oracle
    assert (got["keep_doc_id"] == got["cluster_id"]).all()
    # the keeper is a member of its own cluster
    keepers = set(got.loc[got["doc_id"] == got["cluster_id"], "doc_id"])
    assert keepers == set(oracle.values())


def test_connected_components_plans_identical(ray_session):
    """Dense union-find and shuffle min-label propagation compute the
    same fixpoint — bitwise plan equality on a multi-component graph
    with chains (diameter > 2) and singleton-edge stars."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgray.pipelines.cluster import connected_components

    rng = np.random.default_rng(17)
    # chain kept short: the shuffle plan is O(diameter) exchange
    # rounds by design (shallow-cluster workload) — diameter 12 still
    # needs many multi-exchange rounds without making the test minutes
    edges = {(int(i), int(i + 1)) for i in range(0, 12, 1)}       # chain
    edges |= {(100, int(x)) for x in range(101, 110)}             # star
    edges |= {(int(a), int(b)) for a, b in rng.integers(200, 230,
                                                        (30, 2))
              if a != b}
    tbl = pa.table({
        "id_a": pa.array([min(e) for e in sorted(edges)], type=pa.int64()),
        "id_b": pa.array([max(e) for e in sorted(edges)], type=pa.int64())})
    outs = {}
    for plan in ("dense", "shuffle"):
        df = connected_components(rd.from_arrow(tbl).repartition(7),
                                  plan=plan).to_pandas()
        outs[plan] = df.sort_values("node", ignore_index=True)
    assert outs["dense"].equals(outs["shuffle"])
    # chain resolves to one component rooted at its min
    assert (outs["dense"].set_index("node").loc[range(0, 13),
            "cluster_id"] == 0).all()


def test_neardup_keep_best_longest_wins(ray_session):
    """The keep rule: within every cluster, keep_doc_id is the member
    with the most tokens (doc_id-asc tiebreak); cluster memberships
    equal neardup_clusters'."""
    from kgray.pipelines.cluster import neardup_clusters, neardup_keep_best

    sf = "/root/testdata/sf0.001"
    best = neardup_keep_best(sf).to_pandas()
    ref = neardup_clusters(sf).to_pandas()
    assert sorted(zip(best["doc_id"], best["cluster_id"])) \
        == sorted(zip(ref["doc_id"], ref["cluster_id"]))
    for cid, grp in best.groupby("cluster_id"):
        w = grp.sort_values(["n_tokens", "doc_id"],
                            ascending=[False, True]).iloc[0]
        assert (grp["keep_doc_id"] == w["doc_id"]).all()
        assert len(grp) >= 2                    # clustered docs only
