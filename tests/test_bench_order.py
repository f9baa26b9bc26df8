"""The budgeted bench walk (bench.py) must cover every registry entry
exactly once (flagship family excluded — it is measured inside the
kg_pipeline headline), round-robin across operator families so a
budget-truncated walk still spans every family, and run cheap entries
before heavy ones within each family."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_bench_walk_order(ray_session):
    import bench
    import __ray_entry__ as entry

    names = bench._bench_names()
    meta = entry.queries_meta()
    registry = set(entry.queries())

    # exact cover of the registry minus the flagship set
    assert set(names) == registry - bench.FLAGSHIP
    assert len(names) == len(set(names))
    # no stale name in the cost tiers or the window
    for tier in (entry._HEAVY, entry._MEDIUM, entry._WINDOW):
        assert set(tier) <= registry, set(tier) - registry

    # the first pass of the round-robin touches every family once
    fams = {meta[n]["family"] for n in names}
    first = names[:len(fams)]
    assert len({meta[n]["family"] for n in first}) == len(fams)

    # cheap before heavy within each family
    rank = {"cheap": 0, "medium": 1, "heavy": 2}
    per_fam: dict = {}
    for n in names:
        per_fam.setdefault(meta[n]["family"], []).append(rank[meta[n]["cost"]])
    for fam, ranks in per_fam.items():
        assert ranks == sorted(ranks), fam


def test_window_is_head_of_registry(ray_session):
    import __ray_entry__ as entry

    q = list(entry.queries())
    assert q[:50] == entry._WINDOW
    meta = entry.queries_meta()
    assert all(meta[n]["window"] for n in q[:50])
    assert not any(meta[n]["window"] for n in q[50:])
