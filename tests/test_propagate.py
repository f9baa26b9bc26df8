"""stages/propagate.py: the edge index and the sweep ``y = A ⊗ x``
(sum, min and the mode vote), both plans, against a serial loop over
the distinct edges."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd


def _toy_edges(key):
    """A hot hub (0 points at every node, most point back), duplicate
    edges, and a dangling sink (99 has in-edges only)."""
    rng = np.random.default_rng(7)
    pairs = [(0, v) for v in range(1, 40)] + [(v, 0) for v in range(1, 30)]
    pairs += [(int(a), int(b)) for a, b in rng.integers(1, 40, (120, 2))]
    pairs += pairs[:25]                                   # duplicates
    pairs += [(3, 99), (17, 99), (0, 99)]                 # sink 99
    return ([key(a) for a, _ in pairs], [key(b) for _, b in pairs])


def _serial(src, dst, nodes, x, op, direction):
    ix = {n: i for i, n in enumerate(nodes)}
    ident = 0 if op == "sum" else np.iinfo(np.int64).max
    f = np.add if op == "sum" else np.minimum
    y = np.full(x.shape, ident, dtype=np.int64)
    votes = {}
    for s, d in sorted(set(zip(src, dst))):
        pushes = {"forward": [(s, d)], "reverse": [(d, s)],
                  "both": [(s, d), (d, s)]}[direction]
        for frm, to in pushes:
            if op == "mode":
                count = votes.setdefault(ix[to], {})
                count[x[ix[frm]]] = count.get(x[ix[frm]], 0) + 1
            else:
                y[ix[to]] = f(y[ix[to]], x[ix[frm]])
    for to, count in votes.items():   # most votes, ties to the smallest
        y[to] = min(count, key=lambda v: (-count[v], v))
    return y, votes


@pytest.mark.parametrize("key", [str, int], ids=["string", "int64"])
@pytest.mark.parametrize("plan,block_edges", [
    ("dense", None), ("dense", 64), ("shuffle", None)],
    ids=["dense-driver", "dense-tasks", "shuffle"])
def test_sweep_matches_serial_loop(ray_session, monkeypatch, key, plan,
                                   block_edges):
    """A dense graph under ``_BLOCK_EDGES`` is one block swept on the
    driver; at 64 edges a block the toy graph spreads over four pinned
    blocks swept by Ray tasks."""
    from kgray.stages import propagate
    from kgray.stages.propagate import EdgeIndex

    if block_edges:
        monkeypatch.setattr(propagate, "_BLOCK_EDGES", block_edges)
    src, dst = _toy_edges(key)
    typ = pa.string() if key is str else pa.int64()
    edges = rd.from_arrow(pa.table({"src": pa.array(src, type=typ),
                                    "dst": pa.array(dst, type=typ)})
                          ).repartition(4)
    idx = EdgeIndex(edges, plan)
    assert idx._local == (plan == "dense" and not block_edges)

    # the index order is the sorted node order
    nodes = sorted(set(src) | set(dst))
    assert idx.nodes.to_pylist() == nodes and idx.n == len(nodes)
    assert idx.dense == (plan == "dense")

    rng = np.random.default_rng(3)
    x_sum = rng.integers(0, 1000, len(nodes)).astype(np.int64)
    x_min = rng.integers(0, 1000, (len(nodes), 2)).astype(np.int64)
    x_min[::3, 0] = np.iinfo(np.int64).max            # identity rows skip
    x_mode = rng.integers(0, 4, len(nodes)).astype(np.int64)
    for op, x in (("sum", x_sum), ("min", x_min), ("mode", x_mode)):
        for direction in ("forward", "reverse", "both"):
            got = idx.sweep(x, op, direction)
            exp, votes = _serial(src, dst, nodes, x, op, direction)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, exp, err_msg=f"{op} {direction}")
            if op == "mode":
                # the vote's tie rule is exercised: some node's top
                # count is shared by two or more values
                assert any(sorted(c.values())[-2:] == [max(c.values())] * 2
                           for c in votes.values() if len(c) > 1)

    # the sink has no out-edges and the hub reaches every other node
    outdeg = idx.sweep(np.ones(idx.n, dtype=np.int64), direction="reverse")
    assert outdeg[nodes.index(key(99))] == 0
    assert outdeg[nodes.index(key(0))] == len(nodes) - 1
