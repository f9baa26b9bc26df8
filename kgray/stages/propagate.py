"""One propagation primitive for the iterative graph analytics:
``y = A ⊗ x`` over an integer-indexed edge set, under the ``sum`` or
``min`` semiring (GraphBLAS's ``mxv``, Kepner et al. HPEC 2016), or a
``mode`` vote.

:class:`EdgeIndex` indexes an edge Dataset (``src``, ``dst``; string
or integer keys) ONCE:

- the node universe is the distinct endpoint set, sorted once — node
  ``i`` is the i-th smallest key, so ``nodes`` is the output order;
- every edge becomes an int64 ``(si, di)`` pair by ``pc.index_in``
  against that universe (no per-row Python);
- duplicate edges collapse, and the distinct pairs are held as pinned
  Arrow blocks of ~``_BLOCK_EDGES`` edges, each a contiguous ``si``
  range sorted by ``(si, di)``.

The passes are raw Ray tasks over the input's blocks; no sort exchange
runs.  A dense graph of at most ``_BLOCK_EDGES`` edges is one block
that the driver builds and sweeps itself, with no task at all.
:meth:`EdgeIndex.edges` hands the distinct edges back as a Dataset of
keys (``dedup._bucket_pairs`` deduplicates LSH candidate pairs so).
:meth:`EdgeIndex.sweep` pushes a node vector (NumPy,
one value per node, or one COLUMN per node set) along the edges:
``forward`` computes ``y[dst] = ⊕ x[src]``, ``reverse`` the transposed
``y[src] = ⊕ x[dst]``, ``both`` the two at once (the undirected
graph).  Under ``mode`` each node takes the value most of its
neighbours send, ties to the smallest value.  Nodes no edge reaches
get ⊕'s identity (0 for sum, int64 max for min and mode).

The plan only decides how the vector meets the edge blocks:

- dense (at or below ``_DENSE_MAX_NODES`` nodes): ``x`` is broadcast
  (``ray.put``) to one raw Ray task per block, which returns a sparse
  (node, partial) pair merged on the driver with ``⊕``.  Raw tasks, not
  ``map_batches``: re-entering the streaming executor each iteration
  costs ~0.3-0.5 s of fixed overhead, which dominates small graphs.
- shuffle: block ``j`` receives only its own ``si`` range of ``x``
  (a reverse sweep runs over the transposed blocks, ``di`` ranges
  sorted by ``(di, si)``, exchanged once on the first such sweep),
  and splits its partial by target range, one piece per reducer; one
  raw reduce task per range ⊕-merges its pieces into that slice of
  ``y``.  ``x`` is never broadcast, and no partial reaches the driver
  until it is reduced.

Both plans reduce int64 values with an associative, commutative
operator, so their results are bit-identical whatever the block split.
A ``mode`` partial is a set of (target, value) counts: ⊕ sums the
counts, and the vote is taken only after the merge (a shuffle reducer
sees every count for its target range).
The node universe and the node-sized vectors live on the driver in both
plans (the algorithms' recurrences are NumPy); only edge-sized work is
distributed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["EdgeIndex", "jump", "map_blocks", "merge", "partial", "pin"]

# at or below this many nodes, sweeps broadcast the vector (~16 MB per
# int64 column at the limit); above it each block gets its own range
_DENSE_MAX_NODES = 2_000_000

# distinct edges per pinned block (16 bytes each, ~16 MB a block)
_BLOCK_EDGES = 1 << 20

_IDENTITY = {"sum": 0, "min": np.iinfo(np.int64).max,
             "mode": np.iinfo(np.int64).max}
_UFUNC = {"sum": np.add, "min": np.minimum}
_DIRECTIONS = {"forward": (("si", "di"),), "reverse": (("di", "si"),),
               "both": (("si", "di"), ("di", "si"))}


def _endpoints(block: pa.Table) -> pa.Array:
    if block.num_rows == 0:
        return pa.array([])
    return pc.unique(pa.concat_arrays([block.column("src").combine_chunks(),
                                       block.column("dst").combine_chunks()]))


def _split(key: np.ndarray, n: int, n_parts: int) -> list:
    """Sorted packed keys ``a·n + b`` cut into ``n_parts`` contiguous
    ``a`` ranges (range ``j`` starts at ``a = j·n // n_parts``)."""
    cuts = np.searchsorted(key, np.arange(1, n_parts) * n // n_parts * n)
    return np.split(key, cuts)


def _index_block(block: pa.Table, nodes: pa.Array, n_parts: int):
    """Distinct packed edge keys ``si·n + di`` of one input block, split
    into ``n_parts`` contiguous ``si`` ranges."""
    n = len(nodes)
    key = np.zeros(0, dtype=np.int64)
    if block.num_rows:
        si, di = (pc.index_in(block.column(c), value_set=nodes).to_numpy()
                  .astype(np.int64) for c in ("src", "dst"))
        key = np.unique(si * n + di)
    return _split(key, n, n_parts)


def _transpose_block(block: pa.Table, n: int, n_parts: int):
    """One edge block's transposed keys ``di·n + si``, split into
    ``n_parts`` contiguous ``di`` ranges."""
    return _split(np.sort(block.column("di").to_numpy() * n
                          + block.column("si").to_numpy()), n, n_parts)


def _edge_block(n: int, *parts) -> pa.Table:
    si, di = np.divmod(np.unique(np.concatenate(parts)), n)
    return pa.table({"si": si, "di": di})


def _keys(block: pa.Table, nodes: pa.Array) -> pa.Table:
    """An edge block's ``(si, di)`` positions as ``(src, dst)`` keys."""
    return pa.table({"src": nodes.take(block.column("si")),
                     "dst": nodes.take(block.column("di"))})


def _votes(to: np.ndarray, val: np.ndarray, cnt: np.ndarray):
    """Vote counts ``cnt`` summed per distinct (target, value) pair:
    the targets and one (value, count) row each, sorted by both."""
    order = np.lexsort((val, to))
    to, val = to[order], val[order]
    starts = np.flatnonzero(np.r_[True, (to[1:] != to[:-1])
                                  | (val[1:] != val[:-1])])
    return to[starts], np.stack(
        [val[starts], np.add.reduceat(cnt[order], starts)], axis=1)


def partial(to: np.ndarray, vals: np.ndarray, op: str):
    """A sparse partial: the distinct targets ``to`` and the ⊕ of the
    ``vals`` sent to each (``mode``: one (value, count) row per
    distinct (target, value) pair); None when nothing is sent."""
    if len(to) == 0:
        return None
    if op == "mode":
        return _votes(to, vals, np.ones(len(to), dtype=np.int64))
    order = np.argsort(to, kind="stable")
    to = to[order]
    starts = np.flatnonzero(np.r_[True, to[1:] != to[:-1]])
    return to[starts], _UFUNC[op].reduceat(vals[order], starts, axis=0)


def _push(block: pa.Table, x: np.ndarray, op: str, direction: str,
          lo: int = 0):
    """One block's sparse partial of a sweep: the nodes it reaches and
    the ⊕-reduced values pushed into them.  ``x`` holds the vector's
    rows from node ``lo`` on."""
    cols = {c: block.column(c).to_numpy() for c in ("si", "di")}
    frm = np.concatenate([cols[f] for f, _ in _DIRECTIONS[direction]]) - lo
    to = np.concatenate([cols[t] for _, t in _DIRECTIONS[direction]])
    return partial(to, x[frm], op)


def _push_split(block: pa.Table, x: np.ndarray, lo: int, op: str,
                bounds: list) -> list:
    """The shuffle plan's map side: a block of the ``si`` range from
    ``lo`` pushes its slice ``x`` forward; its partial is cut at the
    range ``bounds``, one piece per reducer."""
    part = _push(block, x, op, "forward", lo)
    if part is None:
        return [None] * (len(bounds) - 1)
    cuts = np.searchsorted(part[0], bounds[1:-1])
    return list(zip(np.split(part[0], cuts), np.split(part[1], cuts)))


def merge(y: np.ndarray, parts, op: str, lo: int = 0) -> np.ndarray:
    """⊕-merge sparse partials into ``y``, which holds rows from node
    ``lo`` on.  ``mode`` sums the counts first, then each target takes
    its most counted value, ties to the smallest."""
    parts = [p for p in parts if p is not None and len(p[0])]
    if op == "mode" and parts:
        to, vc = (np.concatenate(a) for a in zip(*parts))
        to, vc = _votes(to, vc[:, 0], vc[:, 1])
        order = np.lexsort((vc[:, 0], -vc[:, 1], to))
        first = order[np.r_[True, to[order][1:] != to[order][:-1]]]
        y[to[first] - lo] = vc[first, 0]
        return y
    for to, vals in parts:
        y[to - lo] = _UFUNC[op](y[to - lo], vals)
    return y


def _reduce(lo: int, hi: int, shape: tuple, op: str, *parts) -> np.ndarray:
    """The shuffle plan's reduce side: rows ``lo``..``hi`` of ``y``."""
    return merge(np.full((hi - lo,) + shape, _IDENTITY[op], dtype=np.int64),
                 parts, op, lo)


def map_blocks(fn, blocks, local: bool, *args) -> list:
    """``fn(block, *args)`` for every block: in-process for driver-held
    blocks (``local``), else one raw Ray task per block."""
    if local:
        return [fn(b, *args) for b in blocks]
    import ray

    task = ray.remote(fn)
    return ray.get([task.remote(b, *args) for b in blocks])


def pin(edges, plan: str = "auto"):
    """An edge Dataset (``src``, ``dst`` and any other columns) made
    ready for block passes: ``(blocks, local, nodes)``.  A graph of at
    most ``_BLOCK_EDGES`` edges is one table the driver holds
    (``local``) unless ``plan`` is ``"shuffle"``: a task round trip per
    pass (~20 ms over 9-14 blocks of a 15k-edge graph at 4 CPUs,
    against 0.6 ms in-process) would cost more than the pass itself.
    Otherwise ``blocks`` are the Dataset's block refs.  ``nodes`` is the
    sorted distinct endpoint set."""
    import ray

    edges = edges.materialize()
    blocks = edges.to_arrow_refs()
    local = plan != "shuffle" and edges.count() <= _BLOCK_EDGES
    if local:
        tables = [t for t in ray.get(blocks) if t.num_rows]
        blocks = [pa.concat_tables(tables, promote_options="permissive")
                  ] if tables else []
    ends = [a for a in map_blocks(_endpoints, blocks, local) if len(a)]
    if ends:
        nodes = pc.unique(pa.concat_arrays(ends))
        return blocks, local, nodes.take(pc.array_sort_indices(nodes))
    schema = edges.schema()  # Ray drops an empty Dataset's schema now and then
    return blocks, local, pa.array([], type=schema.types[
        schema.names.index("src")] if schema else pa.string())


def jump(label: np.ndarray) -> np.ndarray:
    """Pointer jumping: ``label = label[label]`` until it stops
    changing.  Every label must be a node at or below its own position,
    so each chain ends at a node labelled with itself."""
    while True:
        nxt = label[label]
        if (nxt == label).all():
            return label
        label = nxt


class EdgeIndex:
    """The distinct edges of ``edges`` over its sorted node universe
    (see the module docstring); ``plan`` is ``"auto"``, ``"dense"`` or
    ``"shuffle"``."""

    def __init__(self, edges, plan: str = "auto"):
        import ray

        assert plan in ("auto", "dense", "shuffle")
        edges = edges.materialize()
        n_parts = -(-edges.count() // _BLOCK_EDGES)
        blocks, self._local, self.nodes = pin(edges, plan)
        self.n = n = len(self.nodes)
        assert n < 3_000_000_000, "packed edge keys need n² < 2⁶³"
        self.dense = plan == "dense" or (plan == "auto"
                                         and n <= _DENSE_MAX_NODES)
        # shuffle plan: the transposed blocks, exchanged on the first
        # reverse sweep
        self._t_blocks = None
        if n == 0:
            self._blocks = []
        elif self._local:
            self._blocks = [_edge_block(n, *_index_block(blocks[0],
                                                         self.nodes, 1))]
        else:
            n_parts = max(2, n_parts)
            self._bounds = [j * n // n_parts for j in range(n_parts + 1)]
            self._blocks = self._exchange(_index_block, blocks,
                                          ray.put(self.nodes), n_parts)

    def edges(self):
        """The distinct edges as a Dataset of ``(src, dst)`` keys, one
        block per pinned block, each sorted by ``(src, dst)``."""
        import ray
        import ray.data as rd

        if self._local or not self._blocks:
            empty = _edge_block(1, np.zeros(0, dtype=np.int64))
            return rd.from_arrow([_keys(b, self.nodes)
                                  for b in self._blocks or [empty]])
        task, nodes = ray.remote(_keys), ray.put(self.nodes)
        return rd.from_arrow_refs([task.remote(b, nodes)
                                   for b in self._blocks])

    def _exchange(self, split, blocks, arg, k: int) -> list:
        """``k`` pinned edge blocks from ``split(block, arg, k)``'s
        packed keys: piece ``j`` of every block goes to block ``j``."""
        import ray

        task = ray.remote(split).options(num_returns=k)
        parts = [task.remote(b, arg, k) for b in blocks]
        block = ray.remote(_edge_block)
        return [block.remote(self.n, *[p[j] for p in parts])
                for j in range(k)]

    def sweep(self, x: np.ndarray, op: str = "sum",
              direction: str = "forward") -> np.ndarray:
        """``y = A ⊗ x`` under ``op`` (``"sum"``, ``"min"`` or
        ``"mode"``): ``x`` is int64 with one row per node (1-D, or for
        sum and min 2-D with one column per vector); ``y`` has the same
        shape."""
        x = np.ascontiguousarray(x, dtype=np.int64)
        assert op != "mode" or x.ndim == 1
        y = np.full(x.shape, _IDENTITY[op], dtype=np.int64)
        if not self._blocks:
            return y
        if self.dense:
            import ray

            x_arg = x if self._local else ray.put(x)
            return merge(y, map_blocks(_push, self._blocks, self._local,
                                       x_arg, op, direction), op)
        return self._sweep_shuffle(x, op, direction)

    def _sweep_shuffle(self, x, op, direction):
        import ray

        b = self._bounds
        if direction != "forward" and self._t_blocks is None:
            self._t_blocks = self._exchange(_transpose_block, self._blocks,
                                            self.n, len(self._blocks))
        views = {"forward": [self._blocks], "reverse": [self._t_blocks],
                 "both": [self._blocks, self._t_blocks]}[direction]
        push = ray.remote(_push_split).options(num_returns=len(b) - 1)
        parts = [push.remote(blk, x[b[j]:b[j + 1]], b[j], op, b)
                 for blocks in views for j, blk in enumerate(blocks)]
        reduce = ray.remote(_reduce)
        return np.concatenate(ray.get([
            reduce.remote(b[j], b[j + 1], x.shape[1:], op,
                          *[p[j] for p in parts])
            for j in range(len(b) - 1)]))
