"""Fast exact distributed group-aggregate for Ray Data.

Ray's built-in ``groupby().aggregate()`` accumulates per group in
Python (≈ 50-90× slower than Arrow's C++ hash aggregation on the same
data — measured in this repo).  This operator keeps the same exact
semantics on a vectorized path:

1. range-partition **sort** on the key columns (Ray's native all-to-all;
   equal keys become contiguous, possibly spanning adjacent blocks),
2. per sorted block: ``pyarrow.Table.group_by`` (C++ hash aggregate).
   Rows whose key equals the block's *first or last* key might continue
   in a neighboring block, so their partials go through a separate
   edge pass,
3. edge partials (≤ 2 keys × blocks — tiny by construction, aggregated
   per block before collection) are merged in one driver-side Arrow
   aggregation and unioned back.

Supported reducers: ``sum, min, max, count`` (count is pre-combined to
``sum`` by callers).  All are associative/commutative, so combining
partials with the same reducer is exact.

Scale note (same pattern as ``stages/join.py``): the **sorted input**
is materialized — it is pinned by the sort's all-to-all barrier anyway
and bounded by the input size — never the aggregate *output*.  For a
mostly-unique key column (exact dedup of a mostly-unique corpus) the
output ≈ the input, so it must stream straight into downstream
consumers.  The materialized sorted blocks are consumed twice
zero-copy: a cheap edge pass that collects ≤ 2 aggregated rows per
block, and the streaming interior aggregation.

Skew note: equal keys land in one sort partition — hot keys must be
salted *before* this operator (see ``stages/canonical.py``), which is
exactly the north rule's salted-key design.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ._runs import edge_interior_exchange, nullsafe_sort

__all__ = ["sorted_group_aggregate", "rollup_aggregate",
           "grouping_sets_aggregate", "cube_aggregate"]

_MERGE_FN = {"sum": "sum", "min": "min", "max": "max"}


def _arrow_agg(t: pa.Table, keys: list, aggs: list) -> pa.Table:
    """C++ hash aggregate + restore original column names/order."""
    g = t.group_by(keys, use_threads=False).aggregate([(c, f) for c, f in aggs])
    cols = {}
    for c, f in aggs:
        cols[c] = g.column(f"{c}_{f}")
    for k in keys:
        cols[k] = g.column(k)
    names = keys + [c for c, _ in aggs]
    return pa.table({n: cols[n] for n in names})


def sorted_group_aggregate(ds, keys, aggs, precombine: bool = True):
    """Group ``ds`` by ``keys`` applying ``aggs = [(col, fn), ...]``
    with fn ∈ {sum, min, max}.  Returns a Dataset with columns
    ``keys + [col for col, _ in aggs]`` (one row per distinct key).

    ``precombine=True`` (default) runs a map-side Arrow hash aggregate
    per input block BEFORE the sort — exact for these associative
    reducers, and it shrinks the all-to-all by the reduction factor
    (e.g. 1M event rows → ~1.5k daily partials per block).  Pass
    ``precombine=False`` when the keys are mostly unique relative to
    the input (exact dedup on a content hash) or the caller already
    combined on the same keys — there the extra pass reduces nothing.
    """
    import ray
    import ray.data as rd

    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = [(c, _MERGE_FN[f]) for c, f in aggs]
    out_names = keys + [c for c, _ in aggs]

    if precombine:
        def _combine(batch: pa.Table) -> pa.Table:
            batch = batch.select(out_names)
            if batch.num_rows == 0:
                return batch
            return _arrow_agg(batch, keys, aggs)

        ds = ds.map_batches(_combine, batch_format="pyarrow",
                            zero_copy_batch=True)

    def _ns_eq(col, scalar):
        # null-safe equality: null == null (one null group, SQL GROUP BY
        # semantics); never returns a null mask (which filter() would
        # silently drop — the null-poisoning bug class, see stages/_runs.py)
        if not scalar.is_valid:
            return pc.is_null(col)
        return pc.fill_null(pc.equal(col, scalar), False)

    def _edge_mask(batch: pa.Table):
        """Rows whose key equals the block's first or last key (they may
        continue in a neighboring block)."""
        first_mask = None
        last_mask = None
        for k in keys:
            col = batch.column(k)
            fm = _ns_eq(col, col[0])
            lm = _ns_eq(col, col[-1])
            first_mask = fm if first_mask is None else pc.and_(first_mask, fm)
            last_mask = lm if last_mask is None else pc.and_(last_mask, lm)
        return pc.or_(first_mask, last_mask)

    # Input-sized pin (held by the sort's all-to-all anyway); the
    # aggregate output below streams.
    srt = nullsafe_sort(ds, keys).materialize()

    # Pass 1 (cheap): ≤ 2 aggregated edge rows per block to the driver.
    def edge_partials(batch: pa.Table) -> pa.Table:
        batch = batch.select(out_names)
        if batch.num_rows == 0:
            return batch
        edge = batch.filter(_edge_mask(batch))
        if edge.num_rows == 0:
            return batch.slice(0, 0)
        return _arrow_agg(edge, keys, aggs)

    # Pass 2 (streaming): interior aggregation; never materialized here.
    def interior_agg(batch: pa.Table) -> pa.Table:
        batch = batch.select(out_names)
        if batch.num_rows == 0:
            return batch
        interior = batch.filter(pc.invert(_edge_mask(batch)))
        if interior.num_rows == 0:
            return batch.slice(0, 0)
        return _arrow_agg(interior, keys, aggs)

    def merge(edge_tables) -> pa.Table:
        return _arrow_agg(pa.concat_tables(edge_tables), keys, aggs)

    return edge_interior_exchange(srt, edge_partials, interior_agg, merge)


def rollup_aggregate(ds, keys, aggs):
    """SQL ``GROUP BY ROLLUP(keys...)``: the union of aggregates at every
    key prefix — ``(k1, k2, ...)``, ``(k1, ..., NULL)``, …, grand total
    (all NULL).  Rolled-up key columns are NULL, matching SQL's output
    (no ``GROUPING()`` disambiguator — callers whose real data contains
    NULL keys can't tell the two apart, same caveat as plain SQL).

    Scale shape: only the FINEST level sees the input — one distributed
    ``sorted_group_aggregate`` over the raw rows.  Every coarser level
    re-aggregates the previous level's already-reduced output (sums of
    sums / min of mins are exact), so each extra level costs a shuffle
    of at most |distinct finer keys| rows, not another pass over the
    input.  The grand total folds on the driver (|distinct k1| rows).
    """
    import ray.data as rd

    from .topk import to_table

    keys = [keys] if isinstance(keys, str) else list(keys)

    finest = sorted_group_aggregate(ds, keys, aggs).materialize()
    levels = [finest]
    prev = finest
    for i in range(len(keys) - 1, 0, -1):
        nulled = keys[i:]
        prev = sorted_group_aggregate(
            prev.map_batches(lambda b, _n=tuple(nulled): pa.table(
                {name: b.column(name) for name in b.schema.names
                 if name not in _n}), batch_format="pyarrow"),
            keys[:i], aggs).materialize()
        schema = finest.schema()
        types = dict(zip(schema.names, schema.types))

        def pad(batch: pa.Table, _nulled=tuple(nulled), _types=types) -> pa.Table:
            cols = {}
            for name in schema.names:
                cols[name] = (pa.nulls(batch.num_rows, type=_types[name])
                              if name in _nulled else batch.column(name))
            return pa.table(cols)

        levels.append(prev.map_batches(pad, batch_format="pyarrow"))

    # grand total: fold the coarsest level's rows on the driver (tiny)
    allt = to_table(prev)
    schema = finest.schema()
    types = dict(zip(schema.names, schema.types))
    if allt.num_rows:
        total_cols = {}
        for name in schema.names:
            if name in keys:
                total_cols[name] = pa.nulls(1, type=types[name])
        for c, f in aggs:
            col = allt.column(c)
            total_cols[c] = pa.array(
                [getattr(pc, {"sum": "sum", "min": "min",
                              "max": "max"}[_MERGE_FN[f]])(col).as_py()],
                type=types[c])
        levels.append(rd.from_arrow(
            pa.table({n: total_cols[n] for n in schema.names})))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def grouping_sets_aggregate(ds, keys, aggs, sets):
    """SQL ``GROUP BY GROUPING SETS (sets...)`` — each set is a subset
    of ``keys``; rolled-up key columns are NULL (SQL output shape, same
    NULL-ambiguity caveat as :func:`rollup_aggregate`).

    Scale shape: the input is aggregated ONCE distributed at the finest
    grain (all of ``keys``); every requested set re-aggregates that
    already-reduced output (sums of sums / min of mins are exact), so
    each extra set costs a shuffle of |distinct finest keys| rows, not
    another pass over the input.  The empty set (grand total) folds on
    the driver.
    """
    import ray.data as rd

    from .topk import to_table

    keys = [keys] if isinstance(keys, str) else list(keys)
    sets = [list(s) for s in sets]
    for s in sets:
        assert set(s) <= set(keys), (s, keys)

    finest = sorted_group_aggregate(ds, keys, aggs).materialize()
    schema = finest.schema()
    types = dict(zip(schema.names, schema.types))

    def pad(batch: pa.Table, keep: tuple) -> pa.Table:
        cols = {}
        for name in schema.names:
            cols[name] = (batch.column(name)
                          if name in keep or name not in keys
                          else pa.nulls(batch.num_rows, type=types[name]))
        return pa.table(cols)

    levels = []
    total_sets = [s for s in sets if not s]
    for s in sets:
        if not s:
            continue
        if set(s) == set(keys):
            levels.append(finest)
            continue
        sub = sorted_group_aggregate(
            finest.map_batches(
                lambda b, _keep=tuple(s): pa.table(
                    {n: b.column(n) for n in b.schema.names
                     if n in _keep or n not in keys}),
                batch_format="pyarrow"),
            s, aggs)
        levels.append(sub.map_batches(
            lambda b, _keep=tuple(s): pad(b, _keep),
            batch_format="pyarrow"))

    if total_sets:
        allt = to_table(finest)
        if allt.num_rows:
            cols = {}
            for name in schema.names:
                if name in keys:
                    cols[name] = pa.nulls(1, type=types[name])
            for c, f in aggs:
                col = allt.column(c)
                cols[c] = pa.array(
                    [getattr(pc, _MERGE_FN[f])(col).as_py()],
                    type=types[c])
            one = rd.from_arrow(pa.table({n: cols[n] for n in schema.names}))
            for _ in total_sets:
                levels.append(one)

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def cube_aggregate(ds, keys, aggs):
    """SQL ``GROUP BY CUBE(keys...)``: every subset of ``keys``
    (2^k grouping sets) via :func:`grouping_sets_aggregate`."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sets = [[]]
    for k in keys:
        sets = sets + [s + [k] for s in sets]
    return grouping_sets_aggregate(ds, keys, aggs, sets)
