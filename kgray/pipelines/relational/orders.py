"""Order lifecycle: TPC-H order shapes, CDC/SCD2/time-travel/bitemporal state, consistency audits, forecasting.

Split from the former single-file relational pipeline module; see
``kgray/pipelines/relational/__init__.py`` for the package map.
"""

from __future__ import annotations
import math
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ...stages.aggregate import sorted_group_aggregate
from ...stages.topk import to_table

from ._shared import (  # noqa: F401
    _cents,
    _skyline_2d,
)


def pricing_summary(sf_dir: str):
    """TPC-H Q1-flavored: filter on ship date, derive revenue, partial
    per-batch aggregation, groupby flags (cf. A1-A5 as relational ops)."""
    def prep(batch: pa.Table) -> pa.Table:
        mask = pc.less(batch.column("l_shipdate"),
                       pa.scalar(pd.Timestamp("1998-09-01")))
        b = batch.filter(mask)
        price = b.column("l_extendedprice")
        disc = b.column("l_discount")
        revenue = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "qty": pc.cast(pc.floor(pc.add(b.column("l_quantity"), pa.scalar(0.5))), pa.int64()),
            "price_cents": _cents(price),
            "revenue_cents": pc.cast(pc.floor(pc.add(pc.multiply(revenue, pa.scalar(100.0)),
                                               pa.scalar(0.5))), pa.int64()),
            "count_order": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    prepped = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                               columns=["l_returnflag", "l_linestatus", "l_quantity",
                                        "l_extendedprice", "l_discount", "l_shipdate"])
               .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True))
    out = sorted_group_aggregate(prepped, ["l_returnflag", "l_linestatus"],
                                 [("qty", "sum"), ("price_cents", "sum"),
                                  ("revenue_cents", "sum"), ("count_order", "sum")])
    return out.map_batches(lambda b: b.rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_price_cents",
         "sum_revenue_cents", "count_order"]), batch_format="pyarrow")


def order_priority_revenue(sf_dir: str):
    """Large×large join demo: lineitem ⋈ orders on the order key via the
    distributed sorted-merge join (no broadcast), then revenue per
    order priority."""
    from ...stages.join import sorted_merge_join

    def prep_li(b: pa.Table) -> pa.Table:
        revenue = pc.multiply(b.column("l_extendedprice"),
                              pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return pa.table({
            "orderkey": b.column("l_orderkey"),
            "revenue_cents": pc.cast(pc.floor(pc.add(pc.multiply(revenue, pa.scalar(100.0)),
                                              pa.scalar(0.5))), pa.int64()),
            "n_items": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_extendedprice", "l_discount"])
          .map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True))
    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderpriority"])
              .map_batches(lambda b: pa.table({
                  "orderkey": b.column("o_orderkey"),
                  "o_orderpriority": b.column("o_orderpriority")}),
                  batch_format="pyarrow", zero_copy_batch=True))
    joined = sorted_merge_join(li, orders, on="orderkey")
    return sorted_group_aggregate(joined, "o_orderpriority",
                                  [("revenue_cents", "sum"), ("n_items", "sum")])


def lineitem_qty_price_corr(sf_dir: str):
    """Per-returnflag sample covariance + Pearson correlation between
    quantity and extended price (``stages/stats.py:grouped_corr``) —
    exact integer moments, mirrored IEEE finalize, bitwise oracle."""
    from ...stages.stats import grouped_corr

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity",
                                  "l_extendedprice"])
    cents = li.map_batches(lambda b: pa.table({
        "l_returnflag": b.column("l_returnflag"),
        "qty_c": _cents(b.column("l_quantity")),
        "price_c": _cents(b.column("l_extendedprice"))}),
        batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_corr(cents, "l_returnflag", "qty_c", "price_c")
    return out.map_batches(lambda b: pa.table({
        "l_returnflag": b.column("l_returnflag"),
        "n": b.column("n"),
        "covar_qp": b.column("covar_xy"),
        "corr_qp": b.column("corr_xy")}),
        batch_format="pyarrow", zero_copy_batch=True)


def large_orders(sf_dir: str, min_qty: int = 150):
    """TPC-H Q18-flavored: group the fact table by order key (HAVING
    sum(qty) > threshold), then enrich the surviving orders via a
    distributed sorted-merge join against orders and a broadcast
    customer-name lookup.  The HAVING filter runs before any join, so
    the join input is already the small survivor set."""
    from ...stages.broadcast import broadcast_join
    from ...stages.join import sorted_merge_join

    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_quantity"])
          .map_batches(lambda b: pa.table({
              "orderkey": b.column("l_orderkey"),
              "qty": pc.cast(pc.floor(pc.add(b.column("l_quantity"),
                                             pa.scalar(0.5))), pa.int64())}),
              batch_format="pyarrow", zero_copy_batch=True))
    big = (sorted_group_aggregate(li, "orderkey", [("qty", "sum")])
           .filter(expr=f"qty > {int(min_qty)}")
           .map_batches(lambda b: b.rename_columns(["orderkey", "sum_qty"]),
                        batch_format="pyarrow", zero_copy_batch=True))

    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_orderdate", "o_totalprice"])
              .map_batches(lambda b: pa.table({
                  "orderkey": b.column("o_orderkey"),
                  "c_custkey": b.column("o_custkey"),
                  "o_orderdate": b.column("o_orderdate"),
                  "total_cents": _cents(b.column("o_totalprice"))}),
                  batch_format="pyarrow", zero_copy_batch=True))
    joined = sorted_merge_join(big, orders, on="orderkey")

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    return broadcast_join(joined, cust, on="c_custkey")


def orders_above_cust_avg(sf_dir: str):
    """Correlated-subquery decorrelation: orders costing more than THEIR
    customer's average order value.  The correlated ``AVG`` becomes one
    per-customer aggregate pass, re-joined to the fact scan via the
    distributed sorted-merge join; the average comparison is done by
    integer cross-multiplication (``total·n > sum``) so it stays exact
    — no float division anywhere."""
    from ...stages.join import sorted_merge_join

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "o_orderkey": b.column("o_orderkey"),
            "total_cents": _cents(b.column("o_totalprice"))})

    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_custkey",
                                       "o_totalprice"])
              .map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True))
    agg = (sorted_group_aggregate(
        orders.map_batches(lambda b: pa.table({
            "o_custkey": b.column("o_custkey"),
            "sum_cents": b.column("total_cents"),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "o_custkey", [("sum_cents", "sum"), ("n_orders", "sum")]))
    joined = sorted_merge_join(orders, agg, on="o_custkey")

    def keep(b: pa.Table) -> pa.Table:
        lhs = pc.multiply(b.column("total_cents"), b.column("n_orders"))
        mask = pc.fill_null(pc.greater(lhs, b.column("sum_cents")), False)
        return b.filter(mask).select(["o_orderkey", "o_custkey",
                                      "total_cents"])

    return joined.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def fk_orphan_audit(sf_dir: str, corrupt_permille: int = 100):
    """Referential-integrity audit as a data-quality operator: count,
    per event type, facts whose ``user_id`` has no matching customer
    row.  The natural testdata is perfectly consistent (0 orphans
    everywhere — vacuous), so a deterministic md5-selected ~10% of
    events is first 'corrupted' (user_id shifted out of range),
    mirrored literally in the oracle — the ``pii_scrub`` injection
    pattern.

    The membership check is the bloom-prefiltered ANTI join
    (``stages/semijoin.py``): customer keys tree-reduce into a bitset
    broadcast once; bloom-negative events are definite orphans and
    never pay the shuffle."""
    from ...functions.sampling import _md5_bucket
    from ...stages.semijoin import semi_join

    def corrupt(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.select(["event_id", "event_type", "user_id"])
        sel = _md5_bucket(b.column("event_id").to_pylist(),
                          1000) < corrupt_permille
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": b.column("event_id"),
            "event_type": b.column("event_type"),
            "user_id": pa.array(np.where(sel, uid + 1_000_000, uid),
                                type=pa.int64())})

    ev = (rd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_id", "event_type", "user_id"])
          .map_batches(corrupt, batch_format="pyarrow",
                       zero_copy_batch=True))
    cust = (rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey"])
            .map_batches(lambda b: b.rename_columns(["user_id"]),
                         batch_format="pyarrow", zero_copy_batch=True))
    orphans = semi_join(ev, cust, on="user_id", anti=True,
                        bloom_bits=1 << 20)

    # per-type totals don't depend on the corruption — aggregate the RAW
    # scan so the per-row md5 runs once, in the audit path only
    totals = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type"])
        .map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "n_events": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "event_type", [("n_events", "sum")])
    orphan_counts = sorted_group_aggregate(
        orphans.map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "n_orphans": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "event_type", [("n_orphans", "sum")])

    from ...stages.join import sorted_merge_join
    out = sorted_merge_join(totals, orphan_counts, on="event_type",
                            how="left")
    return out.map_batches(lambda b: pa.table({
        "event_type": b.column("event_type"),
        "n_events": b.column("n_events"),
        "n_orphans": pc.fill_null(b.column("n_orphans"),
                                  pa.scalar(0, type=pa.int64()))}),
        batch_format="pyarrow", zero_copy_batch=True)


def orders_cdc_latest(sf_dir: str):
    """CDC / MERGE-INTO semantics: apply a changelog to a snapshot with
    latest-version-wins and DELETE support.  A deterministic changelog
    is derived from orders (md5-selected ~30% of keys get a version-1
    change; a third of those are deletes), the snapshot unions with it,
    one grouped top-1 exchange keeps each key's latest version, and
    surviving deletes drop out — the upsert path of every lakehouse
    table format, as a streaming Ray op."""
    from ...functions.sampling import _md5_bucket
    from ...stages.topk import grouped_topk

    def base_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "version": pa.array(np.zeros(n, dtype=np.int64)),
            "op": pa.array(["U"] * n, type=pa.string()),
            "price": b.column("o_totalprice")})

    def change_rows(b: pa.Table) -> pa.Table:
        h = _md5_bucket(b.column("o_orderkey").to_pylist(), 1000)
        t = b.filter(pa.array(h < 300))
        hh = h[h < 300]
        ops = np.where(hh < 100, "D", "U")
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "version": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "op": pa.array(ops.tolist(), type=pa.string()),
            "price": pc.add(t.column("o_totalprice"), pa.scalar(10.0))})

    scan = lambda: rd.read_parquet(f"{sf_dir}/orders.parquet",  # noqa: E731
                                   columns=["o_orderkey", "o_totalprice"])
    base = scan().map_batches(base_rows, batch_format="pyarrow",
                              zero_copy_batch=True)
    chg = scan().map_batches(change_rows, batch_format="pyarrow",
                             zero_copy_batch=True)
    latest = grouped_topk(base.union(chg), group="o_orderkey",
                          order_col="version", tiebreak="op", k=1)

    def finish(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.equal(b.column("op"), pa.scalar("U")), False)
        t = b.filter(keep)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "total_cents": _cents(t.column("price")),
            "version": t.column("version")})

    return latest.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def pareto_orders(sf_dir: str):
    """Skyline (Pareto-optimal) query: orders not dominated on
    (total price, order date) — no other order is ≥ in both and > in
    at least one.  The classic distributed plan: each block reduces to
    its LOCAL skyline (local domination implies global — the pruned
    rows can never resurface), the union of local skylines is tiny and
    resolves in one final driver pass.  No shuffle at all; the oracle
    is the quadratic NOT EXISTS domination query."""
    def local(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                             "total_cents": pa.array([], type=pa.int64()),
                             "date_us": pa.array([], type=pa.int64())})
        price = _cents(b.column("o_totalprice")).to_numpy()
        date = pc.cast(b.column("o_orderdate"),
                       pa.int64()).to_numpy(zero_copy_only=False)
        idx = _skyline_2d(price, date)
        return pa.table({
            "o_orderkey": b.column("o_orderkey").take(pa.array(idx)),
            "total_cents": pa.array(price[idx], type=pa.int64()),
            "date_us": pa.array(date[idx], type=pa.int64())})

    t = to_table(rd.read_parquet(f"{sf_dir}/orders.parquet",
                                 columns=["o_orderkey", "o_totalprice",
                                          "o_orderdate"])
                 .map_batches(local, batch_format="pyarrow",
                              zero_copy_batch=True))
    idx = _skyline_2d(t.column("total_cents").to_numpy(),
                      t.column("date_us").to_numpy())
    out = t.take(pa.array(np.sort(idx)))
    return out


def orders_monthly_seasonality(sf_dir: str):
    """Calendar-bucketed aggregation: orders per (year, month) with
    exact revenue cents — Arrow's temporal kernels (``pc.year`` /
    ``pc.month``, proleptic Gregorian, same as SQL EXTRACT) bucket each
    batch vectorized, map-side combine shrinks the exchange to the
    calendar frame."""
    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        return pa.table({
            "year": pc.cast(pc.year(d), pa.int64()),
            "month": pc.cast(pc.month(d), pa.int64()),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "revenue_cents": _cents(b.column("o_totalprice"))})

    return sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderdate", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["year", "month"], [("n_orders", "sum"), ("revenue_cents", "sum")])


def orders_quarter_growth(sf_dir: str):
    """Quarter-over-quarter revenue growth: the calendar aggregate
    reduces the fact table to one row per quarter (tiny by definition),
    the LAG + growth ratio then run on the driver over that reduced
    frame — exact cents everywhere, ONE mirrored float division per
    row; the first quarter's growth is NULL (SQL LAG semantics)."""
    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        return pa.table({
            "year": pc.cast(pc.year(d), pa.int64()),
            "quarter": pc.cast(pc.quarter(d), pa.int64()),
            "revenue_cents": _cents(b.column("o_totalprice"))})

    agg = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderdate", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["year", "quarter"], [("revenue_cents", "sum")])
    t = (agg.to_pandas()
         .sort_values(["year", "quarter"], ignore_index=True))
    rev = t["revenue_cents"].to_numpy()
    prev = np.empty(len(rev), dtype=np.int64)
    prev[0] = 0
    prev[1:] = rev[:-1]
    growth = np.full(len(rev), np.nan)
    mask = np.arange(len(rev)) > 0
    nz = mask & (prev != 0)
    growth[nz] = (rev[nz] - prev[nz]) * 100.0 / prev[nz]
    return pa.table({
        "year": pa.array(t["year"], type=pa.int64()),
        "quarter": pa.array(t["quarter"], type=pa.int64()),
        "revenue_cents": pa.array(rev, type=pa.int64()),
        "prev_cents": pa.array(
            [int(prev[i]) if i > 0 else None for i in range(len(rev))],
            type=pa.int64()),
        "growth_pct": pa.array(
            [float(growth[i]) if not np.isnan(growth[i]) else None
             for i in range(len(rev))], type=pa.float64())})


def orders_price_band(sf_dir: str, lo_cents: int = 10_000_00,
                      hi_cents: int = 20_000_00):
    """Zone-map pruned band query: orders are laid out ONCE sorted by
    price (``stages/layout.py`` — file footers become non-overlapping
    zone maps, cached per sf under /tmp), then the band scan opens only
    the overlapping files (pruning asserted by test, not assumed) and
    pushes the residual filter into the scan.  Output: exact count +
    cents sum over the band."""
    import hashlib
    import os
    import shutil

    from ...stages.layout import read_range, write_range_layout

    # Cache tag folds in a content fingerprint (source file size+mtime):
    # regenerated data at the same path gets a fresh layout instead of
    # stale results (ADVICE r2).
    src_path = os.path.join(sf_dir, "orders.parquet")
    st = os.stat(src_path)
    tag = hashlib.md5(
        f"{os.path.abspath(sf_dir)}|{st.st_size}|{st.st_mtime_ns}"
        .encode()).hexdigest()[:10]
    out = f"/tmp/kgray_rangelayout/orders_{tag}"
    if not os.path.exists(os.path.join(out, "_DONE")):
        # build in a temp dir and atomically rename: a run that crashes
        # mid-write can't leave partial files that a rerun's
        # write_parquet would double-count (ADVICE r2)
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        src = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_totalprice"])
               .map_batches(lambda b: pa.table({
                   "o_orderkey": b.column("o_orderkey"),
                   "total_cents": _cents(b.column("o_totalprice"))}),
                   batch_format="pyarrow", zero_copy_batch=True))
        write_range_layout(src, "total_cents", tmp)
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        shutil.rmtree(out, ignore_errors=True)
        os.rename(tmp, out)

    band = read_range(out, "total_cents", lo_cents, hi_cents)

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_orders": pa.array([b.num_rows], type=pa.int64()),
            "sum_cents": pa.array([pc.sum(b.column("total_cents")).as_py()
                                   or 0], type=pa.int64())})

    parts = band.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    return pa.table({
        "n_orders": pa.array([sum(r["n_orders"] for r in parts)],
                             type=pa.int64()),
        "sum_cents": pa.array([sum(r["sum_cents"] for r in parts)],
                              type=pa.int64())})


def orders_lineitem_consistency(sf_dir: str):
    """Bidirectional referential-consistency audit on the NATURAL data
    (no injection needed — childless orders genuinely exist): orders
    with no lineitems and lineitems with no order, both via the
    bloom-prefiltered anti join, reduced to one summary row of exact
    counts."""
    from ...stages.semijoin import semi_join

    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey"])
              .map_batches(lambda b: b.rename_columns(["k"]),
                           batch_format="pyarrow", zero_copy_batch=True))
    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey"])
          .map_batches(lambda b: b.rename_columns(["k"]),
                       batch_format="pyarrow", zero_copy_batch=True))

    n_orders = orders.count()
    n_lineitems = li.count()
    childless = semi_join(orders, li, on="k", anti=True,
                          bloom_bits=1 << 20).count()
    orphans = semi_join(li, orders, on="k", anti=True,
                        bloom_bits=1 << 20).count()
    return pa.table({
        "n_orders": pa.array([n_orders], type=pa.int64()),
        "n_childless_orders": pa.array([childless], type=pa.int64()),
        "n_lineitems": pa.array([n_lineitems], type=pa.int64()),
        "n_orphan_lineitems": pa.array([orphans], type=pa.int64())})


def late_order_priority_counts(sf_dir: str):
    """TPC-H Q4-shaped EXISTS decorrelation: per order priority, how
    many orders have at least one lineitem that shipped after the order
    date.  ``EXISTS(l_shipdate > o_orderdate)`` is rewritten as the
    per-order MAX — one groupby-max over lineitem (fact-sized input,
    order-sized output), one sorted-merge join against orders, then a
    vectorized column-vs-column compare.  Orders with no lineitems drop
    out in the inner join — exactly the EXISTS semantics."""
    from ...stages.join import sorted_merge_join

    line = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                            columns=["l_orderkey", "l_shipdate"])
            .map_batches(lambda b: pa.table({
                "o_orderkey": b.column("l_orderkey"),
                "max_shipdate": b.column("l_shipdate")}),
                batch_format="pyarrow", zero_copy_batch=True))
    max_ship = sorted_group_aggregate(line, ["o_orderkey"],
                                      [("max_shipdate", "max")])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])
    joined = sorted_merge_join(orders, max_ship, on="o_orderkey")

    def late_ones(b: pa.Table) -> pa.Table:
        m = pc.greater(b.column("max_shipdate"), b.column("o_orderdate"))
        t = b.filter(pc.fill_null(m, False))
        return pa.table({
            "o_orderpriority": t.column("o_orderpriority"),
            "n_late": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    late = joined.map_batches(late_ones, batch_format="pyarrow",
                              zero_copy_batch=True)
    return sorted_group_aggregate(late, ["o_orderpriority"],
                                  [("n_late", "sum")])


def orders_scd2(sf_dir: str):
    """SCD Type-2 dimension build: turn the same deterministic orders
    changelog as ``orders_cdc_latest`` into validity INTERVALS — one
    row per (key, version) with ``valid_from`` = its version and
    ``valid_to`` = the next version of the same key (NULL while
    current), plus ``is_current``.  The interval close is exactly one
    LEAD exchange (``stages/scan.py:grouped_lead``: one carried value
    per block, no self-join); the history never materializes pairs.
    Delete rows close their predecessor but carry no current row —
    SQL mirrors with LEAD + a final filter.
    """
    from ...functions.sampling import _md5_bucket
    from ...stages.scan import grouped_lead

    def base_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "version": pa.array(np.zeros(n, dtype=np.int64)),
            "op": pa.array(["U"] * n, type=pa.string()),
            "price_cents": _cents(b.column("o_totalprice"))})

    def change_rows(b: pa.Table) -> pa.Table:
        h = _md5_bucket(b.column("o_orderkey").to_pylist(), 1000)
        t = b.filter(pa.array(h < 300))
        hh = h[h < 300]
        ops = np.where(hh < 100, "D", "U")
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "version": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "op": pa.array(ops.tolist(), type=pa.string()),
            "price_cents": _cents(pc.add(t.column("o_totalprice"),
                                         pa.scalar(10.0)))})

    scan = lambda: rd.read_parquet(  # noqa: E731
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    hist = (scan().map_batches(base_rows, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(scan().map_batches(change_rows, batch_format="pyarrow",
                                      zero_copy_batch=True)))
    closed = grouped_lead(hist, "o_orderkey", ["version"], "version",
                          out_name="valid_to")
    # delete rows close their predecessor's interval but are not
    # themselves dimension rows
    def finish(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("op"), pa.scalar("U"))
        t = b.filter(keep)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "valid_from": t.column("version"),
            "valid_to": t.column("valid_to"),
            "price_cents": t.column("price_cents"),
            "is_current": pc.is_null(t.column("valid_to"))})

    return closed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def lineitem_scd2_pit(sf_dir: str):
    """Point-in-time (temporal) join: each lineitem fact, stamped with
    the deterministic as-of version ``v_asof = l_linenumber % 2``,
    picks up the :func:`orders_scd2` dimension row in effect at that
    version — the standard fact→slowly-changing-dimension enrichment
    every warehouse load runs.

    Composition (no interval explode, no inequality shuffle join): the
    LEAD-closed SCD2 dimension → backward as-of join on
    (o_orderkey, valid_from ≤ v_asof) (``stages/asof.py``, one sorted
    exchange) → validity filter ``valid_to IS NULL OR v_asof <
    valid_to``.  A key deleted before v_asof ends with a closed final
    interval, so its facts drop out — matching the SQL range-join
    oracle's inner semantics.  At scale this is the cheapest PIT plan:
    an as-of join ships one carried dim row per (key, block) instead
    of exploding validity ranges.
    """
    from ...stages.asof import asof_join

    dim = orders_scd2(sf_dir).map_batches(
        lambda b: b.select(["o_orderkey", "valid_from", "valid_to",
                            "price_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)

    def facts(b: pa.Table) -> pa.Table:
        ln = pc.cast(b.column("l_linenumber"), pa.int64())
        return pa.table({
            "o_orderkey": b.column("l_orderkey"),
            "l_linenumber": ln,
            "v_asof": pc.bit_wise_and(ln, pa.scalar(1, type=pa.int64()))})

    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_linenumber"])
          .map_batches(facts, batch_format="pyarrow", zero_copy_batch=True))
    j = asof_join(li, dim, key="o_orderkey", left_t="v_asof",
                  right_t="valid_from")

    def finish(b: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.is_valid(b.column("price_cents")),
            pc.fill_null(pc.less(b.column("v_asof"),
                                 b.column("valid_to")), True))
        return b.filter(ok).select(
            ["o_orderkey", "l_linenumber", "v_asof", "price_cents"])

    return j.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


def orders_snapshot_diff(sf_dir: str):
    """Snapshot reconciliation (data diff): classify every key as
    ``added`` / ``removed`` / ``changed`` between two deterministic
    snapshots of the orders table — the regression check a pipeline
    runs after a backfill or engine migration.

    Snapshot B mutates A by the CDC twin's md5 rules plus inserts:
    hb < 100 removed, 100 ≤ hb < 300 repriced (+10.00), hb ≥ 900 also
    cloned to a fresh key (key + 10,000,000).  The diff is ONE
    full-outer sorted-merge exchange on the key plus a vectorized
    in-block classify; unchanged keys — the 100 TB bulk — are filtered
    inside each block and never reach the driver or the output.
    """
    from ...functions.sampling import _md5_bucket
    from ...stages.join import sorted_merge_join

    def snap_a(b: pa.Table) -> pa.Table:
        return pa.table({"key": b.column("o_orderkey"),
                         "price_cents_a": _cents(b.column("o_totalprice"))})

    def snap_b(b: pa.Table) -> pa.Table:
        h = _md5_bucket(b.column("o_orderkey").to_pylist(), 1000)
        kept = b.filter(pa.array(h >= 100))
        hk = h[h >= 100]
        repriced = pc.if_else(
            pa.array((hk >= 100) & (hk < 300)),
            _cents(pc.add(kept.column("o_totalprice"), pa.scalar(10.0))),
            _cents(kept.column("o_totalprice")))
        cloned = b.filter(pa.array(h >= 900))
        survivors = pa.table({"key": kept.column("o_orderkey"),
                              "price_cents_b": repriced})
        inserts = pa.table({
            "key": pc.add(cloned.column("o_orderkey"),
                          pa.scalar(10_000_000, type=pa.int64())),
            "price_cents_b": _cents(cloned.column("o_totalprice"))})
        return pa.concat_tables([survivors, inserts]).combine_chunks()

    scan = lambda: rd.read_parquet(  # noqa: E731
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    a = scan().map_batches(snap_a, batch_format="pyarrow",
                           zero_copy_batch=True)
    bds = scan().map_batches(snap_b, batch_format="pyarrow",
                             zero_copy_batch=True)
    j = sorted_merge_join(a, bds, on="key", how="outer")

    def classify(b: pa.Table) -> pa.Table:
        pa_, pb = b.column("price_cents_a"), b.column("price_cents_b")
        added = pc.is_null(pa_)
        removed = pc.is_null(pb)
        changed = pc.fill_null(pc.not_equal(pa_, pb), False)
        keep = pc.or_(pc.or_(added, removed), changed)
        t = b.filter(keep)
        ct = pc.if_else(pc.is_null(t.column("price_cents_a")),
                        pa.scalar("added"),
                        pc.if_else(pc.is_null(t.column("price_cents_b")),
                                   pa.scalar("removed"),
                                   pa.scalar("changed")))
        return pa.table({"key": t.column("key"),
                         "change_type": ct,
                         "price_cents_a": t.column("price_cents_a"),
                         "price_cents_b": t.column("price_cents_b")})

    return j.map_batches(classify, batch_format="pyarrow",
                         zero_copy_batch=True)


def waiting_suppliers(sf_dir: str, late_days: int = 75, k_top: int = 50):
    """TPC-H Q21 shape adapted to this schema (no receipt/commit dates,
    so late := l_shipdate > o_orderdate + late_days): suppliers who
    were the ONLY late supplier in a finished ('F') multi-supplier
    order, counted per supplier (``numwait``), global top-k.

    The classic EXISTS / NOT-EXISTS pair collapses into one per-order
    aggregate: ``n_supp > 1`` ⇔ EXISTS another supplier in the order;
    ``n_late = 1`` with this supplier late ⇔ NOT EXISTS another late
    supplier.  Plan: lineitem ⋈ finished orders (``auto_join``:
    broadcast under the row cap, sorted-merge above) → per-(order,
    supplier) any-late reduce → per-order (n_supp, n_late,
    conditional-min late supplier via an int64-max sentinel) → filter
    → per-supplier count → broadcast supplier-name join → total-order
    top-k (numwait desc, s_name).  Both key exchanges run on
    already-reduced rows, never the raw lineitem stream.
    """
    import pyarrow.dataset as pds

    from ...stages.broadcast import broadcast_join
    from ...stages.join import auto_join

    _SENT = (1 << 62)
    late_us = late_days * 86_400 * 1_000_000

    def li_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b.column("l_orderkey"),
            "l_suppkey": b.column("l_suppkey"),
            "ship_us": pc.cast(b.column("l_shipdate"), pa.int64())})

    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_suppkey", "l_shipdate"])
          .map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True))
    orders = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                              columns=["o_orderkey", "o_orderdate"],
                              filter=(pds.field("o_orderstatus") == "F"))
              .map_batches(lambda b: pa.table({
                  "o_orderkey": b.column("o_orderkey"),
                  "odate_us": pc.cast(b.column("o_orderdate"), pa.int64())}),
                  batch_format="pyarrow", zero_copy_batch=True))
    joined = auto_join(li, orders, on="o_orderkey")

    def late_flag(b: pa.Table) -> pa.Table:
        late = pc.cast(pc.greater(
            b.column("ship_us"),
            pc.add(b.column("odate_us"),
                   pa.scalar(late_us, type=pa.int64()))), pa.int64())
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "l_suppkey": b.column("l_suppkey"),
                         "late": late})

    per_os = sorted_group_aggregate(
        joined.map_batches(late_flag, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_orderkey", "l_suppkey"], [("late", "max")])

    def order_rows(b: pa.Table) -> pa.Table:
        late = b.column("late")
        is_late = pc.equal(late, pa.scalar(1, type=pa.int64()))
        supp_if_late = pc.if_else(is_late, b.column("l_suppkey"),
                                  pa.scalar(_SENT, type=pa.int64()))
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "n_supp": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_late": late,
            "late_supp": supp_if_late})

    per_order = sorted_group_aggregate(
        per_os.map_batches(order_rows, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_orderkey"], [("n_supp", "sum"), ("n_late", "sum"),
                         ("late_supp", "min")])

    def qualify(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater(b.column("n_supp"), pa.scalar(1)),
                       pc.equal(b.column("n_late"), pa.scalar(1)))
        t = b.filter(keep)
        return pa.table({"s_suppkey": t.column("late_supp"),
                         "numwait": pa.array(
                             np.ones(t.num_rows, dtype=np.int64))})

    per_supp = sorted_group_aggregate(
        per_order.map_batches(qualify, batch_format="pyarrow",
                              zero_copy_batch=True),
        ["s_suppkey"], [("numwait", "sum")])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"])
    out = broadcast_join(per_supp, supp, on="s_suppkey")
    return (out.map_batches(lambda b: b.select(
        ["s_suppkey", "s_name", "numwait"]),
        batch_format="pyarrow", zero_copy_batch=True)
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(k_top))


def order_price_global_rank(sf_dir: str):
    """Global (unpartitioned) window ranks over every order's price —
    ``RANK / PERCENT_RANK / CUME_DIST OVER (ORDER BY cents)`` with no
    PARTITION BY (``stages/globalrank.py``: per-distinct-value
    reduction + block-prefix offsets + one row-sized join back; each
    float is ONE mirrored IEEE division)."""
    from ...stages.globalrank import global_rank

    ds = (rd.read_parquet(f"{sf_dir}/orders.parquet",
                          columns=["o_orderkey", "o_totalprice"])
          .map_batches(lambda b: pa.table({
              "o_orderkey": b.column("o_orderkey"),
              "total_cents": _cents(b.column("o_totalprice"))}),
              batch_format="pyarrow", zero_copy_batch=True))
    return global_rank(ds, "total_cents")


def orders_range_checksums(sf_dir: str, bucket_keys: int = 1000):
    """Anti-entropy range checksums (the Merkle-tree leaf level of a
    replication audit): one row per ``o_orderkey // bucket_keys`` range
    with the row count and the SUM of per-row 48-bit md5 fingerprints
    of the canonical row encoding ``orderkey|cents|priority``.

    Comparing two replicas (or a table vs its CDC-reconstructed state)
    then touches only the mismatching ranges instead of every row.  The
    fingerprint sum is order-independent and exact: 2^48 per row ×
    ≤ ``bucket_keys`` rows per range (o_orderkey is unique) stays far
    under int64, and the md5-derived fingerprint matches DuckDB's
    ``substr(md5(...), 1, 12)`` bitwise, so the checksum itself is
    engine-portable — the property an anti-entropy protocol needs."""
    import hashlib

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"bucket": pa.array([], type=pa.int64()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "fp_sum": pa.array([], type=pa.int64())})
        keys = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        cents = _cents(b.column("o_totalprice")).to_numpy(
            zero_copy_only=False)
        prio = b.column("o_orderpriority").to_pylist()
        fp = np.fromiter(
            (int(hashlib.md5(f"{int(k)}|{int(c)}|{p}".encode())
                 .hexdigest()[:12], 16)
             for k, c, p in zip(keys, cents, prio)),
            dtype=np.int64, count=b.num_rows)
        t = pa.table({
            "bucket": pa.array(keys // bucket_keys, type=pa.int64()),
            "n_rows": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "fp_sum": pa.array(fp, type=pa.int64())})
        g = t.group_by("bucket", use_threads=False).aggregate(
            [("n_rows", "sum"), ("fp_sum", "sum")])
        return pa.table({"bucket": g.column("bucket"),
                         "n_rows": g.column("n_rows_sum"),
                         "fp_sum": g.column("fp_sum_sum")})

    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice",
                                  "o_orderpriority"])
    partials = od.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return sorted_group_aggregate(partials, ["bucket"],
                                  [("n_rows", "sum"), ("fp_sum", "sum")],
                                  precombine=False)


def order_value_percent_rank(sf_dir: str):
    """SQL ``PERCENT_RANK()`` / ``CUME_DIST()`` over order value within
    each order priority — one row per order.

    Plan: ranks are computed on the REDUCED distinct-(priority, value)
    table, never per row: peer counts come from one streaming
    aggregate, count-≤ from a running sum over the distinct values
    (carry exchange), and group sizes from a 5-row broadcast; orders
    then join back on the composite (priority, value) key — equal
    values share one rank row, so the join's right side is
    distinct-sized.  Division happens operand-for-operand as the
    oracle does it (small-int doubles, exact)."""
    from ...stages.join import sorted_merge_join
    from ...stages.scan import grouped_running_sum

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderpriority": b.column("o_orderpriority"),
                         "o_totalprice": b.column("o_totalprice"),
                         "one": pa.array(np.ones(b.num_rows,
                                                 dtype=np.int64))})

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority",
                                      "o_totalprice"])
    peers = sorted_group_aggregate(
        orders.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_orderpriority", "o_totalprice"], [("one", "sum")])
    cum = grouped_running_sum(peers, "o_orderpriority", ["o_totalprice"],
                              "one", out_name="n_le")

    # group sizes from their own one-pass scan (5 rows out) — reading
    # orders again is cheaper than re-executing the peers exchange,
    # which grouped_running_sum above already consumes
    sizes = {r["o_orderpriority"]: int(r["one"]) for r in
             sorted_group_aggregate(
                 orders.map_batches(prep, batch_format="pyarrow",
                                    zero_copy_batch=True)
                 .drop_columns(["o_totalprice"]),
                 ["o_orderpriority"], [("one", "sum")]).take_all()}

    def finalize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"o_orderpriority": pa.array([], pa.string()),
                             "o_totalprice": pa.array([], pa.float64()),
                             "pct_rank": pa.array([], pa.float64()),
                             "cume_dist": pa.array([], pa.float64())})
        prio = b.column("o_orderpriority").to_pylist()
        n_le = b.column("n_le").to_numpy(zero_copy_only=False)
        peer = b.column("one").to_numpy(zero_copy_only=False)
        n = np.array([sizes[p] for p in prio], dtype=np.int64)
        rank = n_le - peer + 1
        pct = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
        return pa.table({"o_orderpriority": b.column("o_orderpriority"),
                         "o_totalprice": b.column("o_totalprice"),
                         "pct_rank": pa.array(pct, type=pa.float64()),
                         "cume_dist": pa.array(n_le / n,
                                               type=pa.float64())})

    dist = cum.map_batches(finalize, batch_format="pyarrow",
                           zero_copy_batch=True)
    return sorted_merge_join(orders, dist,
                             on=["o_orderpriority", "o_totalprice"])


def orders_cohort_ltv(sf_dir: str):
    """Cohort LTV triangle: customers grouped by first-order month,
    revenue cents accumulated by months-since-cohort — the
    customer-economics matrix every subscription/commerce dashboard
    draws.  Month index = 12·year + (month−1) (proleptic Gregorian,
    Arrow ``pc.year/month`` == SQL EXTRACT).  Two exchanges: first
    order per customer (MIN aggregate), then the (cohort, age)
    money aggregate after a broadcast-free sorted join."""
    from ...stages.join import sorted_merge_join

    def prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        mi = pc.add(pc.multiply(pc.year(d), pa.scalar(12, type=pa.int32())),
                    pc.subtract(pc.month(d), pa.scalar(1, type=pa.int32())))
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "month_idx": pc.cast(mi, pa.int64()),
            "cents": _cents(b.column("o_totalprice"))})

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderdate",
                                      "o_totalprice"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()

    cohort = sorted_group_aggregate(
        orders.map_batches(lambda b: pa.table({
            "o_custkey": b.column("o_custkey"),
            "cohort_month": b.column("month_idx")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"], [("cohort_month", "min")])

    joined = sorted_merge_join(orders, cohort, on="o_custkey")
    return sorted_group_aggregate(
        joined.map_batches(lambda b: pa.table({
            "cohort_month": b.column("cohort_month"),
            "months_since": pc.subtract_checked(b.column("month_idx"),
                                                b.column("cohort_month")),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "revenue_cents": b.column("cents")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["cohort_month", "months_since"],
        [("n_orders", "sum"), ("revenue_cents", "sum")], precombine=True)


def orders_join_ivm(sf_dir: str, delta_mod: int = 10):
    """Incremental view maintenance for a JOIN view — the delta-join
    law a streaming materialized view relies on: with lineitem split
    into base L and delta ΔL (``md5(l_orderkey) % delta_mod == 0``),
    the per-priority revenue view maintained as
    ``V(O ⋈ L) + V(O ⋈ ΔL)`` must equal the full recompute
    ``V(O ⋈ (L ∪ ΔL))`` BITWISE — additive aggregates make the join
    delta exact.  Output: per priority, the maintained count/cents
    plus both deltas, so the law is auditable in the result itself.
    Both legs stream through the same sorted join; nothing recomputes
    the base leg per delta at scale (here both legs run once)."""
    from ...functions.sampling import _md5_bucket
    from ...stages.join import sorted_merge_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "l_orderkey": b.column("o_orderkey"),
            "priority": b.column("o_orderpriority")}),
            batch_format="pyarrow", zero_copy_batch=True)

    def prep(b: pa.Table) -> pa.Table:
        delta = _md5_bucket(b.column("l_orderkey").to_pylist(),
                            delta_mod) == 0
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "is_delta": pa.array(delta.astype(np.int64)),
            "cents": _cents(b.column("l_extendedprice"))})

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice"]) \
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    joined = sorted_merge_join(li, orders, on="l_orderkey")
    per = sorted_group_aggregate(
        joined.map_batches(lambda b: pa.table({
            "priority": b.column("priority"),
            "n_base": pc.subtract(pa.scalar(1, type=pa.int64()),
                                  b.column("is_delta")),
            "cents_base": pc.multiply(
                pc.subtract(pa.scalar(1, type=pa.int64()),
                            b.column("is_delta")), b.column("cents")),
            "n_delta": b.column("is_delta"),
            "cents_delta": pc.multiply(b.column("is_delta"),
                                       b.column("cents"))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["priority"],
        [("n_base", "sum"), ("cents_base", "sum"),
         ("n_delta", "sum"), ("cents_delta", "sum")], precombine=True)
    return per.map_batches(lambda b: pa.table({
        "priority": b.column("priority"),
        "n_base": b.column("n_base"),
        "n_delta": b.column("n_delta"),
        "n_maintained": pc.add(b.column("n_base"), b.column("n_delta")),
        "cents_maintained": pc.add(b.column("cents_base"),
                                   b.column("cents_delta"))}),
        batch_format="pyarrow", zero_copy_batch=True)


def order_ship_lag_quantiles(sf_dir: str):
    """Fulfilment-latency SLO table: whole days from order date to the
    order's FIRST lineitem ship date, exact p50/p95 per priority
    (``grouped_quantiles``, disc — DuckDB ``quantile_disc``
    semantics)."""
    from ...stages.join import sorted_merge_join
    from ...stages.quantile import grouped_quantiles

    first_ship = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_orderkey", "l_shipdate"])
        .map_batches(lambda b: pa.table({
            "o_orderkey": b.column("l_orderkey"),
            "ship_us": pc.cast(b.column("l_shipdate"), pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderkey"], [("ship_us", "min")], precombine=True)

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"]) \
        .map_batches(lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "priority": b.column("o_orderpriority"),
            "odate_us": pc.cast(b.column("o_orderdate"), pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)

    lag = sorted_merge_join(orders, first_ship, on="o_orderkey") \
        .map_batches(lambda b: pa.table({
            "priority": b.column("priority"),
            "lag_days": pc.cast(pc.divide(
                pc.subtract_checked(b.column("ship_us"),
                                    b.column("odate_us")),
                pa.scalar(86_400_000_000, type=pa.int64())),
                pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
    return grouped_quantiles(lag, group="priority", value_col="lag_days",
                             qs=[0.5, 0.95],
                             out_names=["p50_days", "p95_days"])


def orderkey_gaps(sf_dir: str, priority: str = "1-URGENT"):
    """Key-space continuity audit: the missing o_orderkey ranges
    WITHIN one priority class — the sequence-integrity check an ingest
    pipeline runs per partition of a monotone source (the full
    keyspace is dense by construction, so the per-class view is where
    real gaps live).  One sorted LAG scan; a gap row (gap_start,
    gap_end, width) wherever consecutive keys differ by more than 1."""
    import pyarrow.dataset as pds

    from ...stages.scan import grouped_lag

    keys = rd.read_parquet(f"{sf_dir}/orders.parquet",
                           columns=["o_orderkey"],
                           filter=pds.field("o_orderpriority")
                           == priority) \
        .map_batches(lambda b: pa.table({
            "one": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "k": b.column("o_orderkey")}),
            batch_format="pyarrow", zero_copy_batch=True)
    lagged = grouped_lag(keys, key="one", order_cols=["k"],
                         value_col="k", out_name="prev_k")

    def gaps(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.is_valid(b.column("prev_k")),
                             pc.greater(pc.subtract(b.column("k"),
                                                    b.column("prev_k")),
                                        pa.scalar(1, type=pa.int64()))))
        start = pc.add(t.column("prev_k"), pa.scalar(1, type=pa.int64()))
        end = pc.subtract(t.column("k"), pa.scalar(1, type=pa.int64()))
        return pa.table({
            "gap_start": start,
            "gap_end": end,
            "width": pc.add(pc.subtract(end, start),
                            pa.scalar(1, type=pa.int64()))})

    return lagged.map_batches(gaps, batch_format="pyarrow",
                              zero_copy_batch=True)


def orders_time_travel(sf_dir: str, as_of_version: int = 2):
    """Time-travel read over a CDC changelog: reconstruct the orders
    table AS OF a version cutoff — the lakehouse ``SELECT ... VERSION
    AS OF v`` path, generalizing `orders_cdc_latest` from "latest" to
    an arbitrary cutoff.  A deterministic three-version changelog is
    derived from orders via md5 bands (v1: bucket<300 updates with
    bucket<100 deletes; v2: 50≤bucket<250 with 200≤bucket<250 deletes
    — so 50≤bucket<100 keys are deleted at v1 and REINSERTED at v2,
    and 200≤bucket<250 are updated then deleted; v3: bucket<500
    updates, beyond the cutoff and therefore invisible).  Versions ≤
    the cutoff union with the snapshot, one grouped top-1 exchange
    keeps each key's latest surviving row, deletes drop out.

    Scale: state reconstruction is one grouped top-1 exchange over
    snapshot+log — never a driver-side replay."""
    from ...functions.sampling import _md5_bucket
    from ...stages.topk import grouped_topk

    def version_rows(b: pa.Table, version: int) -> pa.Table:
        if version == 0:
            n = b.num_rows
            return pa.table({
                "o_orderkey": b.column("o_orderkey"),
                "version": pa.array(np.zeros(n, dtype=np.int64)),
                "op": pa.array(["U"] * n, type=pa.string()),
                "price": b.column("o_totalprice")})
        h = _md5_bucket(b.column("o_orderkey").to_pylist(), 1000)
        if version == 1:
            mask, dmask = h < 300, h < 100
        elif version == 2:
            mask = (h >= 50) & (h < 250)
            dmask = (h >= 200) & (h < 250)
        else:
            mask, dmask = h < 500, np.zeros(len(h), dtype=bool)
        t = b.filter(pa.array(mask))
        ops = np.where(dmask[mask], "D", "U")
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "version": pa.array(np.full(t.num_rows, version,
                                        dtype=np.int64)),
            "op": pa.array(ops.tolist(), type=pa.string()),
            "price": pc.add(t.column("o_totalprice"),
                            pa.scalar(10.0 * version))})

    scan = lambda: rd.read_parquet(  # noqa: E731
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    log = None
    for v in range(min(as_of_version, 3) + 1):
        part = scan().map_batches(
            lambda b, _v=v: version_rows(b, _v),
            batch_format="pyarrow", zero_copy_batch=True)
        log = part if log is None else log.union(part)

    latest = grouped_topk(log, group="o_orderkey", order_col="version",
                          tiebreak="op", k=1)

    def finish(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.equal(b.column("op"), pa.scalar("U")), False)
        t = b.filter(keep)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "total_cents": _cents(t.column("price")),
            "version": t.column("version")})

    return latest.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def order_value_ntile(sf_dir: str, n_tiles: int = 4):
    """SQL ``NTILE(n)`` quartile assignment over order value within
    each priority (ORDER BY value, key — a total order, because NTILE
    under ties is engine-arbitrary otherwise), reduced to the tile
    summary (count, min/max cents per (priority, tile)).  Row numbers
    come from the `grouped_ranks` carry exchange; the tile is the
    closed form ``(rn−1) < rem·(sz+1) ? (rn−1)//(sz+1) : rem +
    (rn−1−rem·(sz+1))//sz`` with sz = n//k, rem = n%k — exactly SQL's
    first-``rem``-tiles-get-one-extra rule."""
    from ...stages.scan import grouped_ranks

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "cents": _cents(b.column("o_totalprice")),
            "o_orderkey": b.column("o_orderkey")})

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority",
                                      "o_totalprice"]).map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True)
    ranked = grouped_ranks(orders, "o_orderpriority",
                           ["cents", "o_orderkey"])

    sizes = {r["o_orderpriority"]: int(r["n"]) for r in
             sorted_group_aggregate(
                 orders.map_batches(lambda b: pa.table({
                     "o_orderpriority": b.column("o_orderpriority"),
                     "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                     batch_format="pyarrow", zero_copy_batch=True),
                 ["o_orderpriority"], [("n", "sum")]).take_all()}

    def tile(b: pa.Table) -> pa.Table:
        pr = b.column("o_orderpriority").to_pylist()
        rn = b.column("row_number").to_numpy(zero_copy_only=False)
        n = np.array([sizes[p] for p in pr], dtype=np.int64)
        k = n_tiles
        sz, rem = n // k, n % k
        r0 = rn - 1
        cut = rem * (sz + 1)
        t = np.where(r0 < cut, r0 // np.maximum(sz + 1, 1),
                     rem + (r0 - cut) // np.maximum(sz, 1)) + 1
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "tile": pa.array(t, type=pa.int64()),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "min_cents": b.column("cents"),
            "max_cents": b.column("cents")})

    return sorted_group_aggregate(
        ranked.map_batches(tile, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_orderpriority", "tile"],
        [("n_orders", "sum"), ("min_cents", "min"), ("max_cents", "max")],
        precombine=True).sort(["o_orderpriority", "tile"])


def orders_weekday_index(sf_dir: str):
    """Weekday revenue-seasonality index: each ISO day-of-week's share
    of order revenue indexed to the uniform expectation
    (``index_micro = 1e6·7·dow_cents // total_cents`` — 1e6 means an
    average day).  The merchandising calendar-planning readout; one
    aggregate plus a 7-row driver finalize, all integers."""
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "dow": pc.cast(pc.day_of_week(b.column("o_orderdate"),
                                          count_from_zero=False,
                                          week_start=1), pa.int64()),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "cents": _cents(b.column("o_totalprice"))})

    rows = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderdate", "o_totalprice"]
                        ).map_batches(prep, batch_format="pyarrow",
                                      zero_copy_batch=True),
        ["dow"], [("n_orders", "sum"), ("cents", "sum")],
        precombine=True).take_all()
    rows.sort(key=lambda r: r["dow"])
    total = sum(int(r["cents"]) for r in rows)
    return pa.table({
        "dow": pa.array([int(r["dow"]) for r in rows], type=pa.int64()),
        "n_orders": pa.array([int(r["n_orders"]) for r in rows],
                             type=pa.int64()),
        "revenue_cents": pa.array([int(r["cents"]) for r in rows],
                                  type=pa.int64()),
        "index_micro": pa.array(
            [10**6 * 7 * int(r["cents"]) // total for r in rows],
            type=pa.int64())})


def orders_bitemporal_state(sf_dir: str, as_of_version: int = 1):
    """Bitemporal read — BOTH time dimensions at once, the lakehouse
    capstone that composes `orders_time_travel` (SYSTEM time: the
    table as the store knew it at changelog version ``as_of_version``)
    with `customer_scd2_orders` (VALID time: the mktsegment version in
    effect at each order's date): revenue by segment, as the system
    state of version ``as_of_version`` would have reported it.  One
    grouped top-1 exchange reconstructs the system snapshot, one as-of
    join resolves valid time, one segment-sized aggregate reports."""
    from ...functions.sampling import _md5_bucket
    from ...stages.asof import asof_join
    from ...stages.topk import grouped_topk

    def version_rows(b: pa.Table, version: int) -> pa.Table:
        keys = b.column("o_orderkey").to_pylist()
        if version == 0:
            n = b.num_rows
            return pa.table({
                "o_orderkey": b.column("o_orderkey"),
                "version": pa.array(np.zeros(n, dtype=np.int64)),
                "op": pa.array(["U"] * n, type=pa.string()),
                "price": b.column("o_totalprice"),
                "odate_us": pc.cast(b.column("o_orderdate"),
                                    pa.int64()),
                "ckey": pc.cast(b.column("o_custkey"), pa.int64())})
        h = _md5_bucket(keys, 1000)
        mask, dmask = h < 300, h < 100
        t = b.filter(pa.array(mask))
        ops = np.where(dmask[mask], "D", "U")
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "version": pa.array(np.full(t.num_rows, version,
                                        dtype=np.int64)),
            "op": pa.array(ops.tolist(), type=pa.string()),
            "price": pc.add(t.column("o_totalprice"),
                            pa.scalar(10.0 * version)),
            "odate_us": pc.cast(t.column("o_orderdate"), pa.int64()),
            "ckey": pc.cast(t.column("o_custkey"), pa.int64())})

    cols = ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    scan = lambda: rd.read_parquet(  # noqa: E731
        f"{sf_dir}/orders.parquet", columns=cols)
    log = None
    for v in range(min(as_of_version, 1) + 1):
        part = scan().map_batches(lambda b, _v=v: version_rows(b, _v),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        log = part if log is None else log.union(part)
    latest = grouped_topk(log, group="o_orderkey", order_col="version",
                          tiebreak="op", k=1)

    def surviving(b: pa.Table) -> pa.Table:
        keep = pc.fill_null(pc.equal(b.column("op"), pa.scalar("U")),
                            False)
        t = b.filter(keep)
        return pa.table({
            "ckey": t.column("ckey"),
            "ots": t.column("odate_us"),
            "cents": _cents(t.column("price"))})

    facts = latest.map_batches(surviving, batch_format="pyarrow",
                               zero_copy_batch=True)

    V0_US = 631152000000000
    V1_US = 804556800000000
    V2_US = 836179200000000

    def dim_rows(b: pa.Table) -> pa.Table:
        keys = b.column("c_custkey").to_pylist()
        h = _md5_bucket(keys, 1000)
        segs = b.column("c_mktsegment").to_pylist()
        ck, vt, sg = [], [], []
        for k, hb, s in zip(keys, h, segs):
            ck.append(k)
            vt.append(V0_US)
            sg.append(s)
            if hb < 300:
                ck.append(k)
                vt.append(V1_US)
                sg.append("MIGRATED")
            if hb < 100:
                ck.append(k)
                vt.append(V2_US)
                sg.append("CHURNED")
        return pa.table({
            "ckey": pa.array(ck, type=pa.int64()),
            "vts": pa.array(vt, type=pa.int64()),
            "segment": pa.array(sg, type=pa.string())})

    dim = rd.read_parquet(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_mktsegment"]
                          ).map_batches(dim_rows, batch_format="pyarrow",
                                        zero_copy_batch=True)
    joined = asof_join(facts, dim, key="ckey", left_t="ots",
                       right_t="vts")
    return sorted_group_aggregate(
        joined.map_batches(lambda b: pa.table({
            "segment": b.column("segment"),
            "n_orders": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "revenue_cents": b.column("cents")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["segment"], [("n_orders", "sum"), ("revenue_cents", "sum")],
        precombine=True).sort("segment")


