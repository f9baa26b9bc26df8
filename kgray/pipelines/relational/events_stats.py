"""Statistical / privacy readouts over the events log: hypothesis tests, uncertainty quantification, drift, differential privacy, value distributions.

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
    _B_BOOT,
    _DLAP_TH,
    _FD_PAIRS,
    _M40,
    _POIS_TH,
    _VALUE_BANDS,
    _VALUE_TIERS,
    _cents,
    _dp_quantile_pick,
    _md5_rank15,
)


def events_value_quantiles(sf_dir: str):
    """Exact per-group p50/p95 (``stages/quantile.py``): the latency-
    percentile query shape, computed exactly (no sketch) with DuckDB
    ``quantile_disc`` semantics so the oracle matches bit-for-bit."""
    from ...stages.quantile import grouped_quantiles

    prepped = (rd.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
               .map_batches(lambda b: pa.table({
                   "event_type": b.column("event_type"),
                   "value_cents": _cents(b.column("value"))}),
                   batch_format="pyarrow", zero_copy_batch=True))
    return grouped_quantiles(prepped, group="event_type",
                             value_col="value_cents", qs=[0.5, 0.95],
                             out_names=["p50_cents", "p95_cents"])


def events_value_quantiles_cont(sf_dir: str):
    """Interpolated per-group quantiles (``method="cont"``): the same
    shape as :func:`events_value_quantiles` but with DuckDB
    ``quantile_cont`` linear-interpolation semantics — float64 output,
    bit-for-bit (the engine evaluates the identical IEEE expression)."""
    from ...stages.quantile import grouped_quantiles

    prepped = (rd.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
               .map_batches(lambda b: pa.table({
                   "event_type": b.column("event_type"),
                   "value_cents": _cents(b.column("value"))}),
                   batch_format="pyarrow", zero_copy_batch=True))
    return grouped_quantiles(prepped, group="event_type",
                             value_col="value_cents", qs=[0.5, 0.9],
                             out_names=["p50_cents", "p90_cents"],
                             method="cont")


def events_value_bands(sf_dir: str):
    """Broadcast range join (``stages/rangejoin.py``, disjoint-interval
    searchsorted kernel): each event matched to its value band, then
    count + cents per band."""
    from ...stages.rangejoin import broadcast_range_join

    bands = pa.table({
        "band": pa.array([b[0] for b in _VALUE_BANDS], type=pa.string()),
        "lo": pa.array([b[1] for b in _VALUE_BANDS], type=pa.float64()),
        "hi": pa.array([b[2] for b in _VALUE_BANDS], type=pa.float64()),
    })
    ev = (rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
          .map_batches(lambda b: pa.table({
              "value": b.column("value"),
              "value_cents": _cents(b.column("value")),
              "n_events": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
              batch_format="pyarrow", zero_copy_batch=True))
    joined = broadcast_range_join(ev, bands, value_col="value")
    return sorted_group_aggregate(
        joined.drop_columns(["value"]), "band",
        [("n_events", "sum"), ("value_cents", "sum")])


def events_value_tiers(sf_dir: str):
    """Broadcast range join, OVERLAPPING intervals (per-interval mask
    kernel): cumulative value tiers — one event matches every tier it
    exceeds (many-to-many fan-out), then count + cents per tier."""
    from ...stages.rangejoin import broadcast_range_join

    tiers = pa.table({
        "tier": pa.array([t[0] for t in _VALUE_TIERS], type=pa.string()),
        "lo": pa.array([t[1] for t in _VALUE_TIERS], type=pa.float64()),
        "hi": pa.array([t[2] for t in _VALUE_TIERS], type=pa.float64()),
    })
    ev = (rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
          .map_batches(lambda b: pa.table({
              "value": b.column("value"),
              "value_cents": _cents(b.column("value")),
              "n_events": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
              batch_format="pyarrow", zero_copy_batch=True))
    joined = broadcast_range_join(ev, tiers, value_col="value")
    return sorted_group_aggregate(
        joined.drop_columns(["value"]), "tier",
        [("n_events", "sum"), ("value_cents", "sum")])


def events_value_quantiles_approx(sf_dir: str):
    """Approximate per-type p50/p95 via the mergeable histogram sketch
    (``stages/sketch.py:approx_group_quantiles``) — the no-sort scale
    twin of ``events_value_quantiles``: one min/max pass + one
    histogram pass, O(groups × bins) state, no all-to-all.  Error ≤
    one bin width; accuracy vs the exact operator pinned in tests;
    deterministic (integer vector-add merge), hence fixture-oracled."""
    from ...stages.sketch import approx_group_quantiles

    prepped = (rd.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
               .map_batches(lambda b: pa.table({
                   "event_type": b.column("event_type"),
                   "value_cents": _cents(b.column("value"))}),
                   batch_format="pyarrow", zero_copy_batch=True))
    return approx_group_quantiles(prepped, group="event_type",
                                  value_col="value_cents",
                                  qs=[0.5, 0.95], n_bins=4096)


def event_value_stats(sf_dir: str):
    """Per-event-type sample variance / stddev of the value column —
    exact distributed moments (``stages/stats.py:grouped_var_std``):
    cents per element, decimal128 moment sums (order-independent), one
    mirrored IEEE expression at finalize, bitwise vs the oracle."""
    from ...stages.stats import grouped_var_std

    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["event_type", "value"])
    cents = events.map_batches(lambda b: pa.table({
        "event_type": b.column("event_type"),
        "cents": _cents(b.column("value"))}),
        batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_var_std(cents, "event_type", "cents")
    return out.map_batches(lambda b: pa.table({
        "event_type": b.column("event_type"),
        "n": b.column("n"),
        "sum_cents": b.column("sum_x"),
        "var_cents": b.column("var_x"),
        "std_cents": b.column("std_x")}),
        batch_format="pyarrow", zero_copy_batch=True)


def events_value_histogram(sf_dir: str, width: float = 50.0):
    """Fixed-width value histogram per event type: bin =
    ``floor(value / width)`` (one IEEE division + exact floor, so Ray
    and the SQL oracle agree bitwise), with event count and exact cents
    total per (type, bin).  Map-side combine reduces each block to at
    most types × bins partials before the tiny groupby — the canonical
    "distribution profile" pass a data-quality dashboard runs over the
    full corpus without ever shuffling raw rows."""
    def prep(batch: pa.Table) -> pa.Table:
        v = batch.column("value")
        bin_ = pc.cast(pc.floor(pc.divide(v, pa.scalar(width))), pa.int64())
        return pa.table({
            "event_type": batch.column("event_type"),
            "value_bin": bin_,
            "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "value_cents": _cents(v),
        })

    prepped = (rd.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "value"])
               .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True))
    return sorted_group_aggregate(prepped, ["event_type", "value_bin"],
                                  [("n_events", "sum"), ("value_cents", "sum")])


def events_value_outliers(sf_dir: str):
    """Robust per-group outlier filter: events whose value deviates
    from their type's MEDIAN by more than 3× the MAD (median absolute
    deviation) — the quality-filtering shape a training-data pipeline
    runs on numeric metadata, where mean/stddev would be dragged by the
    very outliers being hunted.

    Entirely in integer cents so every comparison is exact: two passes
    of the exact grouped quantile stage (median of value_cents, then
    median of |value_cents − med|), each producing a per-type row set
    small enough to broadcast as a plain dict — the event stream is
    never shuffled, only scanned twice."""
    from ...stages.quantile import grouped_quantiles

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "event_type": b.column("event_type"),
            "value_cents": _cents(b.column("value"))})

    def events():
        return (rd.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_id", "event_type",
                                         "value"])
                .map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True))

    med_tbl = grouped_quantiles(events(), group="event_type",
                                value_col="value_cents", qs=[0.5],
                                out_names=["med_cents"]).to_pandas()
    med = dict(zip(med_tbl.event_type, med_tbl.med_cents.astype("int64")))

    def absdev(b: pa.Table) -> pa.Table:
        m = np.array([med[t] for t in b.column("event_type").to_pylist()],
                     dtype=np.int64)
        v = b.column("value_cents").to_numpy(zero_copy_only=False)
        return pa.table({"event_type": b.column("event_type"),
                         "dev": pa.array(np.abs(v - m))})

    mad_tbl = grouped_quantiles(
        events().map_batches(absdev, batch_format="pyarrow",
                             zero_copy_batch=True),
        group="event_type", value_col="dev", qs=[0.5],
        out_names=["mad_cents"]).to_pandas()
    mad = dict(zip(mad_tbl.event_type, mad_tbl.mad_cents.astype("int64")))

    def flag(b: pa.Table) -> pa.Table:
        types = b.column("event_type").to_pylist()
        m = np.array([med[t] for t in types], dtype=np.int64)
        d = np.array([mad[t] for t in types], dtype=np.int64)
        v = b.column("value_cents").to_numpy(zero_copy_only=False)
        keep = np.abs(v - m) > 3 * d
        out = b.filter(pa.array(keep))
        return pa.table({
            "event_id": out.column("event_id"),
            "event_type": out.column("event_type"),
            "value_cents": out.column("value_cents"),
            "med_cents": pa.array(m[keep]),
            "mad_cents": pa.array(d[keep])})

    return events().map_batches(flag, batch_format="pyarrow",
                                zero_copy_batch=True)


def events_value_trend(sf_dir: str):
    """Per-event-type least-squares trend of value (cents) against
    event hour — drift detection over a metrics log.  Exact decimal128
    moment sums (``stages/stats.py:grouped_regression``), so slope and
    intercept are single mirrored IEEE expressions over exact integers
    and the DuckDB oracle matches bitwise."""
    from ...stages.stats import grouped_regression

    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64())
        hour = pc.divide(ts, pa.scalar(3_600_000_000, type=pa.int64()))
        return pa.table({
            "event_type": b.column("event_type"),
            "hour": pc.cast(hour, pa.int64()),
            "value_cents": _cents(b.column("value"))})

    ds = (rd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_type", "ts", "value"])
          .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True))
    return grouped_regression(ds, key="event_type", x_col="hour",
                              y_col="value_cents")


def event_value_moments(sf_dir: str):
    """Per-event-type skewness and excess kurtosis of value (cents) —
    distribution-shape profiling for anomaly detection.  Exact
    decimal128 sums of x..x⁴ (``stages/stats.py:grouped_skew_kurt``)
    with floating point only in the final mirrored expression, so the
    DuckDB oracle matches bitwise."""
    from ...stages.stats import grouped_skew_kurt

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b.column("event_type"),
            "value_cents": _cents(b.column("value"))})

    ds = (rd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_type", "value"])
          .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True))
    return grouped_skew_kurt(ds, key="event_type", x_col="value_cents")


def events_profile(sf_dir: str):
    """Column-profiling operator (the ``SUMMARIZE`` shape): for every
    events column, total rows, null count, and exact distinct count
    (nulls excluded, SQL ``COUNT(DISTINCT col)`` semantics).

    ONE read and ONE exchange for the whole profile: every block emits
    its per-column unique values as kind='v' (col_name, v-as-string)
    rows (Arrow's float→string cast is shortest-round-trip, so distinct
    doubles stay distinct strings) plus one kind='m' meta row per
    column carrying the block's row/null partials; a single aggregate
    over (col_name, kind, v) then yields distinct counts (count of 'v'
    survivor rows) and exact row/null totals (sums on the 'm' rows) —
    one sort instead of one per column plus a separate totals pass
    (was 6+1 exchanges / two reads; measured ~10 s → ~5.5 s at sf0.1,
    32 CPUs; the residual is the unavoidable full-column read)."""
    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]

    def profile_rows(b: pa.Table) -> pa.Table:
        names, kinds, vals, nrows, nnull = [], [], [], [], []
        for c in cols:
            col = b.column(c)
            u = col.drop_null().unique()
            if pa.types.is_floating(u.type):
                # -0.0 and 0.0 cast to distinct strings ('-0'/'0') but
                # SQL COUNT(DISTINCT) treats them as one value: add 0.0
                # (IEEE: -0.0 + 0.0 = +0.0) before the cast; the
                # downstream distinct-aggregate dedupes the merged pair
                u = pc.add(u, pa.scalar(0.0, type=u.type))
            s = pc.cast(u, pa.string())
            s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
            names.append(pa.array([c] * len(s), type=pa.string()))
            kinds.append(pa.array(["v"] * len(s), type=pa.string()))
            vals.append(s)
            nrows.append(np.zeros(len(s), dtype=np.int64))
            nnull.append(np.zeros(len(s), dtype=np.int64))
            # one meta row per column per block: row/null partials
            names.append(pa.array([c], type=pa.string()))
            kinds.append(pa.array(["m"], type=pa.string()))
            vals.append(pa.array([""], type=pa.string()))
            nrows.append(np.array([b.num_rows], dtype=np.int64))
            nnull.append(np.array([col.null_count], dtype=np.int64))
        return pa.table({
            "col_name": pa.concat_arrays(names),
            "kind": pa.concat_arrays(kinds),
            "v": pa.concat_arrays(vals),
            "n_rows": pa.array(np.concatenate(nrows)),
            "n_nulls": pa.array(np.concatenate(nnull))})

    base = rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    merged = sorted_group_aggregate(
        base.map_batches(profile_rows, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["col_name", "kind", "v"],
        [("n_rows", "sum"), ("n_nulls", "sum")], precombine=False)
    stats = sorted_group_aggregate(
        merged.map_batches(lambda b: pa.table({
            "col_name": b.column("col_name"),
            "n_rows": b.column("n_rows"),
            "n_nulls": b.column("n_nulls"),
            "n_distinct": pc.cast(pc.equal(b.column("kind"),
                                           pa.scalar("v")), pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True),
        "col_name",
        [("n_rows", "sum"), ("n_nulls", "sum"), ("n_distinct", "sum")])
    counts_tbl = stats.to_pandas().sort_values("col_name",
                                               ignore_index=True)
    return pa.table({
        "col_name": pa.array(counts_tbl["col_name"], type=pa.string()),
        "n_rows": pa.array(counts_tbl["n_rows"], type=pa.int64()),
        "n_nulls": pa.array(counts_tbl["n_nulls"], type=pa.int64()),
        "n_distinct": pa.array(counts_tbl["n_distinct"], type=pa.int64())})


def event_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` field out of
    the JSON ``props`` column with ONE vectorized RE2 kernel
    (``pc.extract_regex`` — no per-row json.loads), then aggregate per
    event type.  The oracle extracts the same field with DuckDB's JSON
    operator, proving the regex path implements real JSON-field
    semantics on this data."""
    scan = rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        hit = pc.extract_regex(b.column("props"), r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        t = pa.table({"event_type": b.column("event_type"),
                      "n_events": pa.array(np.ones(b.num_rows,
                                                   dtype=np.int64)),
                      "sum_k": k, "min_k": k, "max_k": k})
        return t.filter(pc.is_valid(k))

    prepped = scan.map_batches(extract, batch_format="pyarrow",
                               zero_copy_batch=True)
    return sorted_group_aggregate(
        prepped, "event_type",
        [("n_events", "sum"), ("sum_k", "sum"),
         ("min_k", "min"), ("max_k", "max")])


def events_value_winsorized(sf_dir: str, lo_q: float = 0.05,
                            hi_q: float = 0.95):
    """Winsorized per-type aggregation: values clipped to each type's
    [P05, P95] (``quantile_disc`` order statistics in exact integer
    cents) before summing — the robust-mean shape that keeps a fat tail
    from dominating a metric.  One exact grouped-quantile pass produces
    a per-type clip table small enough to broadcast as a dict; the
    event stream itself is scanned, clipped vectorized, and aggregated
    — never shuffled at row grain."""
    from ...stages.quantile import grouped_quantiles

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b.column("event_type"),
            "value_cents": _cents(b.column("value"))})

    def events():
        return (rd.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["event_type", "value"])
                .map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True))

    q_tbl = grouped_quantiles(events(), group="event_type",
                              value_col="value_cents", qs=[lo_q, hi_q],
                              out_names=["lo_cents", "hi_cents"]
                              ).to_pandas()
    lo = dict(zip(q_tbl.event_type, q_tbl.lo_cents.astype("int64")))
    hi = dict(zip(q_tbl.event_type, q_tbl.hi_cents.astype("int64")))

    def clip(b: pa.Table) -> pa.Table:
        types = b.column("event_type").to_pylist()
        v = b.column("value_cents").to_numpy(zero_copy_only=False)
        lo_v = np.array([lo[t] for t in types], dtype=np.int64)
        hi_v = np.array([hi[t] for t in types], dtype=np.int64)
        w = np.minimum(np.maximum(v, lo_v), hi_v)
        return pa.table({
            "event_type": b.column("event_type"),
            "n_events": pa.array(np.ones(len(v), dtype=np.int64)),
            "sum_cents": pa.array(v),
            "winsor_cents": pa.array(w),
            "n_clipped": pa.array((w != v).astype(np.int64))})

    return sorted_group_aggregate(
        events().map_batches(clip, batch_format="pyarrow",
                             zero_copy_batch=True),
        "event_type",
        [("n_events", "sum"), ("sum_cents", "sum"),
         ("winsor_cents", "sum"), ("n_clipped", "sum")])


def event_type_transitions(sf_dir: str):
    """First-order Markov transition counts over each user's event
    sequence (the sequence-mining shape behind session models): one
    LAG carry exchange pairs every event with its predecessor's type —
    no self-join — then a tiny (from, to) aggregate."""
    from ...stages.scan import grouped_lag

    base = (rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "event_id", "ts",
                                     "event_type"])
            .map_batches(lambda b: pa.table({
                "user_id": b.column("user_id"),
                "event_id": b.column("event_id"),
                "ev_us": pc.cast(b.column("ts"), pa.int64()),
                "event_type": b.column("event_type")}),
                batch_format="pyarrow", zero_copy_batch=True))
    lagged = grouped_lag(base, key="user_id",
                         order_cols=["ev_us", "event_id"],
                         value_col="event_type", out_name="from_type")

    def pairs(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column("from_type")))
        return pa.table({
            "from_type": t.column("from_type"),
            "to_type": t.column("event_type"),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    return sorted_group_aggregate(
        lagged.map_batches(pairs, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["from_type", "to_type"], [("n", "sum")])


def events_ab_ztest(sf_dir: str):
    """Two-sample Welch z-test per event type over a deterministic
    hash-assigned experiment split (variant = md5(user_id) % 2 — the
    same engine-portable assignment rule as ``hash_sample``, so a rerun
    or a different engine computes the identical split).

    The experimentation-analytics shape: exact integer moments
    (n, Σcents, Σcents²) reduce per (event_type, variant) through the
    standard decimal128 partial plan; the Welch statistic is finalized
    driver-side from exact Python ints with the oracle's IEEE step
    order (cast → divide → add → sqrt → divide), so the z-score is
    bit-identical to the SQL.  n ≤ 1 on either arm or a zero pooled
    standard error yields NULL (both sides).  The reduced table is
    result-sized (n_event_types rows)."""
    import math

    from ...functions.sampling import _md5_bucket
    from ...stages.stats import _DEC, _sq_dec

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "variant": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "s": pa.array([], type=_DEC),
                "q": pa.array([], type=_DEC)})
        cents = _cents(batch.column("value")).combine_chunks()
        var = _md5_bucket(batch.column("user_id").to_pylist(), 2)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "variant": pa.array(var, type=pa.int64()),
            "n": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "s": pc.cast(cents, _DEC),
            "q": _sq_dec(cents)})
        g = t.group_by(["event_type", "variant"],
                       use_threads=False).aggregate(
            [("n", "sum"), ("s", "sum"), ("q", "sum")])
        return pa.table({"event_type": g.column("event_type"),
                         "variant": g.column("variant"),
                         "n": g.column("n_sum"),
                         "s": g.column("s_sum"),
                         "q": g.column("q_sum")})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "value"])
    partials = ev.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    merged = sorted_group_aggregate(partials, ["event_type", "variant"],
                                    [("n", "sum"), ("s", "sum"),
                                     ("q", "sum")], precombine=False)

    arms = {}
    for r in merged.take_all():       # result-sized: n_types × 2 rows
        arms[(r["event_type"], int(r["variant"]))] = (
            int(r["n"]), int(r["s"]), int(r["q"]))

    def _var(n: int, s: int, q: int):
        if n <= 1:
            return None
        return float(n * q - s * s) / float(n * (n - 1))

    rows = []
    for et in sorted({k[0] for k in arms}):
        if (et, 0) not in arms or (et, 1) not in arms:
            continue
        na, sa, qa = arms[(et, 0)]
        nb, sb, qb = arms[(et, 1)]
        mean_a = float(sa) / float(na)
        mean_b = float(sb) / float(nb)
        va, vb = _var(na, sa, qa), _var(nb, sb, qb)
        if va is None or vb is None or va / float(na) + vb / float(nb) <= 0:
            z = None
        else:
            z = (mean_b - mean_a) / math.sqrt(va / float(na)
                                              + vb / float(nb))
        rows.append((et, na, nb, mean_a, mean_b, z))
    return pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "n_a": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_b": pa.array([r[2] for r in rows], type=pa.int64()),
        "mean_a": pa.array([r[3] for r in rows], type=pa.float64()),
        "mean_b": pa.array([r[4] for r in rows], type=pa.float64()),
        "z_score": pa.array([r[5] for r in rows], type=pa.float64())})


def events_cusum_peaks(sf_dir: str, k: int = 10):
    """CUSUM drift detection per event type: the classic
    ``s_i = max(0, s_{i-1} + (x_i − target))`` upper-CUSUM statistic
    over each type's value stream in (ts, event_id) order, reported as
    the top-``k`` peak rows per type — 'where did this metric drift
    hardest above its mean'.

    The recurrence LINEARIZES (Lindley): ``s_i = S_i − min(0,
    min_{j<i} S_j)`` with ``S`` the prefix sum of deviations — so the
    whole statistic composes from the two existing prefix-scan
    exchanges: one ``grouped_running_sum`` for ``S`` and one EXCLUSIVE
    ``grouped_running_max`` on ``−S`` for the prefix minimum, then a
    vectorized finish and a ``grouped_topk``.  The per-type target is
    the floor-mean in cents (one tiny aggregate, broadcast as a dict),
    so everything stays exact int64 and the SQL window oracle is
    bitwise."""
    from ...stages.scan import grouped_running_max, grouped_running_sum
    from ...stages.topk import grouped_topk

    base = (rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "event_type",
                                     "value"])
            .map_batches(lambda b: pa.table({
                "event_type": b.column("event_type"),
                "event_id": b.column("event_id"),
                "ev_us": pc.cast(b.column("ts"), pa.int64()),
                "value_cents": _cents(b.column("value"))}),
                batch_format="pyarrow", zero_copy_batch=True)
            .materialize())

    targets = {r["event_type"]: r["value_cents"] // r["n"]
               for r in sorted_group_aggregate(
                   base.map_batches(lambda b: b.append_column(
                       "n", pa.array(np.ones(b.num_rows, dtype=np.int64))),
                       batch_format="pyarrow"),
                   "event_type",
                   [("value_cents", "sum"), ("n", "sum")]).take_all()}

    # vectorized dict lookup: the event stream is input-sized — no
    # per-row Python (index_in against the 5-key target table)
    t_keys = pa.array(sorted(targets), type=pa.string())
    t_vals = np.array([targets[k] for k in sorted(targets)],
                      dtype=np.int64)

    def dev(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b.column("event_type"), value_set=t_keys) \
            .to_numpy(zero_copy_only=False)
        t = t_vals[idx]
        v = b.column("value_cents").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": b.column("event_type"),
            "event_id": b.column("event_id"),
            "ev_us": b.column("ev_us"),
            "d": pa.array(v - t, type=pa.int64())})

    s_ds = grouped_running_sum(
        base.map_batches(dev, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="event_type", order_cols=["ev_us", "event_id"],
        value_col="d", out_name="s")
    neg = s_ds.map_batches(lambda b: b.append_column(
        "neg_s", pc.negate_checked(b.column("s"))),
        batch_format="pyarrow")
    m_ds = grouped_running_max(neg, key="event_type",
                               order_cols=["ev_us", "event_id"],
                               value_col="neg_s", out_name="neg_min_prev")

    def finish(b: pa.Table) -> pa.Table:
        s = b.column("s").to_numpy(zero_copy_only=False)
        nm = pc.fill_null(b.column("neg_min_prev"),
                          pa.scalar(np.iinfo(np.int64).min + 1,
                                    type=pa.int64())) \
            .to_numpy(zero_copy_only=False)
        min_prev = -nm                        # +huge for first rows
        cusum = s - np.minimum(0, min_prev)
        return pa.table({
            "event_type": b.column("event_type"),
            "event_id": b.column("event_id"),
            "ev_us": b.column("ev_us"),
            "cusum_cents": pa.array(cusum, type=pa.int64())})

    peaks = grouped_topk(
        m_ds.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True),
        "event_type", "cusum_cents", "event_id", k=k)
    return peaks.map_batches(lambda b: b.select(
        ["event_type", "rank", "event_id", "ev_us", "cusum_cents"]),
        batch_format="pyarrow", zero_copy_batch=True)


def events_benford_audit(sf_dir: str):
    """Benford first-digit audit per event type — the fraud/data-entry
    screen an ingest pipeline runs on monetary columns: observed
    first-digit counts of the cent values against the Benford expected
    distribution, with the chi-square statistic in exact operand order.

    All counting is distributed int64 (map-side combine, one 9-row-per-
    type aggregate); the expected probabilities ``log10(1 + 1/d)`` and
    the chi-square sum run on the driver over the 5×9 ledger, mirrored
    term-for-term by the oracle so even the float is bitwise."""
    import math

    def digits(b: pa.Table) -> pa.Table:
        v = _cents(b.column("value")).to_numpy(zero_copy_only=False)
        t = b.column("event_type")
        keep = v > 0
        s = pc.utf8_slice_codeunits(
            pc.cast(pa.array(v[keep], type=pa.int64()), pa.string()), 0, 1)
        return pa.table({
            "event_type": t.filter(pa.array(keep)),
            "digit": pc.cast(s, pa.int64()),
            "n": pa.array(np.ones(int(keep.sum()), dtype=np.int64))})

    counts = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "value"])
        .map_batches(digits, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "digit"], [("n", "sum")], precombine=True) \
        .take_all()                       # ≤ 9 digits × n_types: tiny

    per_type = {}
    for r in counts:
        per_type.setdefault(r["event_type"], {})[r["digit"]] = r["n"]
    types, digs, ns, exps, chis = [], [], [], [], {}
    for et in sorted(per_type):
        total = sum(per_type[et].values())
        chi = 0.0
        for d in range(1, 10):
            obs = per_type[et].get(d, 0)
            p = math.log10(1.0 + 1.0 / d)
            exp = total * p
            chi += (obs - exp) * (obs - exp) / exp
            types.append(et)
            digs.append(d)
            ns.append(obs)
            exps.append(exp)
        chis[et] = chi
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "digit": pa.array(digs, type=pa.int64()),
        "n_obs": pa.array(ns, type=pa.int64()),
        "n_expected": pa.array(exps, type=pa.float64()),
        "chi2": pa.array([chis[t] for t in types], type=pa.float64())})


def events_quality_checks(sf_dir: str):
    """Declarative data-quality rule suite (the Deequ/GreatExpectations
    shape): one streaming pass evaluates every rule as a mergeable
    integer partial, one result row per rule — ``(rule, n_checked,
    n_violations, passed)``.

    The generated events table is perfectly clean (every natural rule
    is vacuous — verified), so violations are INJECTED deterministically
    first, the same discipline as ``fk_orphan_audit``/``pii_scrub``:
    rows with ``md5(event_id) % 97 == 0`` get their value negated and
    their type rewritten to ``'unknown'`` — the oracle applies the
    identical rewrite in SQL, so the rule engine itself is what's
    checked.  Rules: value non-null, value ≥ 0, type in the enum
    domain, ts inside the ingest window, event_id globally unique (the
    only rule needing an exchange — one distinct-count aggregate; all
    others fold into per-block int64 partials)."""
    from ...functions.sampling import _md5_bucket

    lo_us = 1704067200000000          # 2024-01-01T00:00:00Z
    hi_us = 1706745600000000          # 2024-02-01T00:00:00Z
    domain = {"click", "signup", "error", "view", "purchase"}

    def partials(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return pa.table({"rule": pa.array([], type=pa.string()),
                             "n_checked": pa.array([], type=pa.int64()),
                             "n_violations": pa.array([], type=pa.int64())})
        corrupt = _md5_bucket(b.column("event_id").to_pylist(), 97) == 0
        v = b.column("value").to_numpy(zero_copy_only=False)
        v = np.where(corrupt, -v, v)
        ty = np.asarray(b.column("event_type").to_pylist(), dtype=object)
        ty[corrupt] = "unknown"
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        rules = [
            ("value_nonnull", n, int(np.isnan(v).sum())),
            ("value_nonneg", n, int((v < 0).sum())),
            ("type_in_domain", n,
             int(sum(t not in domain for t in ty))),
            ("ts_in_window", n,
             int(((ts < lo_us) | (ts >= hi_us)).sum())),
        ]
        return pa.table({
            "rule": pa.array([r[0] for r in rules], type=pa.string()),
            "n_checked": pa.array([r[1] for r in rules], type=pa.int64()),
            "n_violations": pa.array([r[2] for r in rules],
                                     type=pa.int64())})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value", "ts"])
    flat = sorted_group_aggregate(
        ev.map_batches(partials, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["rule"], [("n_checked", "sum"), ("n_violations", "sum")],
        precombine=True)

    # uniqueness rule: the one exchange — distinct event_id count
    ids = rd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["event_id"])
    n_total = ids.count()
    n_distinct = sorted_group_aggregate(
        ids.map_batches(lambda b: pa.table({
            "event_id": b.column("event_id"),
            "one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["event_id"], [("one", "min")]).count()
    uniq_row = rd.from_arrow(pa.table({
        "rule": pa.array(["event_id_unique"], type=pa.string()),
        "n_checked": pa.array([n_total], type=pa.int64()),
        "n_violations": pa.array([n_total - n_distinct],
                                 type=pa.int64())}))

    return flat.union(uniq_row).map_batches(
        lambda b: b.append_column(
            "passed", pc.cast(pc.equal(b.column("n_violations"),
                                       pa.scalar(0, type=pa.int64())),
                              pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)


def events_bootstrap_ci(sf_dir: str):
    """Distributed bootstrap: a 95% confidence interval for the mean
    event value per type, from ``B=64`` DETERMINISTIC Poisson(1)
    resamples — the uncertainty-quantification op a metrics pipeline
    wants, in the only form a distributed engine can replay exactly.

    The b-th resample weight of a row is a pure function of the data:
    ``u_b = (h40 · (2b+1)) mod 2^40`` with ``h40 = md5(event_id)
    (60-bit prefix) mod 2^40`` — an odd-multiplier remix of one md5
    per row (NOT one md5 per row per resample) — mapped through the
    exact integer Poisson(1) inverse CDF (thresholds floor(cum·2^40)).
    Per-(type, b) weighted sums are int64 partials (one aggregate,
    type×64-sized output); resample means are one IEEE division each;
    the CI is ORDER STATISTICS of the 64 means (ranks 2 and 63 under
    (mean, b) — mirrored by the oracle's ROW_NUMBER), so the whole
    artifact is bitwise reproducible."""
    from ...stages.aggregate import sorted_group_aggregate as _sga

    def partials(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "b": pa.array([], type=pa.int64()),
                "sw": pa.array([], type=pa.int64()),
                "swx": pa.array([], type=pa.int64())})
        h40 = _md5_rank15(
            b.column("event_id").to_numpy(zero_copy_only=False)) % _M40
        cents = np.floor(
            b.column("value").to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        ty = b.column("event_type")
        th = np.asarray(_POIS_TH, dtype=np.int64)
        out_t, out_b, out_sw, out_swx = [], [], [], []
        types = pc.unique(ty).to_pylist()
        masks = {t: np.asarray(pc.equal(ty, pa.scalar(t)).to_numpy(
            zero_copy_only=False)) for t in types}
        for bb in range(_B_BOOT):
            u = (h40 * (2 * bb + 1)) % _M40
            w = np.searchsorted(th, u, side="right").astype(np.int64)
            wx = w * cents
            for t in types:
                m = masks[t]
                out_t.append(t)
                out_b.append(bb)
                out_sw.append(int(w[m].sum()))
                out_swx.append(int(wx[m].sum()))
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "b": pa.array(out_b, type=pa.int64()),
            "sw": pa.array(out_sw, type=pa.int64()),
            "swx": pa.array(out_swx, type=pa.int64())})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    sums = _sga(ev.map_batches(partials, batch_format="pyarrow",
                               zero_copy_batch=True),
                ["event_type", "b"], [("sw", "sum"), ("swx", "sum")],
                precombine=True)

    # type×64 rows — result-sized; order statistics on the driver
    rows = [r for r in sums.take_all() if r["sw"] > 0]
    by_type = {}
    for r in rows:
        by_type.setdefault(r["event_type"], []).append(
            (float(r["swx"]) / float(r["sw"]), r["b"]))
    out_t, out_lo, out_hi = [], [], []
    for t in sorted(by_type):
        means = sorted(by_type[t])
        out_t.append(t)
        out_lo.append(means[1][0])            # rank 2 of 64  (2.5%)
        out_hi.append(means[62][0])           # rank 63 of 64 (97.5%)
    return pa.table({"event_type": pa.array(out_t, type=pa.string()),
                     "ci_lo": pa.array(out_lo, type=pa.float64()),
                     "ci_hi": pa.array(out_hi, type=pa.float64())})


def events_value_regression(sf_dir: str):
    """Per-type OLS trend of event value (cents) against the hour index
    — the drift detector a metrics pipeline fits continuously.  All
    five sufficient statistics (n, Σx, Σy, Σxy, Σx²) are exact int64
    map-side partials over ONE scan (x = epoch-hour minus the ingest
    window origin, so x ∈ [0, 744] and Σx² stays ~5.5e5·n — safe to
    ~1e12 rows; y = cents).  Finalization happens on the driver over
    the types-sized result in Python ints (no intermediate overflow),
    then rounds through float64 in EXACTLY the oracle's expression
    order: slope = double(nΣxy−ΣxΣy)/double(nΣx²−(Σx)²), intercept =
    (double(Σy) − slope·double(Σx))/double(n)."""
    _H0 = 473352                 # 2024-01-01T00:00:00Z in epoch hours

    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        x = ts // 3_600_000_000 - _H0
        y = np.floor(b.column("value").to_numpy(zero_copy_only=False)
                     * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "event_type": b.column("event_type"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x)})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value", "ts"])
    rows = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"],
        [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
         ("sxy", "sum"), ("sxx", "sum")], precombine=True).take_all()

    out_t, out_n, out_s, out_i = [], [], [], []
    for r in sorted(rows, key=lambda r: r["event_type"]):
        n, sx, sy, sxy, sxx = (int(r["n"]), int(r["sx"]), int(r["sy"]),
                               int(r["sxy"]), int(r["sxx"]))
        slope = float(n * sxy - sx * sy) / float(n * sxx - sx * sx)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        out_t.append(r["event_type"])
        out_n.append(n)
        out_s.append(slope)
        out_i.append(intercept)
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "n_events": pa.array(out_n, type=pa.int64()),
        "slope_cents_per_hour": pa.array(out_s, type=pa.float64()),
        "intercept_cents": pa.array(out_i, type=pa.float64())})


def events_value_mad_outliers(sf_dir: str):
    """Robust (median/MAD) outlier audit per event type with ZERO
    floating point: working in doubled units keeps every order
    statistic integral — ``med2`` = the sum of the two middle cents
    values (= 2·median for any parity), ``dev = |2·x − med2|``
    (= 2·|x − median|), ``mad2`` = the two middle devs summed
    (= 4·MAD), and the flag ``|x−median| > 3·MAD`` becomes the exact
    integer predicate ``2·dev > 3·mad2``.

    Scale shape: ONE distributed aggregate builds the per-(type, cents)
    histogram — output-sized for any bounded-domain value column (cents
    here; bucket first for genuinely continuous domains) — and the
    driver finalizes order statistics from the histogram, so the raw
    stream is scanned exactly once."""
    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b.column("event_type"),
            "cents": _cents(b.column("value")),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    hist = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "cents"], [("c", "sum")], precombine=True) \
        .take_all()

    by_type = {}
    for r in hist:
        by_type.setdefault(r["event_type"], []).append(
            (int(r["cents"]), int(r["c"])))

    def order2(pairs_sorted, n):
        """Sum of the 0-based (n-1)//2-th and n//2-th order statistics
        of the weighted multiset."""
        want = sorted({(n - 1) // 2, n // 2})
        got, seen, it = [], 0, iter(pairs_sorted)
        for v, c in it:
            seen += c
            while want and want[0] < seen:
                got.append(v)
                want.pop(0)
            if not want:
                break
        return got[0] + got[-1] if len(got) == 1 or (n - 1) // 2 != n // 2 \
            else 2 * got[0]

    out_t, out_n, out_m, out_d, out_o = [], [], [], [], []
    for t in sorted(by_type):
        vals = sorted(by_type[t])
        n = sum(c for _, c in vals)
        med2 = order2(vals, n)
        devs = {}
        for v, c in vals:
            d = abs(2 * v - med2)
            devs[d] = devs.get(d, 0) + c
        mad2 = order2(sorted(devs.items()), n)
        n_out = sum(c for d, c in devs.items() if 2 * d > 3 * mad2)
        out_t.append(t)
        out_n.append(n)
        out_m.append(med2)
        out_d.append(mad2)
        out_o.append(n_out)
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "n_events": pa.array(out_n, type=pa.int64()),
        "med2_cents": pa.array(out_m, type=pa.int64()),
        "mad2_cents": pa.array(out_d, type=pa.int64()),
        "n_outliers": pa.array(out_o, type=pa.int64())})


def events_kanonymity(sf_dir: str, k: int = 5):
    """k-anonymity audit over the behavioral quasi-identifier
    ``(n_events, modal event type)`` — how re-identifiable users are
    from released per-user aggregates.  Output: one row per
    equivalence-class size — how many classes and users sit at that
    size and whether it breaches the k bar.  Modal type ties break to
    the lexicographically smallest type (the deterministic rule the
    oracle mirrors with ``ORDER BY c DESC, event_type``).
    Composition: (user, type) counts → ``grouped_topk(k=1)`` for the
    mode → per-user totals join → class aggregate → size histogram —
    every exchange reduced before it moves."""
    from ...stages.join import sorted_merge_join
    from ...stages.topk import grouped_topk

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    uc = sorted_group_aggregate(
        ev.map_batches(lambda b: pa.table({
            "user_id": b.column("user_id"),
            "event_type": b.column("event_type"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "event_type"], [("c", "sum")], precombine=True) \
        .materialize()

    modal = grouped_topk(uc, group="user_id", order_col="c",
                         tiebreak="event_type", k=1, descending=True) \
        .map_batches(lambda b: pa.table({
            "user_id": b.column("user_id"),
            "modal_type": b.column("event_type")}),
            batch_format="pyarrow", zero_copy_batch=True)
    totals = sorted_group_aggregate(
        uc.map_batches(lambda b: pa.table({
            "user_id": b.column("user_id"), "n_events": b.column("c")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [("n_events", "sum")])

    qi = sorted_merge_join(totals, modal, on="user_id")
    cls = sorted_group_aggregate(
        qi.map_batches(lambda b: pa.table({
            "n_events": b.column("n_events"),
            "modal_type": b.column("modal_type"),
            "class_size": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["n_events", "modal_type"], [("class_size", "sum")])
    hist = sorted_group_aggregate(
        cls.map_batches(lambda b: pa.table({
            "class_size": b.column("class_size"),
            "n_classes": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_users": b.column("class_size")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["class_size"], [("n_classes", "sum"), ("n_users", "sum")])
    return hist.map_batches(lambda b, _k=k: b.append_column(
        "at_risk", pc.cast(pc.less(b.column("class_size"),
                                   pa.scalar(_k, type=pa.int64())),
                           pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)


def events_dp_counts(sf_dir: str):
    """ε=1 differentially-private per-type release counts via the
    DISCRETE Laplace (two-sided geometric) mechanism — the
    integer-native DP noise (Ghosh–Roughgarden–Sundararajan), which a
    distributed engine can make exactly replayable: the noise draw is
    the inverse-CDF lookup of ``u = md5(event_type) mod 2^40`` against
    precomputed integer thresholds (``_DLAP_TH``), so reruns and
    retries release the SAME noisy value — fresh randomness per retry
    would burn privacy budget.  True counts are one mergeable
    aggregate; the noise add is output-sized."""
    from ...functions.sampling import _md5_bucket

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type"])
    counts = sorted_group_aggregate(
        ev.map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "n_events": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], [("n_events", "sum")], precombine=True)

    th = np.asarray(_DLAP_TH, dtype=np.int64)

    def noise(b: pa.Table) -> pa.Table:
        u = _md5_rank15(
            np.asarray(b.column("event_type").to_pylist(),
                       dtype=object)) % _M40
        k = np.searchsorted(th, u, side="right").astype(np.int64) - 12
        n = b.column("n_events").to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": b.column("event_type"),
            "n_events": b.column("n_events"),
            "dp_noise": pa.array(k, type=pa.int64()),
            "dp_count": pa.array(n + k, type=pa.int64())})

    return counts.map_batches(noise, batch_format="pyarrow",
                              zero_copy_batch=True)


def events_markov_stationary(sf_dir: str, iters: int = 10):
    """Stationary distribution of the per-user event-type Markov chain
    — where the session model says users spend their time in the long
    run.  The transition counts come from the LAG exchange
    (:func:`event_type_transitions`, input-sized); the power iteration
    runs on the DRIVER over the types²-sized count matrix in exact
    integer micro-units (``π'(j) = Σᵢ π(i)·c_ij // r_i``, UNIT=10¹²,
    10 rounds — the k×k matrix is output-sized at any corpus scale, so
    driver iteration is the right plan, unlike the node-sized PageRank
    vectors).  Mass flowing to a type with no outgoing transitions is
    dropped (inner-join semantics, mirrored by the oracle)."""
    rows = event_type_transitions(sf_dir).take_all()
    UNIT = 10 ** 12
    rowsum = {}
    for r in rows:
        rowsum[r["from_type"]] = rowsum.get(r["from_type"], 0) \
            + int(r["n"])
    types = sorted(rowsum)
    k = len(types)
    pi = {t: UNIT // k for t in types}
    for _ in range(iters):
        nxt = {t: 0 for t in types}
        for r in rows:
            f, t = r["from_type"], r["to_type"]
            if t in nxt:
                nxt[t] += (pi.get(f, 0) * int(r["n"])) // rowsum[f]
        pi = nxt
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "stationary_fp": pa.array([pi[t] for t in types],
                                  type=pa.int64())})


def events_hourly_changepoint(sf_dir: str):
    """Single changepoint per type over the hourly count series
    (binary-segmentation step 1): the split τ minimizing total
    within-segment SSE, computed from prefix sums of counts and
    squared counts — the same exact-int-partials → mirrored-float
    finalization as ``part_price_stump``: ``cost = (double(SxxL) −
    double(SL²)/double(nL)) + (same for R)``; argmin per type breaks
    ties on the earlier hour.  Exchanges: one hourly aggregate, one
    per-type running-sum scan, one grouped top-1."""
    from ...stages.scan import grouped_running_sum
    from ...stages.topk import grouped_topk

    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64())
        hour = pc.divide(ts, pa.scalar(3_600_000_000, type=pa.int64()))
        return pa.table({
            "event_type": b.column("event_type"),
            "hour": pc.cast(hour, pa.int64()),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    hourly = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "hour"], [("c", "sum")], precombine=True) \
        .map_batches(lambda b: b.append_column(
            "c2", pc.multiply(b.column("c"), b.column("c")))
        .append_column("one",
                       pa.array(np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow", zero_copy_batch=True)

    cum = grouped_running_sum(hourly, "event_type", ["hour"], "c",
                              out_name="sl")
    cum = grouped_running_sum(cum, "event_type", ["hour"], "c2",
                              out_name="sxxl")
    cum = grouped_running_sum(cum, "event_type", ["hour"], "one",
                              out_name="nl").materialize()

    totals = {r["event_type"]: (r["n"], r["s"], r["sxx"])
              for r in sorted_group_aggregate(
                  hourly.map_batches(lambda b: pa.table({
                      "event_type": b.column("event_type"),
                      "n": b.column("one"), "s": b.column("c"),
                      "sxx": b.column("c2")}),
                      batch_format="pyarrow", zero_copy_batch=True),
                  ["event_type"],
                  [("n", "sum"), ("s", "sum"), ("sxx", "sum")]).take_all()}
    tot_ref = ray.put(totals)

    def score(b: pa.Table) -> pa.Table:
        tt = ray.get(tot_ref)
        ty = b.column("event_type").to_pylist()
        nl = b.column("nl").to_numpy(zero_copy_only=False)
        sl = b.column("sl").to_numpy(zero_copy_only=False)
        xl = b.column("sxxl").to_numpy(zero_copy_only=False)
        hour = b.column("hour").to_numpy(zero_copy_only=False)
        out_t, out_h, out_c = [], [], []
        for i in range(b.num_rows):
            n, s, xx = tt[ty[i]]
            nli = int(nl[i])
            if nli >= int(n):               # right side must be non-empty
                continue
            nri = int(n) - nli
            sli, xli = int(sl[i]), int(xl[i])
            sri, xri = int(s) - sli, int(xx) - xli
            cost = ((float(xli) - float(sli * sli) / float(nli))
                    + (float(xri) - float(sri * sri) / float(nri)))
            out_t.append(ty[i])
            out_h.append(int(hour[i]))
            out_c.append(cost)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "split_hour": pa.array(out_h, type=pa.int64()),
            "cost": pa.array(out_c, type=pa.float64())})

    scored = cum.map_batches(score, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_topk(scored, group="event_type", order_col="cost",
                        tiebreak="split_hour", k=1, descending=False) \
        .map_batches(lambda b: b.select(
            ["event_type", "split_hour", "cost"]),
        batch_format="pyarrow", zero_copy_batch=True)


def events_conformal_coverage(sf_dir: str):
    """Split-conformal calibration audit, all-integer: events split by
    ``md5(event_id) % 2`` into calibration (A) and evaluation (B); the
    point model is the per-type A-mean kept as the exact rational
    ``S_A/n_A``; the nonconformity score is the INTEGER
    ``s = |cents·n_A − S_A|`` (the |residual| scaled by n_A — same
    order, no division); ``q̂`` = the ⌈0.9·(n_A+1)⌉-th smallest A-score
    (the split-conformal quantile), and coverage counts B-scores ≤ q̂.
    Guarantee (distribution-free): E[coverage] ≥ 0.9 — asserted
    statistically in tests, bitwise via the oracle.

    Shape: one (type, split) moment aggregate, one (type, s) histogram
    aggregate (distinct |residual| values are cents-domain-bounded),
    driver order statistics over the histogram."""
    from ...functions.sampling import _md5_bucket

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        par = _md5_bucket(b.column("event_id").to_pylist(), 2)
        return pa.table({
            "event_type": b.column("event_type"),
            "is_cal": pa.array((par == 0).astype(np.int64)),
            "cents": _cents(b.column("value"))})

    base = ev.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    moments = sorted_group_aggregate(
        base.map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "n_cal": b.column("is_cal"),
            "s_cal": pc.multiply(b.column("is_cal"), b.column("cents"))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], [("n_cal", "sum"), ("s_cal", "sum")],
        precombine=True).take_all()
    mom = {r["event_type"]: (int(r["n_cal"]), int(r["s_cal"]))
           for r in moments}
    mom_ref = ray.put(mom)

    def scores(b: pa.Table) -> pa.Table:
        mm = ray.get(mom_ref)
        ty = b.column("event_type").to_pylist()
        cents = b.column("cents").to_numpy(zero_copy_only=False)
        na = np.array([mm[t][0] for t in ty], dtype=np.int64)
        sa = np.array([mm[t][1] for t in ty], dtype=np.int64)
        s = np.abs(cents * na - sa)
        return pa.table({
            "event_type": b.column("event_type"),
            "s": pa.array(s, type=pa.int64()),
            "n_a": b.column("is_cal"),
            "n_b": pc.subtract(pa.scalar(1, type=pa.int64()),
                               b.column("is_cal"))})

    hist = sorted_group_aggregate(
        base.map_batches(scores, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["event_type", "s"], [("n_a", "sum"), ("n_b", "sum")],
        precombine=True).take_all()

    by_type = {}
    for r in hist:
        by_type.setdefault(r["event_type"], []).append(
            (int(r["s"]), int(r["n_a"]), int(r["n_b"])))
    out = {"event_type": [], "n_cal": [], "n_eval": [],
           "qhat_scaled": [], "n_covered": []}
    for t in sorted(by_type):
        rows = sorted(by_type[t])
        n_a = sum(a for _, a, _ in rows)
        if n_a == 0:
            continue                            # no calibration: no row
        n_b = sum(bb for _, _, bb in rows)
        k = -(-9 * (n_a + 1) // 10)            # ceil(0.9*(nA+1)), 1-based
        qhat, seen = None, 0
        for s, a, _ in rows:
            seen += a
            if seen >= k:
                qhat = s
                break
        if qhat is None:                        # k > n_A: infinite band
            qhat = max(s for s, a, _ in rows if a > 0)
        covered = sum(bb for s, _, bb in rows if s <= qhat)
        out["event_type"].append(t)
        out["n_cal"].append(n_a)
        out["n_eval"].append(n_b)
        out["qhat_scaled"].append(qhat)
        out["n_covered"].append(covered)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_cal": pa.array(out["n_cal"], type=pa.int64()),
        "n_eval": pa.array(out["n_eval"], type=pa.int64()),
        "qhat_scaled": pa.array(out["qhat_scaled"], type=pa.int64()),
        "n_covered": pa.array(out["n_covered"], type=pa.int64())})


def events_cuped_estimate(sf_dir: str):
    """CUPED variance reduction for the md5-split A/B experiment —
    the adjusted-metric estimator every experimentation platform runs:
    per user, X = pre-period purchase cents (ts < window midpoint),
    Y = post-period purchase cents; θ = cov(X,Y)/var(X) pooled across
    variants from exact int64 user-level partials; the per-user
    adjusted metric ``y − θ·(x − μx)`` quantizes to micro-cents
    (floor +0.5, float expression mirrored operand-for-operand in the
    oracle) BEFORE the per-variant sum, so the reduction is an exact
    int fold.  Output per variant: users, raw mean, adjusted mean."""
    from ...functions.sampling import _md5_bucket

    _MID = 1705406400000000          # 2024-01-16T12:00:00Z (window mid)

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "value", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        cents = np.floor(b.column("value").to_numpy(zero_copy_only=False)
                         * 100.0 + 0.5).astype(np.int64)
        is_p = np.asarray(pc.equal(b.column("event_type"),
                                   pa.scalar("purchase")).to_numpy(
            zero_copy_only=False)).astype(np.int64)
        pre = (ts < _MID).astype(np.int64)
        return pa.table({
            "user_id": b.column("user_id"),
            "x": pa.array(cents * is_p * pre),
            "y": pa.array(cents * is_p * (1 - pre))})

    users = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [("x", "sum"), ("y", "sum")], precombine=True) \
        .materialize()

    mom = sorted_group_aggregate(
        users.map_batches(lambda b: pa.table({
            "g": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "sx": b.column("x"), "sy": b.column("y"),
            "sxx": pc.multiply(b.column("x"), b.column("x")),
            "sxy": pc.multiply(b.column("x"), b.column("y"))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["g"], [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                ("sxx", "sum"), ("sxy", "sum")]).take_all()[0]
    n = int(mom["n"])
    sx, sy = int(mom["sx"]), int(mom["sy"])
    sxx, sxy = int(mom["sxx"]), int(mom["sxy"])
    var_num = n * sxx - sx * sx
    theta = (float(n * sxy - sx * sy) / float(var_num)) \
        if var_num != 0 else 0.0
    mu_x = float(sx) / float(n)

    def adj(b: pa.Table, _t=theta, _m=mu_x) -> pa.Table:
        import math

        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        variant = _md5_bucket(uid.tolist(), 2)
        a = np.empty(len(x), dtype=np.int64)
        for i in range(len(x)):
            a[i] = math.floor(
                1000000.0 * (float(y[i]) - _t * (float(x[i]) - _m))
                + 0.5)
        return pa.table({
            "variant": pa.array(variant.astype(np.int64)),
            "n_users": pa.array(np.ones(len(x), dtype=np.int64)),
            "sum_y_cents": b.column("y"),
            "sum_adj_ucents": pa.array(a)})

    out = sorted_group_aggregate(
        users.map_batches(adj, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["variant"],
        [("n_users", "sum"), ("sum_y_cents", "sum"),
         ("sum_adj_ucents", "sum")], precombine=True)
    return out.map_batches(lambda b: pa.table({
        "variant": b.column("variant"),
        "n_users": b.column("n_users"),
        "mean_y_cents": pc.divide(
            pc.cast(b.column("sum_y_cents"), pa.float64()),
            pc.cast(b.column("n_users"), pa.float64())),
        "mean_adj_ucents": pc.divide(
            pc.cast(b.column("sum_adj_ucents"), pa.float64()),
            pc.cast(b.column("n_users"), pa.float64()))}),
        batch_format="pyarrow", zero_copy_batch=True)


def events_value_psi(sf_dir: str):
    """Population Stability Index — the drift monitor a feature
    platform runs between a reference and a live window (md5 halves
    here): per type, counts over the corpus's global cent DECILES,
    Laplace-smoothed shares ``(c+1)/(n+10)``, and
    ``PSI = Σ (p_a−p_b)·ln(p_a/p_b)`` folded in FIXED bucket order
    (0..9) — DuckDB's ordered window SUM matches sequential addition
    (the Benford precedent), so the float is bitwise.  PSI < 0.1 ⇒
    stable; the md5 split is exchangeable so the audit should sit
    near 0 (asserted statistically in tests).  Exchanges: one global
    decile quantile, one (type, bucket, split) count aggregate."""
    import math

    from ...functions.sampling import _md5_bucket
    from ...stages.quantile import grouped_quantiles

    base = rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_id", "event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "cents": _cents(b.column("value"))})

    qs = [i / 10 for i in range(1, 10)]
    qt = grouped_quantiles(
        base.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True),
        group="g", value_col="cents", qs=qs,
        out_names=[f"d{i}" for i in range(1, 10)]).take_all()[0]
    bounds = np.array([int(qt[f"d{i}"]) for i in range(1, 10)],
                      dtype=np.int64)
    b_ref = ray.put(bounds)

    def bucketize(b: pa.Table) -> pa.Table:
        bs = ray.get(b_ref)
        cents = _cents(b.column("value")).to_numpy(zero_copy_only=False)
        # bucket = #bounds strictly below cents (a value equal to a
        # decile boundary stays in the lower bucket) — mirrored by the
        # oracle's COUNT(bound < cents)
        bucket = np.searchsorted(bs, cents, side="left")
        par = _md5_bucket(b.column("event_id").to_pylist(), 2)
        return pa.table({
            "event_type": b.column("event_type"),
            "bucket": pa.array(bucket.astype(np.int64)),
            "c_a": pa.array((par == 0).astype(np.int64)),
            "c_b": pa.array((par == 1).astype(np.int64))})

    counts = sorted_group_aggregate(
        base.map_batches(bucketize, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["event_type", "bucket"], [("c_a", "sum"), ("c_b", "sum")],
        precombine=True).take_all()

    by_type = {}
    for r in counts:
        by_type.setdefault(r["event_type"], {})[int(r["bucket"])] = (
            int(r["c_a"]), int(r["c_b"]))
    out_t, out_na, out_nb, out_psi = [], [], [], []
    for t in sorted(by_type):
        bk = by_type[t]
        na = sum(a for a, _ in bk.values())
        nb = sum(bb for _, bb in bk.values())
        psi = 0.0
        for k in range(10):
            ca, cb = bk.get(k, (0, 0))
            pa_ = (float(ca) + 1.0) / (float(na) + 10.0)
            pb_ = (float(cb) + 1.0) / (float(nb) + 10.0)
            psi = psi + (pa_ - pb_) * math.log(pa_ / pb_)
        out_t.append(t)
        out_na.append(na)
        out_nb.append(nb)
        out_psi.append(psi)
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "n_a": pa.array(out_na, type=pa.int64()),
        "n_b": pa.array(out_nb, type=pa.int64()),
        "psi": pa.array(out_psi, type=pa.float64())})


def events_forecast_backtest(sf_dir: str):
    """Rolling-origin backtest of the two standard count baselines —
    naive (tomorrow = today) vs seasonal-naive (tomorrow = same hour
    yesterday) — scored per type with EXACT integer absolute-error
    sums over the hourly series; the winner column is an integer
    cross-comparison (ties → 'naive').  This is the model-selection
    table every forecasting pipeline bootstraps from, and it needs no
    float at all.  One hourly aggregate + one per-type LAG scan."""
    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64())
        return pa.table({
            "event_type": b.column("event_type"),
            "hour": pc.cast(pc.divide(ts, pa.scalar(3_600_000_000,
                                                    type=pa.int64())),
                            pa.int64()),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))})

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    hourly = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "hour"], [("c", "sum")], precombine=True) \
        .take_all()

    by_type = {}
    for r in hourly:
        by_type.setdefault(r["event_type"], {})[int(r["hour"])] = \
            int(r["c"])
    out = {"event_type": [], "n_points": [], "mae_naive_num": [],
           "n_seasonal": [], "mae_seasonal_num": [], "winner": []}
    for t in sorted(by_type):
        hc = by_type[t]
        # dense hour spine: a missing hour is a true zero count
        lo, hi = min(hc), max(hc)
        series = [hc.get(h, 0) for h in range(lo, hi + 1)]
        nv = len(series) - 1
        e_naive = sum(abs(series[i + 1] - series[i]) for i in range(nv))
        ns = max(0, len(series) - 24)
        e_seas = sum(abs(series[i + 24] - series[i]) for i in range(ns))
        # integer cross-comparison on common footing: compare mean
        # absolute errors as e_naive·ns vs e_seas·nv
        if ns == 0 or e_naive * ns <= e_seas * nv:
            winner = "naive"
        else:
            winner = "seasonal"
        out["event_type"].append(t)
        out["n_points"].append(nv)
        out["mae_naive_num"].append(e_naive)
        out["n_seasonal"].append(ns)
        out["mae_seasonal_num"].append(e_seas)
        out["winner"].append(winner)
    return pa.table({
        "event_type": pa.array(out["event_type"], type=pa.string()),
        "n_points": pa.array(out["n_points"], type=pa.int64()),
        "mae_naive_num": pa.array(out["mae_naive_num"], type=pa.int64()),
        "n_seasonal": pa.array(out["n_seasonal"], type=pa.int64()),
        "mae_seasonal_num": pa.array(out["mae_seasonal_num"],
                                     type=pa.int64()),
        "winner": pa.array(out["winner"], type=pa.string())})


def events_kmv_distinct(sf_dir: str, k: int = 64):
    """K-minimum-values distinct-count sketch per event type, audited
    against the exact count in the same output row — the third sketch
    family next to HLL (``event_user_distinct_hll``) and Count-Min
    (``token_cms_counts``).  KMV keeps the k smallest hash values of
    the distinct keys; with h_k the k-th smallest of a 32-bit hash the
    estimate is ``(k-1)·2³² / h_k``, and unlike HLL the sketch is a
    pure ORDER STATISTIC: bottom-k sets merge exactly (union → bottom
    k), so the distributed sketch is bit-identical to a serial one at
    any partitioning.  Hash = first 8 hex chars of md5(user_id), the
    engine-portable convention of ``functions/sampling.py``, so DuckDB
    reproduces the sketch — not just the exact side — bitwise.

    Plan: distinct (type, user) pairs via one combined aggregate, per-
    type exact counts (type-sized), per-type bottom-k hashes via the
    ``grouped_topk`` exchange (k·types rows); only the ≤ k·types
    sketch rows ever reach the driver.  Types with fewer than k
    distinct keys report the exact count as the estimate (the standard
    KMV small-set rule)."""
    from ...functions.sampling import _md5_bucket
    from ...stages.topk import grouped_topk

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    distinct = sorted_group_aggregate(
        ev.map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "user_id": b.column("user_id"),
            "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "user_id"], [("c", "sum")],
        precombine=True).materialize()

    counts = sorted_group_aggregate(
        distinct.map_batches(lambda b: pa.table({
            "event_type": b.column("event_type"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], [("n", "sum")]).take_all()

    def add_hash(b: pa.Table) -> pa.Table:
        h = _md5_bucket(b.column("user_id").to_pylist(), 1 << 62)
        return pa.table({
            "event_type": b.column("event_type"),
            "user_id": b.column("user_id"),
            "hv": pa.array(h, type=pa.int64())})

    top = grouped_topk(
        distinct.map_batches(add_hash, batch_format="pyarrow",
                             zero_copy_batch=True),
        group="event_type", order_col="hv", tiebreak="user_id",
        k=k, descending=False).take_all()

    n_exact = {r["event_type"]: int(r["n"]) for r in counts}
    kth = {}
    for r in top:
        t = r["event_type"]
        if int(r["rank"]) == min(k, n_exact[t]):
            kth[t] = int(r["hv"])
    types = sorted(n_exact)
    est = []
    for t in types:
        n = n_exact[t]
        if n < k:
            est.append(float(n))
        else:
            # exact small-int product 63·2³² (< 2⁵³), one IEEE divide —
            # mirrored literally in the oracle
            est.append(float(k - 1) * 4294967296.0 / float(kth[t]))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "n_exact": pa.array([n_exact[t] for t in types], type=pa.int64()),
        "n_sketch": pa.array([min(k, n_exact[t]) for t in types],
                             type=pa.int64()),
        "kth_hash": pa.array([kth[t] for t in types], type=pa.int64()),
        "est_distinct": pa.array(est, type=pa.float64())})


def events_mannwhitney_u(sf_dir: str):
    """Mann-Whitney U (Wilcoxon rank-sum) test of weekend vs weekday
    purchase values — the NONPARAMETRIC two-sample test that the
    existing z-tests (``events_ab_ztest``, Welch) can't replace when
    the value distribution is fat-tailed.  Everything up to the final
    z-score is EXACT INTEGER: with midranks doubled (2·r is an integer
    even when r is a .5 midrank), the doubled rank-sum of group A is
    ``R2a = Σ_v ca(v)·(2·|{<v}| + cnt(v) + 1)`` over DISTINCT values,
    so one grouped count + one ``grouped_running_sum`` prefix-scan
    exchange + one 4-way sum produce (na, n, R2a, Σ(t³−t)) with no
    row-level ranking shuffle at all.  Weekend = epoch-day arithmetic
    ``((µs // 86400e6) + 4) % 7 ∈ {0,6}`` (1970-01-01 is a Thursday),
    identical integers in Arrow and SQL — no timezone/locale trap.

    The z-score is assembled from exact-int pieces on the driver
    (single row): 2U_A = R2a − na(na+1); E[2U] = na·nb;
    Var(U) = na·nb·(n(n+1)(n−1) − Σ(t³−t)) / (12n(n−1)).  The variance
    numerator exceeds int64 (n³ term), so it stays a Python big int
    mirrored by HUGEINT in the oracle; each side rounds it to double
    once.  Int64 partial bound: R2a ≤ na·(2n+1) — fine to n ~ 2³¹ rows
    per cohort; past that the doubled-rank partials need decimal128."""
    import math

    from ...stages.scan import grouped_running_sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"]) \
        .filter(expr="event_type == 'purchase'")

    def prep(b: pa.Table) -> pa.Table:
        us = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        dow = (us // 86_400_000_000 + 4) % 7
        wa = ((dow == 0) | (dow == 6)).astype(np.int64)
        return pa.table({"v": _cents(b.column("value")),
                         "cnt": pa.array(np.ones(b.num_rows,
                                                 dtype=np.int64)),
                         "ca": pa.array(wa, type=pa.int64())})

    groups = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["v"], [("cnt", "sum"), ("ca", "sum")], precombine=True)

    run = grouped_running_sum(
        groups.map_batches(lambda b: b.append_column(
            "one", pa.array(np.zeros(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow", zero_copy_batch=True),
        key="one", order_cols=["v"], value_col="cnt", out_name="cum")

    def terms(b: pa.Table) -> pa.Table:
        cnt = b.column("cnt").to_numpy(zero_copy_only=False)
        ca = b.column("ca").to_numpy(zero_copy_only=False)
        cum = b.column("cum").to_numpy(zero_copy_only=False)
        return pa.table({
            "one": b.column("one"),
            "na": pa.array(ca, type=pa.int64()),
            "n": pa.array(cnt, type=pa.int64()),
            "r2a": pa.array(ca * (2 * (cum - cnt) + cnt + 1),
                            type=pa.int64()),
            "ties": pa.array(cnt * cnt * cnt - cnt, type=pa.int64())})

    mom = sorted_group_aggregate(
        run.map_batches(terms, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["one"], [("na", "sum"), ("n", "sum"), ("r2a", "sum"),
                  ("ties", "sum")]).take_all()[0]
    na, n, r2a, ties = (int(mom["na"]), int(mom["n"]),
                        int(mom["r2a"]), int(mom["ties"]))
    nb = n - na
    u2a = r2a - na * (na + 1)
    u2b = 2 * na * nb - u2a
    var_num = na * nb * ((n + 1) * n * (n - 1) - ties)   # Python big int
    var_den = 12 * n * (n - 1)
    if var_num > 0:
        z = (float(u2a - na * nb)
             / (2.0 * math.sqrt(float(var_num) / float(var_den))))
    else:
        z = 0.0
    return pa.table({
        "n_weekend": pa.array([na], type=pa.int64()),
        "n_weekday": pa.array([nb], type=pa.int64()),
        "u2_weekend": pa.array([u2a], type=pa.int64()),
        "u2_weekday": pa.array([u2b], type=pa.int64()),
        "z_score": pa.array([z], type=pa.float64())})


def events_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov statistic of weekend vs weekday
    purchase values — the distribution-shape companion of
    ``events_mannwhitney_u`` (MWU sees location shifts; KS sees ANY
    CDF divergence).  D is computed without a single float until the
    last division: over the distinct-value table with prefix counts
    cumA/cum, the unnormalized gap is the exact integer
    ``|cumA·nB − (cum−cumA)·nA|`` and D = max_gap / (nA·nB) is ONE
    mirrored IEEE division.  The report also carries the value where
    the max gap is attained (min value on ties — deterministic).

    Plan: one grouped count, two ``grouped_running_sum`` prefix-scan
    exchanges over the distinct-value table, one max-reduce, one
    equality filter + min-reduce for the argmax.  Int64 bound:
    cumA·nB < 2⁶³ holds to ~3·10⁹ rows per cohort."""
    from ...stages.scan import grouped_running_sum

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"]) \
        .filter(expr="event_type == 'purchase'")

    def prep(b: pa.Table) -> pa.Table:
        us = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        dow = (us // 86_400_000_000 + 4) % 7
        wa = ((dow == 0) | (dow == 6)).astype(np.int64)
        return pa.table({"v": _cents(b.column("value")),
                         "cnt": pa.array(np.ones(b.num_rows,
                                                 dtype=np.int64)),
                         "ca": pa.array(wa, type=pa.int64())})

    groups = sorted_group_aggregate(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["v"], [("cnt", "sum"), ("ca", "sum")],
        precombine=True).map_batches(
        lambda b: b.append_column(
            "one", pa.array(np.zeros(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    tot = sorted_group_aggregate(
        groups.map_batches(lambda b: b.select(["one", "cnt", "ca"]),
                           batch_format="pyarrow"),
        ["one"], [("cnt", "sum"), ("ca", "sum")]).take_all()[0]
    n, na = int(tot["cnt"]), int(tot["ca"])
    nb = n - na

    run = grouped_running_sum(groups, key="one", order_cols=["v"],
                              value_col="cnt", out_name="cum")
    run = grouped_running_sum(run, key="one", order_cols=["v"],
                              value_col="ca", out_name="cuma")

    def gaps(b: pa.Table) -> pa.Table:
        cum = b.column("cum").to_numpy(zero_copy_only=False)
        cuma = b.column("cuma").to_numpy(zero_copy_only=False)
        diff = np.abs(cuma * nb - (cum - cuma) * na)
        return pa.table({"one": b.column("one"), "v": b.column("v"),
                         "diff": pa.array(diff, type=pa.int64())})

    gap_ds = run.map_batches(gaps, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    dn = int(sorted_group_aggregate(
        gap_ds, ["one"], [("diff", "max")]).take_all()[0]["diff"])
    at_value = int(sorted_group_aggregate(
        gap_ds.filter(expr=f"diff == {dn}"), ["one"],
        [("v", "min")]).take_all()[0]["v"])

    ks = float(dn) / float(na * nb) if na and nb else 0.0
    return pa.table({
        "n_weekend": pa.array([na], type=pa.int64()),
        "n_weekday": pa.array([nb], type=pa.int64()),
        "d_num": pa.array([dn], type=pa.int64()),
        "ks_stat": pa.array([ks], type=pa.float64()),
        "at_value": pa.array([at_value], type=pa.int64())})


def events_fd_audit(sf_dir: str):
    """Functional-dependency discovery over events — does column A
    determine column B?  For each candidate (det → dep) pair: the
    number of det groups, how many are VIOLATING (≥2 distinct dep
    values), and the max distinct-dep count.  (event_id → user_id)
    holds by construction (PK); the behavioral pairs do not — the
    audit quantifies how far off they are, the signal schema-inference
    and normalization tools rank candidates by.

    Plan: one shared scan emits per-block-distinct (pair_id, det, dep)
    string rows for all pairs; a 3-key aggregate resolves global
    distinct, a (pair, det) count gives per-group fan-out, and the
    pair-level rollup is group-count-sized."""
    cols = sorted({c for p in _FD_PAIRS for c in p})

    def block(b: pa.Table) -> pa.Table:
        parts = []
        for pid, (det, dep) in enumerate(_FD_PAIRS):
            t = pa.table({
                "pair_id": pa.array(
                    np.full(b.num_rows, pid, dtype=np.int64)),
                "det": pc.cast(b.column(det), pa.string()),
                "dep": pc.cast(b.column(dep), pa.string())})
            parts.append(t.group_by(["pair_id", "det", "dep"])
                         .aggregate([]))
        return pa.concat_tables(parts)

    distinct = rd.read_parquet(f"{sf_dir}/events.parquet",
                               columns=cols).map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True)
    distinct = distinct.map_batches(
        lambda b: b.append_column(
            "c", pa.array(np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow", zero_copy_batch=True)
    distinct = sorted_group_aggregate(
        distinct, ["pair_id", "det", "dep"], [("c", "min")],
        precombine=True)

    per_det = sorted_group_aggregate(
        distinct.map_batches(
            lambda b: pa.table({
                "pair_id": b.column("pair_id"), "det": b.column("det"),
                "n_dep": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pair_id", "det"], [("n_dep", "sum")], precombine=True)

    def roll(b: pa.Table) -> pa.Table:
        nd = b.column("n_dep").to_numpy()
        return pa.table({
            "pair_id": b.column("pair_id"),
            "n_groups": pa.array(np.ones(len(nd), dtype=np.int64)),
            "n_violating": pa.array((nd > 1).astype(np.int64)),
            "max_distinct_dep": b.column("n_dep")})

    out = sorted_group_aggregate(
        per_det.map_batches(roll, batch_format="pyarrow",
                            zero_copy_batch=True),
        ["pair_id"],
        [("n_groups", "sum"), ("n_violating", "sum"),
         ("max_distinct_dep", "max")], precombine=True).sort("pair_id")

    t = to_table(out).sort_by("pair_id")
    pid = t.column("pair_id").to_pylist()
    return pa.table({
        "pair_id": pa.array(pid, type=pa.int64()),
        "det_col": pa.array([_FD_PAIRS[i][0] for i in pid]),
        "dep_col": pa.array([_FD_PAIRS[i][1] for i in pid]),
        "n_groups": t.column("n_groups"),
        "n_violating": t.column("n_violating"),
        "max_distinct_dep": t.column("max_distinct_dep"),
        "holds": pa.array(
            [int(v == 0) for v in t.column("n_violating").to_pylist()],
            type=pa.int64())})


def events_hourly_autocorr(sf_dir: str, lags=(1, 24)):
    """Autocorrelation of the hourly event-count series at the given
    lags — the seasonality detector a forecasting pipeline runs before
    choosing a seasonal-naive model (cf. `events_forecast_backtest`):
    Pearson r between the DENSE hourly series (missing hours are true
    zeros) and its lag-k shift.  The hourly count table is
    output-sized at any corpus scale (`events_markov_stationary`
    discipline), so after one distributed hourly aggregate the lag
    pairing and exact-integer moment sums fold on the driver; the
    single finalize expression is operand-mirrored IEEE (the
    `lineitem_qty_price_corr` discipline)."""
    counts = {int(r["hr"]): int(r["n"]) for r in sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"]
                        ).map_batches(lambda b: pa.table({
                            "hr": pc.divide(pc.cast(b.column("ts"),
                                                    pa.int64()),
                                            pa.scalar(3600_000_000)),
                            "n": pa.array(np.ones(b.num_rows,
                                                  dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["hr"], [("n", "sum")], precombine=True).take_all()}
    lo, hi = min(counts), max(counts)
    series = [counts.get(h, 0) for h in range(lo, hi + 1)]

    out_lag, out_n, out_r = [], [], []
    for k in sorted(lags):
        xs, ys = series[:-k], series[k:]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(v * v for v in xs)
        syy = sum(v * v for v in ys)
        sxy = sum(a * b for a, b in zip(xs, ys))
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        r = (None if n <= 1 or vx <= 0 or vy <= 0 else
             float(n * sxy - sx * sy)
             / math.sqrt(float(vx)) / math.sqrt(float(vy)))
        out_lag.append(k)
        out_n.append(n)
        out_r.append(r)
    return pa.table({
        "lag": pa.array(out_lag, type=pa.int64()),
        "n_pairs": pa.array(out_n, type=pa.int64()),
        "acf": pa.array(out_r, type=pa.float64())})


def events_srm_check(sf_dir: str, arms: int = 2):
    """Sample-ratio-mismatch (SRM) audit — the first sanity check an
    experimentation platform runs on every A/B test: users hash to
    ``arms`` equal-probability arms (the md5 discipline of
    `events_hash_sample`), and the observed per-arm USER counts are
    chi²-tested against the uniform expectation.  The chi² comparison
    at the α=0.05 critical value is a pure integer cross-
    multiplication (``arms·Σ(n_i·total − ... )`` form — zero floats,
    the `events_hourly_bursts` discipline): with expected E = total/
    arms per arm, χ² > crit ⟺ arms·Σ(arms·n_i − total)² >
    crit_milli·arms·total·1000⁻¹ … kept exact as
    ``1000·arms·Σ(arms·n_i − total)² > crit_milli·arms²·total``.
    Output per arm: user count, expected-millis, plus the shared
    integer verdict columns."""
    from ...functions.sampling import _md5_bucket

    # χ²(df=arms−1) upper-0.05 critical values ×1000 (exact table)
    crit_milli = {1: 3841, 2: 5991, 3: 7815, 4: 9488}[arms - 1]

    def assign(b: pa.Table) -> pa.Table:
        u = pc.unique(b.column("user_id"))
        arm = _md5_bucket(u.to_pylist(), arms)
        return pa.table({
            "user_id": u,
            "arm": pa.array(arm, type=pa.int64()),
            "c": pa.array(np.ones(len(u), dtype=np.int64))})

    dist = sorted_group_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id"]).map_batches(
            assign, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "arm"], [("c", "min")], precombine=True)
    per_arm = {int(r["arm"]): int(r["n"]) for r in sorted_group_aggregate(
        dist.map_batches(lambda b: pa.table({
            "arm": b.column("arm"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["arm"], [("n", "sum")]).take_all()}

    total = sum(per_arm.values())
    # χ² = Σ (n_i − E)²/E with E = total/arms
    #    = arms/total · Σ (n_i − total/arms)²
    #    = Σ (arms·n_i − total)² / (arms·total)
    # verdict χ² > crit_milli/1000 cross-multiplies to exact ints:
    dev_sq = sum((arms * per_arm.get(a, 0) - total) ** 2
                 for a in range(arms))
    mismatch = int(1000 * dev_sq > crit_milli * arms * total)
    arms_sorted = sorted(range(arms))
    return pa.table({
        "arm": pa.array(arms_sorted, type=pa.int64()),
        "n_users": pa.array([per_arm.get(a, 0) for a in arms_sorted],
                            type=pa.int64()),
        "total_users": pa.array([total] * arms, type=pa.int64()),
        "dev_sq_sum": pa.array([dev_sq] * arms, type=pa.int64()),
        "crit_milli": pa.array([crit_milli] * arms, type=pa.int64()),
        "srm_flag": pa.array([mismatch] * arms, type=pa.int64())})


def events_dp_median(sf_dir: str):
    """Differentially-private median of purchase values via the
    EXPONENTIAL MECHANISM — the DP-release family's selection side
    (`events_dp_counts` covers additive noise): candidates are the
    distinct cent values, utility u(v) = −|cum_count(v) − n/2|, and
    weights are EXACT integer powers of two ``w = 2^u`` (Python
    bigints) — base 2 instead of e makes the mechanism run with zero
    floats at privacy level ε = 2·ln 2 ≈ 1.386, and the selection draw
    is the inverse-CDF lookup of an md5-derived 128-bit uniform scaled
    onto Σw (``r = M·T >> 128``) — exactly replayable, because fresh
    randomness per retry would burn privacy budget (the `_DLAP_TH`
    discipline).  The value histogram is one exact mergeable
    aggregate; the candidate walk is value-cardinality-sized on the
    driver.  Fixture oracle + serial replay test."""
    pick, n, m = _dp_quantile_pick(sf_dir, 1, 2, b"kgray|dp_median|v1")
    return pa.table({
        "dp_median_cents": pa.array([pick], type=pa.int64()),
        "n_purchases": pa.array([n], type=pa.int64()),
        "n_candidates": pa.array([m], type=pa.int64()),
        "epsilon_micro": pa.array([1386294], type=pa.int64())})


def events_dp_p90(sf_dir: str):
    """The 90th-percentile sibling of `events_dp_median` — same
    float-free exponential mechanism (exact 2^u weights, ε = 2·ln 2),
    utility targeted at rank ``9n//10``, independent md5 draw salt.
    Fixture oracle + serial replay test."""
    pick, n, m = _dp_quantile_pick(sf_dir, 9, 10, b"kgray|dp_p90|v1")
    return pa.table({
        "dp_p90_cents": pa.array([pick], type=pa.int64()),
        "n_purchases": pa.array([n], type=pa.int64()),
        "n_candidates": pa.array([m], type=pa.int64()),
        "epsilon_micro": pa.array([1386294], type=pa.int64())})


def events_dp_quantiles(sf_dir: str, qs=((1, 4), (1, 2), (3, 4), (9, 10))):
    """The generalized DP-quantile release (r3 NOTES round-4
    candidate): one row per requested quantile from the SAME shared
    float-free exponential-mechanism core as `events_dp_median` /
    `events_dp_p90` — exact cents histogram, utility −|cum − n·q|,
    exact 2^u bigint weights, independent md5 draw salt PER quantile.
    Composition is SEQUENTIAL, not parallel: all four releases read
    the same events table (parallel composition requires disjoint
    DATA, not merely independent randomness), so the release's total
    budget is Σ per-quantile ε = len(qs)·2·ln 2.  ``epsilon_micro``
    is the PER-QUANTILE ε; ``total_epsilon_micro`` carries the
    sequential-composition total for the whole release.
    Deterministic → fixture oracle; median/p90 rows must equal the
    dedicated queries' picks (pinned by test)."""
    rows_q, rows_pick, rows_n, rows_m = [], [], [], []
    for q_num, q_den in qs:
        salt = (b"kgray|dp_median|v1" if (q_num, q_den) == (1, 2)
                else b"kgray|dp_p90|v1" if (q_num, q_den) == (9, 10)
                else f"kgray|dp_q{q_num}_{q_den}|v1".encode())
        pick, n, m = _dp_quantile_pick(sf_dir, q_num, q_den, salt)
        rows_q.append(1_000_000 * q_num // q_den)
        rows_pick.append(pick)
        rows_n.append(n)
        rows_m.append(m)
    return pa.table({
        "q_micro": pa.array(rows_q, type=pa.int64()),
        "dp_value_cents": pa.array(rows_pick, type=pa.int64()),
        "n_purchases": pa.array(rows_n, type=pa.int64()),
        "n_candidates": pa.array(rows_m, type=pa.int64()),
        "epsilon_micro": pa.array([1386294] * len(rows_q),
                                  type=pa.int64()),
        "total_epsilon_micro": pa.array([1386294 * len(rows_q)] * len(rows_q),
                                        type=pa.int64())})


def events_interarrival_cv(sf_dir: str):
    """Per-type inter-arrival burstiness of the event stream in TIME
    (the time-domain twin of `token_burstiness`): gaps between
    consecutive same-type events via the LAG carry exchange, then the
    coefficient of variation CV = σ/μ per type from exact integer gap
    moments (decimal128-free here: µs gaps ≤ 2⁴⁵ and Σgap² per type
    stays < 2⁶³ through HUGEINT on the oracle side, mirrored) — CV ≈ 1
    is Poisson, CV > 1 bursty.  Finalize is the `event_value_stats`
    IEEE-mirrored expression."""
    import math as _math

    from ...stages.scan import grouped_lag

    base = rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_type", "event_id", "ts"]
                           ).map_batches(lambda b: pa.table({
                               "event_type": b.column("event_type"),
                               "event_id": b.column("event_id"),
                               "ts_us": pc.cast(b.column("ts"),
                                                pa.int64())}),
                               batch_format="pyarrow",
                               zero_copy_batch=True)
    lagged = grouped_lag(base, key="event_type",
                         order_cols=["ts_us", "event_id"],
                         value_col="ts_us", out_name="prev_us")

    def gaps(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b.column("prev_us")))
        g = pc.subtract(t.column("ts_us"), t.column("prev_us"))
        gn = g.to_numpy(zero_copy_only=False).astype(object)
        return pa.table({
            "event_type": t.column("event_type"),
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "s1": g,
            "s2": pa.array([int(x) * int(x) for x in gn],
                           type=pa.decimal128(38, 0))})

    rows = sorted_group_aggregate(
        lagged.map_batches(gaps, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["event_type"], [("n", "sum"), ("s1", "sum"), ("s2", "sum")],
        precombine=True).take_all()
    rows.sort(key=lambda r: r["event_type"])
    out_t, out_n, out_mean, out_cv = [], [], [], []
    for r in rows:
        n, s1, s2 = int(r["n"]), int(r["s1"]), int(r["s2"])
        out_t.append(r["event_type"])
        out_n.append(n)
        out_mean.append(s1 // n if n else 0)
        if n <= 1 or s1 == 0:
            out_cv.append(None)
        else:
            var_num = n * s2 - s1 * s1            # n²·(pop var)·... exact
            # CV = sqrt(n·Σg² − (Σg)²) · sqrt(n−1)⁻¹... mirrored as:
            # sample σ = sqrt((n·s2 − s1²) / (n(n−1))), μ = s1/n
            sigma = _math.sqrt(float(var_num) / float(n * (n - 1)))
            out_cv.append(sigma / (s1 / n))
    return pa.table({
        "event_type": pa.array(out_t, type=pa.string()),
        "n_gaps": pa.array(out_n, type=pa.int64()),
        "mean_gap_us": pa.array(out_mean, type=pa.int64()),
        "cv": pa.array(out_cv, type=pa.float64())})


