"""Mergeable sketch operators: Misra-Gries heavy hitters and
HyperLogLog distinct counts.

Both follow the same scale shape as the engine's aggregates: a
vectorized per-block partial (bounded size regardless of block rows),
a small merge over partials, and — for heavy hitters — an exact
verification pass over the stream, so the final answer is EXACT while
the sketch only bounds the candidate set.

Misra-Gries (Misra & Gries 1982; "space saving" family):
  summary size k per block guarantees any item with block frequency
  > n_b/k is kept, so the UNION of per-block candidate sets contains
  every item with GLOBAL frequency > Σ n_b / k = n/k.  With
  k ≥ 1/φ the two-pass plan (candidates → exact recount → threshold)
  returns exactly the φ-heavy hitters.

HyperLogLog (Flajolet et al. 2007):
  per (block, group): 2^p max-rank registers over a 64-bit hash;
  registers merge by elementwise max (associative/commutative →
  order-independent, hence deterministic).  Estimation uses the
  standard bias-corrected harmonic mean with linear counting below
  2.5·m.  Hash: xxhash-free deterministic splitmix64 over the value's
  UTF-8 md5 prefix — stable across runs/processes.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["heavy_hitters", "hll_group_distinct", "hll_estimate",
           "approx_group_quantiles"]


# --------------------------------------------------------------- heavy hitters


def heavy_hitters(ds, col: str, phi: float, weight_col: str | None = None):
    """EXACT φ-heavy hitters of ``ds[col]``: every value whose count
    (or summed ``weight_col``) ≥ φ·total, found with bounded state.

    Pass 1 (sketch): per block, a Misra-Gries summary of size
    k = ceil(2/φ) — per-block candidate unions are a superset of every
    φ-heavy value (union bound above).  Pass 2 (exact): the candidate
    set is broadcast, the stream re-counted for candidates only, and
    the exact threshold applied.  Returns (value, cnt) with
    cnt ≥ ceil(φ·total).
    """
    import ray

    from .aggregate import sorted_group_aggregate

    k = max(8, int(np.ceil(2.0 / phi)))

    def mg_partial(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_pylist()
        if weight_col is None:
            c = Counter(vals)
        else:
            w = batch.column(weight_col).to_pylist()
            c = Counter()
            for v, n in zip(vals, w):
                c[v] += n
        # Misra-Gries reduction to k candidates: keep top-k by count
        # (equivalent summary for the union-superset guarantee)
        top = c.most_common(k)
        return pa.table({
            "cand": pa.array([t[0] for t in top], type=pa.string()),
            "n_rows": pa.array(
                [sum(c.values())] + [0] * (len(top) - 1) if top else [],
                type=pa.int64()),
        })

    partials = ds.map_batches(mg_partial, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    tables = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({col: pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    allp = pa.concat_tables(tables)
    candidates = set(allp.column("cand").to_pylist())
    total = int(pc.sum(allp.column("n_rows")).as_py() or 0)
    threshold = int(np.ceil(phi * total))
    cand_ref = ray.put(candidates)

    def recount(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        vals = batch.column(col).to_pylist()
        if weight_col is None:
            c = Counter(v for v in vals if v in cands)
        else:
            w = batch.column(weight_col).to_pylist()
            c = Counter()
            for v, n in zip(vals, w):
                if v in cands:
                    c[v] += n
        return pa.table({col: pa.array(list(c.keys()), type=pa.string()),
                         "cnt": pa.array(list(c.values()), type=pa.int64())})

    exact = sorted_group_aggregate(
        ds.map_batches(recount, batch_format="pyarrow",
                       zero_copy_batch=True),
        col, [("cnt", "sum")], precombine=False)
    return exact.map_batches(
        lambda b, _t=threshold: b.filter(
            pc.greater_equal(b.column("cnt"), pa.scalar(_t, type=pa.int64()))),
        batch_format="pyarrow", zero_copy_batch=True)


# ----------------------------------------------------------------- hyperloglog


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (SplitMix64 finalizer), vectorized."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _hash_strings(vals: list) -> np.ndarray:
    """Deterministic 64-bit hashes of python values (md5 prefix —
    stable across processes, unlike hash())."""
    out = np.empty(len(vals), dtype=np.uint64)
    for i, v in enumerate(vals):
        h = hashlib.md5(str(v).encode("utf-8")).digest()
        out[i] = int.from_bytes(h[:8], "little")
    return out


def _hll_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """2^p uint8 registers: max leading-zero rank of the low bits,
    bucketed by the top p bits."""
    m = 1 << p
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    low = hashes << np.uint64(p)            # remaining 64-p bits, top-aligned
    # rank = position of the first 1 bit (1-based), capped
    rank = np.full(len(hashes), 64 - p + 1, dtype=np.uint8)
    nz = low != 0
    # count leading zeros of 64-bit via float64 log2 is lossy; use
    # bit twiddling: clz = 63 - floor(log2(x)) is unsafe for > 2^53.
    # Instead shift down to 32-bit halves (exact).
    hi = (low >> np.uint64(32)).astype(np.uint32)
    lo = (low & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    clz = np.where(
        hi != 0,
        31 - np.floor(np.log2(hi.astype(np.float64) + 0.0)).astype(np.int64),
        np.where(lo != 0,
                 63 - np.floor(np.log2(lo.astype(np.float64) + 0.0)).astype(np.int64),
                 64))
    rank_nz = (clz + 1).astype(np.uint8)
    rank = np.where(nz, rank_nz, rank)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL cardinality estimate from uint8 registers."""
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)          # linear counting
    return float(est)


def hll_group_distinct(ds, group: str, value_col: str, p: int = 12):
    """Approximate COUNT(DISTINCT value_col) per ``group`` with one
    2^p-register HLL per group.  Per block: one (group, registers)
    partial row per distinct group; partials merge by elementwise max
    (order-independent → deterministic output).  The merge runs on the
    driver over (blocks × groups) fixed-size rows — for high-cardinality
    group columns route the partials through a hash shuffle first
    (documented partitioning assumption).
    Returns a pyarrow Table (group, approx_distinct:int64)."""
    import ray

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        groups = batch.column(group).to_pylist()
        hashes = _hash_strings(batch.column(value_col).to_pylist())
        out_g, out_r = [], []
        # bucket rows per group, one register array each
        by = {}
        for i, g in enumerate(groups):
            by.setdefault(g, []).append(i)
        for g, idxs in by.items():
            regs = _hll_registers(hashes[np.array(idxs, dtype=np.int64)], p)
            out_g.append(g)
            out_r.append(regs.tobytes())
        return pa.table({"g": pa.array(out_g),
                         "regs": pa.array(out_r, type=pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    tables = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    merged: dict = {}
    for t in tables:
        for g, r in zip(t.column("g").to_pylist(),
                        t.column("regs").to_pylist()):
            regs = np.frombuffer(r, dtype=np.uint8)
            if g in merged:
                merged[g] = np.maximum(merged[g], regs)
            else:
                merged[g] = regs.copy()
    keys = sorted(merged)
    return pa.table({
        group: pa.array(keys),
        "approx_distinct": pa.array(
            [int(round(hll_estimate(merged[g]))) for g in keys],
            type=pa.int64()),
    })


# --------------------------------------------------- approximate quantiles


def approx_group_quantiles(ds, group: str, value_col: str, qs: list,
                           n_bins: int = 4096):
    """Approximate per-group quantiles WITHOUT a sort: one cheap
    min/max pass fixes a shared linear binning, then fixed-size
    per-(block, group) histograms merge by vector addition
    (order-independent → deterministic).  The returned value is the
    lower edge of the bin containing the target rank, so the error is
    bounded by one bin width — (max−min)/n_bins — per group.

    This is the scale twin of ``stages/quantile.py:grouped_quantiles``
    (exact, sort-based): the sketch streams in one pass with O(groups ·
    n_bins) state and no all-to-all.  Returns a pyarrow Table
    (group, q, approx_value:float64).
    """
    import ray

    # pass 1: global min/max (two scalars; Ray's native aggregate)
    lo = ds.min(value_col)
    hi = ds.max(value_col)
    if lo is None or hi is None:
        return pa.table({group: pa.array([], type=pa.string()),
                         "q": pa.array([], type=pa.float64()),
                         "approx_value": pa.array([], type=pa.float64())})
    lo, hi = float(lo), float(hi)
    width = (hi - lo) / n_bins if hi > lo else 1.0

    def partial(batch: pa.Table) -> pa.Table:
        groups = batch.column(group).to_pylist()
        vals = batch.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        bins = np.clip(((vals - lo) / width).astype(np.int64), 0,
                       n_bins - 1)
        by: dict = {}
        for i, g in enumerate(groups):
            by.setdefault(g, []).append(i)
        out_g, out_h = [], []
        for g, idxs in by.items():
            h = np.bincount(bins[np.array(idxs, dtype=np.int64)],
                            minlength=n_bins).astype(np.int64)
            out_g.append(g)
            out_h.append(h.tobytes())
        return pa.table({"g": pa.array(out_g),
                         "hist": pa.array(out_h, type=pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    tables = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
    merged: dict = {}
    for t in tables:
        for g, h in zip(t.column("g").to_pylist(),
                        t.column("hist").to_pylist()):
            arr = np.frombuffer(h, dtype=np.int64)
            merged[g] = merged[g] + arr if g in merged else arr.copy()

    out_g, out_q, out_v = [], [], []
    for g in sorted(merged):
        hist = merged[g]
        cum = np.cumsum(hist)
        n = int(cum[-1])
        for q in qs:
            # rank of quantile_disc: ceil(q*n) clamped to [1, n]
            target = min(max(int(np.ceil(q * n)), 1), n)
            b = int(np.searchsorted(cum, target))
            out_g.append(g)
            out_q.append(float(q))
            out_v.append(lo + b * width)
    return pa.table({group: pa.array(out_g),
                     "q": pa.array(out_q, type=pa.float64()),
                     "approx_value": pa.array(out_v, type=pa.float64())})
