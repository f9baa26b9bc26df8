"""Entity resolution (record linkage): blocking → in-block pairwise
match → connected components → golden records.

The classic dedup-to-a-canonical-row pipeline over structured records
(Fellegi-Sunter blocking + rule-based matching), built from this
engine's existing exchanges:

1. **Dirty twin synthesis** — the customer table has no natural
   duplicates, so a deterministic ~30% of customers (md5 rule, same
   discipline as the fingerprinted source twins) emit a second record
   with a perturbed name (case fold / leading-zero strip / separator
   swap) and a surrogate id.  Pure function of the data.
2. **Blocking** — records exchange ONCE on the block key
   (nationkey, last-4-digits-of-name): a sort + bounded-run expansion
   (the `_copurchase_pair_counts` pattern — blocks are small by
   construction, quadratic only within a block; boundary runs ship
   rows through the standard edge/interior exchange).  Cross-block
   duplicates are invisible BY DESIGN (that is blocking's recall
   trade-off); the twin perturbations all preserve the key, and the
   brute-force test measures blocking recall explicitly.
3. **Matching** — casefolded name-trigram Jaccard ≥ 0.5 as an exact
   integer cross-multiplication (2·|A∩B| ≥ |A∪B|) AND equal account
   balance cents.  The balance equality is the discriminating field —
   near-identical serial names ("…0001" vs "…1001") share most
   trigrams, so NO name threshold alone separates them; multi-field
   rules are the point of Fellegi-Sunter scoring.
4. **Clustering** — `pipelines/cluster.py:connected_components` (the
   min-label fixpoint: `min` sweeps, root hooking and pointer jumping
   over the `propagate.EdgeIndex` of the match pairs).
5. **Golden record** — per cluster: canonical id = min record id, the
   canonical (clean) name fetched by one node-sized join, member
   count, max balance.  Records in no pair become singleton clusters
   in-block (null label → own id), never on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.sampling import _md5_bucket
from ..stages.aggregate import sorted_group_aggregate

__all__ = ["er_records", "er_match_pairs", "customer_golden_records"]

_DIRTY_PERMILLE = 300
_SURROGATE = 10 ** 9


def _variant_name(name: str, bucket: int) -> str:
    """Deterministic name perturbation, md5-bucket-selected.  Every
    variant preserves the record's trailing digits (the block key)."""
    kind = bucket % 3
    if kind == 0:
        return name.lower()
    if kind == 1:                      # drop ONE leading zero digit
        head, _, digits = name.partition("#")
        return f"{head}#{digits[1:]}" if digits.startswith("0") else name
    return name.replace("#", "-")


def er_records(sf_dir: str):
    """(rec_id, name, block, nationkey, acctbal_cents): clean customer
    records unioned with the deterministic dirty twin."""
    def clean(b: pa.Table) -> pa.Table:
        digits = pc.utf8_slice_codeunits(b.column("c_name"), 9, 99)
        block = pc.add(
            pc.multiply(pc.cast(b.column("c_nationkey"), pa.int64()),
                        pa.scalar(10_000, type=pa.int64())),
            pc.cast(pc.utf8_slice_codeunits(digits, 5, 9), pa.int64()))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            b.column("c_acctbal"), pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64())
        return pa.table({"rec_id": b.column("c_custkey"),
                         "name": b.column("c_name"),
                         "block": block,
                         "nationkey": pc.cast(b.column("c_nationkey"),
                                              pa.int64()),
                         "acctbal_cents": cents})

    def dirty(b: pa.Table) -> pa.Table:
        t = clean(b)
        h = _md5_bucket(t.column("rec_id").to_pylist(), 1000)
        keep = h < _DIRTY_PERMILLE
        t = t.filter(pa.array(keep))
        hb = h[keep]
        names = [_variant_name(n, int(x))
                 for n, x in zip(t.column("name").to_pylist(), hb)]
        return pa.table({
            "rec_id": pc.add(t.column("rec_id"),
                             pa.scalar(_SURROGATE, type=pa.int64())),
            "name": pa.array(names, type=pa.string()),
            "block": t.column("block"),
            "nationkey": t.column("nationkey"),
            "acctbal_cents": t.column("acctbal_cents")})

    scan = lambda: rd.read_parquet(  # noqa: E731
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"])
    return (scan().map_batches(clean, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(scan().map_batches(dirty, batch_format="pyarrow",
                                      zero_copy_batch=True)))


def _trigrams(s: str) -> frozenset:
    s = s.casefold()
    if len(s) < 3:
        return frozenset((s,))
    return frozenset(s[i:i + 3] for i in range(len(s) - 2))


def match_rule(name_a: str, name_b: str, cents_a: int,
               cents_b: int) -> bool:
    """Exact-integer Jaccard(casefolded trigrams) ≥ 1/2 AND equal
    balance — the single source of truth (the brute-force test imports
    THIS function).  The separator-swap variant sits at exactly
    J = 8/14 ≈ 0.571 on 9-digit names, which is why the threshold is
    0.5, not the folkloric 0.6."""
    if cents_a != cents_b:
        return False
    ta, tb = _trigrams(name_a), _trigrams(name_b)
    inter = len(ta & tb)
    union = len(ta | tb)
    return 2 * inter >= union


def er_match_pairs(sf_dir: str, records=None):
    """(id_a, id_b) matched record pairs, id_a < id_b — one sort
    exchange on the block key, quadratic work only inside each
    (bounded) block.  Pass a pinned ``records`` Dataset to share one
    materialization across the resolution pipeline (NOTES #61)."""
    from ..stages._runs import edge_interior_exchange, edge_mask, run_starts

    srt = (er_records(sf_dir) if records is None else records) \
        .sort(["block", "rec_id"])

    def _pairs(t: pa.Table) -> pa.Table:
        blocks = t.column("block")
        ids = t.column("rec_id").to_numpy(zero_copy_only=False)
        names = t.column("name").to_pylist()
        cents = t.column("acctbal_cents").to_numpy(zero_copy_only=False)
        starts = run_starts(blocks)
        bounds = np.r_[starts, len(ids)]
        out_a, out_b = [], []
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            for x in range(lo, hi - 1):
                for y in range(x + 1, hi):
                    if match_rule(names[x], names[y],
                                  int(cents[x]), int(cents[y])):
                        out_a.append(int(ids[x]))
                        out_b.append(int(ids[y]))
        return pa.table({"id_a": pa.array(out_a, type=pa.int64()),
                         "id_b": pa.array(out_b, type=pa.int64())})

    def edge_fn(b: pa.Table) -> pa.Table:
        return b.filter(edge_mask(b.column("block")))

    def interior_fn(b: pa.Table) -> pa.Table:
        return _pairs(b.filter(pc.invert(edge_mask(b.column("block")))))

    def merge_fn(edge_tables):
        t = pa.concat_tables(edge_tables, promote_options="permissive")
        t = t.take(pc.sort_indices(t, sort_keys=[("block", "ascending"),
                                                 ("rec_id", "ascending")]))
        return _pairs(t)

    return edge_interior_exchange(srt, edge_fn, interior_fn, merge_fn)


def customer_golden_records(sf_dir: str):
    """(cluster_id, canonical_name, n_members, acctbal_cents): one
    golden row per resolved entity, sorted by cluster_id.  Singletons
    (no match) keep their own id and name."""
    from ..stages.join import sorted_merge_join
    from .cluster import connected_components

    # one materialization serves the pair builder, the label join and
    # the name fetch — er_records re-derives (parquet + per-key md5)
    # per consumer otherwise (measured 3x at sf0.1)
    records = er_records(sf_dir).materialize()
    labels = connected_components(er_match_pairs(sf_dir, records=records))
    labeled = sorted_merge_join(
        records,
        labels.map_batches(lambda b: pa.table({
            "rec_id": b.column("node"),
            "cluster_id": b.column("cluster_id")}),
            batch_format="pyarrow", zero_copy_batch=True),
        on="rec_id", how="left")

    def assign(b: pa.Table) -> pa.Table:
        cid = pc.fill_null(b.column("cluster_id"), pa.scalar(-1))
        cid = pc.if_else(pc.equal(cid, pa.scalar(-1, type=pa.int64())),
                         b.column("rec_id"), cid)
        return pa.table({"cluster_id": pc.cast(cid, pa.int64()),
                         "rec_id": b.column("rec_id"),
                         "acctbal_cents": b.column("acctbal_cents"),
                         "one": pa.array(np.ones(b.num_rows,
                                                 dtype=np.int64))})

    assigned = labeled.map_batches(assign, batch_format="pyarrow",
                                   zero_copy_batch=True)
    agg = sorted_group_aggregate(assigned, ["cluster_id"],
                                 [("rec_id", "min"), ("acctbal_cents", "max"),
                                  ("one", "sum")])

    names = records.map_batches(
        lambda b: pa.table({"rec_id": b.column("rec_id"),
                            "canonical_name": b.column("name")}),
        batch_format="pyarrow", zero_copy_batch=True)
    # canonical id = min rec_id = always a CLEAN record (surrogates are
    # +1e9); one cluster-sized join fetches its name
    named = sorted_merge_join(agg, names, on="rec_id")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({"cluster_id": b.column("cluster_id"),
                         "canonical_id": b.column("rec_id"),
                         "canonical_name": b.column("canonical_name"),
                         "n_members": b.column("one"),
                         "acctbal_cents": b.column("acctbal_cents")})

    return (named.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)
            .sort("cluster_id"))
