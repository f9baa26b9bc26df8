"""The flagship pipeline: web pages → knowledge graph.

Lifecycle (SURVEY.md §3.5), built by :func:`kg_dataset`; ``run_kg``
runs ALL pending partition groups of a call as ONE Dataset:

    read_parquet(pages shards, include_paths)      ┐ one-CPU tasks, no actor
      → map_batches(add_group)  path → group id    │ pool: the stateless maps
      → map_batches(extract_text)                   │ fuse into one task per block
      → map_batches(split_sentences)                │ (into one task after the
      → map_batches(write_groups)                   ┘ read if Ray splits blocks)
            per group slice, batch_size sentences   models from loaded_chain:
            per tagger call: tag → extract_triples  NumPy tagger params, pattern
            → link → write triples/group=<gid>/     rules, broadcast aliases,
            → one (group, sentences, triples) row   loaded once per worker
                                                    process (no groups:
                                                    tag_link, until="tagged" |
                                                    "surface" | "linked")
      → driver, in stream order (preserve_order): completed_groups folds
        the rows and appends each group's manifest record once a later
        group's row arrives or the stream ends
    …then over all group outputs:
      canonical_graph: salted combine → ONE sort on (subj_bucket, subj,
      pred, obj, salt) → in-place boundary merge → graph parquet per
      subj_bucket, written in that order (no further sort)

Ray reuses task workers across Datasets, so a worker's imports and
model load are paid once per session, not once per ``run_kg`` call,
and the tasks need only the CPUs that are free.  A group's record holds
pages from its parquet footers and sentences and triples summed from
the stream's rows.  A rerun skips ``done`` groups (`resumable`) and
clears the directories of the groups it plans, so a group written but
never committed reruns from scratch.  Model artifacts are built once on
the driver (training data is small — the reference trains serially
too, hmm_ner.py:9-124; only inference scales out).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..kernels import crf as crf_kernel, hmm as hmm_kernel
from ..kernels.linking import EMB_DIM, link_surface
from ..kernels.triples import extract_sentence_triples, sentence_mentions
from ..sources.corpus import load_side_tables
from ..stages.canonical import canonical_graph
from ..stages.extract import extract_text, split_sentences, tokenize_line
from ..stages.kg import tag_link, write_groups
from ..state.manifest import Manifest, completed_groups

__all__ = ["build_models", "kg_dataset", "run_kg", "serial_oracle_triples",
           "page_files", "partition_groups", "page_site_counts",
           "tag_table", "operator_stats"]


# --------------------------------------------------------------------------- models


def build_models(corpus_dir: str, model_dir: str, tagger: str = "hmm",
                 crf_epochs: int = 3, crf_lr: float = 0.05,
                 crf_max_sentences: int = 400) -> dict:
    """Train tagging models from the corpus's CoNLL split (driver-side:
    index assignment is insertion-ordered and inherently serial,
    SURVEY.md §7.4) and save artifacts for per-worker loading."""
    os.makedirs(model_dir, exist_ok=True)
    tbl = pq.read_table(os.path.join(corpus_dir, "conll_train.parquet"))
    sents_w = tbl["tokens"].to_pylist()
    sents_t = tbl["tags"].to_pylist()
    zh_path = os.path.join(corpus_dir, "conll_train_zh.parquet")
    zh_w, zh_t = [], []
    if os.path.exists(zh_path):
        zh_tbl = pq.read_table(zh_path)
        zh_w = zh_tbl["tokens"].to_pylist()
        zh_t = zh_tbl["tags"].to_pylist()
    paths = {}
    if tagger in ("hmm", "both"):
        m = hmm_kernel.train_hmm(sents_w, sents_t)
        p = os.path.join(model_dir, "hmm_en")
        m.save(p)
        paths["hmm"] = {"en": p + ".npz"}
        if zh_w:
            mz = hmm_kernel.train_hmm(zh_w, zh_t)
            pz = os.path.join(model_dir, "hmm_zh")
            mz.save(pz)
            paths["hmm"]["zh"] = pz + ".npz"
    if tagger == "transformer":
        from ..kernels import transformer as tfm
        for lang, (sw, st) in {"en": (sents_w, sents_t),
                               **({"zh": (zh_w, zh_t)} if zh_w else {})}.items():
            w2i, t2i = tfm.build_vocab(sw, st)
            m = tfm.init_random(w2i, t2i, max_seq_len=tfm.max_len_pow2(sw))
            p = os.path.join(model_dir, f"transformer_{lang}")
            m.save(p)
            paths.setdefault("transformer", {})[lang] = p + ".npz"
    if tagger in ("crf", "both"):
        mc = crf_kernel.train_crf_sgd(sents_w[:crf_max_sentences],
                                      sents_t[:crf_max_sentences],
                                      epochs=crf_epochs, lr=crf_lr)
        p = os.path.join(model_dir, "crf_en")
        mc.save(p)
        paths["crf"] = {"en": p + ".npz"}
        if zh_w:
            mcz = crf_kernel.train_crf_sgd(zh_w[:crf_max_sentences],
                                           zh_t[:crf_max_sentences],
                                           epochs=crf_epochs, lr=crf_lr)
            pz = os.path.join(model_dir, "crf_zh")
            mcz.save(pz)
            paths["crf"]["zh"] = pz + ".npz"
    marker = os.path.join(model_dir, "models.json")
    if os.path.exists(marker):               # merge with previously-built taggers
        with open(marker) as f:
            merged = json.load(f)
        merged.update(paths)
        paths = merged
    with open(marker, "w") as f:
        json.dump(paths, f)
    return paths


def _model_paths(model_dir: str, tagger: str) -> dict:
    with open(os.path.join(model_dir, "models.json")) as f:
        return json.load(f)[tagger]


# --------------------------------------------------------------------------- dataset builder


def page_files(corpus_dir: str) -> list:
    return sorted(glob.glob(os.path.join(corpus_dir, "pages", "*.parquet")))


def partition_groups(files: list, files_per_group: int = 2) -> list:
    """[(group_id, [files])] — resume granularity."""
    groups = []
    for i in range(0, len(files), files_per_group):
        chunk = files[i:i + files_per_group]
        groups.append((f"g{i // files_per_group:05d}", chunk))
    return groups


def _group_column(groups: dict):
    """Batch fn: the read's ``path`` column → the file's ``group`` id."""
    def add_group(batch):
        gids = [groups[os.path.basename(p)]
                for p in batch.column("path").to_pylist()]
        return batch.drop_columns(["path"]).append_column(
            "group", pa.array(gids, type=pa.string()))
    return add_group


def kg_dataset(files, corpus_dir: str, model_dir: str, tagger: str = "hmm",
               lang: str | None = None, until: str = "linked",
               batch_size: int = 1024, groups: dict | None = None,
               triples_root: str | None = None):
    """Build the lazy Dataset pipeline pages → tagged sentences
    (``until="tagged"``), surface triples (``"surface"``) or linked
    triples (``"linked"``).  ``lang`` keeps only the pages of that
    language; the filter runs right after the page scan, before any
    decode work.  ``batch_size`` is the sentences per tagger call.
    Every stage is a stateless one-CPU map that Ray Data fuses into one
    task per block; no actor pool starts, and the chain's models load
    once per worker process (:func:`stages.kg.loaded_chain`).

    With ``groups`` (``{file basename: group id}``) and
    ``triples_root``, the chain is :func:`stages.kg.write_groups`: it
    writes each group's triples under ``triples_root/group=<gid>/`` and
    the Dataset yields ``(group, sentences, triples)`` rows instead."""
    if until not in ("tagged", "surface", "linked"):
        raise ValueError(f"kg_dataset: unknown until={until!r}")
    if (groups is None) != (triples_root is None) or (
            groups is not None and until != "linked"):
        raise ValueError("kg_dataset: groups and triples_root go together, "
                         "with until='linked'")
    ds = rd.read_parquet(files, columns=["url", "html", "lang"],
                         include_paths=groups is not None)
    if lang is not None:
        ds = ds.filter(expr=f"lang == {lang!r}")
    maps = (extract_text, split_sentences)
    if groups is not None:
        maps = (_group_column(groups), *maps)
    for fn in maps:
        ds = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
    # names and paths only: each worker loads the models itself
    chain = {"tagger": tagger, "model_paths": _model_paths(model_dir, tagger),
             "corpus_dir": corpus_dir, "batch_size": batch_size}
    fn, chain = ((tag_link, {**chain, "until": until}) if groups is None else
                 (write_groups, {**chain, "triples_root": triples_root}))
    return ds.map_batches(fn, fn_kwargs=chain, batch_format="pyarrow",
                          zero_copy_batch=True)


def tag_table(src: pa.Table, tagger: str, model_paths: dict,
              corpus_dir: str, batch_size: int):
    """Lazy Dataset of the tagged sentences of an in-memory
    ``(url, sent_id, tokens, lang)`` table: one block per 256 rows (and
    one more), each tagged in a one-CPU task by
    :func:`stages.kg.tag_link`, ``batch_size`` sentences per tagger
    call."""
    step = src.num_rows // (src.num_rows // 256 + 1) + 1
    blocks = [src.slice(lo, step) for lo in range(0, src.num_rows, step)]
    return rd.from_arrow(blocks or [src]).map_batches(
        tag_link, fn_kwargs={"tagger": tagger, "model_paths": model_paths,
                             "corpus_dir": corpus_dir,
                             "batch_size": batch_size, "until": "tagged"},
        batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------------------------------- engine stats


def _footer_rows(files) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def operator_stats(summary) -> list:
    """Every operator of an executed Dataset's stats summary
    (``Dataset._get_stats_summary()``), upstream plans first:
    ``[{"name", "wall_s", "cpu_s", "rows_out"}]``, the times summed
    over the operator's tasks."""
    ops = [op for parent in summary.parents for op in operator_stats(parent)]
    for op in summary.operators_stats:
        ops.append({"name": op.operator_name,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "rows_out": int((op.output_num_rows or {}).get("sum", 0))})
    return ops


# --------------------------------------------------------------------------- run loop (resume + lineage)


def run_kg(corpus_dir: str, out_dir: str, model_dir: str | None = None,
           tagger: str = "hmm", files_per_group: int = 2,
           batch_size: int = 1024,
           n_salts: int = 16, stop_after_groups: int | None = None,
           graph_buckets: int = 16) -> dict:
    """Full driver loop: partition groups → triples parquet (+ manifest)
    → salted canonicalization → bucketed sorted graph parquet.

    Every pending group runs in ONE streaming Dataset of one-CPU tasks;
    each group's manifest record is appended as soon as the
    ordered stream moves past it (:func:`completed_groups`).  The graph
    sink is ``graph/subj_bucket=<b>/`` hash-bucketed on the subject
    (``polyhash64(subj) % graph_buckets``), subj-sorted within each
    bucket: a consumer looking up one subject reads exactly one
    partition directory, and a failed write reruns per bucket.
    ``stop_after_groups`` plans only the first N pending groups, which
    simulates a killed run for the resume tests.  Returns run stats,
    with ``stream_ops`` the per-operator stats of the executed stream.
    """
    os.makedirs(out_dir, exist_ok=True)
    if model_dir is None:
        model_dir = os.path.join(out_dir, "models")
    if not os.path.exists(os.path.join(model_dir, "models.json")):
        build_models(corpus_dir, model_dir, tagger=tagger)

    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    done = manifest.done_groups()
    groups = partition_groups(page_files(corpus_dir), files_per_group)
    triples_root = os.path.join(out_dir, "triples")
    pending = dict([(gid, files) for gid, files in groups
                    if gid not in done][:stop_after_groups])

    ran, stream_ops = [], []
    if pending:
        t_prev = time.perf_counter()
        for gid in pending:
            # a killed run can leave parquet with no manifest record;
            # clear it, or the rerun double-counts those triples
            group_dir = os.path.join(triples_root, f"group={gid}")
            shutil.rmtree(group_dir, ignore_errors=True)
            os.makedirs(group_dir)
        ds = kg_dataset([f for files in pending.values() for f in files],
                        corpus_dir, model_dir, tagger=tagger,
                        batch_size=batch_size, triples_root=triples_root,
                        groups={os.path.basename(f): gid
                                for gid, files in pending.items() for f in files})
        # rows arrive in file order, so a later group's row means every
        # earlier group is complete; set on this Dataset only
        ds.context.execution_options.preserve_order = True
        # the rows are a few per batch: no prefetch or format threads
        # (iter_rows with them cost ~10% more CPU per one-group pass)
        rows = (row for b in ds.iter_batches(batch_size=None,
                                             batch_format="pyarrow",
                                             prefetch_batches=0)
                for row in b.to_pylist())
        for gid, sentences, triples in completed_groups(list(pending), rows):
            now = time.perf_counter()
            manifest.append({
                "group_id": gid,
                "input_files": [os.path.basename(f) for f in pending[gid]],
                "rows_in": _footer_rows(pending[gid]),
                "sentences": sentences,
                # linking is 1:1, so raw and linked triples are equal
                "triples_raw": triples,
                "triples_out": triples,
                "output_dir": os.path.join(triples_root, f"group={gid}"),
                "wall_sec": round(now - t_prev, 3),
                "status": "done",
            })
            t_prev = now
            ran.append(gid)
        stream_ops = operator_stats(ds._get_stats_summary())

    remaining = [g for g, _ in groups if g not in manifest.done_groups()]
    stats = {"groups_run": ran, "groups_skipped": sorted(done),
             "groups_remaining": remaining, "stream_ops": stream_ops}
    if remaining:
        return stats                      # partial run (resume later)

    # ---- global canonicalization + sorted graph materialization
    # (checkpointed too: a rerun over an unchanged triple set skips it)
    graph_dir = os.path.join(out_dir, "graph")
    group_ids = sorted(g for g, _ in groups)
    graph_done = [r for r in manifest.records()
                  if r.get("group_id") == "__graph__"
                  and r.get("input_groups") == group_ids]
    if graph_done and os.path.isdir(graph_dir):
        stats["graph_dir"] = graph_dir
        stats["graph_skipped"] = True
        stats["n_graph_rows"] = graph_done[-1]["n_graph_rows"]
        return stats
    t0 = time.perf_counter()
    # same stale-partial hazard if a previous run died between graph
    # write and manifest append
    shutil.rmtree(graph_dir, ignore_errors=True)
    graph = canonical_graph(rd.read_parquet(triples_root), n_salts=n_salts,
                            subj_buckets=graph_buckets)     # in sink order
    t1 = time.perf_counter()
    graph.write_parquet(graph_dir, partition_cols=["subj_bucket"])
    t2 = time.perf_counter()
    stats["graph_dir"] = graph_dir
    stats["graph_wall_sec"] = round(t2 - t0, 3)
    stats["n_graph_rows"] = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(graph_dir, "**", "*.parquet"),
                           recursive=True))
    manifest.append({"group_id": "__graph__", "input_groups": group_ids,
                     "n_graph_rows": stats["n_graph_rows"],
                     "wall_sec": stats["graph_wall_sec"],
                     "exchange_sec": round(t1 - t0, 3),
                     "write_sec": round(t2 - t1, 3), "status": "done"})
    return stats


# --------------------------------------------------------------------------- serial oracle (reference semantics)


def serial_oracle_triples(corpus_dir: str, model_dir: str, tagger: str = "hmm",
                          max_pages: int | None = None) -> dict:
    """Single-process reference-semantics extractor: per-sentence Viterbi
    (the strict hmm_ner.py:165-268-parity kernel), same mention/triple/
    linking functions, plain Python loop — the parity target for the Ray
    pipeline (north rule P/R ≥ 0.95 measures Ray vs THIS).

    Returns {(subj, pred, obj): support}.
    """
    from ..functions.html_text import html_to_text

    model_paths = _model_paths(model_dir, tagger)
    if tagger == "hmm":
        models = {lang: hmm_kernel.HMMModel.load(p) for lang, p in model_paths.items()}
        decode = lambda toks, m: hmm_kernel.viterbi_decode(toks, m)
    else:
        models = {lang: crf_kernel.CRFModel.load(p) for lang, p in model_paths.items()}
        decode = lambda toks, m: crf_kernel.viterbi_decode(toks, m)[0]
    alias_idx, emb_map = load_side_tables(corpus_dir)

    triples: dict = {}
    n_seen = 0
    for f in page_files(corpus_dir):
        tbl = pq.read_table(f, columns=["url", "html", "lang"])
        for url, html_b, lang in zip(tbl["url"].to_pylist(),
                                     tbl["html"].to_pylist(),
                                     tbl["lang"].to_pylist()):
            if max_pages is not None and n_seen >= max_pages:
                return triples
            n_seen += 1
            text = html_to_text(html_b)
            for line in text.split("\n"):
                toks = tokenize_line(line, lang)
                if not toks:
                    continue
                model = models.get(lang)
                tags = decode(toks, model) if model is not None else ["O"] * len(toks)
                scheme = "bmes" if lang == "zh" else "bio"
                mentions = sentence_mentions(toks, tags, scheme)
                raw = extract_sentence_triples(toks, mentions)
                if not raw:
                    continue
                ctx = [t.lower() for t in toks]
                for s_surface, _, pred, o_surface, _ in raw:
                    s_cid, _ = link_surface(s_surface, ctx, alias_idx, emb_map, EMB_DIM)
                    o_cid, _ = link_surface(o_surface, ctx, alias_idx, emb_map, EMB_DIM)
                    key = (s_cid, pred, o_cid)
                    triples[key] = triples.get(key, 0) + 1
    return triples


def page_site_counts(sf_dir: str):
    """URL analytics over the web corpus: site segment parsed from every
    page url with ONE vectorized RE2 kernel, pages counted per site —
    the crawl-manifest summary every web pipeline starts from."""
    import numpy as np
    import pyarrow.compute as pc

    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate

    corpus = corpus_for_sf(sf_dir)

    def parse(b):
        import pyarrow as pa
        hit = pc.extract_regex(b.column("url"),
                               r"^https://(?P<host>[^/]+)/(?P<site>[^/]+)/")
        t = pa.table({
            "host": pc.struct_field(hit, "host"),
            "site": pc.struct_field(hit, "site"),
            "n_pages": pa.array(np.ones(b.num_rows, dtype=np.int64))})
        return t.filter(pc.is_valid(t.column("site")))

    ds = rd.read_parquet(page_files(corpus), columns=["url"],
                         ray_remote_args={"num_cpus": 0.25})
    return sorted_group_aggregate(
        ds.map_batches(parse, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["host", "site"], [("n_pages", "sum")])


def crawl_host_shards(sf_dir: str, n_shards: int = 16):
    """Politeness-aware crawl-shard planner over the web corpus: every
    politeness unit lands in exactly one shard (per-host rate limits
    and robots caches then never cross workers — the Common-Crawl
    fetch-layout invariant).  The unit is the first two URL segments
    (host + site prefix) because the synthetic corpus is single-host
    by construction; on a real crawl the same plan keys on the
    registered domain.  Units are dealt to shards by sorted round-robin
    ``shard = (rank_by(pages DESC, host) − 1) mod n_shards`` so the
    heavy hosts spread before the tail pads the loads.

    Plan: one vectorized URL parse + per-host aggregate (host-sized),
    one constant-key ``grouped_ranks`` exchange for the global rank,
    one shard-sized reduce.  Nothing page-sized is shuffled twice, and
    the driver sees only ``n_shards`` rows.  Determinism: rank ties
    are impossible ((pages, host) is unique per host), so the layout
    is a pure function of the corpus — a re-plan after a crashed crawl
    reproduces the same shards and finished shards can be skipped."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..sources.derived import corpus_for_sf
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.scan import grouped_ranks

    corpus = corpus_for_sf(sf_dir)

    def parse(b):
        hit = pc.extract_regex(
            b.column("url"), r"^https://(?P<host>[^/]+/[^/]+)/")
        t = pa.table({
            "host": pc.struct_field(hit, "host"),
            "n_pages": pa.array(np.ones(b.num_rows, dtype=np.int64))})
        return t.filter(pc.is_valid(t.column("host")))

    hosts = sorted_group_aggregate(
        rd.read_parquet(page_files(corpus), columns=["url"],
                        ray_remote_args={"num_cpus": 0.25})
        .map_batches(parse, batch_format="pyarrow", zero_copy_batch=True),
        ["host"], [("n_pages", "sum")], precombine=True)

    ranked = grouped_ranks(
        hosts.map_batches(lambda b: pa.table({
            "host": b.column("host"), "n_pages": b.column("n_pages"),
            "neg": pc.negate_checked(b.column("n_pages")),
            "one": pa.array(np.zeros(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        key="one", order_cols=["neg", "host"])

    def assign(b: pa.Table) -> pa.Table:
        rn = b.column("row_number").to_numpy(zero_copy_only=False)
        return pa.table({
            "shard": pa.array((rn - 1) % n_shards, type=pa.int64()),
            "n_hosts": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_pages": b.column("n_pages"),
            "max_host_pages": b.column("n_pages")})

    return sorted_group_aggregate(
        ranked.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["shard"], [("n_hosts", "sum"), ("n_pages", "sum"),
                    ("max_host_pages", "max")]).sort("shard")
