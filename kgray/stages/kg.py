"""Mention decode, triple extraction and entity-linking stages.

``decode_mentions`` and ``extract_triples`` are stateless Arrow
transforms; ``LinkerActor`` holds the broadcast small side (alias dict +
entity-embedding matrix) in its state — a broadcast hash join, never a
shuffle (SURVEY.md §2.5).  The flagship chain tag → ``extract_triples``
→ link runs in plain tasks (:func:`tag_link`; :func:`write_groups` also
writes each group's triples) over :func:`loaded_chain`, which loads the
models once per Ray worker process.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels.linking import EMB_DIM, link_surface
from ..kernels.triples import extract_sentence_triples, sentence_mentions
from .tagger import TAGGERS

__all__ = ["decode_mentions", "extract_triples", "LinkerActor", "loaded_chain",
           "tag_link", "write_groups", "MENTIONS_SCHEMA", "TRIPLES_RAW_SCHEMA",
           "TRIPLES_LINKED_SCHEMA", "SINK_STATS_SCHEMA"]

MENTIONS_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_id", pa.int32()),
    ("mention_id", pa.int32()),
    ("surface", pa.string()),
    ("etype", pa.string()),
    ("begin", pa.int32()),
    ("end", pa.int32()),
])

TRIPLES_RAW_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_id", pa.int32()),
    ("subj_surface", pa.string()),
    ("subj_type", pa.string()),
    ("pred", pa.string()),
    ("obj_surface", pa.string()),
    ("obj_type", pa.string()),
    ("context", pa.list_(pa.string())),
])


def _scheme(lang: str) -> str:
    return "bmes" if lang == "zh" else "bio"


def decode_mentions(batch: pa.Table) -> pa.Table:
    """tagged sentences → exploded mentions (BIO for en, BMES for zh)."""
    cols = {name: [] for name in MENTIONS_SCHEMA.names}
    for url, sid, toks, tags, lang in zip(batch.column("url").to_pylist(),
                                          batch.column("sent_id").to_pylist(),
                                          batch.column("tokens").to_pylist(),
                                          batch.column("tags").to_pylist(),
                                          batch.column("lang").to_pylist()):
        for mid, (b, e, t, surface) in enumerate(
                sentence_mentions(toks, tags, _scheme(lang))):
            cols["url"].append(url)
            cols["sent_id"].append(sid)
            cols["mention_id"].append(mid)
            cols["surface"].append(surface)
            cols["etype"].append(t)
            cols["begin"].append(b)
            cols["end"].append(e)
    return pa.Table.from_pydict(cols, schema=MENTIONS_SCHEMA)


def extract_triples(batch: pa.Table) -> pa.Table:
    """tagged sentences → raw surface triples with linking context."""
    cols = {name: [] for name in TRIPLES_RAW_SCHEMA.names}
    for url, sid, toks, tags, lang in zip(batch.column("url").to_pylist(),
                                          batch.column("sent_id").to_pylist(),
                                          batch.column("tokens").to_pylist(),
                                          batch.column("tags").to_pylist(),
                                          batch.column("lang").to_pylist()):
        mentions = sentence_mentions(toks, tags, _scheme(lang))
        triples = extract_sentence_triples(toks, mentions)
        if not triples:
            continue
        ctx = [t.lower() for t in toks]
        for s_surface, s_type, pred, o_surface, o_type in triples:
            cols["url"].append(url)
            cols["sent_id"].append(sid)
            cols["subj_surface"].append(s_surface)
            cols["subj_type"].append(s_type)
            cols["pred"].append(pred)
            cols["obj_surface"].append(o_surface)
            cols["obj_type"].append(o_type)
            cols["context"].append(ctx)
    return pa.Table.from_pydict(cols, schema=TRIPLES_RAW_SCHEMA)


TRIPLES_LINKED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_id", pa.int32()),
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("score", pa.float32()),
])


class LinkerActor:
    """Link surface triples to canonical ids.

    The alias index and embedding map are the broadcast small side
    (SURVEY.md §2.5 J1/J2 pattern), loaded once per instance in
    ``__init__`` FROM THE CORPUS PATH — not shipped as ``ray.put``
    object refs in the constructor args: with ``max_restarts > 0`` an
    actor whose constructor args live in the object store cannot
    restart once the owner of those refs dies (ray#53727), which on a
    real multi-node cluster silently breaks the resume story.  Side
    files live on the same shared storage as the page parquet, so a
    restarted actor reloads them anywhere.  ``alias_patch`` is a small
    plain-dict overlay (surface → [canonical_id]) applied after the
    load — used by the alias-delta maintenance pipeline.  Per-batch
    memoization of unambiguous surface → id serves the
    head-entity-heavy workload.
    """

    def __init__(self, corpus_dir=None, alias_patch=None,
                 alias_idx=None, emb_map=None):
        if corpus_dir is not None:
            from ..sources.corpus import load_side_tables
            self.alias_idx, self.emb_map = load_side_tables(corpus_dir)
        else:                     # direct injection (tests, small plans)
            self.alias_idx = alias_idx
            self.emb_map = emb_map
        if alias_patch:
            self.alias_idx = {**self.alias_idx, **alias_patch}
        self._unambiguous_cache: dict = {}

    def _link(self, surface: str, context) -> tuple:
        hit = self._unambiguous_cache.get(surface)
        if hit is not None:
            return hit
        cands = self.alias_idx.get(surface.lower())
        result = link_surface(surface, context, self.alias_idx, self.emb_map, EMB_DIM)
        if cands is None or len(cands) == 1:
            self._unambiguous_cache[surface] = result   # context-independent
        return result

    def __call__(self, batch: pa.Table) -> pa.Table:
        subs, objs, scores = [], [], []
        for s_surface, o_surface, ctx in zip(batch.column("subj_surface").to_pylist(),
                                             batch.column("obj_surface").to_pylist(),
                                             batch.column("context").to_pylist()):
            s_cid, s_score = self._link(s_surface, ctx)
            o_cid, o_score = self._link(o_surface, ctx)
            subs.append(s_cid)
            objs.append(o_cid)
            scores.append(min(s_score, o_score))
        return pa.table({
            "url": batch.column("url"),
            "sent_id": batch.column("sent_id"),
            "subj": pa.array(subs, type=pa.string()),
            "pred": batch.column("pred"),
            "obj": pa.array(objs, type=pa.string()),
            "score": pa.array(np.asarray(scores, dtype=np.float32), type=pa.float32()),
        })


_SIDE_FILES = ("aliases.parquet", "entity_embeddings.parquet")  # LinkerActor's
_LOADED: dict = {}        # this process's one (key → (tagger, linker)) entry


def _stamp(path: str) -> tuple:
    st = os.stat(path)
    return path, st.st_mtime_ns, st.st_size


def loaded_chain(tagger: str, model_paths: dict, corpus_dir: str) -> tuple:
    """This process's ``(TAGGERS[tagger](model_paths),
    LinkerActor(corpus_dir))``, kept under the tagger name and the
    ``(path, st_mtime_ns, st_size)`` of each model file and side table.
    The cache holds one entry; a miss clears it before loading, so a
    model rebuilt at the same path reloads and a long-lived worker
    never holds two corpora."""
    key = (tagger, *(_stamp(p) for _, p in sorted(model_paths.items())),
           *(_stamp(os.path.join(corpus_dir, f)) for f in _SIDE_FILES))
    hit = _LOADED.get(key)
    if hit is None:
        _LOADED.clear()
        hit = _LOADED[key] = (TAGGERS[tagger](model_paths),
                              LinkerActor(corpus_dir=corpus_dir))
    return hit


def tag_link(batch: pa.Table, tagger: str, model_paths: dict, corpus_dir: str,
             batch_size: int, until: str = "linked") -> pa.Table:
    """Tagged sentences (``until="tagged"``), surface triples
    (``"surface"``) or linked triples (``"linked"``) of a block of
    sentences, tagged ``batch_size`` sentences per tagger call."""
    tag, link = loaded_chain(tagger, model_paths, corpus_dir)
    out = []
    for lo in range(0, max(batch.num_rows, 1), batch_size):
        part = tag(batch.slice(lo, batch_size))
        if until != "tagged":
            part = extract_triples(part)
        if until == "linked":
            part = link(part)
        out.append(part)
    return pa.concat_tables(out)


SINK_STATS_SCHEMA = pa.schema([
    ("group", pa.string()),
    ("sentences", pa.int64()),
    ("triples", pa.int64()),
])


def write_groups(batch: pa.Table, tagger: str, model_paths: dict,
                 corpus_dir: str, batch_size: int,
                 triples_root: str) -> pa.Table:
    """:func:`tag_link` over a block of sentences that carry a ``group``
    column, with each group's linked triples written under
    ``<triples_root>/group=<gid>/``.  Returns one
    ``(group, sentences, triples)`` row per group slice of the block,
    in block order.

    A file's name is a digest of its slice: the first and last
    ``(url, sent_id)`` and the row count.  It is written under a
    dot-prefixed temp name (which parquet readers skip) and renamed, so
    a retried task replaces its own file instead of adding a second
    copy."""
    if not batch.num_rows:
        return SINK_STATS_SCHEMA.empty_table()
    groups = batch.column("group").to_numpy(zero_copy_only=False)
    cuts = [0, *(np.flatnonzero(groups[1:] != groups[:-1]) + 1), len(groups)]
    rows = {name: [] for name in SINK_STATS_SCHEMA.names}
    for lo, hi in zip(cuts, cuts[1:]):
        part = batch.slice(lo, hi - lo).drop_columns(["group"])
        linked = tag_link(part, tagger, model_paths, corpus_dir, batch_size)
        if linked.num_rows:
            _write(linked, os.path.join(triples_root, f"group={groups[lo]}"),
                   part)
        rows["group"].append(groups[lo])
        rows["sentences"].append(part.num_rows)
        rows["triples"].append(linked.num_rows)
    return pa.Table.from_pydict(rows, schema=SINK_STATS_SCHEMA)


def _write(table: pa.Table, group_dir: str, part: pa.Table) -> None:
    url, sid = part.column("url"), part.column("sent_id")
    ends = (url[0], sid[0], url[-1], sid[-1])
    key = "\0".join(str(v.as_py()) for v in ends) + f"\0{part.num_rows}"
    name = hashlib.sha1(key.encode()).hexdigest() + ".parquet"
    os.makedirs(group_dir, exist_ok=True)
    tmp = os.path.join(group_dir, f".{os.getpid()}-{name}")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(group_dir, name))
