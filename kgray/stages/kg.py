"""Mention decode, triple extraction and entity-linking stages.

``decode_mentions`` and ``extract_triples`` are stateless Arrow
transforms; ``LinkerActor`` holds the broadcast small side (alias dict +
entity-embedding matrix) in actor state — a broadcast hash join, never a
shuffle (SURVEY.md §2.5).  ``TaggerLinker`` is the flagship's one actor
pool: it holds a tagger and a linker and runs tag → ``extract_triples``
→ link on each batch of sentences, so a batch stays in one process from
sentences to linked triples.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.linking import EMB_DIM, link_surface
from ..kernels.triples import extract_sentence_triples, sentence_mentions
from .tagger import TAGGERS

__all__ = ["decode_mentions", "extract_triples", "LinkerActor", "TaggerLinker",
           "MENTIONS_SCHEMA", "TRIPLES_RAW_SCHEMA", "TRIPLES_LINKED_SCHEMA"]

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
    """Actor: link surface triples to canonical ids.

    The alias index and embedding map are the broadcast small side
    (SURVEY.md §2.5 J1/J2 pattern), loaded once per actor in
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


class TaggerLinker:
    """Actor: tagged, extracted and linked triples from one batch of
    sentences — the tagger class named ``tagger`` (``TAGGERS``), then
    :func:`extract_triples`, then :class:`LinkerActor`.  Constructor
    args are a name and paths only, so a restarted actor reloads
    everything itself (ray#53727, see ``LinkerActor``)."""

    def __init__(self, tagger: str, model_paths: dict, corpus_dir: str):
        self.tagger = TAGGERS[tagger](model_paths)
        self.linker = LinkerActor(corpus_dir=corpus_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.linker(extract_triples(self.tagger(batch)))
