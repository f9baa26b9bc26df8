"""Entity linking: alias-dictionary lookup + embedding-score disambiguation.

New engine surface (the reference has no linking; SURVEY.md §2.5 J-new).
Pure functions so the corpus generator (gold construction), the serial
oracle extractor, and ``stages.kg.LinkerActor`` (a plain class built
once per Ray worker process) all share one definition —
the parity gate is then meaningful.

Semantics:
* mention surface → lowercase alias lookup,
* single candidate → its canonical id,
* multiple candidates → argmax of ``prior + cosine(context, entity_emb)``
  with ties broken by ascending canonical id,
* no candidate → deterministic surface-derived id ``S:<slug>`` so
  unlinked mentions still canonicalize consistently.
"""

from __future__ import annotations

import re

import numpy as np

from ..functions.hashing import hash_embedding

__all__ = ["slugify", "build_alias_index", "context_embedding", "link_surface"]

_NON_ALNUM = re.compile(r"[^a-z0-9]+")

EMB_DIM = 32


def slugify(surface: str) -> str:
    s = _NON_ALNUM.sub("_", surface.lower()).strip("_")
    return s or "empty"


def build_alias_index(surfaces, canonical_ids, priors) -> dict:
    """lowercase surface -> list of (canonical_id, prior), id-sorted."""
    idx: dict = {}
    for s, cid, p in zip(surfaces, canonical_ids, priors):
        idx.setdefault(s.lower(), []).append((cid, float(p)))
    for k in idx:
        idx[k].sort()
    return idx


def context_embedding(context_tokens, dim: int = EMB_DIM) -> np.ndarray:
    """Mean of deterministic token vectors, L2-normalized."""
    if not context_tokens:
        return np.zeros(dim, dtype=np.float32)
    v = np.zeros(dim, dtype=np.float64)
    for t in context_tokens:
        v += hash_embedding("tok:" + t.lower(), dim)
    n = np.linalg.norm(v)
    return (v / n if n > 0 else v).astype(np.float32)


def link_surface(surface: str, context_tokens, alias_idx: dict,
                 emb_map: dict, dim: int = EMB_DIM) -> tuple:
    """Return (canonical_id, score)."""
    cands = alias_idx.get(surface.lower())
    if not cands:
        return "S:" + slugify(surface), 0.0
    if len(cands) == 1:
        cid, prior = cands[0]
        return cid, prior
    ctx = context_embedding(context_tokens, dim)
    best_cid, best_score = None, -np.inf
    for cid, prior in cands:                      # id-sorted → deterministic ties
        emb = emb_map.get(cid)
        cos = float(np.dot(ctx, emb)) if emb is not None else 0.0
        score = prior + cos
        if score > best_score:
            best_cid, best_score = cid, score
    return best_cid, float(best_score)
