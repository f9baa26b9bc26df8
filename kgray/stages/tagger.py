"""Tagging stage: batched Viterbi over NumPy model arrays.

Each tagger class loads its model arrays ONCE in ``__init__`` (the
distributed analogue of the reference's single pickle load at predict
start, ``hmm_ner.py:130-131`` / ``crf_ner.py:659-665``), then every
``__call__`` decodes one Arrow batch of sentences with the vectorized
NumPy kernel.  The flagship builds them through
``stages.kg.loaded_chain``, once per Ray worker process; the
validation-split plans run them as actor pools.

Sentences whose ``lang`` has no model are tagged all-``"O"`` (no
mentions downstream).
"""

from __future__ import annotations

import pyarrow as pa

from ..kernels import crf as crf_kernel
from ..kernels import hmm as hmm_kernel
from ..kernels import transformer as tfm_kernel

__all__ = ["HMMTagger", "CRFTagger", "TransformerTagger", "TAGGERS",
           "TAGGED_SCHEMA"]

TAGGED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_id", pa.int32()),
    ("tokens", pa.list_(pa.string())),
    ("tags", pa.list_(pa.string())),
    ("lang", pa.string()),
])


def _attach_tags(batch: pa.Table, tags: list) -> pa.Table:
    return pa.table({
        "url": batch.column("url"),
        "sent_id": batch.column("sent_id"),
        "tokens": batch.column("tokens"),
        "tags": pa.array(tags, type=pa.list_(pa.string())),
        "lang": batch.column("lang"),
    })


class HMMTagger:
    """HMM Viterbi over BIO tags (kernel semantics of
    hmm_ner.py:165-268, vectorized)."""

    def __init__(self, model_paths: dict):
        """model_paths: lang -> path of an ``HMMModel.save`` artifact."""
        self.models = {lang: hmm_kernel.HMMModel.load(p)
                       for lang, p in model_paths.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch.column("tokens").to_pylist()
        langs = batch.column("lang").to_pylist()
        tags: list = [None] * len(tokens)
        by_lang: dict = {}
        for i, lang in enumerate(langs):
            by_lang.setdefault(lang, []).append(i)
        for lang, idxs in by_lang.items():
            model = self.models.get(lang)
            if model is None:
                for i in idxs:
                    tags[i] = ["O"] * len(tokens[i])
            else:
                decoded = hmm_kernel.viterbi_batch([tokens[i] for i in idxs], model)
                for i, d in zip(idxs, decoded):
                    tags[i] = d
        return _attach_tags(batch, tags)


class TransformerTagger:
    """Transformer-CRF NumPy inference (eval semantics of
    transformer_ner.py:105-274; truncate/pad + PAD→O rewrite of
    :580-588/:617-626).  Weights load once, in ``__init__``."""

    def __init__(self, model_paths: dict):
        self.models = {lang: tfm_kernel.TransformerCRFModel.load(p)
                       for lang, p in model_paths.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch.column("tokens").to_pylist()
        langs = batch.column("lang").to_pylist()
        tags: list = [None] * len(tokens)
        by_lang: dict = {}
        for i, lang in enumerate(langs):
            by_lang.setdefault(lang, []).append(i)
        for lang, idxs in by_lang.items():
            model = self.models.get(lang)
            if model is None:
                for i in idxs:
                    tags[i] = ["O"] * len(tokens[i])
            else:
                decoded = tfm_kernel.predict_sentences(
                    model, [tokens[i] for i in idxs])
                for i, d in zip(idxs, decoded):
                    tags[i] = d
        return _attach_tags(batch, tags)


class CRFTagger:
    """Template-feature CRF Viterbi (kernel semantics of
    crf_ner.py:371-512; compiled grouped weight tables built once)."""

    def __init__(self, model_paths: dict):
        self.models = {}
        for lang, p in model_paths.items():
            m = crf_kernel.CRFModel.load(p)
            m.compiled()                      # build tables now, not per batch
            self.models[lang] = m

    def __call__(self, batch: pa.Table) -> pa.Table:
        tokens = batch.column("tokens").to_pylist()
        langs = batch.column("lang").to_pylist()
        tags: list = [None] * len(tokens)
        caches: dict = {}                 # per-batch window-score memo per lang
        for i, (toks, lang) in enumerate(zip(tokens, langs)):
            model = self.models.get(lang)
            if model is None:
                tags[i] = ["O"] * len(toks)
            else:
                tags[i] = crf_kernel.viterbi_decode(
                    toks, model, caches.setdefault(lang, {}))[0]
        return _attach_tags(batch, tags)


# tagger name (the ``--tagger`` / ``models.json`` key) → tagger class
TAGGERS = {"hmm": HMMTagger, "crf": CRFTagger, "transformer": TransformerTagger}
