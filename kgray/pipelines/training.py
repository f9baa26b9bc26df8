"""Distributed training-side aggregations (SURVEY.md §2.4).

The reference trains in one process over in-memory lists
(``hmm_ner.py:44-55``).  Here the counting passes (A1-A4) run as
per-batch partials inside ``map_batches`` with a driver-side merge —
the counts are associative/commutative, so the split is exact — and the
normalization (A5, with all reference smoothing quirks) stays a small
driver step.  Index assignment uses sorted (canonical) order because
first-occurrence order is not stable under distribution
(``hmm_ner.py:37-39``; SURVEY.md §7.4): predictions are identical up to
exact float ties.

Also here: distributed CRF gold-path feature extraction (A7) and the
distributed token-level evaluation (A9) as confusion-matrix partials.
"""

from __future__ import annotations

import pickle

import pyarrow as pa

from ..constants import START_TAG, STOP_TAG
from ..kernels import crf as crf_kernel
from ..kernels import hmm as hmm_kernel
from ..kernels.evaluate import classification_report

__all__ = ["train_hmm_distributed", "build_crf_features_distributed",
           "evaluate_tagged", "max_seq_len", "train_crf_distributed",
           "train_transformer_distributed"]


def train_hmm_distributed(sentences_ds) -> hmm_kernel.HMMModel:
    """HMM from a Dataset of (tokens: list<str>, tags: list<str>) rows.

    map_batches emits one pickled :class:`HMMCounts` partial per batch;
    the driver merges (tiny: vocab-sized) and finalizes with canonical
    sorted index order.
    """
    def partial(batch: pa.Table) -> pa.Table:
        c = hmm_kernel.count_sentences(batch.column("tokens").to_pylist(),
                                       batch.column("tags").to_pylist())
        return pa.table({"counts": pa.array([pickle.dumps(c)], type=pa.binary())})

    merged = hmm_kernel.HMMCounts()
    for row in sentences_ds.map_batches(partial, batch_format="pyarrow",
                                        zero_copy_batch=True).take_all():
        merged = hmm_kernel.merge_counts(merged, pickle.loads(row["counts"]))
    return hmm_kernel.finalize_model(merged,
                                     word_order=sorted(merged.word_counts),
                                     tag_order=sorted(merged.tag_counts))


def build_crf_features_distributed(sentences_ds, rules=None):
    """Gold-path feature keys (A7) extracted per batch, deduplicated
    with a distributed groupby, then indexed in sorted order (the
    reference's insertion order is distribution-unstable,
    crf_ner.py:150-155).  Returns (feature_to_idx, tag_to_idx, idx_to_tag).
    """
    from ..stages.aggregate import sorted_group_aggregate

    rules = crf_kernel._rules(rules)

    def keys_partial(batch: pa.Table) -> pa.Table:
        seen = set()
        tags_seen = set()
        for words, tags in zip(batch.column("tokens").to_pylist(),
                               batch.column("tags").to_pylist()):
            tags_seen.update(tags)
            seen.update(crf_kernel._gold_path_keys(words, tags, rules))
        return pa.table({
            "key": pa.array(sorted(seen) + [f"\x00TAG\x00{t}" for t in sorted(tags_seen)],
                            type=pa.string()),
            "one": pa.array([1] * (len(seen) + len(tags_seen)), type=pa.int64()),
        })

    rows = sorted_group_aggregate(
        sentences_ds.map_batches(keys_partial, batch_format="pyarrow",
                                 zero_copy_batch=True),
        "key", [("one", "sum")], precombine=False).take_all()
    keys, tag_set = [], {START_TAG, STOP_TAG}
    for r in rows:
        if r["key"].startswith("\x00TAG\x00"):
            tag_set.add(r["key"][5:])
        else:
            keys.append(r["key"])
    tag_to_idx, idx_to_tag = crf_kernel.build_tag_index(tag_set)
    feature_to_idx = {k: i for i, k in enumerate(sorted(keys))}
    # pure-B enumeration (crf_ner.py:578-587)
    if any(r.kind == "B_pure" for r in rules):
        all_tags = sorted(tag_set - {START_TAG, STOP_TAG}) + [START_TAG, STOP_TAG]
        for prev in all_tags:
            for cur in all_tags:
                if prev == STOP_TAG or cur == START_TAG:
                    continue
                feature_to_idx.setdefault(f"B:{prev}_{cur}", len(feature_to_idx))
    return feature_to_idx, tag_to_idx, idx_to_tag


def evaluate_tagged(tagged_ds, gold_col: str = "gold_tags",
                    pred_col: str = "tags", labels=None) -> dict:
    """Token-level P/R/F1 from a Dataset carrying gold and predicted tag
    lists: per-batch (gold, pred) pair counts → small groupby → the
    sklearn-style report (check.py:38-40 semantics, distributed)."""
    from ..stages.aggregate import sorted_group_aggregate

    def pairs(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c = Counter()
        for g, p in zip(batch.column(gold_col).to_pylist(),
                        batch.column(pred_col).to_pylist()):
            for gt, pt in zip(g, p):
                c[(gt, pt)] += 1
        return pa.table({
            "gold": pa.array([k[0] for k in c], type=pa.string()),
            "pred": pa.array([k[1] for k in c], type=pa.string()),
            "n": pa.array(list(c.values()), type=pa.int64()),
        })

    rows = sorted_group_aggregate(
        tagged_ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["gold", "pred"], [("n", "sum")], precombine=False).take_all()
    y_true, y_pred = [], []
    for r in rows:
        y_true.extend([r["gold"]] * r["n"])
        y_pred.extend([r["pred"]] * r["n"])
    if labels is None:
        labels = sorted({t for t in y_true if t != "O"})
    return classification_report(y_true, y_pred, labels)


def max_seq_len(sentences_ds) -> int:
    """Longest sentence rounded up to the next power of two — the
    reference's transformer prep (transformer_ner.py:361-368), as a
    Dataset aggregate."""
    from ray.data.aggregate import Max

    def lens(batch: pa.Table) -> pa.Table:
        return pa.table({"len": pa.array(
            [len(t) for t in batch.column("tokens").to_pylist()], type=pa.int64())})

    m = sentences_ds.map_batches(lens, batch_format="pyarrow",
                                 zero_copy_batch=True).aggregate(Max("len"))
    longest = m["max(len)"] if isinstance(m, dict) else m
    p = 1
    while p < longest:
        p *= 2
    return p


# ----------------------------------------------------------------- CRF (r3)


def _quantized_grad_sum(sents, model, idxs, quant: int):
    """Summed int64 fixed-point gradient over the given local sentence
    indices at the CURRENT weights.  Per-sentence gradients are
    independent given the weights (the loss is a sum over sentences),
    and int64 micro-unit sums are order-independent — so any
    partitioning of the work produces the SAME integer gradient, making
    distributed == serial bitwise (same trick as embedding_kmeans /
    entity_pagerank).  round-half-even quantization is deterministic."""
    import numpy as np

    g = np.zeros(model.weights.shape[0], dtype=np.int64)
    loss = 0.0
    n = 0
    for i in idxs:
        words, tags = sents[i]
        if not words:
            continue
        l, grad = crf_kernel.nll_and_grad(words, tags, model)
        if np.isfinite(l):
            g += np.round(grad * quant).astype(np.int64)
            loss += l
            n += 1
    return g, loss, n


class _CRFGradWorker:
    """Data-parallel gradient actor: holds its sentence shard in state
    (shipped once), receives the weight vector per step (`ray.put` by
    the driver — one object shared by every actor), returns ONE summed
    int64 gradient partial.  Mirrors the parameter-server-lite shape a
    multi-node run needs: shard residency + per-step weight broadcast;
    gradient fan-in is O(F) per worker per step (tree-reduce it past
    ~64 workers)."""

    def __init__(self, sents_w, sents_t, model_spec: bytes):
        import numpy as np
        self.sents = list(zip(sents_w, sents_t))
        spec = pickle.loads(model_spec)
        self.model = crf_kernel.CRFModel(
            weights=np.zeros(spec["n_features"], dtype=np.float64),
            feature_to_idx=spec["feature_to_idx"],
            tag_to_idx=spec["tag_to_idx"], idx_to_tag=spec["idx_to_tag"],
            rules=spec["rules"])

    def grad_sum(self, weights, idxs, quant: int):
        self.model.weights = weights
        self.model._compiled = None
        return _quantized_grad_sum(self.sents, self.model, idxs, quant)


def train_crf_distributed(sents_w, sents_t, rules=None, epochs: int = 4,
                          lr: float = 0.2, minibatch: int = 512,
                          n_workers: int | None = None, seed: int = 7,
                          quant: int = 1 << 20, verbose: bool = False):
    """Reference-scale CRF training, distributed (closes r2 VERDICT
    missing #3): synchronous mini-batch gradient descent where each step
    broadcasts the weights and accumulates per-sentence analytic
    gradients (``kernels/crf.py:nll_and_grad`` — the NumPy twin of
    crf_ner.py:615-619's autograd loss) across an actor pool.

    Differences from the reference's per-sentence SGD
    (crf_ner.py:602-637) are the standard data-parallel trade: updates
    happen per mini-batch (mean gradient) instead of per sentence —
    per-sentence SGD is inherently sequential, mini-batch sync GD is
    the exact-at-fixed-weights distributable form.  The quality bar
    (validation F1 >= 0.93, README.md:11) is pinned by
    tests/test_crf_distributed_training.py at the reference's corpus
    scale (14,040 train sentences).

    Deterministic: seeded shuffle, round-robin sharding, int64
    fixed-point gradient sums (order-independent) — bit-identical
    weights across worker counts and retries.
    """
    import numpy as np
    import ray

    rules = crf_kernel._rules(rules)
    feature_to_idx, tag_to_idx, idx_to_tag = crf_kernel.build_features(
        sents_w, sents_t, rules)
    n_feat = len(feature_to_idx)
    if n_workers is None:
        n_workers = max(1, int(ray.cluster_resources().get("CPU", 4)) - 1)
    n = len(sents_w)
    n_workers = max(1, min(n_workers, n))

    spec = pickle.dumps({
        "n_features": n_feat, "feature_to_idx": feature_to_idx,
        "tag_to_idx": tag_to_idx, "idx_to_tag": idx_to_tag, "rules": rules})
    Worker = ray.remote(num_cpus=1)(_CRFGradWorker)
    # round-robin sharding: global sentence i lives on worker i % W at
    # local position i // W, so every mini-batch spreads evenly
    workers = [Worker.remote(sents_w[w::n_workers], sents_t[w::n_workers],
                             spec)
               for w in range(n_workers)]

    weights = np.zeros(n_feat, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total_loss, total_n = 0.0, 0
        for s in range(0, n, minibatch):
            batch_idx = perm[s:s + minibatch]
            wref = ray.put(weights)
            futs = []
            for w in range(n_workers):
                local = batch_idx[batch_idx % n_workers == w] // n_workers
                if local.size:
                    futs.append(workers[w].grad_sum.remote(
                        wref, local.tolist(), quant))
            gsum = np.zeros(n_feat, dtype=np.int64)
            n_used = 0
            for g, loss, cnt in ray.get(futs):
                gsum += g
                total_loss += loss
                n_used += cnt
            if n_used:
                weights -= lr * (gsum.astype(np.float64) / quant) / n_used
            total_n += n_used
        if verbose:
            print(f"epoch {epoch + 1}: avg loss "
                  f"{total_loss / max(1, total_n):.4f}")
    for w in workers:
        ray.kill(w)
    model = crf_kernel.CRFModel(weights=weights,
                                feature_to_idx=feature_to_idx,
                                tag_to_idx=tag_to_idx, idx_to_tag=idx_to_tag,
                                rules=rules)
    model._compiled = None
    return model


# ----------------------------------------------------- Transformer-CRF (r4)


class _TransformerGradWorker:
    """Data-parallel gradient actor for the Transformer-CRF trainer
    (closes reference T5, ``transformer_ner.py:375-543``): holds its
    padded index/tag matrix shard in state, receives the weight dict
    per step (``ray.put`` once per step, shared by every actor), and
    returns ONE summed int64 fixed-point gradient dict — the
    ``_CRFGradWorker`` discipline, so any worker count produces the
    same integer gradients bitwise."""

    def __init__(self, idx_shard, tags_shard, config: dict):
        import numpy as np

        from ..kernels.transformer import TransformerCRFModel

        self.idx = idx_shard
        self.tags = tags_shard
        self.model = TransformerCRFModel(
            config=config, weights={},
            word_to_idx={"<PAD>": 0}, tag_to_idx={"<PAD>": 0})

    def grad_sum(self, weights, rows, quant: int):
        from ..kernels.transformer_train import quantized_grad_sum_tfm

        self.model.weights = weights
        return quantized_grad_sum_tfm(self.model, self.idx, self.tags,
                                      rows, quant)


def train_transformer_distributed(sents_w, sents_t, epochs: int = 5,
                                  lr: float = 1e-3,
                                  weight_decay: float = 1e-5,
                                  clip: float = 5.0, minibatch: int = 32,
                                  n_workers: int | None = None,
                                  seed: int = 7, quant: int = 1 << 24,
                                  embedding_dim: int = 128,
                                  hidden_dim: int = 256,
                                  num_layers: int = 2, num_heads: int = 4,
                                  init_seed: int = 1234,
                                  verbose: bool = False):
    """NumPy Transformer-CRF training, distributed (closes r3 VERDICT
    #4 / reference T5): the exact objective and optimizer settings of
    ``transformer_ner.py:375-543`` — batched masked CRF NLL (mean per
    mini-batch), Adam(lr=1e-3, weight_decay=1e-5), global-norm gradient
    clip 5.0, PAD-to-power-of-2 sequence layout, mini-batch 32 with a
    seeded shuffle — with the analytic NumPy backward of
    ``kernels/transformer_train.py`` (gradient-checked) instead of
    torch autograd, and per-sentence gradient contributions summed as
    int64 fixed-point across an actor pool: bit-identical weights for
    any worker count (``train_crf_distributed`` discipline).  Dropout
    is 0 (documented deviation; the bar is validation F1 ≥ 0.93 —
    ``tests/test_transformer_training.py``).
    """
    import numpy as np
    import ray

    from ..kernels import transformer as tfm
    from ..kernels.transformer_train import (PARAM_ORDER, adam_step,
                                             clip_global_norm,
                                             dequantize_grads)

    w2i, t2i = tfm.build_vocab(sents_w, sents_t)
    msl = tfm.max_len_pow2(sents_w)
    n = len(sents_w)
    unk = w2i[tfm.UNK_TOKEN]
    idx = np.zeros((n, msl), dtype=np.int64)
    tgs = np.zeros((n, msl), dtype=np.int64)
    for r, (s, ts) in enumerate(zip(sents_w, sents_t)):
        for j, (word, t) in enumerate(zip(s[:msl], ts[:msl])):
            idx[r, j] = w2i.get(word, unk)
            tgs[r, j] = t2i[t]

    model = tfm.init_random(w2i, t2i, embedding_dim=embedding_dim,
                            hidden_dim=hidden_dim, num_layers=num_layers,
                            num_heads=num_heads, max_seq_len=msl,
                            seed=init_seed)
    order = PARAM_ORDER(model.config)

    if n_workers is None:
        n_workers = max(1, int(ray.cluster_resources().get("CPU", 4)) - 1)
    n_workers = max(1, min(n_workers, n))
    Worker = ray.remote(num_cpus=1)(_TransformerGradWorker)
    workers = [Worker.remote(idx[w::n_workers], tgs[w::n_workers],
                             model.config)
               for w in range(n_workers)]

    state: dict = {}
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total_loss, total_n = 0.0, 0
        for s in range(0, n, minibatch):
            batch_idx = perm[s:s + minibatch]
            wref = ray.put(model.weights)
            futs = []
            for w in range(n_workers):
                local = batch_idx[batch_idx % n_workers == w] // n_workers
                if local.size:
                    futs.append(workers[w].grad_sum.remote(
                        wref, local.tolist(), quant))
            gsum: dict = {}
            n_used = 0
            for qg, loss, cnt in ray.get(futs):
                for k, v in qg.items():
                    if k in gsum:
                        gsum[k] += v
                    else:
                        gsum[k] = v.copy()
                total_loss += loss
                n_used += cnt
            if n_used:
                grads = dequantize_grads(gsum, quant, float(n_used))
                grads = clip_global_norm(grads, clip, order)
                adam_step(model.weights, grads, state, order, lr=lr,
                          weight_decay=weight_decay)
            total_n += n_used
        if verbose:
            print(f"epoch {epoch + 1}: avg loss "
                  f"{total_loss / max(1, total_n):.4f}")
    for w in workers:
        ray.kill(w)
    return model


def _trained_transformer_path(sf_dir: str, epochs: int = 3,
                              minibatch: int = 32,
                              lang: str = "en") -> str:
    """Train-once cache of the distributed NumPy Transformer-CRF on
    the corpus's English CoNLL train split (content-identity key +
    atomic rename — the model-cache discipline).  Training is
    bit-deterministic (seeded shuffle, int64 gradient sums), so the
    cache can never serve weights a fresh run wouldn't produce."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from ..sources.derived import corpus_for_sf, corpus_content_tag

    corpus = corpus_for_sf(sf_dir)
    suffix = "" if lang == "en" else f"_{lang}"
    tag = corpus_content_tag(corpus, files=[],
                             extra=f"tfm_train|{epochs}|{minibatch}|{lang}")
    out = f"/tmp/kgray_tfm_trained/model_{tag}"
    npz = os.path.join(out, "model.npz")
    if not os.path.exists(os.path.join(out, "_DONE")):
        tbl = pq.read_table(
            os.path.join(corpus, f"conll_train{suffix}.parquet"))
        model = train_transformer_distributed(
            tbl["tokens"].to_pylist(), tbl["tags"].to_pylist(),
            epochs=epochs, minibatch=minibatch, seed=7)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".",
                               dir=os.path.dirname(out))
        model.save(os.path.join(tmp, "model"))
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok\n")
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rename(tmp, out)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
    return npz


def transformer_trained_tags(sf_dir: str, epochs: int = 3,
                             minibatch: int = 32):
    """Registry entry (closes reference T5 end-to-end): the NumPy
    Transformer-CRF is TRAINED on-engine (distributed, bit-identical
    across worker counts) on the corpus's CoNLL train split, then tags
    the held-out validation split through the ``TransformerTagger``
    actor pool.  Output per validation sentence: (sent_id, n_tokens,
    n_correct vs gold, pred_tags) — deterministic, so the committed
    fixture is a bitwise oracle AND encodes the model's quality."""
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..sources.derived import corpus_for_sf
    from ..stages.tagger import TransformerTagger
    from .kg import TAGGER_EIGHTHS, pool_budget

    import ray

    model_path = _trained_transformer_path(sf_dir, epochs, minibatch)
    corpus = corpus_for_sf(sf_dir)
    valid = pq.read_table(os.path.join(corpus, "conll_valid.parquet"))
    n = valid.num_rows
    src = pa.table({
        "url": pa.array([f"valid://{i}" for i in range(n)],
                        type=pa.string()),
        "sent_id": pa.array(np.arange(n, dtype=np.int64)),
        "tokens": valid["tokens"],
        "lang": pa.array(["en"] * n, type=pa.string())})
    gold_ref = ray.put(valid["tags"].to_pylist())   # eval-table-sized

    def score(batch: pa.Table) -> pa.Table:
        gold_all = ray.get(gold_ref)
        sids = batch.column("sent_id").to_pylist()
        gold = [gold_all[s] for s in sids]
        pred = batch.column("tags").to_pylist()
        n_tok = [len(g) for g in gold]
        n_ok = [sum(1 for g, p in zip(gs, ps) if g == p)
                for gs, ps in zip(gold, pred)]
        return pa.table({
            "sent_id": batch.column("sent_id"),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_correct": pa.array(n_ok, type=pa.int64()),
            "pred_tags": pa.array([" ".join(p) for p in pred],
                                  type=pa.string())})

    # from_arrow yields ONE block: one block per actor keeps the pool busy
    n_actors = pool_budget("transformer_trained_tags",
                           (TAGGER_EIGHTHS["transformer"], 256), n)
    ds = rd.from_arrow(src).repartition(n_actors).map_batches(
        TransformerTagger, fn_constructor_kwargs={
            "model_paths": {"en": model_path}},
        batch_format="pyarrow", batch_size=64, concurrency=n_actors,
        num_cpus=1)
    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True).sort("sent_id")


def trained_transformer_model_paths(sf_dir: str, epochs: int = 3,
                                    minibatch: int = 32) -> dict:
    """{lang: npz path} of TRAINED Transformer-CRF models for every
    language with a CoNLL train split in the corpus (train-once
    caches) — the model_paths dict the tagger actor pools load."""
    import os

    from ..sources.derived import corpus_for_sf

    corpus = corpus_for_sf(sf_dir)
    paths = {"en": _trained_transformer_path(sf_dir, epochs, minibatch,
                                             lang="en")}
    if os.path.exists(os.path.join(corpus, "conll_train_zh.parquet")):
        paths["zh"] = _trained_transformer_path(sf_dir, epochs, minibatch,
                                                lang="zh")
    return paths
