"""Text-analysis operators over a ``documents``-shaped table
(doc_id, text, ...): token stats, quality scoring, language-ID
heuristic, fingerprinting, global token frequencies.

All are stateless vectorized ``map_batches`` transforms with exact
DuckDB-SQL oracles (integer or bit-reproducible float math only:
ratios are single IEEE divisions of identical integers, so Ray and
DuckDB agree bitwise).
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

__all__ = ["read_documents", "token_stats", "quality_scores", "lang_id",
           "bigram_logprob", "bigram_kn_logprob", "lang_balanced_sample",
           "chunk_documents", "token_fuzzy_pairs_d2",
           "fingerprints", "token_topk", "subword_token_counts",
           "winnowing_fingerprints", "repetition_scores", "tfidf_top_terms",
           "heavy_hitter_tokens", "jsonl_token_stats",
           "duplicate_ngram_fraction", "STOPWORDS", "source_mix_sample",
           "doc_splits", "unigram_logprob", "decontaminate", "pii_scrub",
           "token_fuzzy_pairs", "dedup_substring_mask", "token_postings",
           "nb_lang_predictions", "token_skipgram_counts", "doc_weighted_sample", "cross_source_dup_matrix"]

_WS = re.compile(r"\s+")

# language → stopword list for the n-gram/stopword language-ID heuristic.
STOPWORDS = {
    "en": ("the", "a", "of", "and", "to", "in", "is", "for"),
    "de": ("der", "die", "das", "und", "ist", "ein", "zu", "mit"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "pour"),
}


def read_documents(sf_dir: str, columns=("doc_id", "text")):
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def _tokens(text: str) -> list:
    t = text.strip()
    return _WS.split(t) if t else []


def token_stats(sf_dir: str):
    """doc_id, n_tokens, n_chars."""
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks = [_tokens(t) for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array([len(t) for t in toks], type=pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        })
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def quality_scores(sf_dir: str):
    """doc_id, n_tokens, n_stop, stop_ratio, mean_token_len — the
    length/stopword quality heuristics of a pretraining-data filter."""
    stop = set(STOPWORDS["en"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tok, n_stop, ratio, mean_len = [], [], [], []
        for t in texts:
            toks = _tokens(t)
            n = len(toks)
            s = sum(1 for w in toks if w in stop)
            n_tok.append(n)
            n_stop.append(s)
            ratio.append(s / n if n else 0.0)
            mean_len.append(sum(len(w) for w in toks) / n if n else 0.0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_stop": pa.array(n_stop, type=pa.int64()),
            "stop_ratio": pa.array(ratio, type=pa.float64()),
            "mean_token_len": pa.array(mean_len, type=pa.float64()),
        })
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def lang_id(sf_dir: str):
    """doc_id, pred_lang — stopword-count language ID with a fixed
    tie-break order (en ≥ de ≥ fr)."""
    sets = {k: set(v) for k, v in STOPWORDS.items()}

    def fn(batch: pa.Table) -> pa.Table:
        preds = []
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            c = {k: sum(1 for w in toks if w in s) for k, s in sets.items()}
            if c["en"] >= c["de"] and c["en"] >= c["fr"]:
                preds.append("en")
            elif c["de"] >= c["fr"]:
                preds.append("de")
            else:
                preds.append("fr")
        return pa.table({"doc_id": batch.column("doc_id"),
                         "pred_lang": pa.array(preds, type=pa.string())})
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def fingerprints(sf_dir: str):
    """doc_id, md5 — content fingerprint (dedup key)."""
    def fn(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode("utf-8")).hexdigest()
             for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "md5": pa.array(h, type=pa.string())})
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def token_topk(sf_dir: str, k: int = 100):
    """Global token frequency top-k: per-batch Counter partials →
    small groupby sum → deterministic sort (cnt desc, token asc)."""
    def partial(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(_tokens(t))
        return pa.table({"token": pa.array(list(c.keys()), type=pa.string()),
                         "cnt": pa.array(list(c.values()), type=pa.int64())})

    from ..stages.aggregate import sorted_group_aggregate
    combined = (read_documents(sf_dir, columns=("text",))
                .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True))
    ds = sorted_group_aggregate(combined, "token", [("cnt", "sum")],
                                precombine=False)
    return ds.sort(["cnt", "token"], descending=[True, False]).limit(k)


# BPE-ish pre-tokenization: letter runs, digit runs, single punctuation.
_SUBWORD = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]")


def subword_token_counts(sf_dir: str):
    """doc_id, n_subword — regex pre-tokenizer count (the BPE-style
    budget estimate a training-data pipeline runs per document)."""
    def fn(batch: pa.Table) -> pa.Table:
        n = [len(_SUBWORD.findall(t)) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_subword": pa.array(n, type=pa.int64())})
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def repetition_scores(sf_dir: str):
    """doc_id, n_lines, dup_line_frac, dup_char_frac, top_line_frac —
    the Gopher-style repetition quality signals (Rae et al. 2021 §A1.1:
    boilerplate-heavy pages repeat lines; high duplicate-line or
    duplicate-character fractions mark low-quality documents).

    Lines are ``text.split("\\n")`` (DuckDB ``string_split`` semantics,
    empty lines included).  dup_line_frac = occurrences beyond each
    line's first, over all lines; dup_char_frac = characters in lines
    occurring more than once (all occurrences), over all line
    characters; top_line_frac = the most frequent line's share of
    lines.  Ratios are single IEEE divisions of exact integers, so the
    SQL oracle matches bitwise."""
    def fn(batch: pa.Table) -> pa.Table:
        n_lines, dlf, dcf, tlf = [], [], [], []
        for t in batch.column("text").to_pylist():
            lines = t.split("\n")
            c = Counter(lines)
            n = len(lines)
            total_chars = sum(len(ln) * k for ln, k in c.items())
            dup_chars = sum(len(ln) * k for ln, k in c.items() if k > 1)
            n_lines.append(n)
            dlf.append((n - len(c)) * 1.0 / n)
            dcf.append(dup_chars * 1.0 / total_chars if total_chars else 0.0)
            tlf.append(max(c.values()) * 1.0 / n)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(n_lines, type=pa.int64()),
            "dup_line_frac": pa.array(dlf, type=pa.float64()),
            "dup_char_frac": pa.array(dcf, type=pa.float64()),
            "top_line_frac": pa.array(tlf, type=pa.float64()),
        })
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def winnowing_fingerprints(sf_dir: str, k: int = 8, window: int = 5):
    """doc_id, n_grams, n_fingerprints, min_fp — winnowing document
    fingerprinting (Schleimer et al., SIGMOD 2003): rolling char k-gram
    hashes, keep each window's minimum; the selected set is a robust
    content fingerprint for near-dup/plagiarism detection."""
    from ..functions.hashing import stable_hash64

    def fingerprint(text: str):
        n = len(text)
        if n < k:
            return 0, 0, 0
        hashes = [stable_hash64(text[i:i + k]) & 0x7FFFFFFFFFFFFFFF
                  for i in range(n - k + 1)]
        if len(hashes) <= window:
            sel = {min(hashes)}
        else:
            sel = set()
            for i in range(len(hashes) - window + 1):
                sel.add(min(hashes[i:i + window]))
        return len(hashes), len(sel), min(sel)

    def fn(batch: pa.Table) -> pa.Table:
        stats = [fingerprint(t) for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_grams": pa.array([s[0] for s in stats], type=pa.int64()),
            "n_fingerprints": pa.array([s[1] for s in stats], type=pa.int64()),
            "min_fp": pa.array([s[2] for s in stats], type=pa.int64()),
        })
    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def tfidf_top_terms(sf_dir: str, k: int = 3):
    """Per-document top-k TF-IDF terms — the classic keyword extractor
    a training-data pipeline runs for topical tagging.

    Composition (all distributed): flat (doc_id, token, tf) rows →
    document frequency via sorted_group_aggregate → LARGE×LARGE
    sorted_merge_join on token (the df side is vocabulary-sized; no
    broadcast assumption) → vectorized tfidf = tf · ln(N/df) →
    grouped_topk per doc.  ln is evaluated with ``math.log`` on the
    few distinct df values per batch — bitwise identical to DuckDB's
    ``ln`` (numpy's SIMD log is NOT; measured 1-ulp drift).
    """
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import grouped_topk

    def tf_partial(batch: pa.Table) -> pa.Table:
        doc_ids, toks, tfs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            for tok, n in Counter(_tokens(t)).items():
                doc_ids.append(d)
                toks.append(tok)
                tfs.append(n)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "token": pa.array(toks, type=pa.string()),
                         "tf": pa.array(tfs, type=pa.int64())})

    tf_ds = (read_documents(sf_dir)
             .map_batches(tf_partial, batch_format="pyarrow",
                          zero_copy_batch=True).materialize())

    n_docs = (read_documents(sf_dir)
              .map_batches(lambda b: pa.table({
                  "n": pa.array([sum(1 for t in b.column("text").to_pylist()
                                     if t.strip())], type=pa.int64())}),
                  batch_format="pyarrow").sum("n"))

    df_ds = sorted_group_aggregate(
        tf_ds.map_batches(lambda b: pa.table({
            "token": b.column("token"),
            "df": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "token", [("df", "sum")])

    joined = sorted_merge_join(tf_ds, df_ds, on="token")

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        df = batch.column("df").to_numpy(zero_copy_only=False)
        # ln on the distinct df values only, via math.log (libm — bitwise
        # equal to DuckDB's ln; numpy's SIMD log drifts by 1 ulp)
        uniq, inv = np.unique(df, return_inverse=True)
        lns = np.array([math.log(float(n_docs) / float(u)) for u in uniq],
                       dtype=np.float64)
        tfidf = tf * lns[inv]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "token": batch.column("token"),
                         "tfidf": pa.array(tfidf, type=pa.float64())})

    scored = joined.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True)
    top = grouped_topk(scored, group="doc_id", order_col="tfidf",
                       tiebreak="token", k=k, descending=True)
    return top.map_batches(lambda b: b.select(
        ["doc_id", "token", "tfidf", "rank"]), batch_format="pyarrow")


def heavy_hitter_tokens(sf_dir: str, phi: float = 0.005):
    """EXACT φ-heavy-hitter tokens (count ≥ ⌈φ·total tokens⌉) via the
    two-pass Misra-Gries plan in ``stages/sketch.py``: bounded-size
    per-block candidate sketches, then an exact recount of candidates
    only — never a full-vocabulary aggregate."""
    from ..stages.sketch import heavy_hitters

    def flat_tokens(batch: pa.Table) -> pa.Table:
        toks = []
        for t in batch.column("text").to_pylist():
            toks.extend(_tokens(t))
        return pa.table({"token": pa.array(toks, type=pa.string())})

    stream = read_documents(sf_dir, columns=("text",)).map_batches(
        flat_tokens, batch_format="pyarrow", zero_copy_batch=True)
    return heavy_hitters(stream, "token", phi)


def jsonl_token_stats(sf_dir: str):
    """token_stats over the JSONL twin of the documents table
    (``sources/jsonl.py``) — same SQL oracle as ``token_stats`` over
    the parquet view, so the driver's value hash proves source parity
    (JSONL parse == parquet read, byte-for-byte)."""
    from ..sources.jsonl import documents_to_jsonl, read_documents_jsonl

    jdir = documents_to_jsonl(sf_dir)

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks = [_tokens(t) for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array([len(t) for t in toks], type=pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        })

    return read_documents_jsonl(jdir, columns=("doc_id", "text")).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)


def duplicate_ngram_fraction(sf_dir: str, n: int = 3):
    """Per-document cross-corpus repeated-n-gram score — the Gopher/C4
    "duplicated n-grams" signal at corpus (not document) scope: the
    fraction of a document's DISTINCT word n-grams that also occur in
    at least one OTHER document.  High values mark boilerplate /
    templated pages a training-data pipeline down-weights or drops.

    Composition (all distributed, same shape as ``tfidf_top_terms``):
    flat distinct (doc_id, gram) rows → gram document-frequency via
    ``sorted_group_aggregate`` → LARGE×LARGE ``sorted_merge_join`` on
    gram → per-doc counts → one IEEE division (bitwise equal to the
    SQL oracle).  Documents with fewer than ``n`` tokens have no grams
    and emit no row (matching SQL's post-UNNEST GROUP BY).

    Scale note: grams ship as strings here because the oracle needs
    exact equality; at 100 TB the df exchange should key on a 64-bit
    gram hash instead (collisions only ever *raise* df — harmless for
    a ≥2 threshold) which shrinks the shuffle ~5× for long grams.
    """
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def gram_rows(batch: pa.Table) -> pa.Table:
        doc_ids, grams = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            seen = {" ".join(toks[i:i + n])
                    for i in range(len(toks) - n + 1)}
            doc_ids.extend([d] * len(seen))
            grams.extend(seen)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "gram": pa.array(grams, type=pa.string())})

    gram_ds = (read_documents(sf_dir)
               .map_batches(gram_rows, batch_format="pyarrow",
                            zero_copy_batch=True).materialize())

    df_ds = sorted_group_aggregate(
        gram_ds.map_batches(lambda b: pa.table({
            "gram": b.column("gram"),
            "df": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "gram", [("df", "sum")])

    joined = sorted_merge_join(gram_ds, df_ds, on="gram")

    def flag(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dup = pc.cast(pc.greater_equal(batch.column("df"), pa.scalar(2)),
                      pa.int64())
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_grams": pa.array(
                             np.ones(batch.num_rows, dtype=np.int64)),
                         "n_dup_grams": dup})

    counts = sorted_group_aggregate(
        joined.map_batches(flag, batch_format="pyarrow",
                           zero_copy_batch=True),
        "doc_id", [("n_grams", "sum"), ("n_dup_grams", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        frac = pc.divide(pc.cast(batch.column("n_dup_grams"), pa.float64()),
                         pc.cast(batch.column("n_grams"), pa.float64()))
        return batch.append_column("dup_fraction", frac)

    return counts.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def source_mix_sample(sf_dir: str):
    """Training-corpus data mixing (``functions/sampling.py:
    mixture_sample``): per-source deterministic Bernoulli rates —
    keep-all for every 4th source, 1/2, 1/4, 1/8 for the others — so
    over-represented domains are down-weighted to a target mixture.
    Pure streaming filter, md5-deterministic, bitwise vs the SQL CASE
    oracle."""
    from ..functions.sampling import mixture_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "lang", "n_chars"])
    rates = {f"src{i}": [1000, 500, 250, 125][i % 4] for i in range(64)}
    out = mixture_sample(docs, "source", "doc_id", rates)
    return out.map_batches(lambda b: pa.table({
        "doc_id": b.column("doc_id"),
        "source": b.column("source"),
        "lang": b.column("lang"),
        "n_chars": b.column("n_chars")}),
        batch_format="pyarrow", zero_copy_batch=True)


def doc_splits(sf_dir: str):
    """Deterministic train/val/test assignment over the corpus
    (``functions/sampling.py:split_assign``): md5(doc_id) bucket of
    1000 → train < 900, val < 950, test otherwise.  A pure streaming
    append — no shuffle — and a pure function of the key, so the split
    survives resumes, repartitions and corpus growth without leakage."""
    from ..functions.sampling import split_assign

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    return split_assign(docs, "doc_id")


def unigram_logprob(sf_dir: str):
    """Per-document average unigram log-probability under the corpus'
    own unigram LM — the classic perplexity-style quality filter (docs
    of rare/implausible tokens score low and get dropped).

    Determinism trick: per-token log-probs are quantized to integer
    **micro-nats** (``floor(ln(cnt/N) * 1e6)``), so the per-document
    sum is an order-independent int64 reduction — bitwise reproducible
    across partitionings AND equal to the SQL oracle — and the average
    is ONE IEEE division at the end.  ``ln`` is evaluated with
    ``math.log`` on distinct counts only (libm — bitwise equal to
    DuckDB's ``ln``; numpy's SIMD log drifts 1 ulp).

    Composition (all distributed, the ``tfidf_top_terms`` shape): flat
    (doc_id, token, tf) rows → global token counts via
    ``sorted_group_aggregate`` → LARGE×LARGE ``sorted_merge_join`` on
    token (vocabulary-sized right side; no broadcast assumption) →
    vectorized micro-nat scoring → per-doc aggregate."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        doc_ids, toks, tfs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            for tok, n in Counter(_tokens(t)).items():
                doc_ids.append(d)
                toks.append(tok)
                tfs.append(n)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "token": pa.array(toks, type=pa.string()),
                         "tf": pa.array(tfs, type=pa.int64())})

    tf_ds = (read_documents(sf_dir)
             .map_batches(tf_partial, batch_format="pyarrow",
                          zero_copy_batch=True).materialize())

    cnt_ds = sorted_group_aggregate(
        tf_ds.map_batches(lambda b: pa.table({
            "token": b.column("token"), "cnt": b.column("tf")}),
            batch_format="pyarrow"),
        "token", [("cnt", "sum")]).materialize()
    n_total = cnt_ds.sum("cnt")                    # corpus token count

    joined = sorted_merge_join(tf_ds, cnt_ds, on="token")

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(cnt, return_inverse=True)
        lp = np.array([math.log(float(u) / float(n_total)) for u in uniq],
                      dtype=np.float64)
        micro = np.floor(lp * 1e6).astype(np.int64)[inv]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(tf, type=pa.int64()),
            "logprob_micronats": pa.array(tf * micro, type=pa.int64())})

    sums = sorted_group_aggregate(
        joined.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True),
        "doc_id", [("n_tokens", "sum"), ("logprob_micronats", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        avg = pc.divide(pc.cast(batch.column("logprob_micronats"),
                                pa.float64()),
                        pc.cast(batch.column("n_tokens"), pa.float64()))
        return batch.append_column("avg_logprob_micronats", avg)

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


def decontaminate(sf_dir: str, n: int = 8, eval_permille: int = 50):
    """Benchmark decontamination (GPT-3 §C / Dolma style): flag
    training documents that share any word ``n``-gram with a held-out
    eval set, here the deterministic md5 split ``bucket < 50`` (5%) so
    the check is self-contained and reproducible.

    The eval n-gram set is SMALL by construction (eval/benchmark sets
    always are — that is what makes decontamination broadcastable):
    it is built distributed, collected once, ``ray.put`` once, and
    every batch then scores its documents locally — the corpus side
    streams with no shuffle and no join.  Output: one row per
    non-eval document with its distinct-gram and overlap counts; a
    pipeline drops (or audits) rows with ``n_overlap > 0``.  At 100 TB
    the broadcast set should hold 64-bit gram hashes rather than
    strings (collisions only ever add a flagged doc — safe direction);
    strings are kept here for exact SQL-oracle equality."""
    import ray

    from ..functions.sampling import _md5_bucket

    def doc_grams(text: str) -> set:
        toks = _tokens(text)
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    docs = read_documents(sf_dir)

    def eval_gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        keep = _md5_bucket(ids, 1000) < eval_permille
        grams = set()
        for d, t, k in zip(ids, batch.column("text").to_pylist(), keep):
            if k:
                grams |= doc_grams(t)
        return pa.table({"gram": pa.array(sorted(grams), type=pa.string())})

    eval_grams = set()
    for t in (docs.map_batches(eval_gram_rows, batch_format="pyarrow",
                               zero_copy_batch=True).to_arrow_refs()):
        t = ray.get(t)
        if t.num_rows:
            eval_grams.update(t.column("gram").to_pylist())
    gram_ref = ray.put(frozenset(eval_grams))

    def flag(batch: pa.Table) -> pa.Table:
        ev = ray.get(gram_ref)
        ids = batch.column("doc_id").to_pylist()
        keep = _md5_bucket(ids, 1000) >= eval_permille
        out_ids, n_grams, n_overlap = [], [], []
        for d, t, k in zip(ids, batch.column("text").to_pylist(), keep):
            if not k:
                continue
            g = doc_grams(t)
            out_ids.append(d)
            n_grams.append(len(g))
            n_overlap.append(sum(1 for x in g if x in ev))
        return pa.table({
            "doc_id": pa.array(out_ids, type=pa.int64()),
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_overlap": pa.array(n_overlap, type=pa.int64())})

    return docs.map_batches(flag, batch_format="pyarrow",
                            zero_copy_batch=True)


# PII scrub patterns — deliberately RE2-only syntax (no lookaround, no
# backrefs) so pyarrow's RE2 kernels and DuckDB's RE2 regexp_replace
# agree byte-for-byte.  Replacement order matters: emails first (their
# domains contain dots that the IP pattern must never see), then IPs,
# then phones (dash-separated, disjoint from both).
_PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
)


def pii_scrub(sf_dir: str, inject_permille: int = 300):
    """C4/Dolma-style PII redaction: replace emails / IPv4s / US-style
    phone numbers with typed placeholder tokens and count the matches
    per document.

    The synthetic corpus contains no PII, so the query first APPENDS a
    deterministic contact footer to ~30% of documents (md5(doc_id)
    bucket < ``inject_permille``; footer fields are pure functions of
    doc_id) — the same construction the SQL oracle performs — and then
    scrubs.  Non-injected documents flow through the same kernels and
    assert the zero-match path.

    Entirely vectorized: match counting and replacement are pyarrow's
    RE2 C++ kernels (`count_substring_regex` /
    `replace_substring_regex`) over the Arrow string column — no
    Python-level row loop — and the stage is stateless `map_batches`,
    so at 100 TB it streams with no shuffle."""
    import pyarrow.compute as pc

    from ..functions.sampling import _md5_bucket

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        bucket = _md5_bucket(ids.to_pylist(), 1000)
        idv = ids.to_numpy(zero_copy_only=False)
        footer = pa.array([
            (f"\nContact: user{d}@example.com or 10.{d % 256}."
             f"{(d // 256) % 256}.7, call 555-{100 + d % 900}-"
             f"{1000 + d % 9000}." if b < inject_permille else "")
            for d, b in zip(idv, bucket)], type=pa.string())
        text = pc.binary_join_element_wise(batch.column("text"), footer, "")
        counts = {}
        for name, pat, repl in _PII_PATTERNS:
            counts[f"n_{name}"] = pc.cast(
                pc.count_substring_regex(text, pat), pa.int64())
            text = pc.replace_substring_regex(text, pat, repl)
        return pa.table({"doc_id": ids, **counts, "text_clean": text})

    return read_documents(sf_dir).map_batches(fn, batch_format="pyarrow",
                                              zero_copy_batch=True)


def _lev_le_1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check (two-pointer; strings are short)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = j = miss = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        else:
            miss += 1
            if miss > 1:
                return False
            j += 1
    return True


def _lev_le_k(a: str, b: str, k: int) -> bool:
    """Exact edit-distance ≤ k check: banded Levenshtein DP (band width
    2k+1), O(k·max(len)) per pair — the d≤2 verifier (r2 VERDICT #8)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    big = k + 1
    prev = list(range(min(lb, k) + 1)) + [big] * max(0, lb - k)
    for i in range(1, la + 1):
        lo = max(1, i - k)
        hi = min(lb, i + k)
        cur = [big] * (lb + 1)
        cur[0] = i if i <= k else big
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1,          # delete from a
                         cur[j - 1] + 1,       # insert into a
                         prev[j - 1] + cost)   # substitute/match
        prev = cur
    return prev[lb] <= k


def _deletions_upto(t: str, d: int) -> set:
    """All strings reachable from ``t`` by deleting at most ``d``
    characters (SymSpell neighborhood; includes ``t`` itself)."""
    res = {t}
    frontier = {t}
    for _ in range(d):
        nxt = set()
        for s in frontier:
            for i in range(len(s)):
                nxt.add(s[:i] + s[i + 1:])
        res |= nxt
        frontier = nxt
    return res


def token_fuzzy_pairs_d2(sf_dir: str, typo_permille: int = 250,
                         max_bucket: int | None = None):
    """Edit-distance ≤ 2 fuzzy token join (r2 VERDICT missing #4 — the
    common spelling-variant setting): SymSpell depth-2 deletion
    neighborhoods.  Two tokens at distance ≤ 2 MUST share a string in
    each other's ≤2-deletion sets (the SymSpell completeness theorem:
    align the edit script, delete the touched characters from both
    sides), so a shuffle self-join on the variant yields a complete
    candidate set; candidates are deduped BEFORE the exact banded-DP
    verify (each pair can share many variants at depth 2).

    Non-vacuity at every scale: the same md5 band that plants
    ``t+'s'`` twins (distance 1) also plants ``t+'ed'`` twins
    (distance 2), both mirrored in the oracle.

    ``max_bucket`` is the scale knob: a variant shared by more than
    ``max_bucket`` tokens is dropped from the join (its pairs are
    candidates via their other, rarer shared variants in most cases,
    but completeness is no longer GUARANTEED — the exact default is
    None/uncapped; set it when 2-character variants of a web-scale
    vocabulary create quadratic hot buckets, same discipline as
    dedup._bucket_pairs)."""
    from ..functions.sampling import _md5_bucket
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    _ALPHA = re.compile(r"^[a-z]{4,12}$")

    def distinct_tokens(batch: pa.Table) -> pa.Table:
        toks = set()
        for t in batch.column("text").to_pylist():
            toks.update(w for w in _tokens(t) if _ALPHA.match(w))
        out = sorted(toks)
        return pa.table({"token": pa.array(out, type=pa.string()),
                         "one": pa.array(np.ones(len(out), dtype=np.int64))})

    base = (read_documents(sf_dir, columns=("text",))
            .map_batches(distinct_tokens, batch_format="pyarrow",
                         zero_copy_batch=True))
    tokens = sorted_group_aggregate(base, ["token"], [("one", "min")],
                                    precombine=False)

    def augment(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        buckets = _md5_bucket(toks, 1000)
        out = list(toks)
        out.extend(t + "s" for t, b in zip(toks, buckets)
                   if b < typo_permille)
        out.extend(t + "ed" for t, b in zip(toks, buckets)
                   if b < typo_permille)
        out = sorted(set(out))
        return pa.table({"token": pa.array(out, type=pa.string()),
                         "one": pa.array(np.ones(len(out), dtype=np.int64))})

    augmented = sorted_group_aggregate(
        tokens.map_batches(augment, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["token"], [("one", "min")], precombine=False)

    def variants(batch: pa.Table, name: str) -> pa.Table:
        va, tk = [], []
        for t in batch.column("token").to_pylist():
            for v in _deletions_upto(t, 2):
                va.append(v)
                tk.append(t)
        return pa.table({"variant": pa.array(va, type=pa.string()),
                         name: pa.array(tk, type=pa.string())})

    v_a = augmented.map_batches(lambda b: variants(b, "tok_a"),
                                batch_format="pyarrow", zero_copy_batch=True)
    v_b = augmented.map_batches(lambda b: variants(b, "tok_b"),
                                batch_format="pyarrow", zero_copy_batch=True)
    if max_bucket is not None:
        from ..stages.semijoin import semi_join
        counts = sorted_group_aggregate(
            v_a.map_batches(lambda b: pa.table({
                "variant": b.column("variant"),
                "c": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                batch_format="pyarrow", zero_copy_batch=True),
            "variant", [("c", "sum")])
        hot = counts.map_batches(
            lambda b: b.filter(pc.greater(b.column("c"), max_bucket)),
            batch_format="pyarrow", zero_copy_batch=True)
        v_a = semi_join(v_a, hot, on="variant", anti=True)
        v_b = semi_join(v_b, hot, on="variant", anti=True)
    cand = sorted_merge_join(v_a, v_b, on="variant")

    def ordered(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(pc.less(batch.column("tok_a"),
                                 batch.column("tok_b")), False)
        t = batch.filter(m)
        return pa.table({"tok_a": t.column("tok_a"),
                         "tok_b": t.column("tok_b"),
                         "one": pa.array(np.ones(t.num_rows,
                                                 dtype=np.int64))})

    # dedupe candidate pairs BEFORE the DP verify (depth-2 pairs share
    # many variants; verifying once per distinct pair, not per variant)
    distinct_cand = sorted_group_aggregate(
        cand.map_batches(ordered, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["tok_a", "tok_b"], [("one", "min")])

    def verify(batch: pa.Table) -> pa.Table:
        a = batch.column("tok_a").to_pylist()
        b = batch.column("tok_b").to_pylist()
        keep = pa.array([_lev_le_k(x, y, 2) for x, y in zip(a, b)],
                        type=pa.bool_())
        t = batch.filter(keep)
        return pa.table({"tok_a": t.column("tok_a"),
                         "tok_b": t.column("tok_b")})

    return distinct_cand.map_batches(verify, batch_format="pyarrow",
                                     zero_copy_batch=True)


def token_fuzzy_pairs(sf_dir: str, typo_permille: int = 250):
    """Fuzzy string-match join (entity-resolution candidate generation):
    all DISTINCT lowercase-alpha corpus tokens (4–12 chars) at edit
    distance ≤ 1 of each other, found WITHOUT a quadratic comparison.

    The synthetic corpus has no natural near-miss spellings, so —
    like ``pii_scrub``'s footer injection — a deterministic md5-selected
    subset of tokens contributes an ``s``-suffixed typo twin, mirrored
    in the oracle, making the query non-vacuous at every scale.

    Plan (SymSpell-style deletion neighborhoods, exact for d ≤ 1): each
    token emits itself plus its single-character deletions as
    ``(variant, token)`` rows; two tokens at distance ≤ 1 MUST share a
    variant (substitution → same-position deletions; insert/delete →
    the longer's deletion equals the shorter; the variant self-row
    covers it), so a shuffle self-join on ``variant`` yields a complete
    candidate set sized by neighborhood overlap — never |tokens|².
    Candidates are deduped and verified with the exact two-pointer
    check.  The oracle can afford the quadratic plan at gate scale
    (DuckDB ``levenshtein``); the engine never runs it."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..functions.sampling import _md5_bucket

    _ALPHA = re.compile(r"^[a-z]{4,12}$")

    def distinct_tokens(batch: pa.Table) -> pa.Table:
        toks = set()
        for t in batch.column("text").to_pylist():
            toks.update(w for w in _tokens(t) if _ALPHA.match(w))
        out = sorted(toks)
        return pa.table({"token": pa.array(out, type=pa.string()),
                         "one": pa.array(np.ones(len(out), dtype=np.int64))})

    base = (read_documents(sf_dir, columns=("text",))
            .map_batches(distinct_tokens, batch_format="pyarrow",
                         zero_copy_batch=True))
    tokens = sorted_group_aggregate(base, ["token"], [("one", "min")],
                                    precombine=False)

    def augment(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        buckets = _md5_bucket(toks, 1000)
        out = list(toks)
        out.extend(t + "s" for t, b in zip(toks, buckets)
                   if b < typo_permille)
        out = sorted(set(out))
        return pa.table({"token": pa.array(out, type=pa.string()),
                         "one": pa.array(np.ones(len(out), dtype=np.int64))})

    augmented = sorted_group_aggregate(
        tokens.map_batches(augment, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["token"], [("one", "min")], precombine=False)

    def variants(batch: pa.Table, name: str) -> pa.Table:
        va, tk = [], []
        for t in batch.column("token").to_pylist():
            va.append(t)
            tk.append(t)
            for i in range(len(t)):
                va.append(t[:i] + t[i + 1:])
                tk.append(t)
        return pa.table({"variant": pa.array(va, type=pa.string()),
                         name: pa.array(tk, type=pa.string())})

    v_a = augmented.map_batches(lambda b: variants(b, "tok_a"),
                                batch_format="pyarrow", zero_copy_batch=True)
    v_b = augmented.map_batches(lambda b: variants(b, "tok_b"),
                                batch_format="pyarrow", zero_copy_batch=True)
    cand = sorted_merge_join(v_a, v_b, on="variant")

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.fill_null(pc.less(batch.column("tok_a"),
                                 batch.column("tok_b")), False)
        t = batch.filter(m)
        a = t.column("tok_a").to_pylist()
        b = t.column("tok_b").to_pylist()
        keep = pa.array([_lev_le_1(x, y) for x, y in zip(a, b)],
                        type=pa.bool_())
        t = t.filter(keep)
        return pa.table({"tok_a": t.column("tok_a"),
                         "tok_b": t.column("tok_b"),
                         "one": pa.array(np.ones(t.num_rows,
                                                 dtype=np.int64))})

    verified = cand.map_batches(verify, batch_format="pyarrow",
                                zero_copy_batch=True)
    pairs = sorted_group_aggregate(verified, ["tok_a", "tok_b"],
                                   [("one", "min")])
    return pairs.map_batches(lambda b: b.select(["tok_a", "tok_b"]),
                             batch_format="pyarrow", zero_copy_batch=True)


def dedup_substring_mask(sf_dir: str, n: int = 3):
    """Substring-dedup masking signal (the Lee et al. 2022 "Deduplicating
    Training Data Makes Language Models Better" shape, at n-gram
    granularity): for each document, how many TOKEN POSITIONS are
    covered by some n-gram that also appears in another document.  A
    cleaning pipeline would drop or rewrite those spans; this operator
    computes the per-doc mask size exactly.

    Distributed composition (reusing the duplicate-n-gram exchange):
    occurrence rows (doc, pos, gram) → gram doc-frequency (distinct-doc
    count) → sorted-merge join occurrences⋈df on gram → explode covered
    positions pos..pos+n−1 → distinct (doc, pos) → per-doc count, left-
    joined back to every nonempty doc so unmasked docs report 0.
    """
    import pyarrow.compute as pc

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def occ_rows(batch: pa.Table) -> pa.Table:
        doc_ids, poss, grams = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            for i in range(len(toks) - n + 1):
                doc_ids.append(d)
                poss.append(i)
                grams.append(" ".join(toks[i:i + n]))
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "pos": pa.array(poss, type=pa.int64()),
                         "gram": pa.array(grams, type=pa.string())})

    def ntok_rows(batch: pa.Table) -> pa.Table:
        ids, ntoks = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            if not t.strip():
                continue                      # SQL's t CTE excludes these
            ids.append(d)
            ntoks.append(len(_tokens(t)))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "n_tokens": pa.array(ntoks, type=pa.int64())})

    docs = read_documents(sf_dir)
    occ = (docs.map_batches(occ_rows, batch_format="pyarrow",
                            zero_copy_batch=True).materialize())

    # gram document frequency over DISTINCT (gram, doc): two-level
    # aggregate keeps within-doc repeats from inflating df
    pair = sorted_group_aggregate(
        occ.map_batches(lambda b: pa.table({
            "gram": b.column("gram"), "doc_id": b.column("doc_id"),
            "one": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        ["gram", "doc_id"], [("one", "min")], precombine=False)
    df_ds = sorted_group_aggregate(
        pair.map_batches(lambda b: pa.table({
            "gram": b.column("gram"),
            "df": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "gram", [("df", "sum")])

    joined = sorted_merge_join(occ, df_ds, on="gram")

    def explode_cover(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.greater_equal(batch.column("df"),
                                             pa.scalar(2)), False)
        b = batch.filter(mask)
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        p = b.column("pos").to_numpy(zero_copy_only=False)
        offs = np.arange(n, dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(d, n), type=pa.int64()),
            "cov": pa.array((p[:, None] + offs[None, :]).ravel(),
                            type=pa.int64())})

    cov = joined.map_batches(explode_cover, batch_format="pyarrow",
                             zero_copy_batch=True)
    cov_distinct = sorted_group_aggregate(
        cov.map_batches(lambda b: b.append_column(
            "one", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["doc_id", "cov"], [("one", "min")])
    masked = sorted_group_aggregate(
        cov_distinct.map_batches(lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "n_masked": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "doc_id", [("n_masked", "sum")])

    ntok = docs.map_batches(ntok_rows, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = sorted_merge_join(ntok, masked, on="doc_id", how="left")

    def finish(b: pa.Table) -> pa.Table:
        nm = pc.fill_null(b.column("n_masked"),
                          pa.scalar(0, type=pa.int64()))
        nt = b.column("n_tokens")
        frac = pc.if_else(
            pc.equal(nt, pa.scalar(0, type=pa.int64())),
            pa.scalar(0.0),
            pc.divide(pc.cast(nm, pa.float64()), pc.cast(nt, pa.float64())))
        return pa.table({"doc_id": b.column("doc_id"), "n_tokens": nt,
                         "n_masked": nm, "masked_fraction": frac})

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def token_postings(sf_dir: str):
    """Inverted-index build (the IR/text-retrieval core op): per token,
    its document frequency and the ordered posting list of doc ids —
    constructed distributed with the ordered string-agg exchange
    (interior runs join vectorized; boundary runs ship ONE pre-joined
    partial per block, so hot tokens never ship raw postings)."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.stringagg import grouped_string_agg

    def pair_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        toks, ids = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            for tok in set(_tokens(t)):
                toks.append(tok)
                ids.append(d)
        return pa.table({"token": pa.array(toks, type=pa.string()),
                         "doc_id": pa.array(ids, type=pa.int64())})

    pairs = (read_documents(sf_dir)
             .map_batches(pair_rows, batch_format="pyarrow",
                          zero_copy_batch=True))
    # distinct (token, doc) — a doc counts once per token
    distinct = sorted_group_aggregate(
        pairs.map_batches(lambda b: b.append_column(
            "one", pa.array(np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["token", "doc_id"], [("one", "min")], precombine=False)

    def as_str(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({"token": b.column("token"),
                         "doc_id": b.column("doc_id"),
                         "doc_str": pc.cast(b.column("doc_id"),
                                            pa.string())})

    prepped = distinct.map_batches(as_str, batch_format="pyarrow",
                                   zero_copy_batch=True)
    out = grouped_string_agg(prepped, key="token",
                             order_cols=["doc_id"], value_col="doc_str",
                             sep=",", out_name="postings")
    return out.map_batches(lambda b: b.rename_columns(
        ["token", "n_docs", "postings"]), batch_format="pyarrow",
        zero_copy_batch=True)


def chunk_documents(sf_dir: str, chunk_tokens: int = 64, stride: int = 48):
    """RAG / long-context chunking (r3): split every document into
    overlapping token windows — the standard retrieval/training-window
    prep (chunk k covers tokens [k·stride, k·stride+chunk_tokens), last
    chunk may be short; empty docs emit nothing).

    Pure streaming stateless map over the documents table — zero
    shuffle, embarrassingly parallel at any corpus size; at 100 TB the
    output (≈ chunk_tokens/stride × input) streams straight into the
    embedding/packing stages.  Output: (doc_id, chunk_id, begin_tok,
    end_tok, n_tokens, chunk_text), mirrored bitwise by a
    generate_series + list_slice oracle."""
    def fn(batch: pa.Table) -> pa.Table:
        doc_ids, chunk_ids, begins, ends, texts_out = [], [], [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            n = len(toks)
            for k, s in enumerate(range(0, n, stride)):
                e = min(s + chunk_tokens, n)
                doc_ids.append(d)
                chunk_ids.append(k)
                begins.append(s)
                ends.append(e)
                texts_out.append(" ".join(toks[s:e]))
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "chunk_id": pa.array(chunk_ids, type=pa.int64()),
            "begin_tok": pa.array(begins, type=pa.int64()),
            "end_tok": pa.array(ends, type=pa.int64()),
            "n_tokens": pa.array([e - b for b, e in zip(begins, ends)],
                                 type=pa.int64()),
            "chunk_text": pa.array(texts_out, type=pa.string()),
        })

    return read_documents(sf_dir, columns=("doc_id", "text")).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)


def bigram_logprob(sf_dir: str):
    """Per-document average CONDITIONAL bigram log-probability under the
    corpus' own bigram LM — the sequence-aware upgrade of
    :func:`unigram_logprob` (docs whose word ORDER is implausible score
    low even when every individual word is common; the shape of a
    KenLM-style quality filter).

    Model: P(w2|w1) = c(w1,w2) / c(w1·), where c(w1·) sums bigram
    counts by prefix — every observed bigram has c ≥ 1, so no smoothing
    is needed for scoring the training corpus itself.

    Same exactness discipline as the unigram: per-bigram log-probs are
    quantized to integer micro-nats (``floor(ln(c12/c1) * 1e6)``, libm
    ``math.log`` over DISTINCT (c12, c1) pairs — bitwise equal to
    DuckDB's ``ln``), summed per doc as order-independent int64, ONE
    IEEE division at the end.

    Distribution: flat (doc_id, w1, w2, tf) rows → bigram counts via a
    composite-key ``sorted_group_aggregate`` → prefix counts from the
    (already reduced) bigram table → TWO large×large sorted-merge joins
    (one on the composite (w1, w2) key, one on the prefix) — the
    vocabulary² side never broadcasts.  Docs with < 2 tokens emit no
    bigrams and drop out (mirrored by the oracle's generate_series
    bound)."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        doc_ids, w1s, w2s, tfs = [], [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            for (a, b), n in Counter(zip(toks, toks[1:])).items():
                doc_ids.append(d)
                w1s.append(a)
                w2s.append(b)
                tfs.append(n)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "w1": pa.array(w1s, type=pa.string()),
                         "w2": pa.array(w2s, type=pa.string()),
                         "tf": pa.array(tfs, type=pa.int64())})

    tf_ds = (read_documents(sf_dir)
             .map_batches(tf_partial, batch_format="pyarrow",
                          zero_copy_batch=True).materialize())

    cnt2 = sorted_group_aggregate(
        tf_ds.map_batches(lambda b: pa.table({
            "w1": b.column("w1"), "w2": b.column("w2"),
            "c12": b.column("tf")}), batch_format="pyarrow"),
        ["w1", "w2"], [("c12", "sum")]).materialize()
    cnt1 = sorted_group_aggregate(
        cnt2.map_batches(lambda b: pa.table({
            "w1": b.column("w1"), "c1": b.column("c12")}),
            batch_format="pyarrow"),
        "w1", [("c1", "sum")])

    joined = sorted_merge_join(tf_ds, cnt2, on=["w1", "w2"])
    joined = sorted_merge_join(joined.drop_columns(["w2"]), cnt1, on="w1")

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        c12 = batch.column("c12").to_numpy(zero_copy_only=False)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False)
        pairs = np.stack([c12, c1], axis=1)
        uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
        lp = np.array([math.log(float(a) / float(b)) for a, b in uniq],
                      dtype=np.float64)
        micro = np.floor(lp * 1e6).astype(np.int64)[inv]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_bigrams": pa.array(tf, type=pa.int64()),
            "logprob_micronats": pa.array(tf * micro, type=pa.int64())})

    sums = sorted_group_aggregate(
        joined.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True),
        "doc_id", [("n_bigrams", "sum"), ("logprob_micronats", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        avg = pc.divide(pc.cast(batch.column("logprob_micronats"),
                                pa.float64()),
                        pc.cast(batch.column("n_bigrams"), pa.float64()))
        return batch.append_column("avg_logprob_micronats", avg)

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


def ipc_token_stats(sf_dir: str):
    """token_stats over the Arrow-IPC twin of the documents table
    (``sources/ipcsrc.py``) — same SQL oracle as ``token_stats`` over
    the parquet view, so the driver's value hash proves source parity
    (IPC decode == parquet read, byte-for-byte)."""
    from ..sources.ipcsrc import documents_to_ipc, read_documents_ipc

    idir = documents_to_ipc(sf_dir)

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks = [_tokens(t) for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array([len(t) for t in toks], type=pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        })

    return read_documents_ipc(idir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)


def chars_zh_auc(sf_dir: str):
    """Exact ROC AUC (midrank-tied Mann-Whitney, `stages/metrics.py`)
    of document length as a predictor of lang == 'zh' — the
    acceptance-metric shape every model-based filter needs, over a
    SQL-expressible score so the driver's value hash verifies the AUC
    machinery itself bitwise (integer rank sums, ONE IEEE division)."""
    from ..stages.metrics import exact_auc

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "score": b.column("n_chars"),
            "label": pc.cast(pc.equal(b.column("lang"), pa.scalar("zh")),
                             pa.int64())})

    return exact_auc(ds.map_batches(prep, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     score_col="score", label_col="label")


def source_capped_docs(sf_dir: str, cap: int = 15):
    """Domain balancing by ABSOLUTE cap: at most ``cap`` documents per
    ``source``, chosen by smallest md5(doc_id) — the deterministic
    reservoir of ``functions/sampling.py:group_sample``.  The cap is
    the other half of the data-mixing toolkit next to
    :func:`kgray.functions.sampling.mixture_sample`'s proportional
    rates: a crawl where one domain contributes 10⁶× the median needs
    a hard per-domain ceiling, not a global rate.  Output carries the
    1-based ``sample_rank`` (the row's position in its domain's
    deterministic order), so downstream stages can tighten the cap
    without resampling."""
    from ..functions.sampling import group_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    return group_sample(docs, group="source", key_col="doc_id", k=cap)


def weighted_doc_sample(sf_dir: str, k: int = 100):
    """Weighted sampling WITHOUT replacement (Efraimidis–Spirakis
    A-ES): the ``k`` documents with the largest key ``ln(u) / w`` where
    ``u ∈ (0, 1]`` is the deterministic md5(doc_id) uniform and ``w =
    n_chars`` the weight — each doc's inclusion probability is
    proportional to its weight, the classic one-pass distributed
    weighted reservoir (ln(u)/w orders identically to the paper's
    u^(1/w) and avoids pow).

    Determinism discipline matches ``functions/sampling.py``: u is a
    pure function of the data (md5, +1 so ln(0) is unreachable), the
    key is ONE mirrored IEEE expression (exact int→double, libm log,
    one division — math.log per row, NOT np.log, whose SIMD paths can
    differ from libm by ULPs), and selection composes the global_topk
    exchange (each block ships ≤ k survivors; no all-to-all)."""
    import math as _math

    from ..functions.sampling import _md5_bucket
    from ..stages.topk import global_topk

    def add_key(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_chars": pa.array([], type=pa.int64()),
                             "es_key": pa.array([], type=pa.float64())})
        hv = _md5_bucket(b.column("doc_id").to_pylist(), 1 << 32)
        w = b.column("n_chars").to_pylist()
        # w == 0 → NULL key (the oracle's LN(u)/0 is NULL in DuckDB);
        # nulls sort last on both sides, so zero-weight docs are never
        # selected while ≥ k positive-weight docs exist
        key = [None if not ww else
               _math.log((int(h) + 1) / 4294967296.0) / float(ww)
               for h, ww in zip(hv, w)]
        return pa.table({"doc_id": b.column("doc_id"),
                         "n_chars": b.column("n_chars"),
                         "es_key": pa.array(key, type=pa.float64())})

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    top = global_topk(docs.map_batches(add_key, batch_format="pyarrow",
                                       zero_copy_batch=True),
                      [("es_key", "descending"), ("doc_id", "ascending")],
                      k)
    return top.append_column(
        "sample_rank", pa.array(np.arange(1, top.num_rows + 1,
                                          dtype=np.int64)))


def bigram_kn_logprob(sf_dir: str, discount: float = 0.75):
    """Per-document average INTERPOLATED KNESER-NEY bigram
    log-probability — the standard smoothed n-gram LM (Kneser & Ney
    1995; KenLM's default) whose continuation probability separates
    "common word" from "word that starts many contexts":

        P(w2|w1) = max(c12 − D, 0)/c1  +  (D·N1+(w1·)/c1) · Pcont(w2)
        Pcont(w2) = N1+(·w2) / T

    with D = ``discount``, N1+(w1·)/N1+(·w2) the distinct-successor /
    distinct-predecessor type counts and T the total bigram type count.

    Exactness discipline (same as :func:`bigram_logprob`): every
    per-bigram probability is a pure function of FIVE integers
    (c12, c1, n1p, nc, T) — the float expression is composed
    operand-for-operand as the oracle writes it, ``math.log`` (libm ==
    DuckDB ``ln`` bitwise) evaluates once per DISTINCT tuple, and docs
    accumulate order-independent integer micro-nats.

    Distribution: all model tables derive from the reduced bigram-type
    table (vocab²-sized, never broadcast); scoring is three
    large×large sorted-merge joins — composite (w1,w2), then w1, then
    w2; T is the only driver scalar."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        doc_ids, w1s, w2s, tfs = [], [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            for (a, b), n in Counter(zip(toks, toks[1:])).items():
                doc_ids.append(d)
                w1s.append(a)
                w2s.append(b)
                tfs.append(n)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "w1": pa.array(w1s, type=pa.string()),
                         "w2": pa.array(w2s, type=pa.string()),
                         "tf": pa.array(tfs, type=pa.int64())})

    tf_ds = (read_documents(sf_dir)
             .map_batches(tf_partial, batch_format="pyarrow",
                          zero_copy_batch=True).materialize())

    cnt2 = sorted_group_aggregate(
        tf_ds.map_batches(lambda b: pa.table({
            "w1": b.column("w1"), "w2": b.column("w2"),
            "c12": b.column("tf")}), batch_format="pyarrow"),
        ["w1", "w2"], [("c12", "sum")]).materialize()

    def with_one(b: pa.Table) -> pa.Table:
        return b.append_column("one", pa.array(
            np.ones(b.num_rows, dtype=np.int64)))

    typed = cnt2.map_batches(with_one, batch_format="pyarrow",
                             zero_copy_batch=True)
    cnt1 = sorted_group_aggregate(
        typed.map_batches(lambda b: pa.table({
            "w1": b.column("w1"), "c1": b.column("c12"),
            "n1p": b.column("one")}), batch_format="pyarrow"),
        "w1", [("c1", "sum"), ("n1p", "sum")]).materialize()
    cntw2 = sorted_group_aggregate(
        typed.map_batches(lambda b: pa.table({
            "w2": b.column("w2"), "nc": b.column("one")}),
            batch_format="pyarrow"),
        "w2", [("nc", "sum")])

    # T = total bigram types — fold reduced-table partials; cnt1 is
    # pinned, so the second consumption costs no recompute
    T = sum(r["n"] for r in cnt1.map_batches(
        lambda b: pa.table({"n": pa.array(
            [int(pc.sum(b.column("n1p")).as_py() or 0)],
            type=pa.int64())}), batch_format="pyarrow").take_all())

    joined = sorted_merge_join(tf_ds, cnt2, on=["w1", "w2"])
    joined = sorted_merge_join(joined, cnt1, on="w1")
    joined = sorted_merge_join(joined.drop_columns(["w1"]), cntw2,
                               on="w2")

    D = float(discount)
    Tf = float(T)

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        cols = np.stack([batch.column(c).to_numpy(zero_copy_only=False)
                         for c in ("c12", "c1", "n1p", "nc")], axis=1)
        uniq, inv = np.unique(cols, axis=0, return_inverse=True)
        c12f = uniq[:, 0].astype(np.float64)
        c1f = uniq[:, 1].astype(np.float64)
        n1pf = uniq[:, 2].astype(np.float64)
        ncf = uniq[:, 3].astype(np.float64)
        # operand-for-operand the oracle's expression
        p = (np.maximum(c12f - D, 0.0) / c1f) \
            + ((D * n1pf) / c1f) * (ncf / Tf)
        micro = np.array([math.floor(math.log(v) * 1e6) for v in p],
                         dtype=np.int64)[inv]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_bigrams": pa.array(tf, type=pa.int64()),
            "logprob_micronats": pa.array(tf * micro, type=pa.int64())})

    sums = sorted_group_aggregate(
        joined.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True),
        "doc_id", [("n_bigrams", "sum"), ("logprob_micronats", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        avg = pc.divide(pc.cast(batch.column("logprob_micronats"),
                                pa.float64()),
                        pc.cast(batch.column("n_bigrams"), pa.float64()))
        return batch.append_column("avg_logprob_micronats", avg)

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


def lang_balanced_sample(sf_dir: str):
    """Class-balanced downsampling: every language keeps exactly
    min-class-count documents — the rebalancing step before training a
    classifier on skewed data (cf. the quality model's unlearnable-
    majority trap, NOTES #60).  Selection is the deterministic
    md5-smallest rule (pure function of the data; no RNG, identical
    across runs/engines).

    Plan: class counts are one tiny aggregate (driver scalar ``m``);
    the per-class smallest-m selection is ONE ``grouped_topk``
    exchange — k rows per class per block ship, never raw classes."""
    from ..functions.sampling import group_sample
    from ..stages.aggregate import sorted_group_aggregate

    counts = sorted_group_aggregate(
        read_documents(sf_dir, columns=("doc_id", "lang"))
        .map_batches(lambda b: pa.table({
            "lang": b.column("lang"),
            "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        "lang", [("n", "sum")])
    m = min(r["n"] for r in counts.take_all())

    docs = read_documents(sf_dir, columns=("doc_id", "lang"))
    return group_sample(docs, group="lang", key_col="doc_id", k=int(m))


def nb_lang_predictions(sf_dir: str):
    """Distributed multinomial Naive Bayes over the documents table:
    train (class priors + add-1-smoothed per-class token likelihoods)
    and score in one pipeline, with EVERY number exact — counts are
    int64 partial sums, per-token log-likelihoods are quantized to
    integer micro-nats (``floor(ln(x) * 1e6)`` via ``math.log``, libm
    — bitwise equal to DuckDB ``ln``), so per-doc class scores are
    order-independent int64 reductions and the argmax is deterministic
    (ties break to the lexicographically first class, mirroring the
    oracle's ``ORDER BY score DESC, lang ASC``).

    Training IS counting for NB, so the distributed fit is exact by
    construction — the same mergeable-partials law as the HMM counts
    (A1–A4).  Plan: flat (doc_id, lang, token, tf) rows → per-class
    token counts via ``sorted_group_aggregate`` → widened to one row
    per token (class count columns) → LARGE×LARGE ``sorted_merge_join``
    back onto doc tokens (vocabulary-sized right side; no broadcast
    assumption) → vectorized micro-nat scoring per class → per-doc
    int64 sums → argmax.  Class metadata (5 rows) is the only thing
    the driver ever holds."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        doc_ids, lang_v, toks, tfs = [], [], [], []
        for d, lg, t in zip(batch.column("doc_id").to_pylist(),
                            batch.column("lang").to_pylist(),
                            batch.column("text").to_pylist()):
            for tok, n in Counter(_tokens(t)).items():
                doc_ids.append(d)
                lang_v.append(lg)
                toks.append(tok)
                tfs.append(n)
        return pa.table({"doc_id": pa.array(doc_ids, type=pa.int64()),
                         "lang": pa.array(lang_v, type=pa.string()),
                         "token": pa.array(toks, type=pa.string()),
                         "tf": pa.array(tfs, type=pa.int64())})

    docs = read_documents(sf_dir, columns=("doc_id", "text", "lang")) \
        .map_batches(lambda b: b.filter(
            pc.greater(pc.utf8_length(pc.utf8_trim_whitespace(
                b.column("text"))), 0)),
            batch_format="pyarrow", zero_copy_batch=True)
    tf_ds = docs.map_batches(tf_partial, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    # ---- class priors over the scored (non-empty) docs: tiny
    pri_rows = sorted_group_aggregate(
        docs.map_batches(lambda b: pa.table({
            "lang": b.column("lang"),
            "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow"),
        "lang", [("n_docs", "sum")]).take_all()
    langs = sorted(r["lang"] for r in pri_rows)
    n_docs_c = {r["lang"]: r["n_docs"] for r in pri_rows}
    n_docs = sum(n_docs_c.values())

    # ---- per-class token counts, then one wide row per token
    tc = sorted_group_aggregate(
        tf_ds.map_batches(lambda b: pa.table({
            "token": b.column("token"), "lang": b.column("lang"),
            "cnt": b.column("tf")}), batch_format="pyarrow"),
        ["token", "lang"], [("cnt", "sum")]).materialize()
    totals = {r["lang"]: r["cnt"]
              for r in sorted_group_aggregate(
                  tc, "lang", [("cnt", "sum")]).take_all()}

    def widen(batch: pa.Table) -> pa.Table:
        lv = batch.column("lang").to_numpy(zero_copy_only=False)
        cv = batch.column("cnt").to_numpy(zero_copy_only=False)
        cols = {"token": batch.column("token")}
        for lg in langs:
            cols[f"cnt_{lg}"] = pa.array(
                np.where(lv == lg, cv, 0).astype(np.int64))
        return pa.table(cols)

    wide = sorted_group_aggregate(
        tc.map_batches(widen, batch_format="pyarrow"),
        "token", [(f"cnt_{lg}", "sum") for lg in langs]).materialize()
    vocab_v = wide.count()

    joined = sorted_merge_join(tf_ds.drop_columns(["lang"]), wide,
                               on="token")

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        cols = {"doc_id": batch.column("doc_id")}
        for lg in langs:
            cnt = batch.column(f"cnt_{lg}").to_numpy(zero_copy_only=False)
            denom = float(totals[lg] + vocab_v)
            uniq, inv = np.unique(cnt, return_inverse=True)
            micro = np.array(
                [math.floor(math.log(float(u + 1) / denom) * 1e6)
                 for u in uniq], dtype=np.int64)[inv]
            cols[f"score_{lg}"] = pa.array(tf * micro, type=pa.int64())
        return pa.table(cols)

    sums = sorted_group_aggregate(
        joined.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True),
        "doc_id", [(f"score_{lg}", "sum") for lg in langs])

    prior_micro = np.array(
        [math.floor(math.log(float(n_docs_c[lg]) / float(n_docs)) * 1e6)
         for lg in langs], dtype=np.int64)
    lang_arr = np.array(langs)

    def finish(batch: pa.Table) -> pa.Table:
        s = np.stack([batch.column(f"score_{lg}")
                      .to_numpy(zero_copy_only=False)
                      for lg in langs], axis=1) + prior_micro[None, :]
        best = np.argmax(s, axis=1)          # first max = lang-asc tie
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(lang_arr[best], type=pa.string()),
            "score_micronats": pa.array(
                s[np.arange(len(best)), best], type=pa.int64())})

    return sums.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


_BM25_QUERIES = [
    (0, "hash join merge"),
    (1, "batch scan filter"),
    (2, "customer order table"),
]


def bm25_search(sf_dir: str, k: int = 10, k1: float = 1.2, b: float = 0.75):
    """BM25 ranking of the corpus against a FIXED small query set —
    the retrieval op a training-data pipeline runs to mine domain
    documents.

    Scale shape: with a bounded query vocabulary (here 9 terms) the
    token exchange disappears entirely — one streaming pass computes a
    doc-sized WIDE row (doc length + tf of each query term), the term
    document frequencies reduce to a 9-integer broadcast, and all
    queries score in ONE ``scored_topk`` scan (one ``[queries × docs]``
    matrix per block, k·n_blocks survivor rows per query merged on the
    driver, never a full sort).  The unbounded-vocabulary twin
    is ``tfidf_top_terms``/``token_postings`` (large×large token
    joins).

    Determinism: tf/df/dl are exact int64; idf uses ``math.log`` on
    the (tiny) distinct df values; the remaining float algebra is
    elementwise IEEE mirrored operand-for-operand by the SQL oracle,
    and each per-term contribution quantizes to integer micro-units
    BEFORE the per-doc sum, so scores are order-independent exactly
    like the LM/NB scorers."""
    import math

    from ..stages.topk import scored_topk

    terms = sorted({t for _, q in _BM25_QUERIES for t in q.split()})

    def doc_stats(batch: pa.Table) -> pa.Table:
        ids, dls = [], []
        tfs = {t: [] for t in terms}
        for d, txt in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            toks = _tokens(txt)
            if not toks:
                continue
            c = Counter(toks)
            ids.append(d)
            dls.append(len(toks))
            for t in terms:
                tfs[t].append(c.get(t, 0))
        cols = {"doc_id": pa.array(ids, type=pa.int64()),
                "dl": pa.array(dls, type=pa.int64())}
        for i, t in enumerate(terms):
            cols[f"tf_{i}"] = pa.array(tfs[t], type=pa.int64())
        return pa.table(cols)

    stats = read_documents(sf_dir).map_batches(
        doc_stats, batch_format="pyarrow",
        zero_copy_batch=True).materialize()

    # corpus constants: one tiny partial-sum pass (never a shuffle)
    def corpus_partial(batch: pa.Table) -> pa.Table:
        cols = {"n_docs": pa.array([batch.num_rows], type=pa.int64()),
                "sum_dl": pa.array([pc.sum(batch.column("dl")).as_py() or 0],
                                   type=pa.int64())}
        for i in range(len(terms)):
            df_i = int(pc.sum(pc.cast(pc.greater(
                batch.column(f"tf_{i}"), 0), pa.int64())).as_py() or 0)
            cols[f"df_{i}"] = pa.array([df_i], type=pa.int64())
        return pa.table(cols)

    parts = stats.map_batches(corpus_partial, batch_format="pyarrow",
                              zero_copy_batch=True).take_all()
    n_docs = sum(r["n_docs"] for r in parts)
    avgdl = float(sum(r["sum_dl"] for r in parts)) / float(n_docs)
    df = [sum(r[f"df_{i}"] for r in parts) for i in range(len(terms))]
    idf = np.array([math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
                    for d in df])[:, None]
    # W[q, t]: how often query q holds term t
    q_ids = np.array([qid for qid, _ in _BM25_QUERIES], dtype=np.int64)
    W = np.array([[q.split().count(t) for t in terms]
                  for _, q in _BM25_QUERIES], dtype=np.int64)

    def score(batch: pa.Table):
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        norm = k1 * (1.0 - b + b * (dl.astype(np.float64) / avgdl))
        tf = np.stack([batch.column(f"tf_{i}").to_numpy(zero_copy_only=False)
                       for i in range(len(terms))])     # [terms, docs]
        tfn = (tf * (k1 + 1.0)) / (tf + norm)
        part = np.floor(idf * tfn * 1e6).astype(np.int64) * (tf > 0)
        return (q_ids, batch.select(["doc_id"]), W @ part,
                (W @ (tf > 0)) > 0)

    return scored_topk(stats, score, k, "score_micro", exclude_self=False)


_MIX_WEIGHTS = {f"src{i}": (3 if i < 5 else 2 if i < 10 else 1)
                for i in range(20)}
_MIX_WEIGHT_TOTAL = 35


def mixture_token_budget(sf_dir: str, budget: int = 40_000):
    """Token-budget mixture planner with EPOCH REPETITION — the
    Dolma/Pile-style mixing step that turns per-source target weights
    plus a total token budget into a concrete training stream: each
    source owes ``R_s = budget * w_s // W`` tokens; sources with more
    tokens than that contribute a deterministic md5-hash-order PREFIX
    (the same reservoir rule as ``hash_sample``), sources with fewer
    repeat whole epochs (``R_s // T_s`` full copies) plus a prefix of
    the remainder — one output row per (doc, epoch).

    Every decision is a pure function of the data: token counts are
    exact int64, the per-source ledger (20 rows) is the only
    driver-side state, hash order is md5 (engine == DuckDB bitwise),
    and the prefix rule is an EXCLUSIVE running sum < remainder —
    computed distributed with the ``grouped_running_sum`` prefix-scan
    exchange.  Fully SQL-oracled (window cumsum + generate_series
    epochs)."""
    import hashlib

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.scan import grouped_running_sum

    def doc_tokens(batch: pa.Table) -> pa.Table:
        ids, srcs, toks, hs = [], [], [], []
        for d, s, t in zip(batch.column("doc_id").to_pylist(),
                           batch.column("source").to_pylist(),
                           batch.column("text").to_pylist()):
            n = len(_tokens(t))
            if n == 0:
                continue
            ids.append(d)
            srcs.append(s)
            toks.append(n)
            hs.append(int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "source": pa.array(srcs, type=pa.string()),
                         "n_tokens": pa.array(toks, type=pa.int64()),
                         "h": pa.array(hs, type=pa.int64())})

    d = read_documents(sf_dir, columns=("doc_id", "text", "source")) \
        .map_batches(doc_tokens, batch_format="pyarrow",
                     zero_copy_batch=True).materialize()

    totals = {r["source"]: r["n_tokens"]
              for r in sorted_group_aggregate(
                  d.map_batches(lambda b: b.select(["source", "n_tokens"]),
                                batch_format="pyarrow"),
                  "source", [("n_tokens", "sum")]).take_all()}
    # the 20-row ledger: owed tokens, full epochs, remainder prefix
    k_map, rem_map = {}, {}
    for s, t in totals.items():
        owed = budget * _MIX_WEIGHTS.get(s, 0) // _MIX_WEIGHT_TOTAL
        k_map[s] = owed // t
        rem_map[s] = owed - k_map[s] * t

    def full_epochs(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        k = np.array([k_map[s] for s in srcs], dtype=np.int64)
        idx = np.repeat(np.arange(batch.num_rows), k)
        epoch = np.concatenate([np.arange(n, dtype=np.int64)
                                for n in k]) if len(k) else \
            np.array([], dtype=np.int64)
        t = batch.take(pa.array(idx))
        return pa.table({"doc_id": t.column("doc_id"),
                         "source": t.column("source"),
                         "epoch": pa.array(epoch, type=pa.int64()),
                         "n_tokens": t.column("n_tokens")})

    full = d.map_batches(full_epochs, batch_format="pyarrow")

    run = grouped_running_sum(d, key="source", order_cols=["h", "doc_id"],
                              value_col="n_tokens", out_name="cum")

    def prefix_rows(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        cum = batch.column("cum").to_numpy(zero_copy_only=False)
        ntok = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        rem = np.array([rem_map[s] for s in srcs], dtype=np.int64)
        keep = (cum - ntok) < rem                # EXCLUSIVE cumsum rule
        t = batch.filter(pa.array(keep))
        k = np.array([k_map[s] for s in t.column("source").to_pylist()],
                     dtype=np.int64)
        return pa.table({"doc_id": t.column("doc_id"),
                         "source": t.column("source"),
                         "epoch": pa.array(k, type=pa.int64()),
                         "n_tokens": t.column("n_tokens")})

    extra = run.map_batches(prefix_rows, batch_format="pyarrow")
    return full.union(extra)


def source_ngram_overlap(sf_dir: str, n: int = 3):
    """Cross-source contamination matrix: for every source pair, how
    many DISTINCT token n-grams they share — the sweep a curation
    pipeline runs to find sources that plagiarize/mirror each other
    before assigning mixture weights (the pairwise generalization of
    eval-set decontamination).

    Plan: doc text reduces to DISTINCT (source, ngram) rows immediately
    (map-side set per doc, then one ``sorted_group_aggregate``), so the
    join input is vocabulary×source-sized, never corpus-sized; the
    pair count is a self sorted-merge join on the ngram — per-ngram
    fan-out is bounded by (#sources)², a constant — followed by one
    result-sized aggregate.  Output: (source_a, source_b, n_shared)
    for pairs sharing at least one n-gram."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    def grams(batch: pa.Table) -> pa.Table:
        srcs, gs = [], []
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            for g in {" ".join(toks[i:i + n])
                      for i in range(len(toks) - n + 1)}:
                srcs.append(s)
                gs.append(g)
        return pa.table({"source": pa.array(srcs, type=pa.string()),
                         "ngram": pa.array(gs, type=pa.string()),
                         "one": pa.array(np.ones(len(gs), dtype=np.int64))})

    sg = sorted_group_aggregate(
        read_documents(sf_dir, columns=("doc_id", "text", "source"))
        .map_batches(grams, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "ngram"], [("one", "sum")]).drop_columns(["one"]) \
        .materialize()

    left = sg.map_batches(lambda b: pa.table({
        "ngram": b.column("ngram"), "source_a": b.column("source")}),
        batch_format="pyarrow")
    right = sg.map_batches(lambda b: pa.table({
        "ngram": b.column("ngram"), "source_b": b.column("source")}),
        batch_format="pyarrow")
    pairs = sorted_merge_join(left, right, on="ngram")

    def keep_lt(b: pa.Table) -> pa.Table:
        m = pc.less(b.column("source_a"), b.column("source_b"))
        t = b.filter(pc.fill_null(m, False))
        return pa.table({
            "source_a": t.column("source_a"),
            "source_b": t.column("source_b"),
            "n_shared": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    return sorted_group_aggregate(
        pairs.map_batches(keep_lt, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["source_a", "source_b"], [("n_shared", "sum")], precombine=True)


def token_collocations(sf_dir: str, k: int = 50, min_count: int = 5):
    """Top-k collocations (adjacent token pairs) by pointwise mutual
    information with a support floor — the phrase-mining pass that
    feeds tokenizer/vocab decisions.  PMI = ln(c12·N / (c1·c2)) with
    every count an exact int64 from the same mergeable bigram/unigram
    partials as the LM scorers; the log runs on integers mirrored
    exactly by the oracle (libm == DuckDB ln), and the top-k is the
    ``global_topk`` exchange under (pmi DESC, w1, w2).

    Plan: one pass emits per-block bigram/unigram count partials; two
    ``sorted_group_aggregate`` exchanges reduce them; the bigram table
    joins its two unigram legs via sorted-merge joins (vocabulary-
    sized, no broadcast assumption); scoring is vectorized; only
    k·n_blocks survivor rows reach the driver."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import global_topk

    def pair_partial(batch: pa.Table) -> pa.Table:
        w1s, w2s, ns = [], [], []
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            for (a, b), c in Counter(zip(toks, toks[1:])).items():
                w1s.append(a)
                w2s.append(b)
                ns.append(c)
        return pa.table({"w1": pa.array(w1s, type=pa.string()),
                         "w2": pa.array(w2s, type=pa.string()),
                         "c12": pa.array(ns, type=pa.int64())})

    pairs = sorted_group_aggregate(
        read_documents(sf_dir).map_batches(
            pair_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["w1", "w2"], [("c12", "sum")]).materialize()
    # unigram counts AS BIGRAM ENDPOINTS (left/right marginals of the
    # pair table — the standard collocation normalization)
    c1 = sorted_group_aggregate(
        pairs.map_batches(lambda b: pa.table({
            "w1": b.column("w1"), "c1": b.column("c12")}),
            batch_format="pyarrow"),
        ["w1"], [("c1", "sum")])
    c2 = sorted_group_aggregate(
        pairs.map_batches(lambda b: pa.table({
            "w2": b.column("w2"), "c2": b.column("c12")}),
            batch_format="pyarrow"),
        ["w2"], [("c2", "sum")])
    n_total = pairs.sum("c12")

    strong = pairs.filter(expr=f"c12 >= {int(min_count)}")
    j = sorted_merge_join(sorted_merge_join(strong, c1, on="w1"),
                          c2, on="w2")

    def score(b: pa.Table) -> pa.Table:
        c12 = b.column("c12").to_numpy(zero_copy_only=False)
        a = b.column("c1").to_numpy(zero_copy_only=False)
        c = b.column("c2").to_numpy(zero_copy_only=False)
        keys = {}
        pmi = np.empty(len(c12), dtype=np.float64)
        for i in range(len(c12)):
            t = (int(c12[i]), int(a[i]), int(c[i]))
            v = keys.get(t)
            if v is None:
                v = math.log(float(t[0] * n_total) / float(t[1] * t[2]))
                keys[t] = v
            pmi[i] = v
        return pa.table({"w1": b.column("w1"), "w2": b.column("w2"),
                         "c12": pa.array(c12, type=pa.int64()),
                         "pmi": pa.array(pmi, type=pa.float64())})

    return global_topk(j.map_batches(score, batch_format="pyarrow",
                                     zero_copy_batch=True),
                       [("pmi", "descending"), ("w1", "ascending"),
                        ("w2", "ascending")], k)


_GOPHER_STOP = ("the", "and", "of", "to")


def gopher_rule_flags(sf_dir: str, min_tokens: int = 10,
                      max_tokens: int = 1000):
    """Gopher-style hard quality rules as per-document flags plus the
    composite keep decision — the rule-based pre-filter stage of a
    pretraining pipeline (Rae et al. 2021 §A1.1, adapted to this
    corpus' ranges).

    Every rule is an INTEGER comparison (mean-length bounds via
    cross-multiplication, ratios via ``5·n_alpha ≥ 4·n_tokens``), so
    there is no float anywhere and the SQL mirror is exact by
    construction.  One vectorized scan; no exchange at all — the
    100 TB plan is embarrassingly parallel."""
    import re

    alpha = re.compile(r"[a-zA-Z]")
    stop = set(_GOPHER_STOP)

    def flags(batch: pa.Table) -> pa.Table:
        ids, nt, nc, na, ns = [], [], [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = _tokens(t)
            if not toks:
                continue
            ids.append(d)
            nt.append(len(toks))
            nc.append(sum(len(w) for w in toks))
            na.append(sum(1 for w in toks if alpha.search(w)))
            ns.append(sum(1 for w in toks if w in stop))
        nt_a = np.array(nt, dtype=np.int64)
        nc_a = np.array(nc, dtype=np.int64)
        na_a = np.array(na, dtype=np.int64)
        ns_a = np.array(ns, dtype=np.int64)
        r1 = (nt_a >= min_tokens) & (nt_a <= max_tokens)
        r2 = (3 * nt_a <= nc_a) & (nc_a <= 10 * nt_a)
        r3 = 5 * na_a >= 4 * nt_a
        r4 = ns_a >= 1
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(nt_a),
            "n_token_chars": pa.array(nc_a),
            "n_alpha_tokens": pa.array(na_a),
            "n_stopwords": pa.array(ns_a),
            "rule_len": pa.array(r1),
            "rule_mean_len": pa.array(r2),
            "rule_alpha": pa.array(r3),
            "rule_stop": pa.array(r4),
            "keep": pa.array(r1 & r2 & r3 & r4)})

    return read_documents(sf_dir).map_batches(
        flags, batch_format="pyarrow", zero_copy_batch=True)


def token_cms_counts(sf_dir: str, k: int = 50, depth: int = 4,
                     width: int = 1024):
    """Count-Min sketch token counts, reported against exact truth for
    the top-``k`` tokens — the third sketch next to HLL (distinct) and
    Misra-Gries (exact heavy hitters): fixed O(depth·width) memory per
    block regardless of vocabulary size, mergeable by plain addition.

    Per block ONE flattened int64 CMS matrix ships to the driver
    (block-count-sized, never vocabulary-sized); row hashes are the
    salted deterministic polyhash, so the folded sketch is a pure
    function of the data and the committed fixture is an exact oracle.
    The CMS guarantee (estimate ≥ true count) is pinned by test.

    Output: (token, exact_cnt, cms_estimate) for the exact top-k."""
    from ..functions.hashing import polyhash64_batch

    def block_cms(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(_tokens(t))
        cms = np.zeros((depth, width), dtype=np.int64)
        if c:
            toks = list(c.keys())
            cnts = np.array(list(c.values()), dtype=np.int64)
            for r in range(depth):
                salted = pa.array([f"{r}|{t}" for t in toks],
                                  type=pa.string())
                idx = (polyhash64_batch(salted)
                       % np.uint64(width)).astype(np.int64)
                np.add.at(cms[r], idx, cnts)
        return pa.table({"cms": [cms.reshape(-1).tolist()]})

    parts = read_documents(sf_dir, columns=("text",)).map_batches(
        block_cms, batch_format="pyarrow", zero_copy_batch=True).take_all()
    cms = np.zeros(depth * width, dtype=np.int64)
    for r in parts:
        cms += np.array(r["cms"], dtype=np.int64)
    cms = cms.reshape(depth, width)

    top = token_topk(sf_dir, k=k)
    top = top.to_pandas() if hasattr(top, "to_pandas") else top
    toks = top["token"].tolist()
    est = np.full(len(toks), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(depth):
        salted = pa.array([f"{r}|{t}" for t in toks], type=pa.string())
        idx = (polyhash64_batch(salted) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, cms[r, idx])
    return pa.table({
        "token": pa.array(toks, type=pa.string()),
        "exact_cnt": pa.array(top["cnt"].to_numpy().astype(np.int64)),
        "cms_estimate": pa.array(est, type=pa.int64())})


def nb_confusion(sf_dir: str):
    """Confusion matrix of the Naive Bayes language classifier against
    the gold ``lang`` labels — the model-evaluation aggregate every
    training-data pipeline runs after a filter model is fit (is the
    lang-ID gate dropping the right documents?).

    Composition, not new machinery: :func:`nb_lang_predictions`
    (exact-integer NB, doc-sized output) ⋈ the gold labels on doc_id
    (one ``sorted_merge_join`` — never a broadcast: at 100 TB the
    prediction table is corpus-sized) → one class²-sized aggregate.
    Gold labels are read with ``columns=['doc_id','lang']`` only.
    Every count is an int64 partial sum, so the matrix is bitwise
    reproducible and the SQL oracle (the NB oracle's CTE chain with a
    GROUP BY tail) matches exactly."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join

    pred = nb_lang_predictions(sf_dir)
    gold = read_documents(sf_dir, columns=("doc_id", "lang"))
    joined = sorted_merge_join(pred, gold, on="doc_id")
    return sorted_group_aggregate(
        joined.map_batches(lambda b: pa.table({
            "lang": b.column("lang"),
            "pred_lang": b.column("pred_lang"),
            "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "pred_lang"], [("n_docs", "sum")])


def source_group_splits(sf_dir: str):
    """GROUP-aware train/val/test assignment: the split is a pure
    function of the document's SOURCE (md5(source) bucket of 1000 →
    train < 800, val < 900, test otherwise), so every document from
    one source lands in the same split.

    This is the leakage-safe variant of :func:`doc_splits` (which
    hashes the doc_id): near-duplicate documents overwhelmingly live
    within a source/site, so a row-hash split leaks train material
    into eval through those near-copies, while a group hash cannot —
    the standard discipline for web-crawl eval sets.  Same engine
    shape: a pure streaming append, zero shuffle, stable under corpus
    growth and resume."""
    from ..functions.sampling import split_assign

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    return split_assign(docs, "source", bounds=(800, 900))


def source_keyness_tokens(sf_dir: str, k_top: int = 5,
                          min_total: int = 5):
    """Per-source keyword extraction by log-likelihood keyness (the
    Dunning G² statistic corpus linguists use to ask "which tokens are
    over-represented in THIS source vs the rest of the corpus") — the
    per-subcorpus complement of ``tfidf_top_terms``'s per-document
    view.  For token t in source s with a = count(t, s),
    b = count(t, rest), Na/Nb the source/rest token totals and
    N = Na + Nb:

        G² = 2·( a·ln(aN / (Na(a+b))) + b·ln(bN / (Nb(a+b))) )

    kept only when over-represented (``a·Nb > b·Na`` — an exact
    integer cross-multiplication, no float threshold) and supported
    (``a+b ≥ min_total``).  Every ln argument is a ratio of two exact
    int64 products rounded to double once each (the ``copurchase_pmi``
    mirror rule; ``math.log`` = libm = DuckDB ``ln`` bitwise — numpy's
    SIMD log drifts 1 ulp).  Int64 bound: a·N < 2⁶³ holds to ~10⁹-token
    corpora per source-token cell; past that the products move to
    float like the oracle's DOUBLE overflow behavior would force.

    Plan (all distributed, vocabulary-sized after the first reduce):
    flat (source, token) partials → one combined aggregate → token
    totals by a second vocab-sized aggregate → LARGE×LARGE
    ``sorted_merge_join`` on token (no broadcast-vocab assumption) →
    source totals broadcast as a dict (sources are few by
    construction) → vectorized scoring → ``grouped_topk`` per source."""
    import math

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import grouped_topk

    def tf_partial(batch: pa.Table) -> pa.Table:
        srcs, toks, cs = [], [], []
        for s, t in zip(batch.column("source").to_pylist(),
                        batch.column("text").to_pylist()):
            for tok, n in Counter(_tokens(t)).items():
                srcs.append(s)
                toks.append(tok)
                cs.append(n)
        return pa.table({"source": pa.array(srcs, type=pa.string()),
                         "token": pa.array(toks, type=pa.string()),
                         "a": pa.array(cs, type=pa.int64())})

    st = sorted_group_aggregate(
        read_documents(sf_dir, columns=("doc_id", "text", "source"))
        .map_batches(tf_partial, batch_format="pyarrow",
                     zero_copy_batch=True),
        ["source", "token"], [("a", "sum")], precombine=True).materialize()

    tt = sorted_group_aggregate(
        st.map_batches(lambda b: pa.table({
            "token": b.column("token"), "ct": b.column("a")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["token"], [("ct", "sum")])

    srct = sorted_group_aggregate(
        st.map_batches(lambda b: pa.table({
            "source": b.column("source"), "na": b.column("a")}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["source"], [("na", "sum")]).take_all()
    na_of = {r["source"]: int(r["na"]) for r in srct}
    n_total = sum(na_of.values())

    joined = sorted_merge_join(st, tt, on="token")

    def score(batch: pa.Table, na_of=na_of, n=n_total) -> pa.Table:
        src = batch.column("source").to_pylist()
        a = batch.column("a").to_numpy(zero_copy_only=False)
        ct = batch.column("ct").to_numpy(zero_copy_only=False)
        b = ct - a
        na = np.array([na_of[s] for s in src], dtype=np.int64)
        nb = n - na
        keep = (ct >= min_total) & (a * nb > b * na)
        t = batch.filter(pa.array(keep))
        a, b, na, nb = a[keep], b[keep], na[keep], nb[keep]
        ky = np.empty(len(a), dtype=np.float64)
        for i in range(len(a)):
            ai, bi, nai, nbi = int(a[i]), int(b[i]), int(na[i]), int(nb[i])
            ta = float(ai) * math.log(float(ai * n)
                                      / float(nai * (ai + bi)))
            tb = (float(bi) * math.log(float(bi * n)
                                       / float(nbi * (ai + bi)))
                  if bi > 0 else 0.0)
            ky[i] = 2.0 * (ta + tb)
        return pa.table({
            "source": t.column("source"), "token": t.column("token"),
            "n_source": t.column("a"),
            "n_rest": pa.array(b, type=pa.int64()),
            "keyness": pa.array(ky, type=pa.float64())})

    scored = joined.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True)
    return grouped_topk(scored, group="source", order_col="keyness",
                        tiebreak="token", k=k_top, descending=True) \
        .sort(["source", "rank"])


def token_zipf_slope(sf_dir: str, k_top: int = 1000):
    """Zipf-law fit over the corpus frequency spectrum: OLS slope of
    ln(freq) on ln(rank) for the top ``k_top`` tokens — the standard
    corpus-health diagnostic (natural text slopes ≈ −1; template spam
    and boilerplate bend it).  The companion of ``vocab_growth_curve``
    (Heaps) on the frequency axis.

    Determinism: ln(rank) and ln(count) are quantized to integer
    micro-nats (``floor(ln·1e6)`` — the ``unigram_logprob`` rule), so
    the five OLS moments are EXACT integer sums; they exceed int64
    (Σlx·ly ~ 10¹⁷, n·Σ ~ 10²⁰) so both sides carry them as big ints
    (Python int / SQL HUGEINT) and round to double exactly twice: the
    slope division and the intercept assembly.  Rank ties are
    impossible (rank is a ROW_NUMBER over (count DESC, token)).

    Plan: one vocab aggregate → global (cnt, token) sort → limit
    ``k_top``; only the k_top regression points reach the driver (the
    regression input IS output-sized)."""
    import math

    from ..stages.aggregate import sorted_group_aggregate

    def tf_partial(batch: pa.Table) -> pa.Table:
        toks, cs = [], []
        for t in batch.column("text").to_pylist():
            for tok, n in Counter(_tokens(t)).items():
                toks.append(tok)
                cs.append(n)
        return pa.table({"token": pa.array(toks, type=pa.string()),
                         "cnt": pa.array(cs, type=pa.int64())})

    counts = sorted_group_aggregate(
        read_documents(sf_dir).map_batches(
            tf_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["token"], [("cnt", "sum")], precombine=True)
    top = counts.sort(["cnt", "token"],
                      descending=[True, False]).limit(k_top).take_all()

    n = len(top)
    sx = sy = sxx = sxy = 0
    for i, row in enumerate(top):
        r, c = i + 1, int(row["cnt"])
        lx = int(math.floor(math.log(float(r)) * 1e6))
        ly = int(math.floor(math.log(float(c)) * 1e6))
        sx += lx
        sy += ly
        sxx += lx * lx
        sxy += lx * ly
    num, den = n * sxy - sx * sy, n * sxx - sx * sx
    slope = float(num) / float(den) if den else 0.0
    intercept = (float(sy) - slope * float(sx)) / float(n) if n else 0.0
    return pa.table({
        "n_points": pa.array([n], type=pa.int64()),
        "slope": pa.array([slope], type=pa.float64()),
        "intercept_micronats": pa.array([intercept], type=pa.float64())})


def token_burstiness(sf_dir: str, k_top: int = 20, min_count: int = 30):
    """Token burstiness (Church–Gale): variance-to-mean ratio of a
    token's per-document count over ALL documents (zeros included) —
    the content/function-word separator.  A Poisson-scattered function
    word has VMR ≈ 1; topical tokens arrive in bursts (VMR ≫ 1).

    With D docs, s = Σc, s2 = Σc² over the token's nonzero docs, the
    zero-inclusive sample VMR collapses to exact integers:
    ``(D·s2 − s²) / (s·(D−1))`` — one mirrored IEEE division per
    token.  Int64 bound: D·s2 < 2⁶³ holds while D·s² of the hottest
    token stays under ~9·10¹⁸ (to ~10⁹-doc corpora for stopword-class
    tokens); past that the moments need decimal128.

    Plan: flat (doc, token) partials → one combined aggregate → a
    vocab-sized moment aggregate → global top-k sort.  Nothing
    document-sized is shuffled twice."""
    from ..stages.aggregate import sorted_group_aggregate

    docs = read_documents(sf_dir)
    n_docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"]).count()

    def dt_partial(batch: pa.Table) -> pa.Table:
        ds_, toks, cs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            for tok, n in Counter(_tokens(t)).items():
                ds_.append(d)
                toks.append(tok)
                cs.append(n)
        return pa.table({"doc_id": pa.array(ds_, type=pa.int64()),
                         "token": pa.array(toks, type=pa.string()),
                         "c": pa.array(cs, type=pa.int64())})

    dt = sorted_group_aggregate(
        docs.map_batches(dt_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["doc_id", "token"], [("c", "sum")], precombine=True)

    mom = sorted_group_aggregate(
        dt.map_batches(lambda b: pa.table({
            "token": b.column("token"),
            "df": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "s": b.column("c"),
            "s2": pc.multiply(b.column("c"), b.column("c"))}),
            batch_format="pyarrow", zero_copy_batch=True),
        ["token"], [("df", "sum"), ("s", "sum"), ("s2", "sum")])

    def score(b: pa.Table, d=n_docs) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("s"),
                                      pa.scalar(min_count,
                                                type=pa.int64())))
        s = t.column("s").to_numpy(zero_copy_only=False)
        s2 = t.column("s2").to_numpy(zero_copy_only=False)
        vmr = ((d * s2 - s * s).astype(np.float64)
               / (s * (d - 1)).astype(np.float64))
        return pa.table({
            "token": t.column("token"), "df": t.column("df"),
            "total_count": t.column("s"), "sum_sq": t.column("s2"),
            "vmr": pa.array(vmr, type=pa.float64())})

    top = (mom.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True)
           .sort(["vmr", "token"], descending=[True, False])
           .limit(k_top).take_all())
    rank = pa.array(np.arange(1, len(top) + 1, dtype=np.int64))
    cols = {c: pa.array([r[c] for r in top]) for c in
            ("token", "df", "total_count", "sum_sq", "vmr")}
    cols["rank"] = rank
    return pa.table(cols)


_PHRASES = [
    (0, "hash join"),
    (1, "sort merge"),
    (2, "table scan"),
    (3, "batch batch batch"),
]


def phrase_search(sf_dir: str, k_top: int = 5):
    """Index-backed exact phrase query over positional postings — the IR
    op ``token_postings`` can't answer (document postings lose word
    order).  For each fixed phrase, the top-``k_top`` documents by
    occurrence count (ties → lower doc_id), counting EVERY start
    position (overlapping matches included: "batch batch batch" counts
    twice in a 4-token "batch" run, and the oracle's position self-join
    agrees by construction).

    Plan: ONE tokenize pass emits positional postings for the query
    vocabulary only (``(slot, doc_id, pos)`` — O(query-term
    occurrences), never the full corpus token stream), materialized
    once and reused by all phrases.  Adjacency is relational: token j
    of a phrase joins on the composite key ``(doc_id, pos − j)`` via
    ``sorted_merge_join``, so an m-token phrase is m−1 streaming
    composite-key joins whose intermediates shrink monotonically;
    per-doc counts reduce on the aggregate exchange and only
    ``k_top`` rows per phrase survive ``grouped_topk``.  At 100 TB the
    postings build is the only corpus-sized pass; everything after is
    sized by the query terms' document frequency."""
    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.join import sorted_merge_join
    from ..stages.topk import grouped_topk

    terms = sorted({t for _, p in _PHRASES for t in p.split()})
    slot = {t: i for i, t in enumerate(terms)}

    def postings(batch: pa.Table) -> pa.Table:
        docs, poss, slots = [], [], []
        for d, txt in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            for i, tok in enumerate(_tokens(txt)):
                s = slot.get(tok)
                if s is not None:
                    docs.append(d)
                    poss.append(i + 1)      # 1-based == generate_subscripts
                    slots.append(s)
        return pa.table({"slot": pa.array(slots, type=pa.int64()),
                         "doc_id": pa.array(docs, type=pa.int64()),
                         "pos": pa.array(poss, type=pa.int64())})

    post = (read_documents(sf_dir)
            .map_batches(postings, batch_format="pyarrow",
                         zero_copy_batch=True).materialize())

    def term_positions(term: str, shift: int):
        s = slot[term]

        def shifted(b: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc
            return pa.table({
                "doc_id": b.column("doc_id"),
                "pos": _pc.subtract(b.column("pos"),
                                    pa.scalar(shift, type=pa.int64()))})

        return (post.filter(expr=f"slot == {s}")
                .map_batches(shifted, batch_format="pyarrow",
                             zero_copy_batch=True))

    per_phrase = []
    for pid, phrase in _PHRASES:
        toks = phrase.split()
        cur = term_positions(toks[0], 0)
        for j in range(1, len(toks)):
            cur = sorted_merge_join(cur, term_positions(toks[j], j),
                                    on=["doc_id", "pos"])
        counts = sorted_group_aggregate(
            cur.map_batches(lambda b: pa.table({
                "doc_id": b.column("doc_id"),
                "n_matches": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["doc_id"], [("n_matches", "sum")])
        def tag(b: pa.Table, _pid=pid) -> pa.Table:
            # sorts/exchanges can emit schema-LESS empty blocks (they
            # break downstream schema unification → ds.schema() None):
            # substitute a typed empty
            if b.num_rows == 0 or "doc_id" not in b.schema.names:
                return pa.table({
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_matches": pa.array([], type=pa.int64()),
                    "phrase_id": pa.array([], type=pa.int64())})
            return b.append_column(
                "phrase_id", pa.array(np.full(b.num_rows, _pid,
                                              dtype=np.int64)))

        # materialize: match-count-sized; grouped_topk needs ds.schema()
        tagged = counts.map_batches(tag, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()
        if tagged.schema() is None:
            # a phrase with ZERO matches anywhere: Ray passes the
            # schema-less empty blocks through without calling ``tag``
            # (map fns are skipped on empty input blocks), so the
            # materialized dataset has no schema at all.  The phrase
            # legitimately contributes no rows — skip it.
            continue
        per_phrase.append(grouped_topk(tagged, group="phrase_id",
                                       order_col="n_matches",
                                       tiebreak="doc_id", k=k_top,
                                       descending=True))

    if not per_phrase:
        return pa.table({"phrase_id": pa.array([], type=pa.int64()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "n_matches": pa.array([], type=pa.int64()),
                         "rank": pa.array([], type=pa.int64())})
    out = per_phrase[0]
    for ds in per_phrase[1:]:
        out = out.union(ds)
    return (out.select_columns(["phrase_id", "doc_id", "n_matches", "rank"])
            .sort(["phrase_id", "rank"]))


def token_skipgram_counts(sf_dir: str, max_dist: int = 2,
                          k_top: int = 40):
    """Skip-gram pair counts — the co-occurrence statistic word2vec-
    style embedding trainers and PMI matrices consume: ordered token
    pairs (w1 before w2) at distance 1..``max_dist`` within a
    document, counted corpus-wide per (w1, w2, dist); top ``k_top`` by
    (count desc, w1, w2, dist).  Per-batch Counter partials (the
    `token_topk` discipline) keep the exchange vocabulary²-bounded;
    the SQL mirror is a positional self-join."""
    from collections import Counter

    import pyarrow.compute as pc  # noqa: F401

    from ..stages.aggregate import sorted_group_aggregate
    from ..stages.topk import global_topk

    def partial(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            toks = _tokens(t)
            for d in range(1, max_dist + 1):
                for a, b in zip(toks, toks[d:]):
                    c[(a, b, d)] += 1
        ks = list(c.keys())
        return pa.table({
            "w1": pa.array([k[0] for k in ks], type=pa.string()),
            "w2": pa.array([k[1] for k in ks], type=pa.string()),
            "dist": pa.array([k[2] for k in ks], type=pa.int64()),
            "cnt": pa.array([c[k] for k in ks], type=pa.int64())})

    counts = sorted_group_aggregate(
        read_documents(sf_dir, columns=("text",)).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True),
        ["w1", "w2", "dist"], [("cnt", "sum")], precombine=False)

    def neg(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.append_column("neg_cnt", pc.negate(b.column("cnt")))

    top = global_topk(counts.map_batches(neg, batch_format="pyarrow",
                                         zero_copy_batch=True),
                      [("neg_cnt", "ascending"), ("w1", "ascending"),
                       ("w2", "ascending"), ("dist", "ascending")],
                      k_top)
    return top.select(["w1", "w2", "dist", "cnt"])


def doc_weighted_sample(sf_dir: str, k: int = 100):
    """Deterministic weighted sampling without replacement — the
    quality-weighted mixture-sampling primitive of a training-data
    pipeline (pick k documents with probability ∝ weight, here weight
    = n_chars + 1), via the Efraimidis–Vattis exponential-race keys:
    priority = −ln(u)/w with u = (md5₁₅(doc_id)+1)/2⁶⁰, smallest k
    win.  Every float op is operand-mirrored in the SQL oracle
    (``math.log`` is bitwise-identical to DuckDB ``ln``; the u and
    priority divisions are single IEEE ops on identical operands —
    numpy's SIMD log is NOT portable, so the log runs through
    ``math.log`` per candidate).  Output is integer-only.

    Scale plan: priorities are a pure per-row function; selection is
    `global_topk` (each block ships only its local top-k)."""
    import hashlib
    import math

    from ..stages.topk import global_topk

    def prio(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        ws = batch.column("n_chars").to_pylist()
        ps = []
        for i, w in zip(ids, ws):
            h = int(hashlib.md5(str(i).encode()).hexdigest()[:15], 16)
            u = (h + 1) / 1152921504606846976.0
            ps.append(-math.log(u) / (w + 1))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            "prio": pa.array(ps, type=pa.float64())})

    top = global_topk(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "n_chars"]).map_batches(
            prio, batch_format="pyarrow", zero_copy_batch=True),
        [("prio", "ascending"), ("doc_id", "ascending")], k)
    n = top.num_rows
    return pa.table({
        "doc_id": top.column("doc_id"),
        "n_chars": top.column("n_chars"),
        "rank": pa.array(np.arange(1, n + 1, dtype=np.int64))})


def cross_source_dup_matrix(sf_dir: str):
    """Cross-source duplication matrix — the crawl-quality readout
    that tells a curation team WHERE near-duplicates come from
    (mirrors within one source vs syndication across sources): the
    MinHash-LSH near-dup pairs of `dedup.minhash_lsh_pairs`, each
    endpoint joined to its document's source, counted per unordered
    (source_a ≤ source_b) cell.  Pair endpoints resolve through a
    broadcast doc→source map (document-count-sized metadata — at
    crawl scale swap for two sorted joins, the `kg_graph_diff`
    shape).  Fixture oracle."""
    import ray

    from ..pipelines import dedup as _dedup
    from ..stages.aggregate import sorted_group_aggregate

    src_map = {}
    for t in ray.get(
            rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "source"]
                            ).to_arrow_refs()):
        if t.num_rows:
            for d, s in zip(t.column("doc_id").to_pylist(),
                            t.column("source").to_pylist()):
                src_map[d] = s

    pairs = _dedup.minhash_lsh_pairs(sf_dir)
    if isinstance(pairs, pa.Table):        # driver-verified plan
        pairs = rd.from_arrow(pairs)

    def cells(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "doc_a" not in b.schema.names:
            return pa.table({
                "source_a": pa.array([], type=pa.string()),
                "source_b": pa.array([], type=pa.string()),
                "n_pairs": pa.array([], type=pa.int64())})
        sa = [src_map[d] for d in b.column("doc_a").to_pylist()]
        sb = [src_map[d] for d in b.column("doc_b").to_pylist()]
        lo = [min(x, y) for x, y in zip(sa, sb)]
        hi = [max(x, y) for x, y in zip(sa, sb)]
        return pa.table({
            "source_a": pa.array(lo, type=pa.string()),
            "source_b": pa.array(hi, type=pa.string()),
            "n_pairs": pa.array(np.ones(len(lo), dtype=np.int64))})

    return sorted_group_aggregate(
        pairs.map_batches(cells, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["source_a", "source_b"], [("n_pairs", "sum")],
        precombine=True).sort(["source_a", "source_b"])
