"""HTML→text extraction and sentence/tokenize stages (stateless).

All functions are Arrow-batch transforms for
``map_batches(..., batch_format="pyarrow", zero_copy_batch=True)``.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.html_text import html_to_text

__all__ = ["extract_text", "check_extraction", "split_sentences",
           "SENTENCES_SCHEMA", "tokenize_line"]

SENTENCES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("sent_id", pa.int32()),
    ("tokens", pa.list_(pa.string())),
    ("lang", pa.string()),
])


def extract_text(batch: pa.Table) -> pa.Table:
    """pages(url, warc_ts, html, ...) → (url, text_extracted, lang),
    plus the page's ``group`` when the batch has one.

    The per-url byte-identical invariant is against this function's
    output (BASELINE.json input_hint); `check_extraction` verifies it.
    """
    texts = [html_to_text(h) for h in batch.column("html").to_pylist()]
    cols = {"url": batch.column("url"),
            "text_extracted": pa.array(texts, type=pa.string()),
            "lang": batch.column("lang")}
    if "group" in batch.column_names:
        cols["group"] = batch.column("group")
    return pa.table(cols)


def check_extraction(batch: pa.Table) -> pa.Table:
    """pages → per-url invariant check rows (url, ok)."""
    expected = batch.column("text").to_pylist()
    got = [html_to_text(h) for h in batch.column("html").to_pylist()]
    ok = [g == e for g, e in zip(got, expected)]
    return pa.table({"url": batch.column("url"),
                     "ok": pa.array(ok, type=pa.bool_())})


def tokenize_line(line: str, lang: str) -> list:
    """Whitespace tokens for space-delimited languages; characters
    (spaces dropped) for zh — the reference's two tokenization modes
    (M3: whitespace split vs. pre-split chars, Chinese/train.txt)."""
    if lang == "zh":
        return [ch for ch in line if not ch.isspace()]
    return line.split()


def split_sentences(batch: pa.Table) -> pa.Table:
    """(url, text_extracted, lang) → exploded sentences table.

    One sentence per extracted text line (the corpus's layout); carries
    explicit (url, sent_id) keys so downstream order never matters
    (SURVEY.md §2.9).  A page's ``group``, when present, goes to each
    of its sentences.
    """
    urls_out, sids, toks, langs_out, pages = [], [], [], [], []
    for page, (url, text, lang) in enumerate(zip(
            batch.column("url").to_pylist(),
            batch.column("text_extracted").to_pylist(),
            batch.column("lang").to_pylist())):
        for sid, line in enumerate(text.split("\n")):
            tk = tokenize_line(line, lang)
            if not tk:
                continue
            urls_out.append(url)
            sids.append(sid)
            toks.append(tk)
            langs_out.append(lang)
            pages.append(page)
    cols = {"url": pa.array(urls_out, type=pa.string()),
            "sent_id": pa.array(sids, type=pa.int32()),
            "tokens": pa.array(toks, type=pa.list_(pa.string())),
            "lang": pa.array(langs_out, type=pa.string())}
    if "group" in batch.column_names:
        cols["group"] = batch.column("group").take(pa.array(pages, type=pa.int64()))
    return pa.table(cols)
