"""Per-layer measurements, taken from the benchmark's side of each layer.

Three levels, all named after kgray's own modules:

* **kernel rows** call each layer's public function in this process,
  without Ray, on the workload's own pages, and report work per CPU
  second of the calling thread;
* **operator rows** read ``Dataset._get_stats_summary()`` of every
  Dataset ``run_kg`` writes, captured by wrapping
  ``Dataset.write_parquet``, and fold Ray's (fusion-dependent) operator
  names into stable stage names;
* **phase and state rows** come from ``run_kg``'s return value, its
  manifest and the graph it wrote, plus the time spent in
  ``Manifest.append``.

``LAYER_MAP`` records, for every per-layer metric, the end-to-end
metric and the workloads it is expected to move.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from kgray.functions import html_text
from kgray.kernels import crf, hmm
from kgray.pipelines import kg
from kgray.sources.corpus import load_side_tables
from kgray.stages import canonical, extract
from kgray.stages import kg as kg_stage
from kgray.state import manifest

__all__ = ["KERNEL_ROWS", "LAYER_MAP", "OP_STAGES", "OP_FIELDS", "kernel_work",
           "kernel_rows", "per_cpu_s", "OpTracer", "phase_rows"]

_BOTH = ["hmm_stream", "grouped_resume"]

# kernel row -> the public function it times (the self-test injects a
# slowdown there and expects exactly this row to move)
KERNEL_ROWS = {
    "functions.html_text.pages_per_core_s": (html_text, "html_to_text"),
    "stages.extract.sentences_per_core_s": (extract, "split_sentences"),
    "kernels.hmm.tokens_per_core_s": (hmm, "viterbi_batch"),
    "kernels.crf.tokens_per_core_s": (crf, "viterbi_batch"),
    "stages.kg.extract_triples.sentences_per_core_s": (kg_stage, "extract_triples"),
    "stages.kg.linker.triples_per_core_s": (kg_stage.LinkerActor, "__call__"),
    "stages.canonical.combine.rows_per_core_s": (canonical, "combine_triples_batch"),
}

OP_STAGES = ["read", "tagger_chain", "linker_chain", "write_triples",
             "canon_combine", "canon_exchange", "graph_sort", "graph_write"]
OP_FIELDS = {"wall_s": "wall_time", "cpu_s": "cpu_time", "udf_s": "udf_time",
             "rows_out": "output_num_rows", "bytes_out": "output_size_bytes"}

# metric -> (end-to-end metric it should move, workloads, note)
LAYER_MAP = {
    "functions.html_text.pages_per_core_s":
        ("wall_s", ["hmm_stream"], "a small share on grouped_resume"),
    "stages.extract.sentences_per_core_s":
        ("wall_s", ["hmm_stream"], "a small share on grouped_resume"),
    "kernels.hmm.tokens_per_core_s": ("wall_s", _BOTH, "HMM decode is light"),
    "kernels.crf.tokens_per_core_s":
        ("wall_s", [], "no workload tags with the CRF: no change predicted"),
    "stages.kg.extract_triples.sentences_per_core_s":
        ("wall_s", ["hmm_stream"], "the linker chain is the heaviest streaming stage"),
    "stages.kg.linker.triples_per_core_s":
        ("wall_s", ["hmm_stream"], "the linker chain is the heaviest streaming stage"),
    "stages.canonical.combine.rows_per_core_s": ("wall_s", _BOTH, "graph phase"),
    "baseline.serial_pages_per_s":
        ("pages_per_s", _BOTH, "the single-process reference the pipeline must beat"),
    **{f"op.{st}.{f}": moves for st, moves in {
        "read": ("wall_s", _BOTH, "page scan"),
        "tagger_chain": ("wall_s", ["hmm_stream"], "extract + split + Viterbi actors"),
        "linker_chain": ("wall_s", ["hmm_stream"], "extract_triples + linker actors"),
        "write_triples": ("wall_s", ["grouped_resume"], "per-group triples sink"),
        "canon_combine": ("wall_s", _BOTH, "graph phase: re-read + map-side combine"),
        "canon_exchange": ("wall_s", _BOTH, "graph phase: sorts, repartition, merges"),
        "graph_sort": ("wall_s", _BOTH, "graph phase: subj_bucket sort"),
        "graph_write": ("wall_s", _BOTH, "graph phase: bucketed sink"),
    }.items() for f in OP_FIELDS},
    "phase.stream_s": ("wall_s", _BOTH, "sum of manifest group wall times"),
    "phase.graph_s": ("wall_s", _BOTH, "run_kg graph_wall_sec"),
    "phase.accounted_share": ("wall_s", _BOTH, "(stream_s + graph_s) / traced wall"),
    "phase.group_s.p50": ("wall_s", ["grouped_resume"], "per-group fixed cost"),
    "phase.groups": ("wall_s", ["grouped_resume"], "count"),
    "state.manifest.append_s": ("wall_s", ["grouped_resume"], "checkpoint writes"),
    **{f"funnel.{n}": ("pages_per_s", _BOTH, "count; fixed by the workload")
       for n in ("pages", "sentences", "triples_raw", "triples_linked", "graph_rows")},
    "funnel.graph_rows_per_linked_triple": ("wall_s", _BOTH, "dedup ratio of the graph phase"),
    "resume.groups_run": ("wall_s", ["grouped_resume"], "groups the resume ran"),
    "resume.groups_skipped": ("wall_s", ["grouped_resume"], "done groups the resume skipped"),
    "sink.max_bucket_share": ("wall_s", _BOTH, "skew of the subj_bucket sink"),
    "trace.overhead_s": ("wall_s", _BOTH, "traced wall minus untraced median"),
}


# --------------------------------------------------------------------------- kernel rows


def per_cpu_s(work, units: int, reps: int = 3, min_cpu_s: float = 0.2) -> float:
    """Median over ``reps`` of units per CPU second of this thread; each
    rep repeats ``work`` until it has used ``min_cpu_s``."""
    rates = []
    for _ in range(reps):
        n, t0 = 0, time.thread_time()
        while True:
            work()
            n += 1
            spent = time.thread_time() - t0
            if spent >= min_cpu_s:
                break
        rates.append(n * units / spent)
    return statistics.median(rates)


def _batches(table: pa.Table, size: int) -> list:
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


def _tag(mod, models: dict, sents: pa.Table) -> list:
    """Tags for every sentence, one ``viterbi_batch`` per language and
    1024-sentence batch, as the tagger actors call it."""
    tokens = sents.column("tokens").to_pylist()
    langs = sents.column("lang").to_pylist()
    out = [None] * len(tokens)
    for lang in sorted(set(langs)):
        idx = [i for i, x in enumerate(langs) if x == lang]
        for b in range(0, len(idx), 1024):
            part = idx[b:b + 1024]
            model = models.get(lang)
            tags = (mod.viterbi_batch([tokens[i] for i in part], model)
                    if model is not None else [["O"] * len(tokens[i]) for i in part])
            for i, t in zip(part, tags):
                out[i] = t
    return out


def kernel_work(corpus_dir: str, models: dict, n_pages: int = 300) -> dict:
    """{kernel row: (work, units)} over the first ``n_pages`` pages:
    calling ``work()`` runs the row's kernel once on ``units`` inputs.

    ``models``: {"hmm": {lang: HMMModel}, "crf": {lang: CRFModel}}.
    Downstream rows consume HMM tags, as the workloads' pipelines do."""
    files = kg.page_files(corpus_dir)
    pages = pq.read_table(files[0], columns=["url", "html", "lang"])
    for f in files[1:]:
        if pages.num_rows >= n_pages:
            break
        pages = pa.concat_tables([pages, pq.read_table(f, columns=["url", "html", "lang"])])
    pages = pages.slice(0, n_pages)
    htmls = pages.column("html").to_pylist()
    texts = pa.table({"url": pages.column("url"),
                      "text_extracted": pa.array([html_text.html_to_text(h) for h in htmls]),
                      "lang": pages.column("lang")})
    sents = extract.split_sentences(texts)
    n_tokens = sum(len(t) for t in sents.column("tokens").to_pylist())
    tagged = pa.table({"url": sents.column("url"), "sent_id": sents.column("sent_id"),
                       "tokens": sents.column("tokens"),
                       "tags": pa.array(_tag(hmm, models["hmm"], sents),
                                        type=pa.list_(pa.string())),
                       "lang": sents.column("lang")})
    raw_batches = _batches(kg_stage.extract_triples(tagged), 4096)
    alias_idx, emb_map = load_side_tables(corpus_dir)

    def link():
        actor = kg_stage.LinkerActor(alias_idx=alias_idx, emb_map=emb_map)
        return [actor(b) for b in raw_batches]

    linked = pa.concat_tables(link())
    return {
        "functions.html_text.pages_per_core_s":
            (lambda: [html_text.html_to_text(h) for h in htmls], len(htmls)),
        "stages.extract.sentences_per_core_s":
            (lambda: extract.split_sentences(texts), sents.num_rows),
        "kernels.hmm.tokens_per_core_s":
            (lambda: _tag(hmm, models["hmm"], sents), n_tokens),
        "kernels.crf.tokens_per_core_s":
            (lambda: _tag(crf, models["crf"], sents), n_tokens),
        "stages.kg.extract_triples.sentences_per_core_s":
            (lambda: kg_stage.extract_triples(tagged), tagged.num_rows),
        "stages.kg.linker.triples_per_core_s": (link, linked.num_rows),
        "stages.canonical.combine.rows_per_core_s":
            (lambda: canonical.combine_triples_batch(linked, n_salts=16), linked.num_rows),
    }


def kernel_rows(corpus_dir: str, models: dict) -> dict:
    """Per-core rate of each kernel row (median of 3)."""
    return {row: per_cpu_s(work, units) for row, (work, units)
            in kernel_work(corpus_dir, models).items()}


# --------------------------------------------------------------------------- operator rows


def _stage_of(op_name: str, is_sub: bool, depth: int, graph: bool) -> str:
    """Stable stage name for one Ray Data operator of a written Dataset."""
    if not graph:
        for key, stage in (("Write", "write_triples"), ("Linker", "linker_chain"),
                           ("Tagger", "tagger_chain"), ("Read", "read")):
            if key in op_name:
                return stage
        return ""                        # folded into the next stage downstream
    if "Write" in op_name:
        return "graph_write"
    if (is_sub and depth == 1) or "add_bucket" in op_name:
        return "graph_sort"
    if any(k in op_name for k in ("ReadParquet", "<lambda>", "encode")):
        return "canon_combine"
    return "canon_exchange"


class OpTracer:
    """Wraps ``Dataset.write_parquet`` and ``Manifest.append`` while
    active.  Written Datasets are only kept during the traced cycle;
    ``rows()`` reads their stats afterwards, so the cost of collecting
    them stays out of the timed cycle."""

    def __init__(self):
        self.written: list = []          # (path, Dataset that ran the write)
        self.append_s = 0.0

    def _record(self, ops: dict, path: str, summary) -> None:
        graph = "group=" not in path
        seen_out: set = set()
        pending = ""                     # unlabelled group ops fold downstream
        level = [(summary, 0)]
        while level:
            nxt = []
            for s, depth in level:
                for op in reversed(s.operators_stats):
                    if op.wall_time is None:         # e.g. a Union: no blocks of its own
                        continue
                    stage = _stage_of(op.operator_name, op.is_sub_operator,
                                      depth, graph) or pending
                    if not stage:
                        continue
                    pending = stage if not graph else ""
                    acc = ops[stage]
                    for field in ("wall_s", "cpu_s", "udf_s"):
                        acc[field] += (getattr(op, OP_FIELDS[field]) or {}).get("sum", 0.0)
                    if stage not in seen_out:        # the stage's last operator
                        seen_out.add(stage)
                        for field in ("rows_out", "bytes_out"):
                            acc[field] += (getattr(op, OP_FIELDS[field]) or {}).get("sum", 0)
                nxt.extend((p, depth + 1) for p in s.parents)
            level = nxt

    @contextlib.contextmanager
    def active(self):
        from ray.data import Dataset

        orig_write, orig_append = Dataset.write_parquet, manifest.Manifest.append
        tracer = self

        def write_parquet(ds, path, *a, **kw):
            out = orig_write(ds, path, *a, **kw)
            tracer.written.append((path, getattr(ds, "_write_ds", None) or ds))
            return out

        def append(m, record):
            t0 = time.perf_counter()
            try:
                return orig_append(m, record)
            finally:
                tracer.append_s += time.perf_counter() - t0

        Dataset.write_parquet = write_parquet
        manifest.Manifest.append = append
        try:
            yield self
        finally:
            Dataset.write_parquet = orig_write
            manifest.Manifest.append = orig_append

    def rows(self) -> dict:
        """Operator stats of every written Dataset, summed per stage."""
        ops = {st: dict.fromkeys(OP_FIELDS, 0.0) for st in OP_STAGES}
        for path, ds in self.written:
            self._record(ops, path, ds._get_stats_summary())
        return {f"op.{st}.{f}": float(v) for st, acc in ops.items()
                for f, v in acc.items()}


# --------------------------------------------------------------------------- phase and state rows


def phase_rows(out_dir: str, wall_s: float, last_stats: dict, graph_table: pa.Table) -> dict:
    """Phase, funnel, resume and sink rows of one finished cycle."""
    recs = manifest.Manifest(f"{out_dir}/manifest.jsonl").records()
    groups = [r for r in recs if r["group_id"] != "__graph__"]
    graph = [r for r in recs if r["group_id"] == "__graph__"][-1]
    stream_s = sum(r["wall_sec"] for r in groups)
    graph_s = graph["wall_sec"]
    linked = sum(r["triples_out"] for r in groups)
    buckets = Counter(graph_table.column("subj_bucket").to_pylist())
    return {
        "phase.stream_s": stream_s,
        "phase.graph_s": graph_s,
        "phase.accounted_share": (stream_s + graph_s) / wall_s,
        "phase.group_s.p50": statistics.median(r["wall_sec"] for r in groups),
        "phase.groups": len(groups),
        "funnel.pages": sum(r["rows_in"] for r in groups),
        "funnel.sentences": sum(r["sentences"] for r in groups),
        "funnel.triples_raw": sum(r["triples_raw"] for r in groups),
        "funnel.triples_linked": linked,
        "funnel.graph_rows": graph["n_graph_rows"],
        "funnel.graph_rows_per_linked_triple": graph["n_graph_rows"] / linked,
        "resume.groups_run": len(last_stats["groups_run"]),
        "resume.groups_skipped": len(last_stats["groups_skipped"]),
        "sink.max_bucket_share": max(buckets.values()) / buckets.total(),
    }
