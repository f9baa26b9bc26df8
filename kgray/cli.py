"""Command-line entry points: ``python -m kgray <command>``.

Commands (the reference's train/predict CLI — hmm_ner.py:271-291,
crf_ner.py:699-719 — generalized to the pipeline lifecycle):

    gen-corpus   --out DIR [--pages N] [--seed S]      deterministic synthetic corpus
    train        --corpus DIR --models DIR [--tagger hmm|crf|both|transformer]
    run          --corpus DIR --out DIR [--models DIR] [--tagger hmm|crf|transformer]
    resume       (same as run — the manifest makes rerun resume)
    predict      --model PATH --input FILE --output FILE [--tagger hmm|crf|transformer]
                 (reference-compatible CoNLL file predict)
    eval         --gold FILE --pred FILE [--lang en|zh]  P/R/F1 report
    bench        (same as python bench.py)
    query        NAME [--sf-dir DIR] [--out FILE.parquet]  run any
                 pipeline from the queries() registry (no NAME: list)

Suitable for ``ray job submit -- python -m kgray run ...``; each command
owns its Ray session (guarded init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init():
    import ray

    if not ray.is_initialized():
        import os
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                             len(os.sched_getaffinity(0)))),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    import logging
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="kgray")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic pages corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--pages", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("train", help="train tagging models from a corpus's CoNLL split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--tagger", default="hmm",
                   choices=["hmm", "crf", "both", "transformer"])

    for name in ("run", "resume"):
        p = sub.add_parser(name, help="run (or resume) the KG pipeline")
        p.add_argument("--corpus", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--models", default=None)
        p.add_argument("--tagger", default="hmm",
                       choices=["hmm", "crf", "transformer"])
        p.add_argument("--files-per-group", type=int, default=2)

    p = sub.add_parser("predict", help="CoNLL-file prediction (reference-compatible)")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tagger", default="hmm",
                   choices=["hmm", "crf", "transformer"])

    p = sub.add_parser("eval", help="per-label P/R/F1 of a prediction file vs gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--lang", default="en", choices=["en", "zh"])

    p = sub.add_parser("bench", help="headline benchmark (same as python bench.py)")
    p.add_argument("--scaling", action="store_true",
                   help="8-vs-32-CPU fresh-process scaling efficiency")

    p = sub.add_parser("query", help="run a named pipeline from the "
                       "driver contract's queries() registry")
    p.add_argument("name", nargs="?", default=None,
                   help="query name (omit to list all)")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", default=None,
                   help="write result parquet here instead of printing "
                        "a preview")
    p.add_argument("--limit", type=int, default=20,
                   help="preview row cap when printing")

    args = parser.parse_args(argv)

    if args.command == "gen-corpus":
        from .sources.corpus import generate_corpus
        meta = generate_corpus(args.out, n_pages=args.pages, seed=args.seed)
        print(json.dumps(meta))

    elif args.command == "train":
        from .pipelines.kg import build_models
        paths = build_models(args.corpus, args.models, tagger=args.tagger)
        print(json.dumps(paths))

    elif args.command in ("run", "resume"):
        _ray_init()
        from .pipelines.kg import run_kg
        stats = run_kg(args.corpus, args.out, model_dir=args.models,
                       tagger=args.tagger, files_per_group=args.files_per_group)
        print(json.dumps(stats))

    elif args.command == "predict":
        from .kernels import conll
        sentences = conll.read_words(args.input)
        if args.tagger == "hmm":
            from .kernels.hmm import HMMModel, viterbi_batch
            model = HMMModel.load(args.model)
            tags = viterbi_batch(sentences, model)
        elif args.tagger == "transformer":
            from .kernels.transformer import TransformerCRFModel, predict_sentences
            model = TransformerCRFModel.load(args.model)
            tags = predict_sentences(model, sentences)
        else:
            from .kernels.crf import CRFModel, viterbi_batch
            model = CRFModel.load(args.model)
            tags = viterbi_batch(sentences, model)
        conll.write_tagged(args.output, sentences, tags)
        print(f"wrote {args.output}")

    elif args.command == "bench":
        # bench.py lives at the repo root, next to the package — only
        # available from a repo checkout, not an installed package
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, root)
        try:
            import bench
        except ImportError:
            print("bench.py not found next to the kgray package — "
                  "run `python bench.py` from the repo root instead",
                  file=sys.stderr)
            return 1
        if args.scaling:
            print(json.dumps(bench.run_scaling()))
        else:
            print(json.dumps(bench.run_bench()))

    elif args.command == "query":
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, root)
        try:
            import __ray_entry__ as entrymod
        except ImportError:
            print("__ray_entry__.py not found next to the kgray package",
                  file=sys.stderr)
            return 1
        registry = entrymod.queries()
        if args.name is None:
            for name in sorted(registry):
                print(name)
            return 0
        if args.name not in registry:
            print(f"unknown query {args.name!r} — run `python -m kgray "
                  "query` for the list", file=sys.stderr)
            return 1
        _ray_init()
        res = registry[args.name](args.sf_dir)
        import pyarrow as pa
        if hasattr(res, "to_arrow_refs"):            # Dataset
            from .stages.topk import to_table
            tbl = to_table(res)
        elif isinstance(res, pa.Table):
            tbl = res
        else:                                        # pandas
            tbl = pa.Table.from_pandas(res, preserve_index=False)
        if args.out:
            import pyarrow.parquet as pq
            pq.write_table(tbl, args.out)
            print(json.dumps({"query": args.name, "rows": tbl.num_rows,
                              "out": args.out}))
        else:
            print(tbl.slice(0, args.limit).to_pandas().to_string())
            print(f"[{tbl.num_rows} rows x {tbl.num_columns} cols]")

    elif args.command == "eval":
        from .constants import SORTED_LABELS_EN, SORTED_LABELS_ZH
        from .kernels.evaluate import align_conll_files, classification_report
        labels = (SORTED_LABELS_EN if args.lang == "en" else SORTED_LABELS_ZH)[1:]
        y_true, y_pred = align_conll_files(args.gold, args.pred)
        rep = classification_report(y_true, y_pred, labels)
        for lab, m in rep.items():
            print(f"{lab:>14}  P={m['precision']:.4f}  R={m['recall']:.4f}  "
                  f"F1={m['f1']:.4f}  support={m['support']}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
