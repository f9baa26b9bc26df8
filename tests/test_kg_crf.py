"""CRF-tagger variant of the KG pipeline: Ray pipeline == serial oracle."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from kgray.pipelines import kg


def test_crf_pipeline_matches_serial_oracle(ray_session, tiny_corpus_dir, tmp_path):
    out = str(tmp_path / "kg_crf")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="crf",
                    crf_epochs=2, crf_max_sentences=150)
    stats = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir, tagger="crf",
                      batch_size=256)
    assert not stats["groups_remaining"]
    graph = {}
    for f in glob.glob(os.path.join(out, "graph", "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(f)
        for s, p, o, sup in zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                                t["obj"].to_pylist(), t["support"].to_pylist()):
            graph[(s, p, o)] = sup
    oracle = kg.serial_oracle_triples(tiny_corpus_dir, model_dir, tagger="crf")
    assert graph == oracle
    assert len(graph) > 0
