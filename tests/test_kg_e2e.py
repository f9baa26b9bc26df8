"""End-to-end KG pipeline: Ray pipeline triples vs the serial
reference-semantics oracle (exact-match gate) and vs analytic gold
triples (P/R ≥ 0.95, the north rule)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from kgray.kernels.evaluate import triple_prf
from kgray.pipelines import kg


@pytest.fixture(scope="module")
def kg_run(ray_session, tiny_corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg_out"))
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    stats = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir,
                      batch_size=256)
    return tiny_corpus_dir, out, model_dir, stats


def _read_graph(out_dir):
    rows = {}
    for f in glob.glob(os.path.join(out_dir, "graph", "**", "*.parquet"),
                       recursive=True):
        t = pq.read_table(f)
        for s, p, o, sup in zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                                t["obj"].to_pylist(), t["support"].to_pylist()):
            rows[(s, p, o)] = sup
    return rows


def test_pipeline_matches_serial_oracle(kg_run):
    corpus_dir, out, model_dir, stats = kg_run
    assert not stats["groups_remaining"]
    graph = _read_graph(out)
    oracle = kg.serial_oracle_triples(corpus_dir, model_dir, tagger="hmm")
    assert graph == oracle            # identical triples AND support counts
    prf = triple_prf(set(graph), set(oracle))
    assert prf["precision"] == 1.0 and prf["recall"] == 1.0


def test_pipeline_vs_gold(kg_run):
    corpus_dir, out, _, _ = kg_run
    graph = _read_graph(out)
    gt = pq.read_table(os.path.join(corpus_dir, "gold_triples.parquet"))
    gold = {(s, p, o): sup for s, p, o, sup in zip(gt["subj"].to_pylist(),
                                                   gt["pred"].to_pylist(),
                                                   gt["obj"].to_pylist(),
                                                   gt["support"].to_pylist())}
    prf = triple_prf(set(graph), set(gold))
    assert prf["precision"] >= 0.95, prf
    assert prf["recall"] >= 0.95, prf


def test_graph_is_sorted_and_partitioned(kg_run):
    """subj_bucket=<b>/ hash-bucketed layout, subj-sorted within each
    bucket; a single-subject consumer reads exactly one partition dir."""
    from kgray.functions.hashing import polyhash64

    _, out, _, _ = kg_run
    bucket_dirs = sorted(glob.glob(os.path.join(out, "graph", "subj_bucket=*")))
    assert bucket_dirs
    all_subjects = []
    for d in bucket_dirs:
        b = int(d.rsplit("=", 1)[1])
        subjects = []
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            subjects.extend(pq.read_table(f, columns=["subj"])["subj"].to_pylist())
        assert subjects == sorted(subjects)           # subj-sorted per bucket
        assert all(polyhash64(s) % 16 == b for s in set(subjects))
        all_subjects.extend(subjects)
    # prune-read: one subject's rows live entirely in its hash bucket
    probe = all_subjects[0]
    d = os.path.join(out, "graph", f"subj_bucket={polyhash64(probe) % 16}")
    got = [s for f in glob.glob(os.path.join(d, "*.parquet"))
           for s in pq.read_table(f, columns=["subj"])["subj"].to_pylist()]
    assert probe in got


def _serial_group_counts(files, model_dir):
    """(pages, sentences, triples) of one group, recounted serially:
    parquet footers, non-empty ``tokenize_line`` lines of
    ``html_to_text``, and ``extract_sentence_triples`` under the
    per-sentence Viterbi."""
    from kgray.functions.html_text import html_to_text
    from kgray.kernels import hmm
    from kgray.kernels.triples import extract_sentence_triples, sentence_mentions
    from kgray.stages.extract import tokenize_line

    with open(os.path.join(model_dir, "models.json")) as f:
        models = {lang: hmm.HMMModel.load(p)
                  for lang, p in json.load(f)["hmm"].items()}
    pages = sentences = triples = 0
    for f in files:
        pages += pq.read_metadata(f).num_rows
        t = pq.read_table(f, columns=["html", "lang"])
        for html, lang in zip(t["html"].to_pylist(), t["lang"].to_pylist()):
            for line in html_to_text(html).split("\n"):
                toks = tokenize_line(line, lang)
                if not toks:
                    continue
                sentences += 1
                if lang in models:
                    tags = hmm.viterbi_decode(toks, models[lang])
                    mentions = sentence_mentions(
                        toks, tags, "bmes" if lang == "zh" else "bio")
                    triples += len(extract_sentence_triples(toks, mentions))
    return pages, sentences, triples


def test_manifest_lineage(kg_run):
    """Every group's counts equal an independent serial recount of its
    files, so a wrong stats lookup or a lost batch fails here."""
    corpus_dir, out, model_dir, stats = kg_run
    from kgray.state.manifest import Manifest
    recs = Manifest(os.path.join(out, "manifest.jsonl")).records()
    group_recs = [r for r in recs if r["group_id"] != "__graph__"]
    groups = kg.partition_groups(kg.page_files(corpus_dir))
    assert [r["group_id"] for r in group_recs] == [g for g, _ in groups]
    for r, (_, files) in zip(group_recs, groups):
        assert r["status"] == "done"
        pages, sentences, triples = _serial_group_counts(files, model_dir)
        assert sentences > pages > 0 and triples > 0
        assert (r["rows_in"], r["sentences"], r["triples_raw"],
                r["triples_out"]) == (pages, sentences, triples, triples), r
        assert r["wall_sec"] >= 0
        assert os.path.isdir(r["output_dir"])
    graph_recs = [r for r in recs if r["group_id"] == "__graph__"]
    assert len(graph_recs) == 1 and graph_recs[0]["n_graph_rows"] > 0
    g = graph_recs[0]
    assert g["exchange_sec"] >= 0 and g["write_sec"] >= 0
    # each of the three is rounded to 1 ms on its own
    assert g["exchange_sec"] + g["write_sec"] <= g["wall_sec"] + 0.001


def test_lineage_needs_the_split_operator():
    """Sentences are the output rows of exactly one operator ending in
    ``MapBatches(split_sentences)``; a plan where that operator is
    missing (fused into the actor) or doubled raises, never guesses."""
    from types import SimpleNamespace

    def op(name, rows):
        return SimpleNamespace(operator_name=name, wall_time={"sum": 1.0},
                               cpu_time={"sum": 0.5}, udf_time=None,
                               output_num_rows={"sum": rows})

    def summary(*ops, parents=()):
        return SimpleNamespace(operators_stats=list(ops), parents=list(parents))

    split = "ReadParquet->MapBatches(extract_text)->MapBatches(split_sentences)"
    write = op("Write", 5)
    ok = summary(op("MapBatches(TaggerLinker)", 5), write,
                 parents=[summary(op(split, 7))])
    assert [o["name"] for o in kg.operator_stats(ok)] == [
        split, "MapBatches(TaggerLinker)", "Write"]
    assert kg._sentences(ok) == 7
    fused = summary(op(split + "->MapBatches(TaggerLinker)", 5), write)
    doubled = summary(op(split, 7), op(split, 7), write)
    for bad in (fused, doubled):
        with pytest.raises(kg.LineageError, match="split_sentences"):
            kg._sentences(bad)


def test_resume_skips_done_groups(ray_session, tiny_corpus_dir, tmp_path):
    out = str(tmp_path / "kg_resume")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    # "killed" run: only 1 group completes
    s1 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir,
                   stop_after_groups=1)
    assert len(s1["groups_run"]) == 1 and s1["groups_remaining"]
    # resume: runs only the remaining groups
    s2 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir)
    assert set(s1["groups_run"]).isdisjoint(s2["groups_run"])
    assert not s2["groups_remaining"]
    # a third run recomputes nothing — extraction groups AND the graph step
    s3 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir)
    assert not s3["groups_run"] and s3.get("graph_skipped") is True
    # final graph identical to a fresh uninterrupted run
    out2 = str(tmp_path / "kg_fresh")
    kg.build_models(tiny_corpus_dir, os.path.join(out2, "models"), tagger="hmm")
    kg.run_kg(tiny_corpus_dir, out2, model_dir=os.path.join(out2, "models"))
    assert _read_graph(out) == _read_graph(out2)


def test_resume_after_midgroup_crash(ray_session, tiny_corpus_dir, tmp_path):
    """A run killed MID-group leaves partial parquet under the group dir
    with no manifest record; the rerun must clear it, not accumulate
    alongside it (write_parquet adds files) — else triples double-count.
    Same hazard for a graph dir written but not manifest-recorded, and
    for a manifest record torn by a kill mid-append: that group reruns
    and the torn bytes never glue onto the next record."""

    import pyarrow as pa

    out = str(tmp_path / "kg_crash")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    # the first group completes with a whole manifest record ...
    s1 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir,
                   stop_after_groups=1)
    assert s1["groups_run"] == ["g00000"]
    # ... then the kill hits the next one: stale partial output
    stale = os.path.join(out, "triples", "group=g00001")
    os.makedirs(stale)
    pq.write_table(pa.table({"subj": ["STALE"], "pred": ["x"], "obj": ["y"],
                             "url": ["u"], "sent_id": pa.array([0], type=pa.int32()),
                             "score": pa.array([1.0], type=pa.float32())}),
                   os.path.join(stale, "partial.parquet"))
    # and a stale graph dir with no __graph__ manifest record
    stale_graph = os.path.join(out, "graph")
    os.makedirs(stale_graph)
    pq.write_table(pa.table({"subj": ["STALE"], "pred": ["x"], "obj": ["y"],
                             "support": pa.array([99], type=pa.int64())}),
                   os.path.join(stale_graph, "old.parquet"))
    # and its manifest record torn mid-append (no newline)
    manifest = os.path.join(out, "manifest.jsonl")
    with open(manifest, "a") as f:
        f.write('{"group_id": "g00001", "sta')
    s2 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir)
    assert s2["groups_skipped"] == ["g00000"]
    assert s2["groups_run"] == ["g00001"]
    graph = _read_graph(out)
    assert ("STALE", "x", "y") not in graph
    with open(manifest) as f:
        text = f.read()
    assert text.endswith("\n")
    recs = [json.loads(line) for line in text.splitlines()]
    assert [r["group_id"] for r in recs] == ["g00000", "g00001", "__graph__"]
    # identical to a clean run
    out2 = str(tmp_path / "kg_clean")
    kg.build_models(tiny_corpus_dir, os.path.join(out2, "models"), tagger="hmm")
    kg.run_kg(tiny_corpus_dir, out2, model_dir=os.path.join(out2, "models"))
    assert graph == _read_graph(out2)


def test_resume_from_foreign_process_manifest(ray_session, tiny_corpus_dir,
                                              tmp_path):
    """The manifest is write-through to the OUTPUT directory, so a run
    killed on one driver resumes from a DIFFERENT process with a
    different cwd — the multi-node ``ray job submit`` retry shape,
    where the retry driver is a fresh process, possibly on another
    node.  Phase 1 runs in a subprocess (own Ray session, cwd=/tmp);
    phase 2 resumes here and must skip the foreign-recorded group."""
    import subprocess
    import sys
    import textwrap

    out = str(tmp_path / "kg_foreign")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    script = textwrap.dedent(f"""
        import json, ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from kgray.pipelines import kg
        s = kg.run_kg({tiny_corpus_dir!r}, {out!r}, model_dir={model_dir!r},
                      stop_after_groups=1)
        print(json.dumps({{"run": s["groups_run"],
                           "remaining": s["groups_remaining"]}}))
        ray.shutdown()
    """)
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = repo + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-c", script], cwd="/tmp",
                       env=env, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr[-2000:]
    first = json.loads(r.stdout.strip().splitlines()[-1])
    assert len(first["run"]) == 1 and first["remaining"]
    # resume in THIS process (different cwd), same out_dir
    s2 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir)
    assert set(first["run"]).isdisjoint(s2["groups_run"])
    assert not s2["groups_remaining"]
    # final graph identical to a fresh uninterrupted run
    out2 = str(tmp_path / "kg_foreign_fresh")
    kg.build_models(tiny_corpus_dir, os.path.join(out2, "models"),
                    tagger="hmm")
    kg.run_kg(tiny_corpus_dir, out2,
              model_dir=os.path.join(out2, "models"))
    assert _read_graph(out) == _read_graph(out2)
