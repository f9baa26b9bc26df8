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


def test_one_pool_per_call(kg_run):
    """Both groups of the tiny corpus stream through one Dataset with no
    actor pool: every operator is made of the read and the stateless
    maps, and exactly one operator holds the chain, fused with
    extract/split."""
    import inspect
    import re

    from kgray.stages import kg as kg_stage

    _, _, _, stats = kg_run
    assert len(stats["groups_run"]) == 2
    names = [op["name"] for op in stats["stream_ops"]]
    stage = re.compile(r"ReadParquet|SplitBlocks\(\d+\)|MapBatches\("
                       r"(add_group|extract_text|split_sentences|write_groups)\)")
    assert all(stage.fullmatch(part) for n in names for part in n.split("->")), names
    chain = [n for n in names if "write_groups" in n]
    assert len(chain) == 1 and "split_sentences" in chain[0], names
    assert inspect.isfunction(kg_stage.write_groups)


def _rows(*spec):
    return [{"group": g, "sentences": s, "triples": t} for g, s, t in spec]


def test_commit_fold_batch_spans_groups():
    """A batch spanning two groups gives one row per slice; each group
    commits once a later group's row arrives, the last at the end."""
    from kgray.state.manifest import completed_groups

    pulled = []

    def stream():
        for row in _rows(("g0", 5, 2), ("g0", 3, 1), ("g1", 4, 0),
                         ("g1", 2, 2), ("g2", 1, 1)):
            pulled.append(row["group"])
            yield row

    fold = completed_groups(["g0", "g1", "g2"], stream())
    assert next(fold) == ("g0", 8, 3)
    assert pulled == ["g0", "g0", "g1"]         # no row past g1's first
    assert next(fold) == ("g1", 6, 2)
    assert pulled[-1] == "g2"
    assert next(fold) == ("g2", 1, 1)            # the stream's end
    with pytest.raises(StopIteration):
        next(fold)


def test_commit_fold_empty_groups_commit_zeros():
    from kgray.state.manifest import completed_groups

    got = list(completed_groups(["g0", "g1", "g2", "g3"],
                                _rows(("g0", 2, 1), ("g2", 3, 3))))
    assert got == [("g0", 2, 1), ("g1", 0, 0), ("g2", 3, 3), ("g3", 0, 0)]
    assert list(completed_groups(["g0"], [])) == [("g0", 0, 0)]


def test_commit_fold_out_of_order_raises():
    """A row of an already committed group raises a named error; what
    was committed before it stays exact and nothing commits twice."""
    from kgray.state.manifest import GroupOrderError, completed_groups

    fold = completed_groups(["g0", "g1", "g2"],
                            _rows(("g0", 2, 1), ("g1", 3, 2), ("g0", 1, 1)))
    assert next(fold) == ("g0", 2, 1)
    with pytest.raises(GroupOrderError, match="'g0'"):
        next(fold)
    with pytest.raises(GroupOrderError, match="'gX'"):
        list(completed_groups(["g0"], _rows(("gX", 1, 1))))


def _sentences(corpus_dir, n_files=2):
    import pyarrow as pa

    from kgray.stages.extract import extract_text, split_sentences

    files = kg.page_files(corpus_dir)[:n_files]
    pages = pa.concat_tables(pq.read_table(f, columns=["url", "html", "lang"])
                             for f in files)
    return split_sentences(extract_text(pages))


def test_sink_replay_overwrites_its_own_file(ray_session, kg_run, tmp_path):
    """A retried task (Ray Data retries failed tasks) rewrites the same
    file instead of adding a copy, whether it lands on a worker whose
    model cache is warm or on a fresh one; a leftover dot-prefixed temp
    file is never read as triples."""
    import pyarrow as pa
    import ray.data as rd

    from kgray.stages import kg as kg_stage

    corpus_dir, _, model_dir, _ = kg_run
    sents = _sentences(corpus_dir)
    half = sents.num_rows // 2
    gids = ["g00000"] * half + ["g00001"] * (sents.num_rows - half)
    batch = sents.append_column("group", pa.array(gids, type=pa.string()))
    with open(os.path.join(model_dir, "models.json")) as f:
        paths = json.load(f)["hmm"]
    root = str(tmp_path / "triples")

    def sink():
        return kg_stage.write_groups(batch, "hmm", paths, corpus_dir, 256, root)

    first = sink()
    assert first.column("group").to_pylist() == ["g00000", "g00001"]
    assert first.column("sentences").to_pylist() == [half, sents.num_rows - half]
    written = sorted(glob.glob(os.path.join(root, "*", "*.parquet")))
    assert len(written) == 2                       # one per (group, slice)
    total = sum(pq.read_metadata(f).num_rows for f in written)
    assert total == sum(first.column("triples").to_pylist()) > 0
    for fresh_worker in (False, True):
        if fresh_worker:
            kg_stage._LOADED.clear()
        assert sink().equals(first)
        assert len(kg_stage._LOADED) == 1
        assert sorted(glob.glob(os.path.join(root, "*", "*.parquet"))) == written
        assert sum(pq.read_metadata(f).num_rows for f in written) == total
    # a writer killed between write and rename leaves its temp file
    pq.write_table(pq.read_table(written[0]),
                   os.path.join(os.path.dirname(written[0]), ".123-stale.parquet"))
    assert rd.read_parquet(root).count() == total


def test_chain_cache_reloads_a_rebuilt_model(kg_run, tmp_path):
    """A model or side table rebuilt at the same path is reloaded by the
    next batch in the same process, and the cache holds one entry."""
    import shutil

    import pyarrow as pa

    from kgray.kernels import hmm as hmm_kernel
    from kgray.stages import kg as kg_stage
    from kgray.stages.tagger import HMMTagger

    src, _, _, _ = kg_run
    corpus = str(tmp_path / "corpus")
    shutil.copytree(src, corpus)
    model_dir = str(tmp_path / "models")
    paths = kg.build_models(corpus, model_dir, tagger="hmm")["hmm"]
    sents = _sentences(corpus, n_files=1)

    def chain(until):
        return kg_stage.tag_link(sents, "hmm", paths, corpus, 256, until)

    def fresh(until):
        tagged = HMMTagger(paths)(sents)
        if until == "tagged":
            return tagged
        return kg_stage.LinkerActor(corpus_dir=corpus)(
            kg_stage.extract_triples(tagged))

    before = chain("tagged")
    assert before.equals(fresh("tagged"))
    # rebuild the English model from three training sentences
    train = pq.read_table(os.path.join(corpus, "conll_train.parquet"))
    hmm_kernel.train_hmm(train["tokens"].to_pylist()[:3],
                         train["tags"].to_pylist()[:3]).save(
        paths["en"][:-len(".npz")])
    after = chain("tagged")
    assert not after.equals(before) and after.equals(fresh("tagged"))
    assert len(kg_stage._LOADED) == 1
    # rewrite the alias table: one alias fewer, every prior halved
    linked = chain("linked")
    aliases = os.path.join(corpus, "aliases.parquet")
    al = pq.read_table(aliases).slice(1)
    pq.write_table(al.set_column(2, "prior", pa.compute.multiply(
        al.column("prior"), 0.5)), aliases)
    relinked = chain("linked")
    assert not relinked.equals(linked) and relinked.equals(fresh("linked"))
    assert len(kg_stage._LOADED) == 1


def test_run_kg_beside_a_cotenant(beside_a_cotenant, tiny_corpus_dir,
                                  tmp_path):
    """An actor holds 3 of the session's 4 CPUs: ``run_kg`` still ends in
    the serial oracle's graph, on the one free CPU, before a deadline,
    so a plan that cannot be scheduled fails here instead of hanging."""
    out = str(tmp_path / "kg_cotenant")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    stats = beside_a_cotenant(
        lambda: kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir))
    assert not stats["groups_remaining"]
    assert _read_graph(out) == kg.serial_oracle_triples(tiny_corpus_dir,
                                                        model_dir, tagger="hmm")


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


def test_resume_after_kill_mid_stream(ray_session, tiny_corpus_dir, tmp_path):
    """SIGKILL the driver after the stream committed its first group
    but not its second: the resume skips the committed group, clears
    the uncommitted one's files and ends in a clean run's graph."""
    import signal
    import subprocess
    import sys
    import textwrap
    import time

    out = str(tmp_path / "kg_killed")
    model_dir = os.path.join(out, "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    manifest = os.path.join(out, "manifest.jsonl")
    # the driver stalls right after its first commit, so the kill lands
    # between two commits of one stream
    script = textwrap.dedent(f"""
        import time, ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        from kgray.state import manifest
        from kgray.pipelines import kg
        append = manifest.Manifest.append
        def stall_after_first(m, record):
            append(m, record)
            time.sleep(600)
        manifest.Manifest.append = stall_after_first
        kg.run_kg({tiny_corpus_dir!r}, {out!r}, model_dir={model_dir!r})
    """)
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = repo + os.pathsep + env.get("PYTHONPATH", "")
    log = tmp_path / "driver.log"

    def committed():
        if not os.path.exists(manifest):
            return []
        with open(manifest) as f:
            return [json.loads(line)["group_id"] for line in f]

    uncommitted = os.path.join(out, "triples", "group=g00001")
    with open(log, "w") as err:
        # its own session: the kill takes the driver's local Ray
        # daemons with it, so none outlives the test
        proc = subprocess.Popen([sys.executable, "-c", script], cwd="/tmp",
                                env=env, stdout=err, stderr=err,
                                start_new_session=True)
    try:
        deadline = time.monotonic() + 300
        # wait for g00000's record and for g00001's triples on disk
        while not (committed()
                   and glob.glob(os.path.join(uncommitted, "*.parquet"))):
            assert proc.poll() is None, log.read_text()[-2000:]
            assert time.monotonic() < deadline, "no commit within 300 s"
            time.sleep(0.1)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
    assert committed() == ["g00000"]
    resumed = time.time()
    s2 = kg.run_kg(tiny_corpus_dir, out, model_dir=model_dir)
    assert s2["groups_skipped"] == ["g00000"]
    assert s2["groups_run"] == ["g00001"]
    assert committed() == ["g00000", "g00001", "__graph__"]
    files = glob.glob(os.path.join(uncommitted, "*.parquet"))
    assert files and all(os.path.getmtime(f) >= resumed for f in files)
    with open(manifest) as f:
        rec = [r for r in map(json.loads, f) if r["group_id"] == "g00001"]
    assert rec[0]["triples_out"] == sum(pq.read_metadata(f).num_rows
                                        for f in files)
    out2 = str(tmp_path / "kg_unkilled")
    kg.build_models(tiny_corpus_dir, os.path.join(out2, "models"), tagger="hmm")
    kg.run_kg(tiny_corpus_dir, out2, model_dir=os.path.join(out2, "models"))
    assert _read_graph(out) == _read_graph(out2)
