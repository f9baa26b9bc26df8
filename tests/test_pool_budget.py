"""One actor-pool budget for every plan.

Fixed-size actor pools that cannot all start, or that leave no CPU for
the fractional-CPU read tasks feeding them, stall the streaming
executor without an error.  Every plan starts at most one actor pool,
and it must either fit the cluster (below the CPU count) or raise
``PoolBudgetError`` when it is built — at every cluster size, not just
the test session's."""

import json
import os
from functools import partial

import pytest
import ray
import ray.data as rd
from ray.data import ActorPoolStrategy

from kgray.pipelines import kg
from kgray.pipelines.kg import PoolBudgetError
from kgray.sources.corpus import generate_corpus

TAGGERS = ("hmm", "crf", "transformer")


def _pool_sizes(ds) -> list:
    """Sizes of the fixed actor pools in a lazy Dataset's logical
    plan, upstream first."""
    sizes, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        compute = getattr(op, "_compute", None)
        if isinstance(compute, ActorPoolStrategy):
            assert compute.min_size == compute.max_size
            sizes.append(compute.max_size)
        stack.extend(op.input_dependencies)
    return sizes[::-1]


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(n)})


@pytest.fixture(scope="module")
def fake_models(tmp_path_factory):
    """A models.json for every tagger: plans are built, never run, so
    no actor ever loads these paths."""
    d = tmp_path_factory.mktemp("models")
    with open(d / "models.json", "w") as f:
        json.dump({t: {"en": "unused", "zh": "unused"} for t in TAGGERS}, f)
    return str(d)


def _grouped(files, corpus, model_dir, tagger="hmm"):
    """The plan ``run_kg`` builds: every group of ``files`` in one
    stream, written under a triples root that is never created."""
    groups = {os.path.basename(f): gid
              for gid, fs in kg.partition_groups(files) for f in fs}
    return kg.kg_dataset(files, corpus, model_dir, tagger=tagger,
                         groups=groups, triples_root="/nonexistent/triples")


def _plans(corpus: str, model_dir: str) -> dict:
    """name → plan builder."""
    import __ray_entry__ as entry
    from kgray.pipelines import graph, multimodal, training

    files = kg.page_files(corpus)
    plans = {}
    for tagger in TAGGERS:
        for until in ("tagged", "surface", "linked"):
            plans[f"kg_dataset({tagger}, {until})"] = partial(
                kg.kg_dataset, files, corpus, model_dir, tagger=tagger,
                until=until)
        plans[f"{tagger}_tags_valid"] = partial(entry._tags_valid, "sf", tagger)
    plans["kg_dataset(hmm, linked, zh)"] = partial(
        kg.kg_dataset, files, corpus, model_dir, lang="zh")
    plans["run_kg stream"] = partial(_grouped, files, corpus, model_dir)
    plans["kg_alias_patch relink"] = partial(graph.kg_alias_patch, "sf",
                                             plan="full")
    plans["transformer_trained_tags"] = partial(
        training.transformer_trained_tags, "sf")
    plans["binary_features"] = partial(multimodal.binary_features, files)
    return plans


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 32])
def test_every_pool_plan_fits_or_raises(ray_session, tiny_corpus_dir,
                                        fake_models, monkeypatch, cpus):
    from kgray.pipelines import graph, training
    from kgray.sources import derived
    from kgray.stages import canonical

    monkeypatch.setattr(derived, "corpus_for_sf", lambda sf: tiny_corpus_dir)
    monkeypatch.setattr(derived, "models_for_corpus",
                        lambda corpus, tagger="hmm": fake_models)
    monkeypatch.setattr(training, "_trained_transformer_path",
                        lambda *a, **kw: "unused")
    surface = rd.from_items([{"url": "u", "sent_id": 0}])
    monkeypatch.setattr(graph, "_surface_triples_for_sf", lambda sf: surface)
    # canonical_graph executes its input; the plan under test is its input
    monkeypatch.setattr(canonical, "canonical_graph", lambda ds: ds)
    plans = _plans(tiny_corpus_dir, fake_models)
    _cpus(monkeypatch, cpus)
    for name, build in plans.items():
        try:
            sizes = _pool_sizes(build())
        except PoolBudgetError as e:
            assert cpus == 1, (name, cpus, str(e))
            assert f"has {cpus}" in str(e) and "need" in str(e), str(e)
            continue
        assert len(sizes) == 1 and 1 <= sizes[0] < cpus, (name, sizes, cpus)


def test_budget_keeps_sound_sizes(ray_session, tiny_corpus_dir, fake_models,
                                  tmp_path, monkeypatch):
    """The flagship's one fused pool takes every CPU but two: 2 actors
    for both benchmark workloads on 4 CPUs (one stream over all
    groups), 30 at 32 CPUs for every tagger, 1 for the two groups of
    the 120-page test corpus and at 2 or 3 CPUs; only a 1-CPU cluster
    raises.  A lone tagger pool
    (``until="tagged"`` or ``"surface"``) keeps the tagger's share:
    24 HMM and 28 CRF/transformer actors at 32 CPUs."""
    from kgray.pipelines import multimodal

    stream = str(tmp_path / "stream")        # the hmm_stream shape
    generate_corpus(stream, n_pages=3200, seed=7, pages_per_shard=200)
    grouped = str(tmp_path / "grouped")      # the grouped_resume shape
    generate_corpus(grouped, n_pages=1200, seed=7, pages_per_shard=150)

    def sizes(files, tagger="hmm", until="linked"):
        return _pool_sizes(kg.kg_dataset(files, stream, fake_models,
                                         tagger=tagger, until=until))

    big = kg.page_files(stream) * 2          # 6,400 rows
    _cpus(monkeypatch, 32)
    for tagger in TAGGERS:
        assert sizes(big, tagger) == [30]
        assert _pool_sizes(_grouped(big, stream, fake_models, tagger)) == [30]
    for until in ("tagged", "surface"):
        assert sizes(big, until=until) == [24]
        assert sizes(big, "crf", until) == [28]
        assert sizes(big, "transformer", until) == [28]
    _cpus(monkeypatch, 4)
    assert sizes(kg.page_files(stream)) == [2]
    assert _pool_sizes(_grouped(kg.page_files(grouped), grouped,
                                fake_models)) == [2]
    assert _pool_sizes(_grouped(kg.page_files(tiny_corpus_dir),
                                tiny_corpus_dir, fake_models)) == [1]
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        assert sizes(kg.page_files(stream)) == [1]
    _cpus(monkeypatch, 1)
    with pytest.raises(PoolBudgetError, match=r"needs 2 CPUs.*has 1"):
        sizes(kg.page_files(stream))
    for cpus, n in ((2, 1), (3, 1), (4, 2), (8, 6), (32, 24)):
        _cpus(monkeypatch, cpus)
        assert _pool_sizes(multimodal.binary_features(big)) == [n]
