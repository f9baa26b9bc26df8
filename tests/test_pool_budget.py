"""One actor-pool budget for every plan.

Fixed-size actor pools that cannot all start, or that leave no CPU for
the fractional-CPU read tasks feeding them, stall the streaming
executor without an error.  Every plan that starts actor pools must
therefore either fit the cluster (its pools sum below the CPU count)
or raise ``PoolBudgetError`` when it is built — at every cluster size,
not just the test session's."""

import json
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


def _plans(corpus: str, model_dir: str) -> dict:
    """name → (number of co-scheduled pools, plan builder)."""
    import __ray_entry__ as entry
    from kgray.pipelines import graph, multimodal, training

    files = kg.page_files(corpus)
    plans = {}
    for tagger in TAGGERS:
        for until in ("tagged", "surface", "linked"):
            plans[f"kg_dataset({tagger}, {until})"] = (
                2 if until == "linked" else 1,
                partial(kg.kg_dataset, files, corpus, model_dir,
                        tagger=tagger, until=until))
        plans[f"{tagger}_tags_valid"] = (1, partial(entry._tags_valid, "sf",
                                                    tagger))
    plans["kg_dataset(hmm, linked, zh)"] = (
        2, partial(kg.kg_dataset, files, corpus, model_dir, lang="zh"))
    plans["kg_alias_patch relink"] = (
        1, partial(graph.kg_alias_patch, "sf", plan="full"))
    plans["transformer_trained_tags"] = (
        1, partial(training.transformer_trained_tags, "sf"))
    plans["binary_features"] = (1, partial(multimodal.binary_features, files))
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
    for name, (n_pools, build) in plans.items():
        try:
            sizes = _pool_sizes(build())
        except PoolBudgetError as e:
            assert cpus - 1 < n_pools, (name, cpus, str(e))
            assert f"has {cpus}" in str(e) and "need" in str(e), str(e)
            continue
        assert len(sizes) == n_pools and min(sizes) >= 1, (name, sizes)
        assert sum(sizes) < cpus, (name, sizes, cpus)


def test_budget_keeps_sound_sizes(ray_session, tiny_corpus_dir, fake_models,
                                  tmp_path, monkeypatch):
    """Where the per-site rules were sound the budget keeps their
    sizes: (24, 7) HMM and (28, 3) CRF/transformer at 32 CPUs on large
    input, (2, 1) for both benchmark workloads on 4 CPUs, and (1, 1)
    for a 2-file group of the 120-page test corpus.  A lone pool keeps
    the size the one-pool plans had: the tagger share after a linker
    CPU is set aside."""
    from kgray.pipelines import multimodal

    stream = str(tmp_path / "stream")        # the hmm_stream shape
    generate_corpus(stream, n_pages=3200, seed=7, pages_per_shard=200)
    grouped = str(tmp_path / "grouped")      # the grouped_resume shape
    generate_corpus(grouped, n_pages=1200, seed=7, pages_per_shard=150)

    def sizes(files, tagger="hmm"):
        return _pool_sizes(kg.kg_dataset(files, stream, fake_models,
                                         tagger=tagger))

    big = kg.page_files(stream) * 2          # 6,400 rows
    _cpus(monkeypatch, 32)
    assert sizes(big) == [24, 7]
    assert sizes(big, "crf") == [28, 3]
    assert sizes(big, "transformer") == [28, 3]
    _cpus(monkeypatch, 4)
    assert sizes(kg.page_files(stream)) == [2, 1]
    for _, files in kg.partition_groups(kg.page_files(grouped)):
        assert sizes(files) == [2, 1]
    for _, files in kg.partition_groups(kg.page_files(tiny_corpus_dir)):
        assert sizes(files) == [1, 1]
    _cpus(monkeypatch, 3)
    assert sizes(kg.page_files(stream)) == [1, 1]
    _cpus(monkeypatch, 2)
    with pytest.raises(PoolBudgetError, match=r"tagger 1, linker 1.*has 2"):
        sizes(kg.page_files(stream))
    for cpus, n in ((2, 1), (3, 1), (4, 2), (8, 6), (32, 24)):
        _cpus(monkeypatch, cpus)
        assert _pool_sizes(multimodal.binary_features(big)) == [n]
