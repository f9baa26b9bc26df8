"""No plan starts an actor pool.

A fixed-size actor pool sized from the cluster's CPU count cannot start
beside a co-tenant that holds some of those CPUs, and it stalls the
streaming executor without an error.  Every model stage therefore runs
as a one-CPU task that loads its model once per worker process
(``stages.kg.loaded_chain``) or holds no state at all: the flagship's
plans (``kg_dataset`` and the ``run_kg`` stream), the validation-split
taggers, the alias-patch relink and the multimodal featurizers.  Every
plan is built at 1–32 CPUs and must hold no actor pool, and the plans
that used to hold one finish beside a co-tenant."""

import json
import os
from functools import partial

import pyarrow as pa
import pytest
import ray
import ray.data as rd
from ray.data import ActorPoolStrategy

from kgray.pipelines import kg

TAGGERS = ("hmm", "crf", "transformer")


def _actor_pools(ds) -> list:
    """Names of the actor-pool operators in a lazy Dataset's logical
    plan."""
    pools, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        if isinstance(getattr(op, "_compute", None), ActorPoolStrategy):
            pools.append(op.name)
        stack.extend(op.input_dependencies)
    return pools


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(n)})


@pytest.fixture(scope="module")
def fake_models(tmp_path_factory):
    """A models.json for every tagger: plans are built, never run, so
    no task ever loads these paths."""
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
    """name → plan builder; the flagship's plans are named
    ``kg_dataset(...)`` and ``run_kg stream``."""
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
    """Every plan builds at every cluster size, with no actor pool."""
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
        assert _actor_pools(build()) == [], (name, cpus)


def _sorted(ds, keys: list) -> pa.Table:
    from kgray.stages.topk import to_table

    return to_table(ds).sort_by([(k, "ascending") for k in keys])


def test_binary_features_beside_a_cotenant(beside_a_cotenant,
                                           tiny_corpus_dir):
    """The featurizer finishes on the one CPU a co-tenant leaves free,
    with the uncontended run's output."""
    from kgray.pipelines import multimodal

    files = kg.page_files(tiny_corpus_dir)

    def features():
        return _sorted(multimodal.binary_features(files), ["url"])

    assert beside_a_cotenant(features).equals(features())


def test_hmm_tags_valid_beside_a_cotenant(beside_a_cotenant, tiny_corpus_dir,
                                          tmp_path, monkeypatch):
    """The validation-split tagger finishes beside a co-tenant, with the
    uncontended run's tags."""
    import __ray_entry__ as entry
    from kgray.sources import derived

    model_dir = str(tmp_path / "models")
    kg.build_models(tiny_corpus_dir, model_dir, tagger="hmm")
    monkeypatch.setattr(derived, "corpus_for_sf", lambda sf: tiny_corpus_dir)
    monkeypatch.setattr(derived, "models_for_corpus",
                        lambda corpus, tagger="hmm": model_dir)

    def tags():
        return _sorted(entry._hmm_tags_valid("sf"),
                       ["sent_id", "token_idx"])

    tagged = beside_a_cotenant(tags)
    assert tagged.num_rows and tagged.equals(tags())
