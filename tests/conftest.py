import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_RAY_ARGS = dict(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
_SHUTDOWN_GRACE_S = 0.25


def _cancel_only_running_tasks():
    """Ray 2.49's core worker aborts the whole driver process (pytest
    exits 1 with no summary) when ``ray.cancel`` reaches a task whose
    completion reply is already on its way: the CHECKs at
    ``task_manager.cc:930`` and ``reference_count.cc:581`` (NOTES.md
    #63).  Ray Data cancels every task an operator still lists as
    active when a Dataset's executor shuts down, even after its last
    output, a few hundred times per dozen test modules.  Here the operator
    first waits up to ``_SHUTDOWN_GRACE_S`` for those tasks to finish
    and cancels only the ones still running then, as Ray Data would."""
    import ray
    from ray.data._internal.execution.interfaces.physical_operator import (
        PhysicalOperator)

    def task_ref(task):
        ref = task.get_waitable()
        return getattr(ref, "_generator_ref", ref)

    def _cancel_active_tasks(self, force: bool):
        tasks = self.get_active_tasks()
        refs = [task_ref(t) for t in tasks]
        if not refs:
            return
        ready, _ = ray.wait(refs, num_returns=len(refs),
                            timeout=_SHUTDOWN_GRACE_S, fetch_local=False)
        done = set(ready)
        running = [t for t, r in zip(tasks, refs) if r not in done]
        for task in running:
            task._cancel(force=force)
        if force:
            for task in running:
                try:
                    ray.get(task.get_waitable())
                except ray.exceptions.RayError:
                    pass

    PhysicalOperator._cancel_active_tasks = _cancel_active_tasks


_cancel_only_running_tasks()


def _init_ray():
    import ray

    ray.init(**_RAY_ARGS)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session at a time for the whole pytest run (driver
    contract); see ``_ray_recycle`` for the periodic stability
    restart."""
    import ray

    if not ray.is_initialized():
        _init_ray()
    yield
    import ray

    ray.shutdown()


_MODULES_SEEN = {"n": 0}
_RECYCLE_EVERY = 12


@pytest.fixture(scope="module", autouse=True)
def _ray_recycle():
    """Ray 2.49 intermittently dies on internal CHECKs
    (reference_count.cc:581 / task_manager.cc:930) in single local
    sessions that execute many hundreds of Datasets (NOTES.md #63) —
    it killed one full-suite run at ~24%.  Recycling the local cluster
    every few test MODULES keeps each session well inside the observed
    crash horizon.  Module boundaries only: module-scoped fixtures may
    hold Datasets, which must not outlive their session."""
    import ray

    _MODULES_SEEN["n"] += 1
    if _MODULES_SEEN["n"] % _RECYCLE_EVERY == 0 and ray.is_initialized():
        ray.shutdown()
        _init_ray()
    yield


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """Small deterministic synthetic corpus shared across tests."""
    from kgray.sources.corpus import generate_corpus

    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(str(out), n_pages=120, seed=7, pages_per_shard=30)
    return str(out)
