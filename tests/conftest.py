import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_RAY_ARGS = dict(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")

# Ray Data's shutdown cancel can abort a long session (NOTES.md #63)
from kgray.raypatch import cancel_only_running_tasks  # noqa: E402

cancel_only_running_tasks()


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


@pytest.fixture
def beside_a_cotenant(ray_session):
    """``run(fn)`` calls ``fn()`` in a thread while an actor holds 3 of
    the session's 4 CPUs and returns its result (or re-raises its
    error).  A plan that cannot be scheduled on the one free CPU fails
    the test after ``deadline`` seconds instead of hanging it."""
    import threading

    import ray

    @ray.remote(num_cpus=3)
    class CoTenant:
        def ready(self):
            return True

    def run(fn, deadline: float = 120):
        tenant = CoTenant.remote()
        box = {}

        def call():
            try:
                box["out"] = fn()
            except BaseException as e:   # re-raised in the test's thread
                box["err"] = e

        t = threading.Thread(target=call, daemon=True)
        try:
            assert ray.get(tenant.ready.remote(), timeout=60)
            t.start()
            t.join(deadline)
            stalled = t.is_alive()
        finally:
            ray.kill(tenant)
        t.join(deadline)         # a stalled plan drains once the CPUs are back
        assert not stalled, f"no result beside a co-tenant after {deadline} s"
        if "err" in box:
            raise box["err"]
        return box["out"]

    return run
