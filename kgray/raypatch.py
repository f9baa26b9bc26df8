"""A workaround for a Ray 2.49 driver crash in long sessions, installed
by the processes that own a Ray session for many Datasets (the pytest
suite, ``scripts/check_queries.py``).  The kgray library itself never
installs it.

Ray 2.49's core worker aborts the whole driver process when
``ray.cancel`` reaches a task whose completion reply is already on its
way: the CHECKs at ``task_manager.cc:930`` and
``reference_count.cc:581`` (NOTES.md #63).  Ray Data cancels every task
an operator still lists as active when a Dataset's executor shuts down,
even after its last output, a few hundred times per dozen test modules.
"""

from __future__ import annotations

_SHUTDOWN_GRACE_S = 0.25


def cancel_only_running_tasks():
    """Replace ``PhysicalOperator._cancel_active_tasks``: an operator
    first waits up to ``_SHUTDOWN_GRACE_S`` for its listed tasks to
    finish and cancels only the ones still running then, as Ray Data
    would."""
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
