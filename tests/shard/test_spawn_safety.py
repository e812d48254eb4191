"""Fork/spawn footguns must fail loudly, before any process starts.

``repro.experiments.matrix.map_tasks`` test-pickles its worker and task
payloads before starting a pool; a lambda or a live-object payload raises
:class:`PoolError` with guidance instead of a mid-pool
``PicklingError``.  The real-spawn tests prove the pool uses the spawn
start method (fresh interpreters, not forked copies) and returns results
in task order.

Workers live at module top level: spawned children re-import the worker
by qualified name, and the spawn preparation data carries the parent's
``sys.path``, so test modules are importable in the child.
"""

import os
import threading

import pytest

from repro.experiments.matrix import PoolError, map_tasks

#: Set in the parent only: a forked child would inherit it, a spawned
#: one re-imports this module and sees it empty.
_PARENT_ONLY = {}


def _echo_worker(task):
    """Top-level, importable — what a legal spawn worker looks like."""
    return {
        "task": task,
        "pid": os.getpid(),
        "inherited": dict(_PARENT_ONLY),
    }


def _double(value):
    return value * 2


def test_spawn_context_is_explicit():
    _PARENT_ONLY["set"] = True
    try:
        (result,) = map_tasks(_echo_worker, [{"id": 0}], workers=1)
    finally:
        _PARENT_ONLY.clear()
    assert result["pid"] != os.getpid()
    assert result["inherited"] == {}


def test_lambda_worker_fails_fast_with_guidance():
    with pytest.raises(PoolError) as excinfo:
        map_tasks(lambda task: task, [1, 2])
    message = str(excinfo.value)
    assert "spawn" in message
    assert "top-level callables" in message


def test_live_object_payload_fails_fast():
    # A lock stands in for any live simulation object (observer,
    # deployment, telemetry bus) smuggled into a task payload.
    with pytest.raises(PoolError) as excinfo:
        map_tasks(_double, [threading.Lock()])
    assert "task 0" in str(excinfo.value)
    assert "never live objects" in str(excinfo.value)


def test_spawned_workers_get_content_addressed_seeds():
    # A matrix cell's seed is derived from its identity, so it arrives in
    # the task and the worker never derives one from shared state.
    from repro.experiments.matrix import Cell

    cells = [Cell.of(topology=t) for t in ("lan", "wan", "lossy")]
    tasks = [{"cell": cell.cell_id, "seed": cell.seed(42)} for cell in cells]
    results = map_tasks(_echo_worker, tasks, workers=2)
    # Task order, not completion order.
    assert [r["task"] for r in results] == tasks
    assert len({task["seed"] for task in tasks}) == 3
    # Real processes, not this one.
    assert all(r["pid"] != os.getpid() for r in results)


def test_inline_equals_spawn_for_pure_workers():
    tasks = [{"id": index} for index in range(3)]
    inline = [_echo_worker(task) for task in tasks]
    spawned = map_tasks(_echo_worker, tasks, workers=2)

    def strip(rows):
        return [
            {k: v for k, v in row.items() if k != "pid"} for row in rows
        ]

    assert strip(inline) == strip(spawned)


def _failing_worker(task):
    raise ValueError(f"task {task} exploded")


def test_worker_failure_surfaces_as_pool_error():
    with pytest.raises(PoolError, match="a pool worker failed"):
        map_tasks(_failing_worker, [0, 1], workers=2)
