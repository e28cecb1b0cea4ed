"""Deterministic task fan-out.

Results come back in task-submission order no matter how many workers
run, so any computation built on this helper is reproducible across
``workers=1`` and ``workers=N``.  Worker functions must be module-level
(picklable) and pure.
"""

from __future__ import annotations


def run_ordered(fn, tasks: list, workers: int = 1) -> list:
    """Apply fn to each task, preserving task order in the result list."""
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: the process pool machinery costs about 2 MB of
    # resident memory, which serial runs should not pay
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
