"""Dynamic self-scheduling over the grid (work-queue execution).

Static mapping commits to a forecast once; self-scheduling hedges by
keeping work in a shared queue and letting each host pull its next chunk
when it finishes the previous one.  Hosts that turn out busier simply pull
fewer chunks.  This is the scheduling style used by the gene-sequence
comparison study the paper cites ([24]), and the natural consumer of
*short-term* availability forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.schedapp.grid import SimGrid
from repro.schedapp.tasks import GridTask, TaskResult
from repro.sim.process import Process

__all__ = ["self_schedule", "WorkQueueRun"]


@dataclass(frozen=True)
class WorkQueueRun:
    """Outcome of a self-scheduled execution.

    Attributes
    ----------
    results:
        Per-chunk execution records, in completion order.
    makespan:
        Seconds from dispatch until the last chunk completed.
    chunks_per_host:
        How many chunks each host ended up executing.
    """

    results: list[TaskResult]
    makespan: float
    chunks_per_host: dict[str, int]
    _frozen: bool = field(default=True, repr=False)


def self_schedule(grid: SimGrid, tasks: list[GridTask]) -> WorkQueueRun:
    """Execute ``tasks`` on ``grid`` with a shared pull queue.

    Every host starts one chunk immediately; on completion it pulls the
    next unstarted chunk.  The loop advances all hosts in small steps so
    pulls interleave correctly across machines.

    Parameters
    ----------
    grid:
        The host pool (its simulated clocks advance as a side effect).
    tasks:
        Work units; consumed in the given order.
    """
    if not tasks:
        raise ValueError("no tasks to schedule")
    queue = list(tasks)
    start = grid.now
    results: list[TaskResult] = []
    busy: dict[str, bool] = {name: False for name in grid.names}
    obs_pulls = get_registry().counter("repro_sched_chunks_pulled_total")

    def pull(idx: int) -> None:
        name = grid.names[idx]
        if not queue:
            busy[name] = False
            return
        busy[name] = True
        obs_pulls.inc()
        task = queue.pop(0)
        host = grid.hosts[idx]
        begun = host.kernel.time

        def done(_proc, task=task, begun=begun, idx=idx, name=name):
            results.append(
                TaskResult(
                    task=task,
                    host=name,
                    start_time=begun - start,
                    end_time=grid.hosts[idx].kernel.time - start,
                )
            )
            pull(idx)

        host.kernel.spawn(
            Process(f"wq:{task.task_id}", cpu_demand=task.work, on_done=done)
        )

    for idx in range(len(grid.names)):
        pull(idx)

    # Advance all hosts in lockstep until the queue drains and all chunks
    # complete.  The step is coarse (30 s) -- a host that finishes mid-step
    # pulls its next chunk via the completion callback inside run_until,
    # so no idle time is lost beyond scheduling reality.
    horizon = start
    while len(results) < len(tasks):
        horizon += 30.0
        for host in grid.hosts:
            host.run_until(horizon)
        if horizon - start > 1e7:  # pragma: no cover - runaway guard
            raise RuntimeError("work queue did not drain")

    makespan = max(r.end_time for r in results)
    counts: dict[str, int] = {name: 0 for name in grid.names}
    for r in results:
        counts[r.host] += 1
    grid.advance(max(h.kernel.time for h in grid.hosts))
    return WorkQueueRun(results=results, makespan=makespan, chunks_per_host=counts)
