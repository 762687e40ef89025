"""One pass of an assembly, and one station of it offered to one
worker, for hand traces and the golden snapshot.

Built from the constructive module's own parts, so what these return is
what an assembly computes: `assemble` runs `_assemble` at a fixed cycle,
`station_load_tasks` runs `_fill` on the worker's priority row, and
`score_worker` scores the commitment as `_assemble` does, MinBWA with
`_bwa_without` and MinRLB with `_rest_bound`.
"""

from __future__ import annotations

from alwabp import Solution, WorkerRule
from alwabp.constructive import (_assemble, _bwa_without, _Crew, _fill,
                                 _Line, _rest_bound, _station_prio,
                                 _station_start)


def _mask(tasks):
    return sum(1 << i for i in tasks)


def assemble(inst, c_bar, source, worker_rule,
             direction="forward") -> Solution | None:
    """One full pass at the fixed tentative cycle c_bar, under a
    `TaskRule` or a workers x tasks priority matrix: a feasible Solution,
    or None when tasks remain unassigned.  A backward pass fills the
    stations from the end of the line and reports them in line order."""
    return _assemble(inst.times, c_bar, source, worker_rule,
                     _Line(inst.closure(), direction), {}, None)


def station_load_tasks(inst, unassigned, available_workers, worker, c_bar,
                       source) -> set[int]:
    """Task set `worker` would take at the next station.

    `unassigned` are the tasks not yet committed to earlier stations;
    everything else counts as already done.
    """
    line = _Line(inst.closure())
    workers = sorted(available_workers)
    left = sorted(unassigned)
    u_mask = _mask(left)
    ready = [i for i in left if not line.pred_masks[i] & u_mask]
    crew = _Crew(inst.times, workers, inst.n_tasks, None, None)
    prio = _station_prio(source, crew, line, range(inst.n_tasks),
                         c_bar)(worker)
    line.succ = [[j for j in s if j in left]                # not done yet
                 for s in line.succ]
    _, _, picked = _fill(inst.times[worker], prio, ready, u_mask, c_bar,
                         line)
    return set(picked)


def score_worker(inst, unassigned, available_workers, worker,
                 tasks_for_worker, rule: WorkerRule) -> float:
    """Score of committing `worker` with `tasks_for_worker` (smaller is
    better for MinBWA/MinRLB, larger for MaxTasks)."""
    if rule is WorkerRule.MAX_TASKS:
        return len(tasks_for_worker)
    workers = sorted(available_workers)
    crew = _Crew(inst.times, workers, inst.n_tasks, None, None)
    if rule is WorkerRule.MIN_BWA:
        return _bwa_without(crew, sorted(unassigned),
                            _mask(tasks_for_worker), worker, inst.n_workers)
    rest = sorted(set(unassigned) - set(tasks_for_worker))
    pred_masks = _Line(inst.closure()).pred_masks
    _, totals = _station_start(rest, 0, pred_masks, crew, inst.n_workers)
    return _rest_bound(totals, len(workers) - 1, worker, (), crew)
