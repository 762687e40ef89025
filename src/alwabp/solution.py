"""Solutions: an ordered worker and task tuple per station, plus the
checker."""

from __future__ import annotations

from dataclasses import dataclass

from .instance import INFEASIBLE, Instance


@dataclass(frozen=True, slots=True)
class Solution:
    """`stations[k] = (worker, tasks)`, with `tasks` an ascending tuple of
    task indices; stations are in line order.  Tuples and slots keep a
    solution small, as callers hold them by the thousand (a GA's
    population and its local-search memo, the results of a batch of
    searches)."""

    stations: tuple[tuple[int, tuple[int, ...]], ...]
    loads: tuple[int, ...]
    cycle: int
    direction: str = "forward"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_solution(inst: Instance, sol: Solution) -> tuple[bool, list[str]]:
    """Check a solution against the instance; returns (feasible, violations).

    Verified: one station per worker (a bijection), tasks partitioned over
    the stations, every worker capable of every task assigned to it,
    precedence respected by station order, and the recorded loads/cycle
    matching a recomputation.  A `sol` that is not a `Solution`,
    stations that are not (worker, tasks) pairs, and a worker or task
    that is not an int (a bool is not), are reported before anything is
    indexed by them.
    """
    if not isinstance(sol, Solution):
        return (False, [f"{sol!r} is not a Solution"])
    try:
        stations = [(w, tuple(tasks)) for w, tasks in sol.stations]
    except (TypeError, ValueError):
        return (False, [f"stations {sol.stations!r} are not (worker, tasks) "
                        "pairs"])
    v = []

    if len(stations) != inst.n_workers:
        v.append(f"expected {inst.n_workers} stations, got {len(stations)}")

    malformed = []
    for k, (w, tasks) in enumerate(stations):
        if not _is_int(w):
            malformed.append(f"station {k + 1}: worker {w!r} is not an "
                             "integer")
        malformed += [f"station {k + 1}: task {i!r} is not an integer"
                      for i in tasks if not _is_int(i)]
    if malformed:
        return (False, v + malformed)

    workers = [w for w, _ in stations]
    if sorted(workers) != list(range(inst.n_workers)):
        v.append("workers and stations are not in bijection")

    where = {}
    for k, (w, tasks) in enumerate(stations):
        for i in tasks:
            if not (0 <= i < inst.n_tasks):
                v.append(f"unknown task {i + 1}")
                continue
            if i in where:
                v.append(f"task {i + 1} assigned more than once")
            else:
                where[i] = k
            if 0 <= w < inst.n_workers and inst.times[w][i] == INFEASIBLE:
                v.append(f"task {i + 1} is infeasible for worker {w + 1}")
    missing = [i for i in range(inst.n_tasks) if i not in where]
    if missing:
        v.append("unassigned tasks: " + ", ".join(str(i + 1) for i in missing))

    # walks `succ`, which iterates in set order, and lists in edge order
    late = sorted((i, j) for i, ss in enumerate(inst.succ) for j in ss
                  if i in where and j in where and where[i] > where[j])
    v += [f"task {i + 1} must not come after task {j + 1}" for i, j in late]

    if not v:
        loads = tuple(sum(inst.times[w][i] for i in ts)
                      for w, ts in stations)
        if (not isinstance(sol.loads, (tuple, list))
                or tuple(sol.loads) != loads):
            v.append(f"recorded loads {sol.loads} differ from {loads}")
        elif sol.cycle != max(loads):
            v.append(f"recorded cycle {sol.cycle} is not the maximum load")

    return (not v, v)
