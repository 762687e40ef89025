"""Cycle-time lower bounds and cycle-driven instance reduction.

All bounds work on t-_i, the fastest execution time of task i over the
workers that can execute it.  LC1 combines the largest single time with
the perfectly balanced load; LC2 sums the smallest k+1 entries among the
k*m+1 largest times (some station must take k+1 of them); LC3 searches
for the smallest cycle whose earliest/latest station windows are
consistent for every task.

`preprocess` reduces the instance at a tentative cycle and holds two
proofs that the cycle is infeasible: a task loses its last capable
worker, or a budgeted exhaustive search over the stations finds no
assignment on the reduced times.  Both are sound, so a search that
skips the cycles they rule out finds the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import INFEASIBLE, Instance, as_int, as_member, as_number


class CycleInfeasibleError(Exception):
    """The tentative cycle time admits no assignment at all."""


def _min_times(inst: Instance) -> list:
    return [min(col) for col in zip(*inst.times)]


def _ceil_div(a, b) -> int:
    return -(-a // b)


def lc1(inst: Instance) -> int:
    t = _min_times(as_member(inst, Instance, "inst"))
    return max(max(t), _ceil_div(sum(t), inst.n_workers))


def _lc2(inst: Instance) -> int:
    # t sorted non-increasingly, 1-based position p -> t[p - 1]
    t = sorted(_min_times(inst), reverse=True)
    n, m = inst.n_tasks, inst.n_workers
    return max((sum(t[k * m - i] for i in range(k + 1))  # positions km+1-i
                for k in range(1, (n - 1) // m + 1)), default=0)


def _lc3(inst: Instance, c_start: int) -> int:
    """Smallest c >= c_start (at least 1) at which every task's station
    window is consistent: its earliest station, ceil(head / c), is not
    after its latest, m + 1 - ceil(tail / c), where head (tail) is t- of
    the task plus all its transitive predecessors (successors).
    Terminates: at c = sum(t-) every window collapses to [1, m].
    """
    t = _min_times(inst)
    clo = inst.closure()
    head = [t[i] + sum(t[j] for j in clo.pred_star[i])
            for i in range(inst.n_tasks)]
    tail = [t[i] + sum(t[j] for j in clo.succ_star[i])
            for i in range(inst.n_tasks)]
    m = inst.n_workers
    c = c_start
    while any(_ceil_div(hd, c) > m + 1 - _ceil_div(tl, c)
              for hd, tl in zip(head, tail)):
        c += 1
    return c


@dataclass(frozen=True)
class BoundsReport:
    lc1: int
    lc2: int
    lc3: int
    external_relax: float | None
    best: int


def compute_bounds(inst: Instance,
                   external_relax: float | None = None) -> BoundsReport:
    """LC1, LC2, LC3 and their maximum, raised to an external relaxation
    bound when one is given; one that is not a finite number (a bool is
    not) is refused with ValueError."""
    as_member(inst, Instance, "inst")
    if external_relax is not None:
        as_number(external_relax, "the external relaxation bound")
    a = lc1(inst)
    b = _lc2(inst)
    c = _lc3(inst, max(a, b))
    best = max(a, b, c)
    if external_relax is not None:
        # small slack so solver noise just above an integer does not
        # round an exact relaxation value up
        best = max(best, math.ceil(external_relax - 1e-9))
    return BoundsReport(a, b, c, external_relax, best)


# Task scans (see `_no_assignment`) an exhaustive search makes before it
# gives up without a proof.  On 600 random lines of at most 8 tasks and 4
# workers it proved the 3,753 of the 5,112 cycles below the optimum that
# the sole-worker step leaves open, the largest in 1,640 scans; on 70x10
# and 75x19 lines an attempt gives up without one in under a millisecond.
SEARCH_SCANS = 4000


class _OutOfScans(Exception):
    """The exhaustive search used up `SEARCH_SCANS`."""


def _no_assignment(times, succ, c) -> bool:
    """Whether an exhaustive search proves that no assignment keeps every
    station at or below c; False when it finds one or runs out of scans.

    Stations are filled in line order, each by an unused worker with a
    maximal precedence-closed set of open tasks it can execute within c:
    no other open task whose predecessors are all assigned still fits.
    Maximal sets suffice, because moving a task to an earlier station
    never breaks a completion: its predecessors are already assigned,
    its followers stay at or after it, and the later station only gets
    lighter.  Failed states (open tasks, used workers) are remembered.
    A state is cut when some open task has no unused worker that
    executes it within c, or when the open tasks' fastest times over the
    unused workers sum beyond c per unused worker.  The search gives up
    after `SEARCH_SCANS` task scans: a state scans every task, and its
    open tasks once more per worker offered its station; a new set of
    unused workers scans its fastest-time table; a station step scans
    the tasks it reads.
    """
    n, m = len(times[0]), len(times)
    bits = [1 << i for i in range(n)]
    pred_masks = [0] * n
    for i, ss in enumerate(succ):
        for j in ss:
            pred_masks[j] |= bits[i]
    fastest = {}            # used-worker mask -> fastest time per task
    failed = set()
    left = SEARCH_SCANS

    def scan(k):
        nonlocal left
        left -= k
        if left < 0:
            raise _OutOfScans

    def fits(rest, used):
        """Whether the tasks of the mask `rest` fit on the workers not in
        the mask `used`."""
        if not rest:
            return True
        free = [w for w in range(m) if not used >> w & 1]
        if not free or (rest, used) in failed:
            return False
        mins = fastest.get(used)
        if mins is None:
            scan(n * len(free))
            mins = fastest[used] = list(map(min, zip(*(times[w]
                                                       for w in free))))
        scan(n)
        open_ = [i for i, b in enumerate(bits) if rest & b]
        need = [mins[i] for i in open_]
        if max(need) <= c and sum(need) <= len(free) * c:
            if len(free) == 1:
                return True
            for w in free:
                scan(len(open_))
                row = times[w]
                ready = [i for i in open_
                         if row[i] <= c and not pred_masks[i] & rest]
                if grow(row, 1 << w, rest, used, 0, ready, INFEASIBLE):
                    return True
        failed.add((rest, used))
        return False

    def grow(row, bit, rest, used, load, cands, least):
        """Whether a maximal station of `row` that takes some of `cands`,
        the tasks of `rest` that can join it, leads to an assignment;
        `least` is the smallest time of the tasks it skipped, which must
        not fit in the end."""
        if not cands:
            scan(1)
            return load + least > c and fits(rest, used | bit)
        for k, i in enumerate(cands):
            scan(len(cands) - k + len(succ[i]))
            after = rest ^ bits[i]
            load_i = load + row[i]
            nxt = [j for j in cands[k + 1:] if load_i + row[j] <= c]
            nxt += [s for s in succ[i] if load_i + row[s] <= c
                    and not pred_masks[s] & after]
            if grow(row, bit, after, used, load_i, nxt, least):
                return True
            least = min(least, row[i])
        return False            # no task taken: not maximal

    try:
        return not fits((1 << n) - 1, 0)
    except _OutOfScans:
        return False
    finally:
        del fits, grow          # they hold each other: free the tables now


def preprocess(inst: Instance, c: int) -> tuple[Instance, int]:
    """Propagate cycle-time c into extra INFEASIBLE cells.

    If task i can only be executed by worker w and k were executed by w
    as well, then i, k and every task between them would share w's
    station; when those times sum beyond c (an INFEASIBLE time counts as
    beyond), k cannot go to w, so t_wk becomes INFEASIBLE.  Applied to a
    fixed point.  Returns (reduced instance, cells removed).

    Raises CycleInfeasibleError when some task would lose its last
    capable worker, and when the exhaustive search (`_no_assignment`) on
    the reduced times proves, within `SEARCH_SCANS` task scans, that no
    assignment exists; a search that runs out of scans proves nothing.
    A cycle that is not an integer of at least 1 is refused with
    ValidationError.
    """
    as_member(inst, Instance, "inst")
    c = as_int(c, "cycle", 1)
    n, m = inst.n_tasks, inst.n_workers
    times = [list(row) for row in inst.times]
    finite_count = [m - col.count(INFEASIBLE) for col in zip(*times)]

    removed = 0
    changed = 1 in finite_count     # only a sole worker removes cells
    if changed:
        clo = inst.closure()
        succ_star, pred_star = clo.succ_star, clo.pred_star
    while changed:
        changed = False
        for i in range(n):
            if finite_count[i] != 1:
                continue
            row = next(r for r in times if r[i] != INFEASIBLE)
            t_i = row[i]
            for k in range(n):
                if k == i or row[k] == INFEASIBLE:
                    continue
                # in an acyclic order at most one side is nonempty
                between = ((succ_star[i] & pred_star[k])
                           | (succ_star[k] & pred_star[i]))
                if t_i + row[k] + sum(row[j] for j in between) > c:
                    row[k] = INFEASIBLE
                    finite_count[k] -= 1
                    removed += 1
                    changed = True
                    if finite_count[k] == 0:
                        raise CycleInfeasibleError(
                            f"cycle time {c} proven infeasible: task {k + 1} "
                            f"lost its last capable worker")

    if _no_assignment(times, inst.succ, c):
        raise CycleInfeasibleError(f"cycle time {c} proven infeasible by "
                                   "exhaustive search")
    if removed == 0:
        return inst, 0
    edges = ((i, j) for i, ss in enumerate(inst.succ) for j in ss)
    return Instance(n, m, times, edges, name=inst.name), removed
