"""Station-oriented constructive heuristics.

Stations are filled in line order.  For one tentative cycle time, every
still-available worker is offered the station: the worker greedily takes
the highest-priority available task that still fits until nothing fits
(a maximal load).  A worker rule then commits one worker and its task
set, and the next station starts.  If tasks remain after the last
station, the cycle time is infeasible for the heuristic and the search
tries the next integer.  A failing assembly may stop before the last
station, as soon as the remaining stations provably cannot hold the
remaining work.  A backward pass fills the stations from the end of the
line: it runs the same assembly on the flipped precedence and reports
its stations in original line order.

An assembly reads only the worker times and the precedence of its
direction, both read off the instance's one closure.  The searches on
one instance share work through a `SearchCache`, whose docstring points
to each rule of that sharing.

Priorities come either from a named task rule or from an externally
supplied worker x task matrix of values in [0, 1] (larger = earlier).
Worker-dependent statistics (fastest/slowest/average times, positional
weights, ranks, MinD and MinR rows, MinBWA's fastest workers) are taken
over the workers still available, with INFEASIBLE times replaced by the
tentative cycle time where an aggregate needs a finite stand-in; `_Crew`
keeps them per set of available workers.  The aggregates that depend on
the tentative cycle are derived per station, for the unassigned tasks,
and so are the rows that read the precedence, which differs between the
two directions one crew serves.

Tie-breaking is fixed everywhere so runs are reproducible: tasks by more
immediate followers, then smaller time for the candidate worker, then
smaller index; workers by the rule score, then a rule-specific second
score (load balance estimate, or the task count), then smaller idle
time, then smaller index.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import isfinite

from .bounds import CycleInfeasibleError, lc1, preprocess
from .instance import INFEASIBLE, Instance, as_int, as_member
from .solution import Solution


class NoFeasibleAssignmentError(Exception):
    """Even the search ceiling produced no assignment."""


class TaskRule(Enum):
    """Named priority rules; '-'/'+'/'Avg' refer to the fastest, slowest
    and average execution time over the available workers."""

    MAX_F = "MaxF"                 # more transitive followers first
    MAX_IF = "MaxIF"               # more immediate followers first
    MAX_TIME_MIN = "MaxTime-"
    MAX_TIME_MAX = "MaxTime+"
    MAX_TIME_AVG = "MaxTimeAvg"
    MIN_TIME_MIN = "MinTime-"
    MIN_TIME_MAX = "MinTime+"
    MIN_TIME_AVG = "MinTimeAvg"
    MAX_PW_MIN = "MaxPW-"          # positional weight: own + followers' times
    MAX_PW_MAX = "MaxPW+"
    MAX_PW_AVG = "MaxPWAvg"
    MIN_D = "MinD"                 # time handicap vs the fastest worker
    MIN_R = "MinR"                 # time ratio vs the fastest worker
    MAX_F_TIME = "MaxFTime"        # immediate followers per time unit
    MAX_IF_TIME = "MaxIFTime"      # transitive followers per time unit
    MIN_RANK = "MinRank"           # how many workers are faster on the task


class WorkerRule(Enum):
    MAX_TASKS = "MaxTasks"         # largest committed task set
    MIN_BWA = "MinBWA"             # smallest bottleneck assignment of the rest
    MIN_RLB = "MinRLB"             # smallest balanced lower bound for the rest


DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class RuleConfig:
    """One configuration of the search: a rule not of its enum and an
    unknown direction are refused with ValueError."""

    task_rule: TaskRule
    worker_rule: WorkerRule
    direction: str = "forward"

    def __post_init__(self):
        as_member(self.task_rule, TaskRule, "task_rule")
        as_member(self.worker_rule, WorkerRule, "worker_rule")
        as_member(self.direction, DIRECTIONS, "direction")

    @property
    def label(self) -> str:
        return (f"{self.task_rule.value}/{self.worker_rule.value}/"
                f"{self.direction}")


def all_rule_configs() -> list[RuleConfig]:
    """All 16 x 3 x 2 = 96 rule combinations, in a fixed order."""
    return [RuleConfig(t, w, d)
            for t in TaskRule for w in WorkerRule for d in DIRECTIONS]


# -- statistics of one set of available workers ------------------------------

_BY_MIN = (TaskRule.MAX_TIME_MIN, TaskRule.MIN_TIME_MIN, TaskRule.MAX_PW_MIN)
_BY_MAX = (TaskRule.MAX_TIME_MAX, TaskRule.MIN_TIME_MAX, TaskRule.MAX_PW_MAX)
_MAX_TIME = (TaskRule.MAX_TIME_MIN, TaskRule.MAX_TIME_MAX, TaskRule.MAX_TIME_AVG)
_MIN_TIME = (TaskRule.MIN_TIME_MIN, TaskRule.MIN_TIME_MAX, TaskRule.MIN_TIME_AVG)


class _Crew:
    """Per-task statistics of one set of available workers.

    `min1`, `amin` and `min2` hold each task's fastest time, the
    smallest-index worker at that time (-1 if none) and the second
    fastest time (equal to `min1` when two workers tie).  The tables
    only some rules read (`ranks`, `mind` and `minr`, per worker its
    MinRank, MinD and MinR row; `ties`, `spread`, each read off the
    workers' rows of the times) and the first station's `totals` are
    built on first use.  A crew is a pure function of the times and its
    workers, so the searches sharing a `SearchCache` build one per pair
    they meet and read it at every later station with the same pair, in
    either direction.  The cache keeps one table of crews per value of
    the times, which the cycles with equal reduced times share, and
    clears them all as a search starts once they together hold
    `CREW_CELLS` table cells; that costs hits, never results.  `cells`
    counts the table cells the crew holds: 3n for `min1`, `amin` and
    `min2`, plus what each table built so far holds (n x k for each of
    `ranks`, `mind` and `minr`, k the crew's workers, 6n for `ties`, 4n
    for `spread`, 2m + 3 for `totals`, m the instance's workers).  Over
    the crews of a `run_all_96` that is 3n to 36n on 70x10 sweep lines
    (see `CREW_CELLS`).

    A station's crew is derived from `parent`, the previous station's
    crew, without `gone`, the worker committed there; a crew with no
    parent (None) is the same with every task to redo.  A derived crew
    copies its parent's entries and rescans, over its workers, only the
    tasks `redo` where `gone`'s time is finite and at most the parent's
    second fastest time.  On every other task `gone` is at neither time,
    so the fastest and second fastest times, the fastest worker and the
    workers at both times (`ties`) are exactly the parent's.  `spread`
    takes `gone`'s row out of the parent's sums and counts, which is
    exact as times are integers, and rescans the largest finite time
    only where `gone` alone held it.  The MinD and MinR rows copy the
    parent's, where it built them, and recompute the tasks `redo`.
    MinRank rows are built afresh.
    """

    def __init__(self, times, workers, n, parent, gone):
        self.times = times
        self.workers = tuple(workers)
        self.parent, self.gone = parent, gone
        self.cells = 3 * n
        if parent is None:
            self.redo = redo = range(n)
            self.min1 = min1 = [INFEASIBLE] * n
            self.amin = amin = [-1] * n
            self.min2 = min2 = [INFEASIBLE] * n
        else:
            self.min1 = min1 = parent.min1.copy()
            self.amin = amin = parent.amin.copy()
            self.min2 = min2 = parent.min2.copy()
            self.redo = redo = []
            for i, t in enumerate(times[gone]):
                if t <= min2[i] and t != INFEASIBLE:
                    redo.append(i)
                    min1[i] = min2[i] = INFEASIBLE
                    amin[i] = -1
        for w in self.workers:
            row = times[w]
            for i in redo:
                t = row[i]
                if t < min1[i]:
                    min2[i] = min1[i]
                    min1[i] = t
                    amin[i] = w
                elif t < min2[i]:
                    min2[i] = t

    @cached_property
    def totals(self):
        """`_station_start`'s rest-bound totals when every task is
        unassigned, as at the first station of a pass."""
        n, m = len(self.min1), len(self.times)
        self.cells += 2 * m + 3
        # the masks only pick the ready tasks, which are not kept here
        return _station_start(range(n), 0, [0] * n, self, m)[1]

    @cached_property
    def ranks(self):
        """Per worker: its MinRank row, minus the number of workers
        faster than it on each task."""
        times, workers = self.times, self.workers
        ranked = list(map(sorted, zip(*(times[w] for w in workers))))
        self.cells += len(self.min1) * len(workers)
        return {w: [-bisect_left(s, t) for s, t in zip(ranked, times[w])]
                for w in workers}

    def _rows(self, name, entry):
        """Per worker, its row of `entry(fastest time, own time)` over the
        tasks, as table `name`: a copy of the parent's row with the `redo`
        tasks recomputed where the parent built that table, as no other
        task's fastest time moved, else built whole."""
        min1, times = self.min1, self.times
        self.cells += len(min1) * len(self.workers)
        if self.parent is None or name not in vars(self.parent):
            return {w: list(map(entry, min1, times[w])) for w in self.workers}
        rows, redo, out = vars(self.parent)[name], self.redo, {}
        for w in self.workers:
            out[w] = row = rows[w].copy()
            own = times[w]
            for i in redo:
                row[i] = entry(min1[i], own[i])
        return out

    @cached_property
    def mind(self):
        """Per worker: its MinD row, the fastest time less its own."""
        return self._rows("mind", lambda f, t: f - t)

    @cached_property
    def minr(self):
        """Per worker: its MinR row, minus its own time over the fastest,
        and 0.0 where no worker of the crew can execute the task."""
        return self._rows(
            "minr", lambda f, t: -(t / f) if f != INFEASIBLE else 0.0)

    @cached_property
    def ties(self):
        """Per task: (its bit, the worker that alone is fastest or -1,
        the fastest time, the workers at that time, the second fastest
        time, and the workers at that time when one worker alone is
        fastest, else ())."""
        if self.parent is None:
            out = [None] * len(self.min1)
        else:
            out = self.parent.ties.copy()
        times, workers = self.times, self.workers
        min1, amin, min2 = self.min1, self.amin, self.min2
        self.cells += 6 * len(min1)
        for i in self.redo:
            t1, t2 = min1[i], min2[i]
            # the workers at t2, which is t1 when no worker alone is fastest
            at = () if t2 == INFEASIBLE else tuple(
                w for w in workers if times[w][i] == t2)
            if t1 == t2:
                out[i] = (1 << i, -1, t1, at, t2, ())
            else:
                out[i] = (1 << i, amin[i], t1, (amin[i],), t2, at)
        return out

    @cached_property
    def spread(self):
        """Per task: the largest finite time (0 if none), the sum of the
        finite times, the number of INFEASIBLE cells and the number of
        workers at the largest finite time."""
        if self.parent is None:
            n = len(self.min1)
            fmax, fsum, ninf, nmax = [0] * n, [0] * n, [0] * n, [0] * n
            redo = range(n)
        else:
            fmax, fsum, ninf, nmax = map(list.copy, self.parent.spread)
            redo = []
            for i, t in enumerate(self.times[self.gone]):
                if t == INFEASIBLE:
                    ninf[i] -= 1
                else:
                    fsum[i] -= t
                    if t == fmax[i]:
                        if nmax[i] == 1:
                            redo.append(i)
                        else:
                            nmax[i] -= 1
        rows = [self.times[w] for w in self.workers]
        self.cells += 4 * len(fmax)
        for i in redo:
            finite = [t for row in rows if (t := row[i]) != INFEASIBLE]
            fmax[i] = top = max(finite, default=0)
            fsum[i] = sum(finite)
            ninf[i] = len(rows) - len(finite)
            nmax[i] = finite.count(top)
        return fmax, fsum, ninf, nmax


def _crew_of(crews, times, mask, parent, gone):
    """The crew over `times` of the workers in the bitmask `mask`, read
    from `crews`, the crew table of `times`, or built (from `parent`
    without `gone`, see `_Crew`) and stored there."""
    crew = crews.get(mask)
    if crew is None:
        crew = crews[mask] = _Crew(
            times, [w for w in range(len(times)) if mask >> w & 1],
            len(times[0]), parent, gone)
    return crew


def _fixed_prio(source, times, line):
    """`_station_prio` of a source whose priorities are fixed for a
    search, from `times` and `line` alone: a priority matrix, or a named
    rule that reads only the direction's line and the worker's own times
    (MaxF, MaxIF, MaxFTime, MaxIFTime).  None for a rule that reads the
    crew or the cycle."""
    if not isinstance(source, TaskRule):          # priority matrix
        return source.__getitem__
    if source is TaskRule.MAX_F:
        return lambda w: line.n_star
    if source is TaskRule.MAX_IF:
        return lambda w: line.n_imm
    if source not in (TaskRule.MAX_F_TIME, TaskRule.MAX_IF_TIME):
        return None
    # MaxFTime divides the immediate followers, MaxIFTime the transitive
    counts = line.n_imm if source is TaskRule.MAX_F_TIME else line.n_star
    return lambda w: [k / t for k, t in zip(counts, times[w])]


def _station_prio(source, crew, line, left, c_bar):
    """Returns prio(w) -> per-task priority list (larger = earlier) at a
    station where `crew` is available and the tasks `left` are not yet
    assigned.

    Aggregates over the crew count an INFEASIBLE time as c_bar; they and
    the positional weights are set for `left` only, as a station reads
    no other entry (in a pass every follower of an unassigned task is
    unassigned too).  MinRank, MinD and MinR rows, which read the crew
    alone, are kept on it; a crew serves both directions of a search, so
    rows that read the precedence are built per station.  Entries for
    tasks the worker cannot execute are never read.
    """
    prio = _fixed_prio(source, crew.times, line)
    if prio is not None:
        return prio

    rule = source
    if rule is TaskRule.MIN_RANK:
        return crew.ranks.__getitem__
    if rule is TaskRule.MIN_D:
        return crew.mind.__getitem__
    if rule is TaskRule.MIN_R:
        return crew.minr.__getitem__

    if rule in _BY_MIN:
        base = [t if t != INFEASIBLE else c_bar for t in crew.min1]
    else:
        fmax, fsum, ninf, _ = crew.spread
        base = [0] * len(fmax)
        if rule in _BY_MAX:
            for i in left:
                base[i] = max(fmax[i], c_bar) if ninf[i] else fmax[i]
        else:
            k = len(crew.workers)
            for i in left:
                base[i] = (fsum[i] + c_bar * ninf[i]) / k
    if rule in _MAX_TIME:
        return lambda w: base
    if rule in _MIN_TIME:
        neg = [-t for t in base]
        return lambda w: neg
    succ_star = line.succ_star
    pw = [0] * len(base)
    for i in left:
        pw[i] = base[i] + sum(map(base.__getitem__, succ_star[i]))
    return lambda w: pw


def priority_rows(inst, source, c_bar, cache=None) -> list[list]:
    """Priority of every task (larger = earlier) for each worker, in
    index order, when the whole crew is available, under a task rule or
    a priority matrix.

    INFEASIBLE times count as c_bar where an aggregate needs a finite
    stand-in; a c_bar that is not an integer of at least 1 is refused
    with ValidationError.  A `source` must be a `TaskRule` or a priority
    matrix of workers x tasks (else ValueError).  `cache`, a
    `SearchCache` of `inst` (a fresh one by default), holds the crew of
    every worker over the instance's times, so the calls sharing one
    build it once.
    """
    cache = _cache_of(inst, cache)
    _check_source(inst, source)
    c_bar = as_int(c_bar, "cycle", 1)
    crew = _crew_of(cache._crew_table(inst.times), inst.times,
                    (1 << inst.n_workers) - 1, None, None)
    prio = _station_prio(source, crew, cache._lines["forward"],
                         range(inst.n_tasks), c_bar)
    return [list(prio(w)) for w in crew.workers]


class _Line:
    """Precedence of one direction of an instance, as the hot path reads
    it, from `clo`, the instance's closure; 'backward' reads it with
    every edge flipped, so predecessors and followers swap.  Reductions
    only turn cells INFEASIBLE, so it serves every reduction of the
    instance."""

    def __init__(self, clo, direction="forward"):
        self.direction = direction
        if direction == "forward":
            pred, self.succ, self.succ_star = clo.pred, clo.succ, clo.succ_star
        else:
            pred, self.succ, self.succ_star = clo.succ, clo.pred, clo.pred_star
        self.pred_masks = [sum(1 << p for p in ps) for ps in pred]
        self.roots = [i for i, mask in enumerate(self.pred_masks)
                      if not mask]
        self.n_imm = [len(s) for s in self.succ]
        self.n_star = [len(s) for s in self.succ_star]
        self.neg_imm = [-k for k in self.n_imm]


def _station_start(left, u_mask, pred_masks, crew, m):
    """The tasks of `left`, the unassigned ones (also given as
    `u_mask`), whose predecessors are all assigned, and the rest-bound
    totals.

    The totals hold, over the unassigned tasks, their count, the sum of
    the fastest times, the count of tasks no available worker can
    execute and, per worker w, how that sum changes when w is gone and
    the count of tasks only w can execute."""
    min1, amin, min2 = crew.min1, crew.amin, crew.min2
    ready = []
    total = short = 0
    extra = [0] * m
    lost = [0] * m
    for i in left:
        if not pred_masks[i] & u_mask:
            ready.append(i)
        t = min1[i]
        if t == INFEASIBLE:
            short += 1
            continue
        total += t
        t2 = min2[i]
        if t2 == INFEASIBLE:
            lost[amin[i]] += 1
            extra[amin[i]] -= t
        else:
            extra[amin[i]] += t2 - t
    return ready, (len(left), total, short, extra, lost)


# -- one station, one worker --------------------------------------------------

def _fill(row, prio, ready, u_mask, c_bar, line):
    """Greedy maximal load for one worker: T mask, load, tasks in order.

    `row` and `prio` hold the worker's times and priorities, `ready` the
    unassigned tasks whose predecessors are all assigned.  The worker
    takes the first ready task that still fits until none does, in the
    order: higher priority, more immediate followers, smaller time,
    smaller index.  A task that does not fit now never will, as the load
    only grows, so the heap drops it; a follower joins the heap when its
    last predecessor is taken.  Times are at least 1, so nothing fits
    once the load reaches c_bar, and the fill stops there.

    The heap holds that order's key as a tuple per task;
    `solve_lower_bound_search` says when a search fills by
    `_fill_ranked` instead.
    """
    neg_imm, pred_masks, succ = line.neg_imm, line.pred_masks, line.succ
    heap = [(-prio[i], neg_imm[i], row[i], i) for i in ready
            if row[i] <= c_bar]
    heapify(heap)
    load = 0
    todo = u_mask
    picked = []
    while heap:
        i = heappop(heap)[3]
        t = row[i]
        if load + t > c_bar:
            continue
        todo ^= 1 << i
        load += t
        picked.append(i)
        if load == c_bar:
            break
        for s in succ[i]:
            if not pred_masks[s] & todo and load + row[s] <= c_bar:
                heappush(heap, (-prio[s], neg_imm[s], row[s], s))
    return u_mask ^ todo, load, picked


def _fill_ranked(row, ranked, ready, u_mask, c_bar, line):
    """`_fill` on a worker's tasks ranked once in its order: `ranked` is
    the worker's (rank, order) from `_rank_rows`, so the heap holds each
    task's rank, an int, and maps a popped rank back through `order`."""
    rank, order = ranked
    pred_masks, succ = line.pred_masks, line.succ
    heap = [rank[i] for i in ready if row[i] <= c_bar]
    heapify(heap)
    load = 0
    todo = u_mask
    picked = []
    while heap:
        i = order[heappop(heap)]
        t = row[i]
        if load + t > c_bar:
            continue
        todo ^= 1 << i
        load += t
        picked.append(i)
        if load == c_bar:
            break
        for s in succ[i]:
            if not pred_masks[s] & todo and load + row[s] <= c_bar:
                heappush(heap, rank[s])
    return u_mask ^ todo, load, picked


class _Ranks(list):
    """Per worker, its (rank, order) in one direction of a search (see
    `_rank_rows`): the source `_assemble` fills by `_fill_ranked`."""


def _rank_rows(source, times, line):
    """The `_Ranks` of a source whose priorities are fixed for a search
    (see `_fixed_prio`), over `times`, in the direction of `line`: per
    worker, `rank[i]` is task i's position under `_fill`'s key,
    (-prio[i], neg_imm[i], times[w][i], i), and `order[k]` the task at
    position k.  `solve_lower_bound_search` says when a search ranks."""
    prio = _fixed_prio(source, times, line)
    tasks = range(len(times[0]))
    out = _Ranks()
    for w, row in enumerate(times):
        keys = sorted(zip([-p for p in prio(w)], line.neg_imm, row, tasks))
        order = [key[3] for key in keys]
        rank = [0] * len(order)
        for k, i in enumerate(order):
            rank[i] = k
        out.append((rank, order))
    return out


# -- worker scoring -----------------------------------------------------------

def _bwa_without(crew, left, T, w, m, limit=INFEASIBLE):
    """MinBWA's score of committing w with the tasks of the mask T: the
    largest load when the other tasks of `left`, in ascending order, each
    go to their fastest worker other than w (ties: the least loaded so
    far, then the smallest index), ignoring precedence; INFEASIBLE when a
    task has no such worker, 0 when no task is left.  The score is
    computed only up to `limit`: as soon as a load reaches it, the call
    returns `limit`, and a value of at least `limit` says only that the
    score is at least `limit`.

    Read from the crew's ties: without w a task's fastest time is still
    min1, unless w alone was fastest; then it is min2, at the workers
    tied there.  The loads sum to the total that `_rest_bound` divides
    among the crew's other workers, who alone take tasks here, so the
    score is at least that rest bound rounded up."""
    ties = crew.ties
    loads = [0] * m
    for i in left:
        bit, solo, t, at, t2, at2 = ties[i]
        if T & bit:
            continue
        if solo == w:
            t, at = t2, at2
        if t == INFEASIBLE:
            return INFEASIBLE
        pick = -1
        for v in at:
            if v != w and (pick < 0 or loads[v] < loads[pick]):
                pick = v
        loads[pick] += t
        if loads[pick] >= limit:
            return limit
    return max(loads)


def _rest_bound(totals, others, w, picked, crew):
    """Average fastest-time load of the tasks w leaves over the `others`
    other workers; INFEASIBLE if one of those tasks needs w.

    Derived from the station's totals (see `_station_start`) by adding
    what losing w costs and taking out w's `picked` tasks, each of which
    w can execute."""
    count, total, short, extra, lost = totals
    if others == 0:
        return 0 if count == len(picked) else INFEASIBLE
    min1, amin, min2 = crew.min1, crew.amin, crew.min2
    total += extra[w]
    short += lost[w]
    for i in picked:
        if amin[i] != w:
            total -= min1[i]
        elif min2[i] == INFEASIBLE:
            short -= 1
        else:
            total -= min2[i]
    if short:
        return INFEASIBLE
    return total / others


# -- full assembly ------------------------------------------------------------

def _station_fills(source, crew, line, left, u_mask, c_bar):
    """Each available worker's (T mask, load, tasks in order, rest
    bound) at a station, in `crew.workers` order; a `_Ranks` source
    fills by `_fill_ranked`.  While no task is assigned, as at a pass's
    first station, the ready tasks are the line's roots and the totals
    the crew's own, read instead of rescanning the tasks."""
    times = crew.times
    if len(left) == len(times[0]):
        ready, totals = line.roots, crew.totals
    else:
        ready, totals = _station_start(left, u_mask, line.pred_masks, crew,
                                       len(times))
    if isinstance(source, _Ranks):
        fill, prio_of = _fill_ranked, source.__getitem__
    else:
        fill, prio_of = _fill, _station_prio(source, crew, line, left, c_bar)
    others = len(crew.workers) - 1
    fills = []
    for w in crew.workers:
        T, load, picked = fill(times[w], prio_of(w), ready, u_mask, c_bar,
                               line)
        fills.append((T, load, picked,
                      _rest_bound(totals, others, w, picked, crew)))
    return fills


def _min_bwa(crew, left, station, c_bar, m):
    """MinBWA's choice at a station: the (worker, fill) pair of the crew
    and its `station` fills with the smallest (`_bwa_without` score,
    rest bound, idle, worker).

    Only the workers that can still win are scored.  A worker's score is
    at least its rest bound rounded up (see `_bwa_without`), so the
    workers are visited in ascending (rest bound, idle, worker) order,
    and the visit stops at the first whose rest bound is above the best
    score so far less one: it and every later worker score at least that
    best and, on a tie, come later in the order.  As the rest bound is
    an integer total divided by a count, and float division is monotone,
    the stop never skips a worker that could win.  A score is computed
    only up to the best so far, and a worker that reaches it loses too.

    When even the first worker's rest bound is above c_bar, so is every
    worker's, and that first pair comes back unscored: whichever worker
    MinBWA would commit, its bound ends the pass (see `_assemble`)."""
    order = sorted([(fill[3], c_bar - fill[1], w, fill)
                    for w, fill in zip(crew.workers, station)])
    best, choice = INFEASIBLE, order[0][2:]
    if order[0][0] > c_bar:
        return choice
    for rlb, _, w, fill in order:
        if rlb > best - 1:
            break
        score = _bwa_without(crew, left, fill[0], w, m, best)
        if score < best:
            best, choice = score, (w, fill)
    return choice


def _assemble(times, c_bar, source, worker_rule, line, crews, fills):
    """One pass over `times` in the order of `line`, the `_Line` of its
    direction, at tentative cycle c_bar; None on failure.  The stations
    come back in original line order.

    `crews` is the crew table of `times`, from a set of available
    workers, as a bitmask, to its `_Crew` over `times`: a station reads
    its crew there, or builds it and stores it there.  `fills`, when not
    None, is the table of the stations' fills that `run_configs`
    describes, which a station reads or extends the same way.

    A failing pass stops at the first station whose committed worker
    leaves a rest lower bound above c_bar.  That is exact: each of the
    other workers' stations holds at most c_bar, so together they cannot
    take the remaining work, and the pass would end with tasks left
    over.  Every worker rule computes that bound for its scores, so the
    cut changes no decision.

    MaxTasks and MinRLB take the smallest score over every worker.  A
    MinBWA score is at least the worker's rest bound rounded up, so
    `_min_bwa` scores the workers in ascending rest-bound order and
    stops once that floor reaches the best score so far; it scores none
    where every bound is above c_bar.
    """
    n, m = len(times[0]), len(times)
    left = list(range(n))
    u_mask = (1 << n) - 1
    w_mask = (1 << m) - 1
    picks = []
    crew = w = None         # the previous station's crew and committed worker
    # the worker rule's score of a pair p = (w, (T, load, picked, rlb)) at
    # the current station: the smallest commits; chosen once per pass, as
    # a branch per worker costs more; None for MinBWA, which prunes
    if worker_rule is WorkerRule.MAX_TASKS:
        score = lambda p: (-len(p[1][2]), p[1][3], c_bar - p[1][1], p[0])
    elif worker_rule is WorkerRule.MIN_BWA:
        score = None
    else:
        score = lambda p: (p[1][3], -len(p[1][2]), c_bar - p[1][1], p[0])

    for _ in range(m):
        crew = _crew_of(crews, times, w_mask, crew, w)
        station = None
        if fills is not None:
            key = (c_bar, line.direction, w_mask, u_mask)
            station = fills.get(key)
        if station is None:
            station = _station_fills(source, crew, line, left, u_mask, c_bar)
            if fills is not None:
                fills[key] = station
        if score is None:
            w, (T, load, picked, rlb) = _min_bwa(crew, left, station, c_bar, m)
        else:
            w, (T, load, picked, rlb) = min(zip(crew.workers, station),
                                            key=score)
        if rlb > c_bar:
            return None
        picks.append((w, picked, load))
        u_mask ^= T
        left = [i for i in left if not T >> i & 1]
        w_mask ^= 1 << w

    if line.direction == "backward":
        picks.reverse()
    stations = tuple((w, tuple(sorted(picked))) for w, picked, _ in picks)
    loads = tuple(load for _, _, load in picks)
    return Solution(stations, loads, max(loads), line.direction)


def _cycle_ceiling(inst) -> int:
    """Cycle no heuristic needs to exceed: the whole line done serially,
    each task at its slowest capable worker."""
    return sum(max(t for t in col if t != INFEASIBLE)
               for col in zip(*inst.times))


# Table cells (solutions x tasks x workers) a SearchCache's local-search
# memo holds before it is cleared.  An entry (a solution and its local
# search result) takes about 3.7 KB on 70x10 lines and 5.7 KB on 75x19
# lines, where a GA run gets almost no hits; the bound keeps 375 and 184
# solutions there.  It holds every distinct solution of a run on the
# small lines (a few dozen at most), and 1,337 on 28x7 lines, where two
# 40-generation runs still skipped 64.0% and 32.8% of their local
# searches (64.0% and 37.2% with no bound, 58.9% and 31.0% at a cap of
# 1,024 solutions).
IMPROVED_CELLS = 1 << 18

# Table cells the crews of a SearchCache may hold as a search starts
# before they are cleared, each crew counting the cells it holds (see
# `_Crew`): 3n for a GA decode's crew, from 3n to 36n (9n on average)
# for those of a `run_all_96` on 70x10 sweep lines (U[1, 10] base times,
# low variability), and to 33n (8n) on a paper-shaped 70x10 line.  A GA
# run on a 70x10 line keeps every crew it builds, some 400 per run, and
# so does every search on the small lines.  On the paper-shaped 70x10
# and 75x19 lines a `run_all_96` builds 3,977 and 22,749 crews, clearing
# them 10 and 48 times, and takes 5.0 and 8.4 s with peaks of 26 and
# 38 MB RSS (one run each); at 2^17 cells it builds 4,963 crews on the
# 70x10 line, and unbounded it peaks at 33 and 140 MB.
CREW_CELLS = 3 << 16


class SearchCache:
    """What the lower-bound searches on one instance share, each rule
    stated where it lives: the search's first cycle (LC1) and its
    ceiling (`_cycle_ceiling`), both found at construction; the
    precedence of each direction, read off the instance's closure, which
    the cache alone keeps; per tentative cycle the outcome of
    `preprocess` (`_times`); per value of the times a table of crews
    (`_crew_table`, see `_Crew`); within one `run_configs` call, the
    stations' fills of one task rule (see there); and the GA's
    local-search memo (`improved`).  A cache is passed to searches,
    never configured: it has no field to set, and every search through
    it returns what a search through a fresh one would.  Pass one as the
    `cache` of every `solve_lower_bound_search` call on `inst`; anything
    but an `Instance` is refused with ValueError.
    """

    def __init__(self, inst):
        self._inst = as_member(inst, Instance, "inst")
        clo = inst.closure()
        self._lines = {d: _Line(clo, d) for d in DIRECTIONS}
        self._reduced = {}      # cycle -> reduced times, None if infeasible
        self._reached = set()   # cycles a search reached without `preprocess`
        self._crews = {}        # times -> {mask: _Crew}
        self._fills = None      # station -> fills (see `run_configs`)
        self._improved = {}     # solution -> its local-search result
        self.improve_hits = 0
        # table cells of one solution
        self._cells = inst.n_tasks * inst.n_workers
        self._start = lc1(inst)
        self._ceiling = _cycle_ceiling(inst)

    def _times(self, c, use_preprocess):
        """The times assemblies at tentative cycle c run on, the reduced
        ones with `use_preprocess` and the instance's otherwise, or None
        when `preprocess` proves c infeasible, so that the search skips
        c, where no assembly can succeed.

        The outcome of `preprocess` is kept per cycle whatever the flag,
        so the searches through the cache pay for a proof once.  Without
        reduction it is asked for only at a cycle that an earlier search
        through the cache reached, so a lone search never pays for a
        proof, and in `run_configs` the configurations after the first
        skip every cycle proved below the optimum."""
        if c not in self._reduced:
            if not use_preprocess and c not in self._reached:
                self._reached.add(c)
                return self._inst.times
            try:
                self._reduced[c] = preprocess(self._inst, c)[0].times
            except CycleInfeasibleError:
                self._reduced[c] = None
        reduced = self._reduced[c]
        if reduced is None or use_preprocess:
            return reduced
        return self._inst.times

    def _crew_table(self, times):
        """The crew table of `times`, shared by every set of equal times."""
        return self._crews.setdefault(times, {})

    def _open_search(self):
        """Clears the crews as a search starts, by the bound `_Crew`
        states."""
        if sum(crew.cells for crews in self._crews.values()
               for crew in crews.values()) >= CREW_CELLS:
            self._crews.clear()

    def improved(self, sol, improve):
        """`improve(inst, sol)`, called once per distinct `sol` while the
        memo holds it, counting in `improve_hits` the calls it saved.

        The GA's decodes through one cache share it, so a decode that
        builds a solution an earlier one built reuses its result.
        `improve` must be a pure function of (instance, solution), so a
        hit returns what a fresh call would.  The memo is cleared when it
        holds `IMPROVED_CELLS` table cells (solutions x tasks x workers),
        which costs hits, never results."""
        out = self._improved.get(sol)
        if out is None:
            if len(self._improved) * self._cells >= IMPROVED_CELLS:
                self._improved.clear()
            out = self._improved[sol] = improve(self._inst, sol)
        else:
            self.improve_hits += 1
        return out


def _check_source(inst, source):
    """Refuses a priority matrix that is not workers x tasks of finite
    numbers; a string or an enum member is taken for a task rule, and
    refused unless it is a `TaskRule`.  Each row is summed once, so a
    NaN, an infinity or an entry that is not a number fails its sum."""
    if isinstance(source, (str, Enum)):
        as_member(source, TaskRule, "source")
        return
    try:
        ok = len(source) == inst.n_workers and all(
            len(row) == inst.n_tasks and isfinite(sum(row))
            for row in source)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{inst.name}: the priority matrix must be "
                         f"{inst.n_workers} x {inst.n_tasks} of finite "
                         "numbers")


def _cache_of(inst, cache):
    """`cache`, or a fresh `SearchCache` of `inst` when it is None;
    anything but a `SearchCache` of `inst` is refused."""
    if cache is None:
        return SearchCache(inst)
    if as_member(cache, SearchCache, "cache")._inst is not inst:
        raise ValueError("the search cache belongs to another instance")
    return cache


def solve_lower_bound_search(inst, source, worker_rule, direction="forward",
                             c_start=None, use_preprocess=False,
                             cache=None) -> Solution:
    """Increase the tentative cycle one by one until an assembly succeeds.

    Starts at LC1 unless c_start is given; a start below 1 is raised to
    1, as no assembly fits below it.  direction 'both' tries
    forward then backward at every tentative cycle.  A priority matrix
    `source` must be workers x tasks (else ValueError).  With
    use_preprocess the instance is reduced at each tentative cycle
    first.  A cycle that `preprocess` proves infeasible is skipped (see
    `SearchCache._times` for when it is asked).  `cache`, a `SearchCache`
    of `inst`, may be shared between calls on the same instance.  A
    `worker_rule` that is not a `WorkerRule` is refused with ValueError,
    and a c_start that is not an integer or a `use_preprocess` that is
    not a bool with ValidationError.

    Most named rules' priorities move with the crew and the cycle, so
    `_fill` builds their key tuples afresh at every call.  A source
    whose priorities are fixed for the search (`_fixed_prio`: a priority
    matrix, or MaxF, MaxIF, MaxFTime or MaxIFTime) orders each worker's
    tasks the same way at every cycle and station.  So once such a
    search has assembled at one cycle and failed in every direction, it
    ranks the rows (`_rank_rows`) of each direction at its first
    assembly after that cycle, and fills by `_fill_ranked`, which heaps
    plain int ranks, for the rest of the call; a search that succeeds at
    its first cycle sorts nothing, and one that succeeds forward at its
    second sorts for forward only.  The ranks are built on the
    instance's own times, which the named rules' rows divide by, and
    rank every reduction of the instance exactly: `preprocess` only
    turns cells INFEASIBLE, and a fill drops such a task before it reads
    its rank.
    """
    as_member(direction, DIRECTIONS + ("both",), "direction")
    directions = DIRECTIONS if direction == "both" else (direction,)
    cache = _cache_of(inst, cache)
    _check_source(inst, source)
    as_member(worker_rule, WorkerRule, "worker_rule")
    as_member(use_preprocess, bool, "use_preprocess")
    cache._open_search()
    c = cache._start
    if c_start is not None:             # no assembly fits below cycle 1
        c = max(1, as_int(c_start, "c_start"))
    ceiling = max(cache._ceiling, c)    # an explicit start is always tried
    ranks = None            # per direction, once a fixed source passed a cycle
    while c <= ceiling:
        times = cache._times(c, use_preprocess)
        if times is not None:
            crews = cache._crew_table(times)
            for d in directions:
                line, by = cache._lines[d], source
                if ranks is not None:
                    if d not in ranks:
                        ranks[d] = _rank_rows(source, inst.times, line)
                    by = ranks[d]
                sol = _assemble(times, c, by, worker_rule, line, crews,
                                cache._fills)
                if sol is not None:
                    return sol
            if ranks is None and _fixed_prio(source, inst.times, line):
                ranks = {}
        c += 1
    raise NoFeasibleAssignmentError(
        f"{inst.name}: no feasible assignment up to cycle {ceiling}")


@dataclass(frozen=True)
class RuleRun:
    config: RuleConfig
    cycle: int | None          # None when the search ceiling was exhausted
    elapsed: float
    error: str | None = None   # the search's message when cycle is None


def run_configs(inst, configs, use_preprocess=False,
                _search=None) -> list[RuleRun]:
    """Run the lower-bound search of each configuration on `inst`, in
    order, timing each; the searches share one `SearchCache`, so each
    part of its set-up is built in the time of the first configuration
    that needs it.  A configuration that is not a `RuleConfig`, or a
    `use_preprocess` that is not a bool, is refused with ValueError
    before any search runs.

    The configurations of one task rule also share a table of the
    stations' fills and rest bounds, which only this function opens in
    its cache, keyed by cycle, direction and the masks of the workers
    and tasks left.  A pass that meets a station an earlier pass met, as
    the three worker rules of one task rule and direction do until they
    commit different workers, reads them there; the worker rule still
    picks the worker, and MinBWA's scores are computed afresh.  Within
    the call `use_preprocess` is fixed, so the times are a function of
    the cycle, and the key is exact.  The table is started afresh at
    each new task rule and freed when the call returns; a lone search
    and a GA decode keep none, as nothing else would read it.
    """
    as_member(use_preprocess, bool, "use_preprocess")
    configs = [as_member(cfg, RuleConfig, "config")
               for cfg in as_member(configs, Iterable, "configs")]
    # `_search` is a seam for instrumentation only (the CLI passes its own
    # module's name so a wrapper installed there sees every search), not a
    # supported option
    search = _search or solve_lower_bound_search
    rows = []
    cache = SearchCache(inst)
    rule = None
    for cfg in configs:
        if cfg.task_rule is not rule:
            rule, cache._fills = cfg.task_rule, {}
        t0 = time.perf_counter()
        try:
            sol = search(inst, cfg.task_rule, cfg.worker_rule, cfg.direction,
                         use_preprocess=use_preprocess, cache=cache)
            cycle, error = sol.cycle, None
        except NoFeasibleAssignmentError as exc:
            cycle, error = None, str(exc)
        rows.append(RuleRun(cfg, cycle, time.perf_counter() - t0, error))
    return rows


def run_all_96(inst, use_preprocess=False) -> list[RuleRun]:
    """Run every rule combination once; order is fixed and deterministic."""
    return run_configs(inst, all_rule_configs(), use_preprocess)

