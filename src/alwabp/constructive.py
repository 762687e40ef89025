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
one instance share a `SearchCache`: the search ceiling, the precedence
of each direction and, per tentative cycle, the reduced times, or the
proof that the cycle is infeasible.

Priorities come either from a named task rule or from an externally
supplied worker x task matrix of values in [0, 1] (larger = earlier).
Worker-dependent statistics (fastest/slowest/average times, positional
weights, ranks, MinBWA's fastest workers) are taken over the workers
still available, with INFEASIBLE times replaced by the tentative cycle
time where an aggregate needs a finite stand-in.  One search caches them
per set of available workers (`_Crew`), built the first time it meets
the set, so later stations with the same workers available read them
instead of rescanning the times.  A new set is the previous station's
minus its committed worker, so its crew is derived from that station's
crew: it rescans only the tasks where the departed worker's time is at
most the second fastest, as on every other task the departure changes
no fastest or second fastest time and no worker at either.  The
aggregates that depend on the tentative cycle are derived per station,
for the unassigned tasks, and so are the rows that read the precedence,
which differs between the two directions one crew serves.

Tie-breaking is fixed everywhere so runs are reproducible: tasks by more
immediate followers, then smaller time for the candidate worker, then
smaller index; workers by the rule score, then a rule-specific second
score (load balance estimate, or the task count), then smaller idle
time, then smaller index.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heapify, heappop, heappush

from .bounds import CycleInfeasibleError, lc1, preprocess
from .instance import INFEASIBLE
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
    task_rule: TaskRule
    worker_rule: WorkerRule
    direction: str = "forward"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")

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
_BY_AVG = (TaskRule.MAX_TIME_AVG, TaskRule.MIN_TIME_AVG, TaskRule.MAX_PW_AVG)
_MAX_TIME = (TaskRule.MAX_TIME_MIN, TaskRule.MAX_TIME_MAX, TaskRule.MAX_TIME_AVG)
_MIN_TIME = (TaskRule.MIN_TIME_MIN, TaskRule.MIN_TIME_MAX, TaskRule.MIN_TIME_AVG)


class _Crew:
    """Per-task statistics of one set of available workers.

    `min1`, `amin` and `min2` hold each task's fastest time, the
    smallest-index worker at that time (-1 if none) and the second
    fastest time (equal to `min1` when two workers tie).  The fields
    only some rules read (`ties`, `spread`, MinRank rows) are built on
    first use.  A search builds one crew per set of workers it meets and
    reads it at every later station with the same workers available.

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
    only where `gone` held it.  `ranked` and MinRank rows are built
    afresh.
    """

    def __init__(self, times, workers, n, parent, gone):
        self.times = times
        self.workers = tuple(workers)
        self.parent, self.gone = parent, gone
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
        self.ranks = {}             # worker -> its MinRank row

    @cached_property
    def cols(self):
        """Per task: its times over the workers."""
        n = len(self.min1)
        return list(zip(*(self.times[w] for w in self.workers))) or [()] * n

    @cached_property
    def ranked(self):
        """Per task: its times over the workers, sorted."""
        return list(map(sorted, self.cols))

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
        workers, cols = self.workers, self.cols
        min1, min2 = self.min1, self.min2
        for i in self.redo:
            col, t1, t2 = cols[i], min1[i], min2[i]
            solo, at1, at2 = -1, (), ()
            if t1 != INFEASIBLE:
                at1 = _workers_at(workers, col, t1)
                if t1 != t2:
                    solo = at1[0]
                    if t2 != INFEASIBLE:
                        at2 = _workers_at(workers, col, t2)
            out[i] = (1 << i, solo, t1, at1, t2, at2)
        return out

    @cached_property
    def spread(self):
        """Per task: the largest finite time (0 if none), the sum of the
        finite times and the number of INFEASIBLE cells."""
        if self.parent is None:
            n = len(self.min1)
            fmax, fsum, ninf = [0] * n, [0] * n, [0] * n
            redo = range(n)
        else:
            fmax, fsum, ninf = map(list.copy, self.parent.spread)
            redo = []
            for i, t in enumerate(self.times[self.gone]):
                if t == INFEASIBLE:
                    ninf[i] -= 1
                else:
                    fsum[i] -= t
                    if t == fmax[i]:
                        redo.append(i)
        k, cols = len(self.workers), self.cols
        for i in redo:
            finite = [t for t in cols[i] if t != INFEASIBLE]
            fmax[i] = max(finite, default=0)
            fsum[i] = sum(finite)
            ninf[i] = k - len(finite)
        return fmax, fsum, ninf


def _workers_at(workers, col, t):
    """The workers whose time in `col` is t, in `workers` order."""
    if col.count(t) == 1:
        return (workers[col.index(t)],)
    return tuple(w for w, x in zip(workers, col) if x == t)


def _station_prio(source, crew, line, left, c_bar):
    """Returns prio(w) -> per-task priority list (larger = earlier) at a
    station where `crew` is available and the tasks `left` are not yet
    assigned.

    Aggregates over the crew count an INFEASIBLE time as c_bar; they and
    the positional weights are set for `left` only, as a station reads
    no other entry (in a pass every follower of an unassigned task is
    unassigned too).  MinRank rows, which need the sorted times, are
    kept on the crew; a crew serves both directions of a search, so rows
    that read the precedence are built per station.  Entries for tasks
    the worker cannot execute are never read.
    """
    if not isinstance(source, TaskRule):          # priority matrix
        return source.__getitem__

    rule = source
    if rule is TaskRule.MAX_F:
        return lambda w: line.n_star
    if rule is TaskRule.MAX_IF:
        return lambda w: line.n_imm
    if rule is TaskRule.MIN_RANK:       # minus the number of faster workers
        ranks = crew.ranks

        def rank_prio(w):
            row = ranks.get(w)
            if row is None:
                row = ranks[w] = [-bisect_left(s, t) for s, t
                                  in zip(crew.ranked, crew.times[w])]
            return row
        return rank_prio
    times, min1 = crew.times, crew.min1
    n = len(min1)
    if rule is TaskRule.MIN_D:
        return lambda w: [min1[i] - times[w][i] for i in range(n)]
    if rule is TaskRule.MIN_R:
        return lambda w: [-(times[w][i] / min1[i]) if min1[i] != INFEASIBLE
                          else 0.0 for i in range(n)]
    if rule is TaskRule.MAX_F_TIME:
        n_imm = line.n_imm
        return lambda w: [n_imm[i] / times[w][i] for i in range(n)]
    if rule is TaskRule.MAX_IF_TIME:
        n_star = line.n_star
        return lambda w: [n_star[i] / times[w][i] for i in range(n)]

    if rule in _BY_MIN:
        base = [t if t != INFEASIBLE else c_bar for t in crew.min1]
    else:
        fmax, fsum, ninf = crew.spread
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
        pw[i] = base[i] + sum(base[h] for h in succ_star[i])
    return lambda w: pw


def priority_rows(inst, source, c_bar, workers=None) -> list[list]:
    """Priority of every task (larger = earlier) for each worker of
    `workers` (default: the whole crew, in index order) when exactly
    those workers are available, under a task rule or a priority matrix.

    INFEASIBLE times count as c_bar where an aggregate needs a finite
    stand-in.
    """
    workers = range(inst.n_workers) if workers is None else sorted(workers)
    crew = _Crew(inst.times, workers, inst.n_tasks, None, None)
    prio = _station_prio(source, crew, _Line(inst), range(inst.n_tasks),
                         c_bar)
    return [list(prio(w)) for w in workers]


class _Line:
    """Precedence of one direction of an instance, as the hot path reads
    it; 'backward' reads the instance's closure with every edge flipped,
    so predecessors and followers swap.  Reductions only turn cells
    INFEASIBLE, so it serves every reduction of the instance."""

    def __init__(self, inst, direction="forward"):
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        self.direction = direction
        clo = inst.closure()
        if direction == "forward":
            pred, self.succ, self.succ_star = clo.pred, clo.succ, clo.succ_star
        else:
            pred, self.succ, self.succ_star = clo.succ, clo.pred, clo.pred_star
        self.pred_masks = [sum(1 << p for p in ps) for ps in pred]
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
    last predecessor is taken.
    """
    neg_imm, pred_masks, succ = line.neg_imm, line.pred_masks, line.succ
    heap = [(-prio[i], neg_imm[i], row[i], i) for i in ready
            if row[i] <= c_bar]
    heapify(heap)
    T = 0
    load = 0
    todo = u_mask
    picked = []
    while heap:
        i = heappop(heap)[3]
        t = row[i]
        if load + t > c_bar:
            continue
        bit = 1 << i
        T |= bit
        todo ^= bit
        load += t
        picked.append(i)
        for s in succ[i]:
            if not pred_masks[s] & todo and load + row[s] <= c_bar:
                heappush(heap, (-prio[s], neg_imm[s], row[s], s))
    return T, load, picked


def station_load_tasks(inst, unassigned, available_workers, worker, c_bar,
                       source) -> set[int]:
    """Task set worker would take at the next station (public wrapper).

    `unassigned` are the tasks not yet committed to earlier stations;
    everything else counts as already done.
    """
    line = _Line(inst)
    workers = sorted(available_workers)
    left = sorted(unassigned)
    u_mask = 0
    for i in left:
        u_mask |= 1 << i
    ready = [i for i in left if not line.pred_masks[i] & u_mask]
    prio = priority_rows(inst, source, c_bar, workers)[workers.index(worker)]
    line.succ = [s.intersection(left) for s in line.succ]   # not done yet
    _, _, picked = _fill(inst.times[worker], prio, ready, u_mask, c_bar, line)
    return set(picked)


# -- worker scoring -----------------------------------------------------------

def bwa_cycle(inst, tasks, workers) -> float:
    """Bottleneck cycle of the relaxed assignment ignoring precedence.

    Tasks in ascending index order each go to their fastest worker
    (ties: least loaded so far, then smallest index); returns the
    largest resulting load, INFEASIBLE if some task has no capable
    worker, and 0 for an empty task set.
    """
    tasks = sorted(tasks)
    if not tasks:
        return 0
    workers = sorted(workers)
    if not workers:
        return INFEASIBLE
    times = inst.times
    loads = {v: 0 for v in workers}
    for i in tasks:
        fastest = INFEASIBLE
        for v in workers:
            t = times[v][i]
            if t < fastest:
                fastest = t
        if fastest == INFEASIBLE:
            return INFEASIBLE
        pick = -1
        pick_load = None
        for v in workers:
            if times[v][i] == fastest and (pick < 0 or loads[v] < pick_load):
                pick = v
                pick_load = loads[v]
        loads[pick] += fastest
    return max(loads.values())


def _bwa_without(crew, left, T, w, m):
    """`bwa_cycle` of the tasks of `left` (ascending) outside the mask T
    over the crew without worker w, read from the crew's ties.

    Without w a task's fastest time is still min1, unless w alone was
    fastest; then it is min2, at the workers tied there."""
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
        if len(at) == 1:                # never w: w is not alone here
            pick = at[0]
        else:
            pick = -1
            for v in at:
                if v != w and (pick < 0 or loads[v] < loads[pick]):
                    pick = v
        loads[pick] += t
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


def score_worker(inst, unassigned, available_workers, worker,
                 tasks_for_worker, rule: WorkerRule) -> float:
    """Score of committing `worker` with `tasks_for_worker` (public
    wrapper; smaller is better for MinBWA/MinRLB, larger for MaxTasks)."""
    workers = sorted(available_workers)
    rest = set(unassigned) - set(tasks_for_worker)
    if rule is WorkerRule.MAX_TASKS:
        return len(tasks_for_worker)
    others = [v for v in workers if v != worker]
    if rule is WorkerRule.MIN_BWA:
        return bwa_cycle(inst, rest, others)
    crew = _Crew(inst.times, workers, inst.n_tasks, None, None)
    _, totals = _station_start(sorted(rest), 0, _Line(inst).pred_masks, crew,
                               inst.n_workers)
    return _rest_bound(totals, len(others), worker, (), crew)


# -- full assembly ------------------------------------------------------------

def _assemble(times, c_bar, source, worker_rule, line, memo):
    """One pass over `times` in the order of `line`, the `_Line` of its
    direction, at tentative cycle c_bar; None on failure.  The stations
    come back in original line order.

    `memo` maps a set of available workers, as a bitmask, to its `_Crew`
    over `times`; callers share one memo only between passes with the
    same times.

    A failing pass stops at the first station whose committed worker
    leaves a rest lower bound above c_bar.  That is exact: each of the
    other workers' stations holds at most c_bar, so together they cannot
    take the remaining work, and the pass would end with tasks left
    over.  Every worker rule computes that bound for its scores, so the
    cut changes no decision.
    """
    n, m = len(times[0]), len(times)
    pred_masks = line.pred_masks
    left = list(range(n))
    u_mask = (1 << n) - 1
    workers = list(range(m))
    w_mask = (1 << m) - 1
    picks = []
    crew = w = None         # the previous station's crew and committed worker

    for _ in range(m):
        parent, crew = crew, memo.get(w_mask)
        if crew is None:
            crew = memo[w_mask] = _Crew(times, workers, n, parent, w)
        ready, totals = _station_start(left, u_mask, pred_masks, crew, m)
        prio_of = _station_prio(source, crew, line, left, c_bar)
        others = len(workers) - 1
        best = None
        best_score = None
        for w in workers:
            T, load, picked = _fill(times[w], prio_of(w), ready, u_mask,
                                    c_bar, line)
            rlb = _rest_bound(totals, others, w, picked, crew)
            if worker_rule is WorkerRule.MAX_TASKS:
                score = (-len(picked), rlb, c_bar - load, w)
            elif worker_rule is WorkerRule.MIN_BWA:
                score = (_bwa_without(crew, left, T, w, m), rlb,
                         c_bar - load, w)
            else:
                score = (rlb, -len(picked), c_bar - load, w)
            if best_score is None or score < best_score:
                best_score = score
                best = (w, T, load, picked, rlb)
        w, T, load, picked, rlb = best
        if rlb > c_bar:
            return None
        picks.append((w, picked, load))
        u_mask ^= T
        left = [i for i in left if not T >> i & 1]
        workers.remove(w)
        w_mask ^= 1 << w

    if line.direction == "backward":
        picks.reverse()
    stations = tuple((w, frozenset(sorted(picked))) for w, picked, _ in picks)
    loads = tuple(load for _, _, load in picks)
    return Solution(stations, loads, max(loads) if loads else 0,
                    line.direction)


def assemble(inst, c_bar, source, worker_rule,
             direction="forward") -> Solution | None:
    """One full pass at a fixed tentative cycle time.

    Returns a feasible Solution or None when tasks remain unassigned.
    Backward runs fill the stations from the end of the line and report
    them in original line order.
    """
    return _assemble(inst.times, c_bar, source, worker_rule,
                     _Line(inst, direction), {})


def cycle_ceiling(inst) -> int:
    """Cycle no heuristic needs to exceed: the whole line done serially,
    each task at its slowest capable worker."""
    total = 0
    for i in range(inst.n_tasks):
        total += max(inst.times[w][i] for w in range(inst.n_workers)
                     if inst.times[w][i] != INFEASIBLE)
    return total


def _cycle_blocked(times, c) -> bool:
    """Whether a station bound proves that no assignment over `times`
    has cycle <= c.

    Whichever worker w staffs a station takes tasks of load at most c,
    and the other m - 1 stations, each at most c, must hold the rest,
    every task at no less than its fastest time among the other workers.
    A fractional knapsack, with the tasks only w can execute forced in,
    bounds what w's station can take off that rest; when it falls short
    for every w, c is infeasible and every assembly at c fails.
    """
    n, m = len(times[0]), len(times)
    if m == 1:
        return False
    crew = _Crew(times, range(m), n, None, None)
    min1, amin, min2 = crew.min1, crew.amin, crew.min2
    if INFEASIBLE in min1:
        return True
    for w, row in enumerate(times):
        rest = forced = 0
        items = []
        for i in range(n):
            need = min2[i] if amin[i] == w else min1[i]
            if need == INFEASIBLE:
                forced += row[i]
            else:
                rest += need
                if row[i] <= c:
                    items.append((need / row[i], need, row[i]))
        room = c - forced
        if room < 0:
            continue
        excess = rest - (m - 1) * c     # what w's station must take off
        for _, need, t in sorted(items, reverse=True):
            if excess <= 0 or room <= 0:
                break
            if t > room:
                if excess * t <= need * room:
                    excess = 0
                break
            excess -= need
            room -= t
        if excess <= 0:
            return False
    return True


class SearchCache:
    """What the lower-bound searches on one instance share: the search
    ceiling, the precedence of each direction (`lines`) and per tentative
    cycle the times its assemblies run on when the instance is reduced.

    Pass one as the `cache` of every `solve_lower_bound_search` call on
    `inst`; each search still keeps its own per-crew statistics.
    """

    def __init__(self, inst):
        self.inst = inst
        self.lines = {d: _Line(inst, d) for d in DIRECTIONS}
        self._reduced = {}      # cycle -> reduced times, None if infeasible

    @cached_property
    def ceiling(self) -> int:
        return cycle_ceiling(self.inst)

    def times(self, c, use_preprocess):
        """The times assemblies at tentative cycle c run on, or None when
        `preprocess` or `_cycle_blocked` proves c infeasible."""
        if not use_preprocess:
            return self.inst.times
        if c not in self._reduced:
            try:
                times = preprocess(self.inst, c)[0].times
            except CycleInfeasibleError:
                times = None
            if times is not None and _cycle_blocked(times, c):
                times = None
            self._reduced[c] = times
        return self._reduced[c]


def solve_lower_bound_search(inst, source, worker_rule, direction="forward",
                             c_start=None, use_preprocess=False,
                             cache=None) -> Solution:
    """Increase the tentative cycle one by one until an assembly succeeds.

    Starts at LC1 unless c_start is given.  direction 'both' tries
    forward then backward at every tentative cycle.  With use_preprocess
    the instance is reduced at each tentative cycle first; a cycle the
    reduction or a station bound (`_cycle_blocked`) proves infeasible is
    skipped, as no assembly can succeed there.
    `cache`, a `SearchCache` of `inst`, may be shared between calls on
    the same instance to reuse the precedence of each direction, the
    reductions and the search ceiling.
    """
    if direction != "both" and direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    directions = DIRECTIONS if direction == "both" else (direction,)
    if cache is None:
        cache = SearchCache(inst)
    elif cache.inst is not inst:
        raise ValueError("the search cache belongs to another instance")
    c = c_start if c_start is not None else lc1(inst)
    ceiling = max(cache.ceiling, c)     # an explicit start is always tried
    memo, memo_of = {}, None            # the crews met on one set of times
    while c <= ceiling:
        times = cache.times(c, use_preprocess)
        if times is not None:
            if times is not memo_of:
                memo, memo_of = {}, times
            for d in directions:
                sol = _assemble(times, c, source, worker_rule, cache.lines[d],
                                memo)
                if sol is not None:
                    return sol
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
    order, timing each; the searches share one cache, so the reductions
    and the search ceiling are built once, in the time of the first
    configuration that needs them.
    """
    # `_search` is a seam for instrumentation only (the CLI passes its own
    # module's name so a wrapper installed there sees every search), not a
    # supported option
    search = _search or solve_lower_bound_search
    rows = []
    cache = SearchCache(inst)
    for cfg in configs:
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


def best_cycle(rows, worker_rule: WorkerRule | None = None) -> int | None:
    """Best cycle over the rows, optionally only those of one worker rule."""
    cycles = [r.cycle for r in rows
              if r.cycle is not None
              and (worker_rule is None or r.config.worker_rule is worker_rule)]
    return min(cycles) if cycles else None
