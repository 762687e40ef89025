"""First-improvement local search over feasible solutions.

Four move types: shifting one task to another station, swapping two
tasks between stations, a chained pair of shifts whose first half is
allowed to be non-improving, and swapping the workers of two stations
while their task sets stay put.

A move is accepted only when the result is still feasible and strictly
improves the pair (cycle time, number of stations loaded at the cycle
time), compared lexicographically: draining a critical station helps
even when the cycle itself cannot drop yet.  Neighborhoods are scanned
in a fixed order (stations ascending, tasks ascending), and after every
accepted move the descent restarts from the first neighborhood, so the
outcome is deterministic.  Moves that provably cannot improve are
skipped without evaluating them, which leaves the first improving move
in scan order, and so the outcome, unchanged.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .instance import INFEASIBLE
from .solution import Solution


@dataclass(frozen=True)
class Shift:
    task: int
    from_station: int
    to_station: int

    def __post_init__(self):
        if self.from_station == self.to_station:
            raise ValueError("shift must change the station")


@dataclass(frozen=True)
class Swap:
    task_a: int
    task_b: int

    def __post_init__(self):
        if self.task_a == self.task_b:
            raise ValueError("swap needs two distinct tasks")


@dataclass(frozen=True)
class DoubleShift:
    first: Shift
    second: Shift


@dataclass(frozen=True)
class WorkerSwap:
    station_a: int
    station_b: int

    def __post_init__(self):
        if self.station_a == self.station_b:
            raise ValueError("worker swap needs two distinct stations")


Move = Shift | Swap | DoubleShift | WorkerSwap


def critical_count(sol: Solution) -> int:
    """Stations whose load equals the cycle time."""
    return sum(1 for load in sol.loads if load == sol.cycle)


def _key(loads):
    cycle = max(loads)
    return cycle, loads.count(cycle)


def _beats(key, over, at, loads, a, la, b, lb):
    """Whether loading stations a != b with la and lb instead gives a
    smaller key than `key` = (cycle, count).

    `over` and `at` count the stations of `loads` above and at that
    cycle.  The other stations keep their loads, so none of them may be
    above the cycle, and the stations at it must end up fewer than
    `count`: with none left the cycle itself drops.  This is O(1), where
    computing the new key would scan every station.
    """
    cycle, count = key
    if la > cycle or lb > cycle:
        return False
    old_a, old_b = loads[a], loads[b]
    if over - (old_a > cycle) - (old_b > cycle):
        return False
    return (at - (old_a == cycle) - (old_b == cycle)
            + (la == cycle) + (lb == cycle)) < count


class _State:
    """Mutable working copy of a solution."""

    def __init__(self, inst, sol):
        self.times = inst.times
        self.pred = inst.pred
        self.succ = inst.succ
        self.m = inst.n_workers
        self.workers = [w for w, _ in sol.stations]
        self.tasks = [sorted(ts) for _, ts in sol.stations]
        self.where = [0] * inst.n_tasks
        for s, ts in enumerate(self.tasks):
            for i in ts:
                self.where[i] = s
        self.loads = list(sol.loads)

    def key(self):
        return _key(self.loads)

    def to_solution(self, direction):
        return Solution(tuple((self.workers[s], frozenset(self.tasks[s]))
                              for s in range(self.m)),
                        tuple(self.loads), max(self.loads), direction)

    # -- shifts ---------------------------------------------------------

    def iter_shifts(self, sources):
        """Feasible shifts out of the stations `sources`, in scan order:
        (task, from, to, new load of from, new load of to)."""
        where = self.where
        loads = self.loads
        times = self.times
        workers = self.workers
        for a in sources:
            row_a = times[workers[a]]
            for i in list(self.tasks[a]):
                lo = 0
                for p in self.pred[i]:
                    sp = where[p]
                    if sp > lo:
                        lo = sp
                hi = self.m - 1
                for s in self.succ[i]:
                    ss = where[s]
                    if ss < hi:
                        hi = ss
                la = loads[a] - row_a[i]
                for b in range(lo, hi + 1):
                    if b == a:
                        continue
                    t_b = times[workers[b]][i]
                    if t_b == INFEASIBLE:
                        continue
                    yield i, a, b, la, loads[b] + t_b

    def do_shift(self, i, a, b):
        self.tasks[a].remove(i)
        insort(self.tasks[b], i)
        self.where[i] = b
        self.loads[a] -= self.times[self.workers[a]][i]
        self.loads[b] += self.times[self.workers[b]][i]

    # -- swaps ----------------------------------------------------------

    def swap_loads(self, i, a, j, b):
        """New loads of a and b if tasks i@a and j@b trade places
        (INFEASIBLE when a worker cannot execute its new task)."""
        row_a, row_b = self.times[self.workers[a]], self.times[self.workers[b]]
        return (self.loads[a] - row_a[i] + row_a[j],
                self.loads[b] - row_b[j] + row_b[i])

    def swap_allowed(self, i, a, j, b):
        """Whether tasks i@a and j@b can trade places (a < b)."""
        where = self.where
        for p in self.pred[i]:
            if (a if p == j else where[p]) > b:
                return False
        for s in self.succ[i]:
            if (a if s == j else where[s]) < b:
                return False
        for p in self.pred[j]:
            if (b if p == i else where[p]) > a:
                return False
        for s in self.succ[j]:
            if (b if s == i else where[s]) < a:
                return False
        return True

    def do_swap(self, i, a, j, b):
        self.do_shift(i, a, b)
        self.do_shift(j, b, a)

    # -- worker swaps ----------------------------------------------------

    def worker_swap_loads(self, a, b):
        """New loads of a and b if they trade workers (INFEASIBLE when a
        worker cannot execute a task it would get)."""
        row_a, row_b = self.times[self.workers[a]], self.times[self.workers[b]]
        return (sum(row_b[i] for i in self.tasks[a]),
                sum(row_a[j] for j in self.tasks[b]))

    def do_worker_swap(self, a, b):
        self.workers[a], self.workers[b] = self.workers[b], self.workers[a]
        self.loads[a] = sum(self.times[self.workers[a]][i]
                            for i in self.tasks[a])
        self.loads[b] = sum(self.times[self.workers[b]][j]
                            for j in self.tasks[b])


# Every pass below starts from a state whose key is `key`, with no station
# above its cycle and `key[1]` stations at it.  A move changes the loads
# of two stations only; when neither of them is at the cycle, every
# critical station keeps its load and the key cannot drop, so the passes
# skip such moves unevaluated.  The scan order of the others is kept, and
# with it the first improving move.

def _try_shift(st, key, moves):
    cycle, count = key
    loads = st.loads
    critical = [s for s in range(st.m) if loads[s] == cycle]
    for i, a, b, la, lb in st.iter_shifts(critical):
        if _beats(key, 0, count, loads, a, la, b, lb):
            st.do_shift(i, a, b)
            if moves is not None:
                moves.append(Shift(i, a, b))
            return True
    return False


def _try_swap(st, key, moves):
    cycle, count = key
    loads = st.loads
    for a in range(st.m):
        for b in range(a + 1, st.m):
            if loads[a] != cycle and loads[b] != cycle:
                continue
            for i in st.tasks[a]:
                for j in st.tasks[b]:
                    la, lb = st.swap_loads(i, a, j, b)
                    if (_beats(key, 0, count, loads, a, la, b, lb)
                            and st.swap_allowed(i, a, j, b)):
                        st.do_swap(i, a, j, b)
                        if moves is not None:
                            moves.append(Swap(i, j))
                        return True
    return False


def _try_double_shift(st, key, moves):
    """The first shift may stall or even hurt, as long as the pair wins.

    Runs after the shift pass found nothing in this state, so no first
    shift improves, and moving its task on again would be a single shift
    too.  After a first shift i: a -> b, either b is the only station
    above the cycle, or the stations at the cycle are at least as many
    as before (the mid state).  The second shift must leave a station at
    the mid state's largest load, since no other shift can lower a key.
    First shifts after which no second one can beat `key` are skipped
    without a scan:

    - With b at most at the cycle, the second shift drains one station
      at it while the others keep their loads, so the mid state must
      not hold more of them than `key` counts.
    - With b above it, the other stations at the cycle keep their loads,
      so a or b must have been one of them, and b must get back to the
      cycle (below it unless both were) by giving away one of its own
      tasks.
    """
    cycle, count = key
    loads = st.loads
    times, workers = st.times, st.workers
    most = [max((times[workers[s]][j] for j in st.tasks[s]), default=0)
            for s in range(st.m)]
    for i, a, b, la, lb in st.iter_shifts(range(st.m)):
        if lb > cycle:
            relieved = (loads[a] == cycle) + (loads[b] == cycle)
            if not relieved or most[b] < lb - cycle + (relieved == 1):
                continue
        elif (lb == cycle) != (loads[a] == cycle):
            continue        # more stations at the cycle, or a plain shift
        st.do_shift(i, a, b)
        over = sum(1 for load in loads if load > cycle)
        at = loads.count(cycle)
        top = max(loads)
        sources = [s for s in range(st.m) if loads[s] == top]
        for j, c, d, lc, ld in st.iter_shifts(sources):
            if _beats(key, over, at, loads, c, lc, d, ld):
                st.do_shift(j, c, d)
                if moves is not None:
                    moves.append(DoubleShift(Shift(i, a, b), Shift(j, c, d)))
                return True
        st.do_shift(i, b, a)
    return False


def _try_worker_swap(st, key, moves):
    cycle, count = key
    loads = st.loads
    for a in range(st.m):
        for b in range(a + 1, st.m):
            if loads[a] != cycle and loads[b] != cycle:
                continue
            la, lb = st.worker_swap_loads(a, b)
            if _beats(key, 0, count, loads, a, la, b, lb):
                st.do_worker_swap(a, b)
                if moves is not None:
                    moves.append(WorkerSwap(a, b))
                return True
    return False


def improve(inst, sol: Solution, moves: list | None = None) -> Solution:
    """Descend until no move is accepted; never worsens, never breaks
    feasibility.  When `moves` is a list, accepted moves are appended."""
    st = _State(inst, sol)
    while True:
        key = st.key()
        if _try_shift(st, key, moves):
            continue
        if _try_swap(st, key, moves):
            continue
        if _try_double_shift(st, key, moves):
            continue
        if _try_worker_swap(st, key, moves):
            continue
        break
    return st.to_solution(sol.direction)
