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

from .instance import INFEASIBLE, Instance, as_member
from .solution import Solution, validate_solution


@dataclass(frozen=True)
class Shift:
    task: int
    from_station: int
    to_station: int


@dataclass(frozen=True)
class Swap:
    task_a: int
    task_b: int


@dataclass(frozen=True)
class DoubleShift:
    first: Shift
    second: Shift


@dataclass(frozen=True)
class WorkerSwap:
    station_a: int
    station_b: int


def _beats(key, at, loads, a, la, b, lb):
    """Whether loading stations a != b with la and lb instead gives a
    smaller key than `key` = (cycle, count).

    `at` counts the stations of `loads` at that cycle, and every station
    above it must be a or b, as the others keep their loads.  The rule
    of every pass: both new loads are at most the cycle, and fewer
    stations than `count` end at it (with none left the cycle itself
    drops).  This is O(1), where computing the new key would scan every
    station.  The double-shift and worker-swap passes call it.  The shift
    and swap passes write it inline: with no station above the cycle,
    `at` is `count`, so fewer of a and b must end at the cycle than are
    at it.
    """
    cycle, count = key
    if la > cycle or lb > cycle:
        return False
    return (at - (loads[a] == cycle) - (loads[b] == cycle)
            + (la == cycle) + (lb == cycle)) < count


class _State:
    """Mutable working copy of a solution."""

    def __init__(self, inst, sol):
        self.times = inst.times
        self.pred = inst.pred
        self.succ = inst.succ
        self.m = inst.n_workers
        self.workers = [w for w, _ in sol.stations]
        # each station's tasks ascending, kept so by `insort`
        self.tasks = [sorted(ts) for _, ts in sol.stations]
        self.where = [0] * inst.n_tasks
        for s, ts in enumerate(self.tasks):
            for i in ts:
                self.where[i] = s
        self.loads = list(sol.loads)

    def key(self):
        cycle = max(self.loads)
        return cycle, self.loads.count(cycle)

    def to_solution(self, direction):
        return Solution(tuple((self.workers[s], tuple(self.tasks[s]))
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

    def swap_allowed(self, i, a, j, b):
        """Whether tasks i@a and j@b can trade places (a < b).

        Only i's followers and j's predecessors can refuse: i's
        predecessors sit at or before a < b and j's followers at or after
        b > a, and neither holds the other task."""
        where = self.where
        for s in self.succ[i]:
            if (a if s == j else where[s]) < b:
                return False
        for p in self.pred[j]:
            if (b if p == i else where[p]) > a:
                return False
        return True


# Every pass below starts from a state whose key is `key`, with no station
# above its cycle and `key[1]` stations at it.  A move changes the loads
# of two stations only; when neither of them is at the cycle, every
# critical station keeps its load and the key cannot drop, so the passes
# skip such moves unevaluated.  The scan order of the others is kept, and
# with it the first improving move.

def _try_shift(st, key):
    # the source, at the cycle, loses time: the key drops iff lb < cycle
    cycle = key[0]
    loads = st.loads
    critical = [s for s in range(st.m) if loads[s] == cycle]
    for i, a, b, la, lb in st.iter_shifts(critical):
        if lb < cycle:
            st.do_shift(i, a, b)
            return Shift(i, a, b)
    return None


def _try_swap(st, key):
    # `_beats` inline, as its docstring says
    cycle = key[0]
    loads, tasks = st.loads, st.tasks
    times, workers = st.times, st.workers
    for a in range(st.m):
        row_a = times[workers[a]]
        for b in range(a + 1, st.m):
            at = (loads[a] == cycle) + (loads[b] == cycle)
            if not at:
                continue
            row_b = times[workers[b]]
            for i in tasks[a]:
                la_i, lb_i = loads[a] - row_a[i], loads[b] + row_b[i]
                for j in tasks[b]:
                    la, lb = la_i + row_a[j], lb_i - row_b[j]
                    if (la <= cycle and lb <= cycle
                            and (la == cycle) + (lb == cycle) < at
                            and st.swap_allowed(i, a, j, b)):
                        st.do_shift(i, a, b)
                        st.do_shift(j, b, a)
                        return Swap(i, j)
    return None


def _try_double_shift(st, key):
    """The first shift may stall or even hurt, as long as the pair wins.

    Runs after the shift and swap passes found nothing in this state, so
    no first shift improves, and moving its task on again would be a
    single shift too.  After a first shift i: a -> b, either b is the
    only station above the cycle, or the stations at the cycle are at
    least as many as before (the mid state).  The second shift must
    leave a station at the mid state's largest load, since no other
    shift can lower a key.  First shifts after which no second one can
    beat `key` are skipped without a scan:

    - With b at most at the cycle, the second shift drains one station
      at it while the others keep their loads, so the mid state must
      not hold more of them than `key` counts.
    - With b above it, a must have been at the cycle and b must end
      below it.  Any other winning pair moves a task j from b to a
      station d ending below the cycle, with a below it (b at it) or b
      ending exactly at it (a and b at it).  Then shifting j alone (d
      not a) or swapping i and j (d = a) improves too, and is feasible,
      as moving i into b never widens j's precedence window.
    """
    cycle = key[0]
    loads = st.loads
    times, workers = st.times, st.workers
    most = [max((times[workers[s]][j] for j in st.tasks[s]), default=0)
            for s in range(st.m)]
    for i, a, b, la, lb in st.iter_shifts(range(st.m)):
        if lb > cycle:
            if loads[a] != cycle or most[b] <= lb - cycle:
                continue
        elif (lb == cycle) != (loads[a] == cycle):
            continue        # more stations at the cycle, or a plain shift
        st.do_shift(i, a, b)
        at = loads.count(cycle)
        top = max(loads)
        sources = [s for s in range(st.m) if loads[s] == top]
        for j, c, d, lc, ld in st.iter_shifts(sources):
            if _beats(key, at, loads, c, lc, d, ld):
                st.do_shift(j, c, d)
                return DoubleShift(Shift(i, a, b), Shift(j, c, d))
        st.do_shift(i, b, a)
    return None


def _try_worker_swap(st, key):
    cycle, count = key
    loads, tasks = st.loads, st.tasks
    times, workers = st.times, st.workers
    for a in range(st.m):
        for b in range(a + 1, st.m):
            if loads[a] != cycle and loads[b] != cycle:
                continue
            # the loads of a and b once they trade workers (INFEASIBLE
            # when a worker cannot execute a task it would get)
            row_a, row_b = times[workers[a]], times[workers[b]]
            la = sum(row_b[i] for i in tasks[a])
            lb = sum(row_a[j] for j in tasks[b])
            if _beats(key, count, loads, a, la, b, lb):
                workers[a], workers[b] = workers[b], workers[a]
                loads[a], loads[b] = la, lb
                return WorkerSwap(a, b)
    return None


def improve(inst, sol: Solution,
            moves: list | None = None) -> Solution:
    """Descend until no move is accepted; never worsens, never breaks
    feasibility.  Each pass returns the move it applied, or None; when
    `moves` is a list, every accepted move is appended to it.  A `moves`
    that is neither None nor a list, and a solution that
    `validate_solution` rejects, raise ValueError, and an accepted move
    that does not lower the key RuntimeError."""
    as_member(inst, Instance, "inst")
    if moves is not None and not isinstance(moves, list):
        raise ValueError(f"moves must be None or a list, got {moves!r}")
    ok, violations = validate_solution(inst, sol)
    if not ok:
        raise ValueError(f"{inst.name}: cannot improve an invalid "
                         f"solution: {'; '.join(violations)}")
    st = _State(inst, sol)
    key = st.key()
    while True:
        for step in (_try_shift, _try_swap, _try_double_shift,
                     _try_worker_swap):
            move = step(st, key)
            if move is not None:
                break
        else:
            return st.to_solution(sol.direction)
        if moves is not None:
            moves.append(move)
        last, key = key, st.key()
        if not key < last:
            raise RuntimeError(f"{step.__name__} accepted a move that does "
                               f"not lower the key: {last} -> {key}")
