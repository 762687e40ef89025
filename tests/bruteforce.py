"""Independent brute-force reference implementations used only by tests.

Nothing here imports the solver modules: results are derived straight
from the raw instance data (times, edges), so they can serve as an
oracle for the heuristics, the bounds, and the solution checker.
"""

from __future__ import annotations

INF = float("inf")


def brute_force_optimum(inst):
    """Exact minimum cycle time, or None when no assignment is feasible.

    Explores stations left to right: a state is (assigned tasks, used
    workers); each step picks one unused worker and one precedence-closed
    set of still-unassigned tasks the worker can execute (possibly
    empty).  Memoized min-max over all completions.  Intended for tiny
    instances (n <= 8, m <= 4 stays comfortable).
    """
    n, m = inst.n_tasks, inst.n_workers
    full = (1 << n) - 1
    all_workers = (1 << m) - 1

    pred_mask = [0] * n
    for i, j in inst.edges:
        pred_mask[j] |= 1 << i

    # preds_of[mask] = union of predecessor masks over the tasks in mask
    preds_of = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        preds_of[mask] = preds_of[mask ^ low] | pred_mask[low.bit_length() - 1]

    capable = []
    loads = []
    for w in range(m):
        row = inst.times[w]
        cap = 0
        for i in range(n):
            if row[i] != INF:
                cap |= 1 << i
        capable.append(cap)
        lw = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            i = low.bit_length() - 1
            lw[mask] = lw[mask ^ low] + (row[i] if row[i] != INF else 0)
        loads.append(lw)

    memo = {}

    def best(assigned, used):
        if assigned == full:
            return 0
        if used == all_workers:
            return INF
        key = (assigned, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = INF
        open_tasks = full ^ assigned
        for w in range(m):
            bit = 1 << w
            if used & bit:
                continue
            room = open_tasks & capable[w]
            sub = room
            while True:
                if preds_of[sub] & ~(assigned | sub) == 0:
                    load = loads[w][sub]
                    if load < res:
                        rest = best(assigned | sub, used | bit)
                        worst = load if load > rest else rest
                        if worst < res:
                            res = worst
                if sub == 0:
                    break
                sub = (sub - 1) & room
        memo[key] = res
        return res

    r = best(0, 0)
    return None if r == INF else int(r)


def brute_force_feasible(inst, stations):
    """Constraint-by-constraint check of (worker, task set) station lists."""
    n, m = inst.n_tasks, inst.n_workers
    if len(stations) != m:
        return False
    if sorted(w for w, _ in stations) != list(range(m)):
        return False
    pos = {}
    for k, (w, tasks) in enumerate(stations):
        for i in tasks:
            if i in pos:
                return False
            pos[i] = k
            if inst.times[w][i] == INF:
                return False
    if len(pos) != n:
        return False
    for i, j in inst.edges:
        if pos[i] > pos[j]:
            return False
    return True


def enumerate_min_times(inst):
    """Per-task minimum finite time, computed naively."""
    mins = []
    for i in range(inst.n_tasks):
        finite = [inst.times[w][i] for w in range(inst.n_workers)
                  if inst.times[w][i] != INF]
        mins.append(min(finite))
    return mins


def bwa_cycle(inst, tasks, workers) -> float:
    """Bottleneck cycle of the relaxed assignment ignoring precedence.

    Tasks in ascending index order each go to their fastest worker
    (ties: least loaded so far, then smallest index); returns the
    largest resulting load, INF if some task has no capable worker, and
    0 for an empty task set.
    """
    tasks = sorted(tasks)
    if not tasks:
        return 0
    workers = sorted(workers)
    if not workers:
        return INF
    times = inst.times
    loads = {v: 0 for v in workers}
    for i in tasks:
        fastest = INF
        for v in workers:
            t = times[v][i]
            if t < fastest:
                fastest = t
        if fastest == INF:
            return INF
        pick = -1
        pick_load = None
        for v in workers:
            if times[v][i] == fastest and (pick < 0 or loads[v] < pick_load):
                pick = v
                pick_load = loads[v]
        loads[pick] += fastest
    return max(loads.values())


def rest_bound(inst, tasks, workers, w):
    """MinRLB's bound on what worker w leaves: the sum over `tasks` of
    the fastest time among the other `workers`, divided by their number;
    INF when a task has no such worker.  With no other worker it is 0
    for no tasks, else INF."""
    others = [v for v in workers if v != w]
    if not others:
        return 0 if not tasks else INF
    total = 0
    for i in tasks:
        fastest = min(inst.times[v][i] for v in others)
        if fastest == INF:
            return INF
        total += fastest
    return total / len(others)


def reference_improve(inst, sol):
    """The local search's descent by its definition; returns (moves,
    stations, loads).

    Four passes in order (shift, swap, double shift, worker swap), each
    over every candidate in scan order: stations ascending, tasks
    ascending, target stations ascending.  A candidate counts when every
    worker can execute its tasks, every edge runs forward, and the key
    (max load, stations at it), recomputed over all loads, drops.  A
    pass runs only when the passes before it have no such candidate, so
    the move applied is the first such candidate over the four passes
    in turn; then the descent starts again.  A double shift is a feasible shift followed by a
    shift feasible after it; only the pair must lower the key.  Moves
    are tuples: ("shift", i, a, b), ("swap", i, j), ("double_shift",
    (i, a, b), (j, c, d)) and ("worker_swap", a, b).  `stations` lists
    (worker, ascending tuple of tasks) per station.
    """
    n, m, times = inst.n_tasks, inst.n_workers, inst.times
    pred = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    for i, j in inst.edges:
        pred[j].append(i)
        succ[i].append(j)

    def loads_of(where, workers):
        loads = [0] * m
        for i in range(n):
            loads[where[i]] += times[workers[where[i]]][i]
        return loads

    def key_of(where, workers):
        loads = loads_of(where, workers)
        top = max(loads)
        return top, loads.count(top)

    def feasible(where, workers, tasks):
        """Whether `tasks` are executable and their edges run forward."""
        return all(times[workers[where[i]]][i] != INF
                   and all(where[p] <= where[i] for p in pred[i])
                   and all(where[i] <= where[s] for s in succ[i])
                   for i in tasks)

    def at(where, s):
        return [i for i in range(n) if where[i] == s]

    def shifts(where, workers):
        for a in range(m):
            for i in at(where, a):
                for b in range(m):
                    if b == a:
                        continue
                    moved = where[:]
                    moved[i] = b
                    if feasible(moved, workers, (i,)):
                        yield (i, a, b), moved

    def candidates(where, workers):
        """Every feasible move, pass after pass: (move, where, workers)."""
        for shift, moved in shifts(where, workers):
            yield ("shift", *shift), moved, workers
        for a in range(m):
            for b in range(a + 1, m):
                for i in at(where, a):
                    for j in at(where, b):
                        moved = where[:]
                        moved[i], moved[j] = b, a
                        if feasible(moved, workers, (i, j)):
                            yield ("swap", i, j), moved, workers
        for first, mid in shifts(where, workers):
            for second, moved in shifts(mid, workers):
                yield ("double_shift", first, second), moved, workers
        for a in range(m):
            for b in range(a + 1, m):
                swapped = workers[:]
                swapped[a], swapped[b] = workers[b], workers[a]
                if feasible(where, swapped, range(n)):
                    yield ("worker_swap", a, b), where, swapped

    workers = [w for w, _ in sol.stations]
    where = [None] * n
    for s, (_, tasks) in enumerate(sol.stations):
        for i in tasks:
            where[i] = s
    moves = []
    while True:
        key = key_of(where, workers)
        step = next((c for c in candidates(where, workers)
                     if key_of(c[1], c[2]) < key), None)
        if step is None:
            break
        move, where, workers = step
        moves.append(move)
    stations = [(workers[s], tuple(at(where, s))) for s in range(m)]
    return moves, stations, loads_of(where, workers)
