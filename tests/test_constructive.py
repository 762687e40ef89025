"""Constructive heuristics: frozen small-case traces + oracle properties."""

import functools
import gc
import itertools
import math
import random
import tracemalloc

import pytest

from alwabp import (
    DIRECTIONS,
    Chromosome,
    HgaParams,
    INFEASIBLE,
    Instance,
    NoFeasibleAssignmentError,
    RuleConfig,
    SearchCache,
    TaskRule,
    ValidationError,
    WorkerRule,
    all_rule_configs,
    compute_bounds,
    crossover,
    decode,
    encode_rule,
    evolve,
    lc1,
    run_all_96,
    run_configs,
    solve_lower_bound_search,
    validate_solution,
)

from alwabp import constructive
from alwabp.bounds import CycleInfeasibleError, preprocess
from alwabp.constructive import (_WORKER_KEYS, _bwa_without, _Crew,
                                 _cycle_ceiling, _fill, _fill_ranked, _Line,
                                 _min_bwa, _rank_rows, _Ranks, _rest_bound,
                                 _station_prio, _station_start,
                                 priority_rows)
from alwabp.hga import _random_chromosome
from bruteforce import brute_force_optimum, bwa_cycle, rest_bound
from conftest import TINY_A, random_instance, random_line
from stations import assemble, full_pass, score_worker, station_load_tasks


def test_all_rule_configs_shape():
    cfgs = all_rule_configs()
    assert len(cfgs) == 96
    assert len(set(cfgs)) == 96
    assert cfgs[0] == RuleConfig(TaskRule.MAX_F, WorkerRule.MAX_TASKS,
                                 "forward")
    assert cfgs[-1] == RuleConfig(TaskRule.MIN_RANK, WorkerRule.MIN_RLB,
                                  "backward")
    assert cfgs[0].label == "MaxF/MaxTasks/forward"


def test_rule_names_round_trip():
    for r in TaskRule:
        assert TaskRule(r.value) is r
    assert TaskRule("MaxPW-") is TaskRule.MAX_PW_MIN
    assert TaskRule("MinTimeAvg") is TaskRule.MIN_TIME_AVG
    assert WorkerRule("MinBWA") is WorkerRule.MIN_BWA
    with pytest.raises(ValueError):
        TaskRule("MaxPW")
    with pytest.raises(ValueError):
        RuleConfig(TaskRule.MAX_F, WorkerRule.MIN_RLB, "sideways")


# -- station loads on the 3-task / 2-worker fixture ---------------------------

def test_station_load_tasks_tiny(tiny_a):
    # worker 0 fits only the root task at cycle 2; worker 1 fits nothing
    all_tasks = {0, 1, 2}
    got0 = station_load_tasks(tiny_a, all_tasks, {0, 1}, 0, 2, TaskRule.MAX_F)
    got1 = station_load_tasks(tiny_a, all_tasks, {0, 1}, 1, 2, TaskRule.MAX_F)
    assert got0 == {0}
    assert got1 == set()
    # second station: only worker 1 left, root already done
    got = station_load_tasks(tiny_a, {1, 2}, {1}, 1, 2, TaskRule.MAX_F)
    assert got == {1, 2}


def test_station_load_tasks_large_cycle(tiny_a):
    # at cycle 9 worker 0 takes the whole line (2 + 3 + 4)
    got = station_load_tasks(tiny_a, {0, 1, 2}, {0, 1}, 0, 9, TaskRule.MAX_F)
    assert got == {0, 1, 2}


def test_station_load_respects_matrix(tiny_a):
    # matrix priorities flip which follower is picked first, but the
    # maximal load at cycle 2 for worker 1 is {1, 2} either way
    matrix = [[0.9, 0.1, 0.5], [0.9, 0.1, 0.5]]
    got = station_load_tasks(tiny_a, {1, 2}, {1}, 1, 2, matrix)
    assert got == {1, 2}


def test_bwa_cycle_cases(tiny_a):
    assert bwa_cycle(tiny_a, {1, 2}, {1}) == 2
    assert bwa_cycle(tiny_a, {0, 1}, {0, 1}) == 2
    assert bwa_cycle(tiny_a, set(), {0}) == 0
    assert bwa_cycle(tiny_a, set(), set()) == 0
    assert bwa_cycle(tiny_a, {0}, set()) == INFEASIBLE


def test_bwa_cycle_tie_breaks():
    # both workers equally fast everywhere: ties go to the less loaded,
    # then to the smaller index
    inst = Instance(3, 2, [[2, 2, 2], [2, 2, 2]], [], name="flat")
    assert bwa_cycle(inst, {0, 1, 2}, {0, 1}) == 4  # 0->w0, 1->w1, 2->w0
    inst2 = Instance(2, 2, [[2, 2], [2, 2]], [], name="flat2")
    assert bwa_cycle(inst2, {0, 1}, {0, 1}) == 2


def test_bwa_cycle_uncoverable():
    inst = Instance(2, 2, [[1, INFEASIBLE], [1, 1]], [], name="gap")
    assert bwa_cycle(inst, {1}, {0}) == INFEASIBLE


def test_score_worker_tiny(tiny_a):
    all_tasks = {0, 1, 2}
    s0 = score_worker(tiny_a, all_tasks, {0, 1}, 0, {0}, WorkerRule.MIN_RLB)
    s1 = score_worker(tiny_a, all_tasks, {0, 1}, 1, set(), WorkerRule.MIN_RLB)
    assert s0 == 2.0      # tasks 1 and 2 at worker 1: (1 + 1) / 1
    assert s1 == 9.0      # everything at worker 0's backup times
    assert score_worker(tiny_a, all_tasks, {0, 1}, 0, {0},
                        WorkerRule.MAX_TASKS) == 1
    s = score_worker(tiny_a, all_tasks, {0, 1}, 0, {0}, WorkerRule.MIN_BWA)
    assert s == bwa_cycle(tiny_a, {1, 2}, {1}) == 2


# -- per-worker-set tables against the direct formulas --------------------------

def dense_tie_instance(rng):
    """Random instance with times drawn from {1, 2, 3, INFEASIBLE}, so
    that most tasks have several workers at the fastest time."""
    n, m = rng.randint(1, 12), rng.randint(1, 6)
    times = [[rng.choice((1, 2, 3, INFEASIBLE)) for _ in range(n)]
             for _ in range(m)]
    for i in range(n):
        if all(row[i] == INFEASIBLE for row in times):
            times[rng.randrange(m)][i] = rng.randint(1, 3)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.25]
    return Instance(n, m, times, edges, name="ties")


def random_crew(rng, inst):
    return sorted(rng.sample(range(inst.n_workers),
                             rng.randint(1, inst.n_workers)))


def derived_crew(rng, inst, crew_workers):
    """A crew of `crew_workers` derived, as stations derive it, from a
    fresh crew of them plus a random set of other workers, removing those
    in random order one worker at a time; and how many it removed."""
    extra = [v for v in range(inst.n_workers) if v not in crew_workers]
    extra = rng.sample(extra, rng.randint(0, len(extra)))
    workers = sorted(crew_workers + extra)
    crew = _Crew(inst.times, workers, inst.n_tasks, None, None)
    for gone in extra:
        workers.remove(gone)
        crew = _Crew(inst.times, workers, inst.n_tasks, crew, gone)
    return crew, len(extra)


def direct_ties(inst, workers):
    """`_Crew.ties` by its definition, from the sorted finite times of
    each task over `workers`."""
    out = []
    for i in range(inst.n_tasks):
        col = [inst.times[w][i] for w in workers]
        t1, t2 = (sorted(t for t in col if t != INFEASIBLE)
                  + [INFEASIBLE] * 2)[:2]
        at1, at2 = ((tuple(w for w, x in zip(workers, col) if x == t)
                     if t != INFEASIBLE else ()) for t in (t1, t2))
        if t1 == t2:
            out.append((1 << i, -1, t1, at1, t2, ()))
        else:
            out.append((1 << i, at1[0], t1, at1, t2, at2))
    return out


def direct_tables(inst, workers):
    """`_Crew.mind`, `minr` and `spread` by their definitions, from the
    finite times of each task over `workers`."""
    mind, minr = {}, {}
    spread = ([], [], [], [])
    fastest = []
    for i in range(inst.n_tasks):
        finite = [inst.times[w][i] for w in workers
                  if inst.times[w][i] != INFEASIBLE]
        top = max(finite, default=0)
        for table, value in zip(spread, (top, sum(finite),
                                         len(workers) - len(finite),
                                         finite.count(top))):
            table.append(value)
        fastest.append(min(finite, default=INFEASIBLE))
    for w in workers:
        row = inst.times[w]
        mind[w] = [f - t for f, t in zip(fastest, row)]
        minr[w] = [0.0 if f == INFEASIBLE else -(t / f)
                   for f, t in zip(fastest, row)]
    return {"mind": mind, "minr": minr, "spread": spread}


def test_derived_crews_equal_fresh_crews():
    """Along random chains of worker removals, every field of a derived
    crew equals that of a fresh crew of the same workers, whether or not
    its parent built that field first, and the fresh crew's `ties`, its
    MinD and MinR rows and its `spread` (with the count of workers at
    each task's largest time) equal their definitions."""
    rng = random.Random(0xDE7)
    derived = skipped = cold = 0
    for _ in range(300):
        inst = dense_tie_instance(rng)
        n = inst.n_tasks
        line = _Line(inst.closure())
        workers = random_crew(rng, inst)
        crew = _Crew(inst.times, workers, n, None, None)
        while True:
            fresh = _Crew(inst.times, workers, n, None, None)
            assert crew.workers == fresh.workers
            assert (crew.min1, crew.amin, crew.min2) == (
                fresh.min1, fresh.amin, fresh.min2)
            assert fresh.ties == direct_ties(inst, workers)
            # by repr, as a MinD entry no worker of the crew can execute
            # is NaN (INFEASIBLE less INFEASIBLE), never read
            for name, want in direct_tables(inst, workers).items():
                assert repr(getattr(fresh, name)) == repr(want), name
            for name in rng.sample(["ties", "spread", "ranks", "mind",
                                    "minr"], rng.randint(0, 5)):
                cold += (crew.parent is not None
                         and name not in vars(crew.parent))
                assert (repr(getattr(crew, name))
                        == repr(getattr(fresh, name))), name
            if rng.random() < 0.5:
                got = _station_prio(TaskRule.MIN_RANK, crew, line, range(n), 1)
                want = _station_prio(TaskRule.MIN_RANK, fresh, line, range(n),
                                     1)
                for w in workers:
                    assert got(w) == want(w)
            if len(workers) == 1:
                break
            gone = rng.choice(workers)
            workers = [v for v in workers if v != gone]
            crew = _Crew(inst.times, workers, n, crew, gone)
            derived += 1
            skipped += n - len(crew.redo)
    assert derived > 300 and skipped > 300 and cold > 100


def test_table_bwa_equals_bwa_cycle():
    """MinBWA's score read from the crew table equals `bwa_cycle` of the
    rest over the crew without the candidate."""
    rng = random.Random(0xB3A)
    chain_rng = random.Random(0xB3B)
    tied = checked = derived = 0
    for _ in range(400):
        inst = dense_tie_instance(rng)
        n = inst.n_tasks
        crew_workers = random_crew(rng, inst)
        crew = _Crew(inst.times, crew_workers, n, None, None)
        chained, removed = derived_crew(chain_rng, inst, crew_workers)
        derived += removed > 0
        tied += sum(1 for a, b in zip(crew.min1, crew.min2)
                    if a == b != INFEASIBLE)
        left = sorted(rng.sample(range(n), rng.randint(0, n)))
        for w in crew_workers:
            mine = set(rng.sample(left, rng.randint(0, len(left))))
            T = sum(1 << i for i in mine)
            rest = [i for i in left if i not in mine]
            others = [v for v in crew_workers if v != w]
            want = bwa_cycle(inst, rest, others)
            got = _bwa_without(crew, left, T, w, inst.n_workers)
            assert got == want, (inst.times, w)
            got = _bwa_without(chained, left, T, w, inst.n_workers)
            assert got == want, (inst.times, w, "derived")
            checked += 1
    assert checked > 800 and tied > 500 and derived > 100


def test_rest_bound_equals_oracle():
    """MinRLB's bound read from a station's totals, less the tasks the
    candidate picks, equals the bound computed from the raw times, on
    the unassigned tasks of a station (closed under followers)."""
    rng = random.Random(0x51B)
    chain_rng = random.Random(0x51C)
    checked = picking = finite = derived = 0
    for _ in range(300):
        inst = dense_tie_instance(rng)
        n, m = inst.n_tasks, inst.n_workers
        clo = inst.closure()
        line = _Line(clo)
        crew_workers = random_crew(rng, inst)
        chained, removed = derived_crew(chain_rng, inst, crew_workers)
        derived += removed > 0
        left = set(rng.sample(range(n), rng.randint(0, n)))
        for i in list(left):
            left |= clo.succ_star[i]
        left = sorted(left)
        u_mask = sum(1 << i for i in left)
        for crew in (_Crew(inst.times, crew_workers, n, None, None), chained):
            _, totals = _station_start(left, u_mask, line.pred_masks, crew, m)
            for w in crew_workers:
                can = [i for i in left if inst.times[w][i] != INFEASIBLE]
                picked = rng.sample(can, rng.randint(0, len(can)))
                rest = [i for i in left if i not in picked]
                want = rest_bound(inst, rest, crew_workers, w)
                got = _rest_bound(totals, len(crew_workers) - 1, w, picked,
                                  crew)
                assert got == want, (inst.times, left, w, picked,
                                     crew is chained)
                checked += 1
                picking += len(picked) > 0
                finite += want != INFEASIBLE
    assert checked > 1200 and picking > 700 and finite > 900 and derived > 100


def random_station(rng, inst, crew_workers, left, crew):
    """Per worker of the crew, in order, a fill of `left` as a station
    holds it: (T mask, load, tasks, rest bound), the tasks a random set
    the worker can execute, the load a small random number so that idle
    times tie, and the rest bound read from the station's totals."""
    _, totals = _station_start(left, 0, [0] * inst.n_tasks, crew,
                               inst.n_workers)
    station = []
    for w in crew_workers:
        can = [i for i in left if inst.times[w][i] != INFEASIBLE]
        picked = rng.sample(can, rng.randint(0, len(can)))
        station.append((sum(1 << i for i in picked), rng.randint(0, 3),
                        picked, _rest_bound(totals, len(crew_workers) - 1,
                                            w, picked, crew)))
    return station


def test_bwa_score_is_at_least_the_rest_bound_rounded_up():
    """A MinBWA score spreads over the crew's other workers, in integer
    loads, the total that the rest bound divides among them: it is at
    least the rest bound rounded up, and INFEASIBLE exactly when the
    bound is, on root and derived crews.  Under a `limit`, the score
    comes back exact when below it, and as a value at least `limit`
    otherwise."""
    rng = random.Random(0xF100)
    chain_rng = random.Random(0xF101)
    checked = tight = loose = infeasible = limited = 0
    for _ in range(300):
        inst = dense_tie_instance(rng)
        n, m = inst.n_tasks, inst.n_workers
        crew_workers = random_crew(rng, inst)
        chained, _ = derived_crew(chain_rng, inst, crew_workers)
        left = sorted(rng.sample(range(n), rng.randint(0, n)))
        for crew in (_Crew(inst.times, crew_workers, n, None, None), chained):
            station = random_station(rng, inst, crew_workers, left, crew)
            for w, (T, _, _, rlb) in zip(crew_workers, station):
                bwa = _bwa_without(crew, left, T, w, m)
                checked += 1
                if rlb == INFEASIBLE:
                    assert bwa == INFEASIBLE, (inst.times, left, w, T)
                    infeasible += 1
                else:
                    assert math.ceil(rlb) <= bwa < INFEASIBLE, (
                        inst.times, left, w, T)
                    tight += bwa == math.ceil(rlb)
                    loose += bwa > math.ceil(rlb) > rlb
                for limit in sorted({0, rng.randint(0, 8), bwa, bwa + 1,
                                     INFEASIBLE}):
                    got = _bwa_without(crew, left, T, w, m, limit)
                    if bwa < limit:
                        assert got == bwa, (inst.times, left, w, T, limit)
                    else:
                        assert got >= limit, (inst.times, left, w, T, limit)
                        limited += bwa < INFEASIBLE
    assert checked > 1200 and infeasible > 200 and limited > 1500
    assert tight > 600 and loose > 100, (tight, loose)


def test_min_bwa_choice_equals_the_full_min(monkeypatch):
    """`_min_bwa`, which scores the workers in rest-bound order and stops
    early, commits the worker that the smallest (score, rest bound, idle,
    worker) of every worker names, on random stations of root and
    derived crews, one-worker crews among them, at stations where the
    best score ties and where the least rest bound is c_bar itself.  It
    scores a worker only up to the best score so far, and only while the
    worker's rest bound is at most that best less one.  Where every rest
    bound exceeds c_bar, as where every one is INFEASIBLE, it scores no
    worker and returns the least (rest bound, idle, worker) pair.  Nor
    does it score a two-worker crew, uncut ones among them, where each
    worker's score is its rest bound."""
    rng = random.Random(0xF102)
    chain_rng = random.Random(0xF103)
    calls = []              # the arguments of each score `_min_bwa` asks for

    def counted(*args):
        calls.append(args)
        return _bwa_without(*args)

    monkeypatch.setattr(constructive, "_bwa_without", counted)
    checked = lone = pairs = cut = at_cycle = moved = tied = pruned = 0
    close = 0
    for _ in range(2000):
        inst = dense_tie_instance(rng)
        n, m = inst.n_tasks, inst.n_workers
        crew_workers = random_crew(rng, inst)
        chained, _ = derived_crew(chain_rng, inst, crew_workers)
        left = sorted(rng.sample(range(n), rng.randint(0, n)))
        for crew in (_Crew(inst.times, crew_workers, n, None, None), chained):
            station = random_station(rng, inst, crew_workers, left, crew)
            least = min(fill[3] for fill in station)
            # where it can, c_bar is the least rest bound: the one cycle at
            # which the early return must not yet be taken
            if 1 <= least < INFEASIBLE and least % 1 == 0:
                c_bar = int(least)
            else:
                c_bar = rng.randint(3, 9)
            first = min((fill[3], c_bar - fill[1], w, fill)
                        for w, fill in zip(crew_workers, station))[2:]
            calls.clear()
            got = _min_bwa(crew, left, station, c_bar, m)
            checked += 1
            lone += len(crew_workers) == 1
            if len(crew_workers) == 2:
                assert calls == [], (inst.times, left, station, c_bar)
                pairs += least <= c_bar
            if least > c_bar:
                assert got == first and calls == [], (
                    inst.times, left, station, c_bar)
                cut += 1
                continue
            scores = [(_bwa_without(crew, left, fill[0], w, m), fill[3],
                       c_bar - fill[1], w)
                      for w, fill in zip(crew_workers, station)]
            k = scores.index(min(scores))
            assert got == (crew_workers[k], station[k]), (
                inst.times, left, station, c_bar)
            rlb = dict(zip(crew_workers, (fill[3] for fill in station)))
            assert [w for _, _, _, w, _, limit in calls
                    if rlb[w] > limit - 1] == [], (inst.times, left, station)
            # another worker's rest bound in (best - 1, best]: one that only
            # a stop at `rlb > best` would score
            close += any(scores[k][0] - 1 < s[1] <= scores[k][0]
                         for j, s in enumerate(scores) if j != k)
            at_cycle += least == c_bar
            moved += least == c_bar and got != first
            tied += sum(s[0] == scores[k][0] for s in scores) > 1
            pruned += len(calls) < len(station)
    assert checked == 4000 and lone > 1300 and cut > 1000, (lone, cut)
    assert pairs > 500, pairs
    assert at_cycle > 500 and moved > 15, (at_cycle, moved)
    assert tied > 700 and pruned > 1300 and close > 600, (tied, pruned, close)


def test_worker_keys_commit_as_the_module_docstring_orders():
    """MaxTasks and MinRLB commit the worker that the module docstring's
    order puts first: the rule score, then the rule's second score (the
    task count for MinRLB, the rest bound standing for the load balance
    for MaxTasks), then the smaller idle time c_bar - load, then the
    smaller index.  The order is applied one criterion at a time, on
    random stations of root and derived crews whose loads tie often, and
    every criterion decides some of them."""
    rng = random.Random(0xF104)
    chain_rng = random.Random(0xF105)
    tasks = lambda w, fill: -len(fill[2])           # more tasks first
    rest = lambda w, fill: fill[3]
    criteria = {WorkerRule.MAX_TASKS: (tasks, rest),
                WorkerRule.MIN_RLB: (rest, tasks)}
    decided = {rule: [0] * 4 for rule in criteria}  # by the k-th criterion
    for _ in range(1500):
        inst = dense_tie_instance(rng)
        n = inst.n_tasks
        crew_workers = random_crew(rng, inst)
        chained, _ = derived_crew(chain_rng, inst, crew_workers)
        left = sorted(rng.sample(range(n), rng.randint(0, n)))
        c_bar = rng.randint(3, 9)
        for crew in (_Crew(inst.times, crew_workers, n, None, None), chained):
            station = random_station(rng, inst, crew_workers, left, crew)
            pairs = list(zip(crew_workers, station))
            for rule, (first, second) in criteria.items():
                want = pairs
                for k, score in enumerate((first, second,
                                           lambda w, fill: c_bar - fill[1],
                                           lambda w, fill: w)):
                    if len(want) == 1:
                        break
                    least = min(score(*pair) for pair in want)
                    want = [pair for pair in want if score(*pair) == least]
                    decided[rule][k] += len(want) == 1
                assert min(pairs, key=_WORKER_KEYS[rule]) == want[0], (
                    rule, c_bar, station)
    for rule, counts in decided.items():
        assert min(counts) > 100, (rule, counts)


def test_unassigned_line_reads_roots_and_crew_totals():
    """While no task is assigned, a station's ready tasks are its line's
    roots and its rest-bound totals the crew's own, fresh or derived, in
    both directions, as `_station_start` computes them from scratch."""
    rng = random.Random(0x70A)
    chain_rng = random.Random(0x70B)
    derived = 0
    for _ in range(200):
        inst = dense_tie_instance(rng)
        n, m = inst.n_tasks, inst.n_workers
        crew_workers = random_crew(rng, inst)
        chained, removed = derived_crew(chain_rng, inst, crew_workers)
        derived += removed > 0
        for crew in (_Crew(inst.times, crew_workers, n, None, None), chained):
            for d in DIRECTIONS:
                line = _Line(inst.closure(), d)
                assert (line.roots, crew.totals) == _station_start(
                    range(n), (1 << n) - 1, line.pred_masks, crew, m)
    assert derived > 50


def direct_base(rule, inst, crew_workers, c_bar):
    """The worker aggregate of a time rule, computed from scratch."""
    times, n = inst.times, inst.n_tasks
    if rule in (TaskRule.MAX_TIME_MIN, TaskRule.MIN_TIME_MIN,
                TaskRule.MAX_PW_MIN):
        fastest = [min(times[w][i] for w in crew_workers) for i in range(n)]
        return [t if t != INFEASIBLE else c_bar for t in fastest]
    cells = [[times[w][i] if times[w][i] != INFEASIBLE else c_bar
              for w in crew_workers] for i in range(n)]
    if rule in (TaskRule.MAX_TIME_MAX, TaskRule.MIN_TIME_MAX,
                TaskRule.MAX_PW_MAX):
        return [max(c) for c in cells]
    return [sum(c) / len(crew_workers) for c in cells]


def direct_prio(rule, inst, crew_workers, w, c_bar):
    times, clo = inst.times, inst.closure()
    if rule is TaskRule.MIN_RANK:
        return [-sum(1 for v in crew_workers if times[v][i] < times[w][i])
                for i in range(inst.n_tasks)]
    base = direct_base(rule, inst, crew_workers, c_bar)
    if rule.value.startswith("MaxTime"):
        return base
    if rule.value.startswith("MinTime"):
        return [-t for t in base]
    return [base[i] + sum(base[h] for h in clo.succ_star[i])
            for i in range(inst.n_tasks)]


TABLE_RULES = [TaskRule.MAX_TIME_MIN, TaskRule.MAX_TIME_MAX,
               TaskRule.MAX_TIME_AVG, TaskRule.MIN_TIME_MIN,
               TaskRule.MIN_TIME_MAX, TaskRule.MIN_TIME_AVG,
               TaskRule.MAX_PW_MIN, TaskRule.MAX_PW_MAX, TaskRule.MAX_PW_AVG,
               TaskRule.MIN_RANK]


def test_table_priorities_equal_direct_formulas():
    """Aggregates, positional weights and ranks read from a crew table
    equal the direct formulas, bit for bit, at every tentative cycle, on
    the unassigned tasks of a station (closed under followers)."""
    rng = random.Random(0x9A1)
    chain_rng = random.Random(0x9A2)
    checked = derived = 0
    for _ in range(150):
        inst = dense_tie_instance(rng)
        n = inst.n_tasks
        clo = inst.closure()
        line = _Line(clo)
        crew_workers = random_crew(rng, inst)
        left = set(rng.sample(range(n), rng.randint(0, n)))
        for i in list(left):
            left |= clo.succ_star[i]
        left = sorted(left)
        for rule in TABLE_RULES:
            chained, removed = derived_crew(chain_rng, inst, crew_workers)
            derived += removed > 0
            for crew in (_Crew(inst.times, crew_workers, n, None, None),
                         chained):                  # one per search
                for c_bar in range(1, 10):
                    prio = _station_prio(rule, crew, line, left, c_bar)
                    for w in crew_workers:
                        want = direct_prio(rule, inst, crew_workers, w,
                                           c_bar)
                        got = prio(w)
                        assert ([repr(got[i]) for i in left]
                                == [repr(want[i]) for i in left]), (
                                    rule, c_bar, crew is chained)
                        checked += 1
            everyone = range(inst.n_workers)
            for w, row in enumerate(priority_rows(inst, rule, 7)):
                assert row == direct_prio(rule, inst, everyone, w, 7)
    assert checked > 20000 and derived > 500


def reference_stars(inst):
    """Transitive predecessors and followers of every task, built as the
    instance has always built them: frozensets of the immediate sets,
    grown into sets in topological order, then frozen."""
    n = inst.n_tasks
    pred = [set() for _ in range(n)]
    succ = [set() for _ in range(n)]
    for i, j in inst.edges:
        pred[j].add(i)
        succ[i].add(j)
    pred = [frozenset(p) for p in pred]
    succ = [frozenset(s) for s in succ]
    indegree = [len(p) for p in pred]
    ready = [i for i in range(n) if indegree[i] == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    stars = []
    for imm, seq in ((pred, order), (succ, order[::-1])):
        star = [set() for _ in range(n)]
        for i in seq:
            for k in imm[i]:
                star[i].add(k)
                star[i] |= star[k]
        stars.append([frozenset(s) for s in star])
    return stars


def test_max_pw_avg_sums_in_the_closure_order():
    """MaxPWAvg's priorities, in both directions, equal float for float
    those summed over the closure as it has always been built: the
    order its sets iterate in fixes the rounding, and so the rule's ties
    and the cycles it reaches, as summing in ascending order shows.  Half
    the lines take edges from anywhere before a task, where the order in
    which the immediate sets iterate also moves the closure's."""
    rng = random.Random(0x0D3)
    reordered = 0
    for k in range(60):
        span, edge_prob = (6, 0.25) if k % 2 else (70, 0.05)
        inst = random_line(rng, name=f"line{k}", span=span,
                           edge_prob=edge_prob)
        n, everyone = inst.n_tasks, range(inst.n_workers)
        lines = SearchCache(inst)._lines
        crew = _Crew(inst.times, everyone, n, None, None)
        c_bar = lc1(inst)
        base = direct_base(TaskRule.MAX_PW_AVG, inst, everyone, c_bar)
        pred_star, succ_star = reference_stars(inst)
        for direction, star in (("forward", succ_star),
                                ("backward", pred_star)):
            want = [base[i] + sum(base[h] for h in star[i])
                    for i in range(n)]
            got = _station_prio(TaskRule.MAX_PW_AVG, crew, lines[direction],
                                range(n), c_bar)(0)
            assert [repr(p) for p in got] == [repr(p) for p in want], (
                inst, direction)
            reordered += want != [base[i] + sum(base[h]
                                                for h in sorted(star[i]))
                                  for i in range(n)]
    assert reordered >= 20


# -- full assembly ------------------------------------------------------------

def test_assemble_tiny_forward(tiny_a):
    sol = assemble(tiny_a, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB)
    assert sol is not None
    assert sol.stations == ((0, (0,)), (1, (1, 2)))
    assert sol.loads == (2, 2)
    assert sol.cycle == 2
    assert sol.direction == "forward"
    ok, violations = validate_solution(tiny_a, sol)
    assert ok, violations


def test_assemble_tiny_too_tight(tiny_a):
    assert assemble(tiny_a, 1, TaskRule.MAX_F, WorkerRule.MIN_RLB) is None
    assert assemble(tiny_a, 1, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                    "backward") is None


def test_assemble_tiny_loose_cycle(tiny_a):
    # with room for everything, worker 0 hoards the line (smaller idle)
    sol = assemble(tiny_a, 9, TaskRule.MAX_F, WorkerRule.MAX_TASKS)
    assert sol.stations == ((0, (0, 1, 2)), (1, ()))
    assert sol.loads == (9, 0)
    assert sol.cycle == 9


def test_assemble_tiny_backward(tiny_a):
    sol = assemble(tiny_a, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB, "backward")
    assert sol is not None
    assert sol.direction == "backward"
    # reversed run loads the last station first; flipped back the line
    # reads root-first again
    assert sol.stations == ((0, (0,)), (1, (1, 2)))
    assert sol.loads == (2, 2)
    ok, violations = validate_solution(tiny_a, sol)
    assert ok, violations


def forced_station_line(rng, k):
    """Random line of 1-12 tasks and 1-5 workers, one worker on every
    sixth: times U[1, 3] or U[1, 9], some cells INFEASIBLE, each task
    with a worker that can execute it."""
    n = rng.randint(1, 12)
    m = 1 if k % 6 == 0 else rng.randint(2, 5)
    top, gaps = rng.choice((3, 9)), rng.choice((0.0, 0.15, 0.3))
    times = [[INFEASIBLE if rng.random() < gaps else rng.randint(1, top)
              for _ in range(n)] for _ in range(m)]
    for i in range(n):
        if all(row[i] == INFEASIBLE for row in times):
            times[rng.randrange(m)][i] = rng.randint(1, top)
    edge_prob = rng.choice((0.1, 0.3, 0.6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return Instance(n, m, times, edges, name=f"forced{k}")


def test_forced_last_station_equals_the_full_pass():
    """`_assemble`, whose last worker takes the tasks left by one sum,
    equals `full_pass`, which evaluates that station in full, at every
    cycle from 1 up to the first success: on lines of 1-12 tasks and 1-5
    workers, for the 96 configurations, random and tied priority
    matrices and the ranked sources of a matrix and of the four fixed
    rules, in both directions, each pass kind with its own crew table
    shared by every pass on the line, and `_assemble` on every other
    line with a table of fills per source.

    A full pass fails at its last station, which the sum check alone
    decides now, only on one-worker lines: with two workers or more the
    rest bound at the station before has already cut the pass."""
    rng = random.Random(0xF0CE)
    passes = last_failed = last_reached = 0
    for k in range(48):
        inst = forced_station_line(rng, k)
        times, m = inst.times, inst.n_workers
        matrices = [[[rng.random() for _ in times[0]] for _ in times],
                    [[rng.choice((0.25, 0.5)) for _ in times[0]]
                     for _ in times]]
        crews, full_crews = {}, {}
        for direction in DIRECTIONS:
            line = _Line(inst.closure(), direction)
            sources = [*TaskRule, *matrices]
            sources += [_rank_rows(source, times, line)
                        for source in (matrices[0], *FIXED_RULES)]
            for source in sources:
                fills = {} if k % 2 else None
                for rule in WorkerRule:
                    for c in range(1, _cycle_ceiling(inst) + 1):
                        got = constructive._assemble(times, c, source, rule,
                                                     line, crews, fills)
                        want, reached = full_pass(times, c, source, rule,
                                                  line, full_crews)
                        assert got == want, (inst, source, rule, c)
                        passes += 1
                        last_reached += reached == m
                        if want is None and reached == m:
                            assert m == 1, (inst, source, rule, c)
                            last_failed += 1
                        if got is not None:
                            break
    assert passes > 50000 and last_failed > 20000, (passes, last_failed)
    assert last_reached - last_failed > 5000, last_reached


def test_one_other_worker_rest_bound_is_their_sum():
    """With one other worker in the crew, `_rest_bound` is that worker's
    summed times on the tasks the committed worker leaves, or INFEASIBLE
    when it cannot execute one of them: the cut at a pass's next-to-last
    station is the sum check of its last."""
    rng = random.Random(0x5A3)
    checked = short = 0
    for _ in range(1500):
        inst = dense_tie_instance(rng)
        m = inst.n_workers
        if m < 2:
            continue
        pair = sorted(rng.sample(range(m), 2))
        crew = (_Crew(inst.times, pair, inst.n_tasks, None, None)
                if rng.random() < 0.5 else derived_crew(rng, inst, pair)[0])
        left = sorted(rng.sample(range(inst.n_tasks),
                                 rng.randint(0, inst.n_tasks)))
        u_mask = sum(1 << i for i in left)
        _, totals = _station_start(left, u_mask, [0] * inst.n_tasks, crew, m)
        for w, v in (pair, pair[::-1]):
            picked = [i for i in left
                      if inst.times[w][i] != INFEASIBLE and rng.random() < 0.5]
            want = sum(inst.times[v][i] for i in left if i not in picked)
            assert _rest_bound(totals, 1, w, picked, crew) == want, (
                inst, pair, w, left, picked)
            checked += 1
            short += want == INFEASIBLE
    assert checked > 2000 and 500 < short < checked - 1000, (checked, short)


def test_no_pass_evaluates_a_one_worker_station(monkeypatch):
    """Over `run_all_96` with and without reduction, then a short
    `evolve`, on seeded small lines, no `_Crew` is built for one worker
    and no `_station_fills` call sees a one-worker crew: the last worker
    of a pass takes the tasks left with no crew, fill or score."""
    init, station_fills = _Crew.__init__, constructive._station_fills
    crew_sizes, station_sizes = [], []

    def counted_init(self, times, workers, n, parent, gone):
        crew_sizes.append(len(workers))
        init(self, times, workers, n, parent, gone)

    def counted_station_fills(source, crew, line, left, u_mask, c_bar):
        station_sizes.append(len(crew.workers))
        return station_fills(source, crew, line, left, u_mask, c_bar)

    monkeypatch.setattr(_Crew, "__init__", counted_init)
    monkeypatch.setattr(constructive, "_station_fills",
                        counted_station_fills)
    rng = random.Random(0x1A57)
    lines = [random_instance(rng) for _ in range(20)]
    lines.append(random_line(rng, 30, 6))
    for k, inst in enumerate(lines):
        run_all_96(inst)
        run_all_96(inst, use_preprocess=True)
        evolve(inst, HgaParams(p=20, max_iters=3, rng_seed=k))
    assert 1 not in crew_sizes and 1 not in station_sizes
    assert len(crew_sizes) > 300 and len(station_sizes) > 10000, (
        len(crew_sizes), len(station_sizes))


def test_search_rejects_bad_direction(tiny_a):
    with pytest.raises(ValueError, match="direction must be one of "
                       "'forward', 'backward', 'both', got 'sideways'"):
        solve_lower_bound_search(tiny_a, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                 direction="sideways")


@pytest.mark.parametrize("rule", ["MinBWA", "nonsense", TaskRule.MAX_F])
def test_worker_rule_not_of_its_enum_is_refused(tiny_a, rule):
    """Refused, not scored as MinRLB, which the assembly scores for any
    worker rule but MaxTasks and MinBWA."""
    for call in (lambda: solve_lower_bound_search(tiny_a, TaskRule.MAX_F,
                                                  rule),
                 lambda: RuleConfig(TaskRule.MAX_F, rule)):
        with pytest.raises(ValueError,
                           match="worker_rule must be a WorkerRule, got "):
            call()


@pytest.mark.parametrize("rule", ["MaxF", "nonsense", WorkerRule.MIN_BWA])
def test_task_rule_not_of_its_enum_is_refused(tiny_a, rule):
    """Named as an unknown task rule, not measured as a priority matrix.
    `priority_rows` takes a task rule alone: a priority matrix of the
    instance's shape, which a search takes, is refused there too."""
    for call in (lambda: solve_lower_bound_search(tiny_a, rule,
                                                  WorkerRule.MIN_RLB),
                 lambda: priority_rows(tiny_a, rule, 30),
                 lambda: priority_rows(tiny_a, [[0.5] * 3] * 2, 30),
                 lambda: RuleConfig(rule, WorkerRule.MIN_BWA)):
        with pytest.raises(ValueError, match="must be a TaskRule, got "):
            call()


FIXED_CYCLE_CALLS = {
    "preprocess": preprocess,
    "priority_rows": lambda inst, c: priority_rows(inst, TaskRule.MAX_PW_AVG,
                                                   c),
    "encode_rule": lambda inst, c: encode_rule(inst, TaskRule.MAX_PW_AVG, c),
}


@pytest.mark.parametrize("c", [2.5, 0, -3, True, math.nan],
                         ids=["2.5", "0", "-3", "True", "nan"])
@pytest.mark.parametrize("entry", list(FIXED_CYCLE_CALLS))
def test_fixed_cycle_entry_points_refuse_a_cycle_they_cannot_use(tiny_a,
                                                                 entry, c):
    """A cycle must be an integer of at least 1: no float priorities, no
    reduction at a fractional cycle, no None for a cycle of 0."""
    with pytest.raises(ValidationError, match="cycle must be"):
        FIXED_CYCLE_CALLS[entry](tiny_a, c)


@pytest.mark.parametrize("rows", [[[0.5] * 5] * 3, [[0.5]] * 2, [[0.5] * 3],
                                  [[0.5] * 3, [0.5] * 2]])
def test_matrix_of_another_shape_is_refused(tiny_a, rows):
    """A priority matrix must hold one row per worker and one priority
    per task: 2 x 3 on tiny-A."""
    for direction in DIRECTIONS + ("both",):
        with pytest.raises(ValueError, match="2 x 3"):
            solve_lower_bound_search(tiny_a, rows, WorkerRule.MIN_RLB,
                                     direction, cache=SearchCache(tiny_a))


NOT_FINITE_MATRICES = {
    "search of None": lambda inst: solve_lower_bound_search(
        inst, None, WorkerRule.MIN_RLB),
    "rows of an int": lambda inst: solve_lower_bound_search(
        inst, 5, WorkerRule.MIN_RLB),
    "string entry": lambda inst: solve_lower_bound_search(
        inst, [[0.5] * 3, [0.5, "a", 0.5]], WorkerRule.MIN_RLB),
    "NaN entry": lambda inst: solve_lower_bound_search(
        inst, [[0.5] * 3, [0.5, math.nan, 0.5]], WorkerRule.MIN_RLB),
    "search with a NaN entry": lambda inst: solve_lower_bound_search(
        inst, [[math.nan] * 3, [0.5] * 3], WorkerRule.MIN_RLB, "both"),
    "infinite entry": lambda inst: solve_lower_bound_search(
        inst, [[0.5] * 3, [0.5, 0.5, -math.inf]], WorkerRule.MIN_RLB),
    "chromosome of strings": lambda inst: Chromosome((("a",),)),
}


@pytest.mark.parametrize("call", NOT_FINITE_MATRICES.values(),
                         ids=list(NOT_FINITE_MATRICES))
def test_priority_source_not_a_matrix_of_finite_numbers_is_refused(tiny_a,
                                                                   call):
    """A priority source is a task rule or a workers x tasks matrix of
    finite numbers; anything else is refused before a station is
    filled, not run silently or failed inside `_fill`."""
    with pytest.raises(ValueError):
        call(tiny_a)


def test_backward_is_forward_on_reversed(tiny_a):
    rev = tiny_a.reverse()
    fwd_on_rev = assemble(rev, 2, TaskRule.MIN_TIME_MIN, WorkerRule.MAX_TASKS)
    bwd = assemble(tiny_a, 2, TaskRule.MIN_TIME_MIN, WorkerRule.MAX_TASKS,
                   "backward")
    assert bwd.stations == tuple(reversed(fwd_on_rev.stations))
    assert bwd.loads == tuple(reversed(fwd_on_rev.loads))
    assert bwd.cycle == fwd_on_rev.cycle


def test_line_pred_masks(tiny_a):
    assert _Line(tiny_a.closure()).pred_masks == [0, 1, 1]
    assert _Line(tiny_a.closure(), "backward").pred_masks == [6, 0, 0]


def test_backward_line_is_forward_line_of_reversed():
    """The backward line, read off the instance's own closure, equals
    the forward line of the instance with every edge flipped."""
    rng = random.Random(0xB4C)
    for _ in range(50):
        inst = random_instance(rng, n_max=12)
        backward = vars(_Line(inst.closure(), "backward"))
        forward_on_rev = vars(_Line(inst.reverse().closure()))
        assert backward.pop("direction") == "backward"
        assert forward_on_rev.pop("direction") == "forward"
        assert backward == forward_on_rev, inst


def test_cycle_ceiling(tiny_a):
    assert _cycle_ceiling(tiny_a) == 5 + 3 + 4


def test_solve_tiny(tiny_a):
    sol = solve_lower_bound_search(tiny_a, TaskRule.MAX_F, WorkerRule.MIN_RLB)
    assert sol.cycle == 2
    sol = solve_lower_bound_search(tiny_a, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                   direction="both")
    assert sol.cycle == 2
    # an explicit start above the optimum is honoured, not undercut
    sol = solve_lower_bound_search(tiny_a, TaskRule.MAX_F,
                                   WorkerRule.MAX_TASKS, c_start=9)
    assert sol.loads == (9, 0)
    # a start below 1 is raised to 1, with or without reduction
    for start in (0, -3):
        for reduce in (False, True):
            sol = solve_lower_bound_search(tiny_a, TaskRule.MAX_F,
                                           WorkerRule.MIN_RLB, c_start=start,
                                           use_preprocess=reduce)
            assert sol.cycle == 2


@pytest.mark.parametrize("start", [2.5, True])
def test_solve_refuses_a_start_that_is_not_an_integer(tiny_a, start):
    """A float start would step through x.5 cycles and never try the
    integer ceiling; a bool would be read as 0 or 1."""
    with pytest.raises(ValidationError,
                       match=f"^c_start must be an integer, got {start!r}$"):
        solve_lower_bound_search(tiny_a, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                 c_start=start)


@pytest.mark.parametrize("flag", ["no", "", 0, 1, None])
@pytest.mark.parametrize("entry", ["search", "run_configs", "run_all_96"])
def test_reduction_flag_that_is_not_a_bool_is_refused(tiny_a, entry, flag):
    """A string such as "no" would read as true and run with reduction."""
    call = {"search": lambda: solve_lower_bound_search(
                tiny_a, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                use_preprocess=flag),
            "run_configs": lambda: run_configs(
                tiny_a, all_rule_configs()[:2], flag),
            "run_all_96": lambda: run_all_96(tiny_a, flag)}[entry]
    with pytest.raises(ValidationError, match="^use_preprocess must be a "
                       f"bool, got {flag!r}$"):
        call()


def test_solve_infeasible_instance():
    # chain 0 -> 1 -> 2; worker 0 only does task 1, worker 1 only 0 and 2.
    # No split of the chain into two stations works, so the search must
    # exhaust its ceiling and say so.
    inst = Instance(3, 2,
                    [[INFEASIBLE, 1, INFEASIBLE], [1, INFEASIBLE, 1]],
                    [(0, 1), (1, 2)], name="stuck")
    assert brute_force_optimum(inst) is None
    with pytest.raises(NoFeasibleAssignmentError):
        solve_lower_bound_search(inst, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                 direction="both")


def test_both_directions_equal_separate_passes():
    """direction='both' returns, for every rule, the first success of
    forward then backward single passes, each on its own, at the
    smallest cycle; the two directions share a search but read their
    own precedence (a chain's follower counts differ when reversed)."""
    rng = random.Random(0xB07)
    chain = Instance(5, 3, [[1, 2, 3, 2, 1], [2, 1, 2, 3, 2], [3, 3, 1, 1, 2]],
                     [(i, i + 1) for i in range(4)], name="chain")
    insts = [chain] + [random_instance(rng, n_max=7, m_max=3)
                       for _ in range(6)]
    for inst in insts:
        for rule in TaskRule:
            for wr in WorkerRule:
                want = None
                for c in range(lc1(inst), _cycle_ceiling(inst) + 1):
                    want = (assemble(inst, c, rule, wr, "forward")
                            or assemble(inst, c, rule, wr, "backward"))
                    if want is not None:
                        break
                got = solve_lower_bound_search(inst, rule, wr, "both")
                assert got == want, (inst.name, rule, wr)


def test_run_all_96_tiny(tiny_a):
    rows = run_all_96(tiny_a)
    assert len(rows) == 96
    assert [r.config for r in rows] == all_rule_configs()
    assert all(r.cycle == 2 for r in rows)
    assert all(r.elapsed >= 0 for r in rows)


# -- properties against the exhaustive oracle ---------------------------------

SAMPLED_CONFIGS = [
    (TaskRule.MAX_F, WorkerRule.MIN_RLB, "forward"),
    (TaskRule.MAX_F, WorkerRule.MAX_TASKS, "backward"),
    (TaskRule.MIN_TIME_MIN, WorkerRule.MIN_BWA, "forward"),
    (TaskRule.MAX_PW_MIN, WorkerRule.MIN_RLB, "both"),
    (TaskRule.MIN_RANK, WorkerRule.MAX_TASKS, "forward"),
    (TaskRule.MIN_R, WorkerRule.MIN_BWA, "backward"),
]


def test_search_vs_oracle_and_bounds():
    rng = random.Random(0xC0)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        report = compute_bounds(inst)
        for t_rule, w_rule, direction in SAMPLED_CONFIGS:
            if opt is None:
                with pytest.raises(NoFeasibleAssignmentError):
                    solve_lower_bound_search(inst, t_rule, w_rule, direction)
                continue
            sol = solve_lower_bound_search(inst, t_rule, w_rule, direction)
            ok, violations = validate_solution(inst, sol)
            assert ok, (inst.name, t_rule, w_rule, violations)
            assert sol.cycle >= opt
            assert sol.cycle >= report.best
            checked += 1
    assert checked >= 150


def test_search_deterministic():
    rng = random.Random(0xC1)
    for _ in range(10):
        inst = random_instance(rng)
        if brute_force_optimum(inst) is None:
            continue
        for t_rule, w_rule, direction in SAMPLED_CONFIGS[:3]:
            a = solve_lower_bound_search(inst, t_rule, w_rule, direction)
            b = solve_lower_bound_search(inst, t_rule, w_rule, direction)
            assert a == b


@functools.cache
def _oracle_lines():
    """Random lines and a line with no assignment (the chain of
    `test_solve_infeasible_instance`), each with its optimum (None when
    no assignment exists) and its best lower bound."""
    rng = random.Random(0xC96)
    insts = [random_instance(rng, name=f"o{k}") for k in range(12)]
    insts.append(Instance(3, 2,
                          [[INFEASIBLE, 1, INFEASIBLE], [1, INFEASIBLE, 1]],
                          [(0, 1), (1, 2)], name="stuck"))
    return tuple((inst, brute_force_optimum(inst), compute_bounds(inst).best)
                 for inst in insts)


@pytest.mark.parametrize("config", all_rule_configs(),
                         ids=lambda cfg: cfg.label)
def test_each_configuration_vs_oracle(config):
    """Every one of the 96 configurations on its own, where the sampled
    test above checks six: `run_configs` reports the cycle of the
    configuration's lone search, whose solution is valid and no better
    than the optimum or the bounds, with and without reduction; on a
    line with no assignment both report the failure."""
    assert {opt is None for _, opt, _ in _oracle_lines()} == {False, True}
    for inst, opt, best in _oracle_lines():
        for reduce in (False, True):
            run, = run_configs(inst, [config], reduce)
            assert run.config == config
            if opt is None:
                assert run.cycle is None and run.error, inst
                with pytest.raises(NoFeasibleAssignmentError):
                    solve_lower_bound_search(
                        inst, config.task_rule, config.worker_rule,
                        config.direction, use_preprocess=reduce)
                continue
            sol = solve_lower_bound_search(
                inst, config.task_rule, config.worker_rule, config.direction,
                use_preprocess=reduce)
            ok, violations = validate_solution(inst, sol)
            assert ok, (inst, violations)
            assert sol.direction == config.direction
            assert run.cycle == sol.cycle >= max(opt, best), inst


def test_search_skips_exactly_the_cycles_preprocess_proves(monkeypatch):
    """A search assembles in each of its directions at every tentative
    cycle from its start up to the assembly that succeeds, except at the
    cycles `preprocess` proves infeasible: no other check skips a cycle.
    With reduction each search has a cache of its own.  Without it the
    searches share one cache: the first calls `preprocess` at no cycle,
    and each later one skips the cycles a proof asked for by any of them
    ruled out."""
    real_assemble, real_preprocess = (constructive._assemble,
                                      constructive.preprocess)
    assembled, proved, calls = [], set(), []

    def recording_assemble(times, c, source, worker_rule, line, *args):
        sol = real_assemble(times, c, source, worker_rule, line, *args)
        assembled.append((c, line.direction, sol is not None))
        return sol

    def recording_preprocess(inst, c):
        calls.append(c)
        try:
            return real_preprocess(inst, c)
        except CycleInfeasibleError:
            proved.add(c)
            raise

    monkeypatch.setattr(constructive, "_assemble", recording_assemble)
    monkeypatch.setattr(constructive, "preprocess", recording_preprocess)
    rng = random.Random(0x5C1B)
    searches = 0
    skipped = {False: 0, True: 0}       # by use_preprocess
    for _ in range(60):
        inst = random_instance(rng)
        matrix = [[rng.random() for _ in range(inst.n_tasks)]
                  for _ in range(inst.n_workers)]
        best = compute_bounds(inst).best
        rules = [(t_rule, w_rule, direction, lc1(inst), reduce)
                 for reduce in (True, False)
                 for t_rule, w_rule, direction in SAMPLED_CONFIGS[:3]]
        groups = [[(matrix, WorkerRule.MIN_RLB, "both", best, True)]]
        groups += [[run] for run in rules[:3]] + [rules[3:]]
        for group in groups:            # the searches sharing one cache
            cache = SearchCache(inst)
            proved.clear()
            calls.clear()
            for k, (source, w_rule, direction, start, reduce) in enumerate(
                    group):
                assembled.clear()
                try:
                    solve_lower_bound_search(inst, source, w_rule, direction,
                                             c_start=start,
                                             use_preprocess=reduce,
                                             cache=cache)
                except NoFeasibleAssignmentError:
                    found = False
                else:
                    found = True
                assert reduce or k or calls == [], inst
                if not found:
                    continue
                *failed, (last, won, ok) = assembled
                assert ok and not any(done for _, _, done in failed)
                directions = (("forward", "backward") if direction == "both"
                              else (direction,))
                want = [(c, d) for c in range(start, last + 1)
                        if c not in proved for d in directions]
                want = want[:want.index((last, won)) + 1]
                assert [(c, d) for c, d, _ in assembled] == want, inst
                searches += 1
                skipped[reduce] += sum(start <= c <= last for c in proved)
    assert searches >= 300
    assert skipped[True] > 0 and skipped[False] > 0


def test_search_with_preprocess_stays_valid():
    rng = random.Random(0xC2)
    cases = 0
    for _ in range(30):
        inst = random_instance(rng)
        if brute_force_optimum(inst) is None:
            continue
        cache = SearchCache(inst)
        for t_rule, w_rule, direction in SAMPLED_CONFIGS[:4]:
            sol = solve_lower_bound_search(inst, t_rule, w_rule, direction,
                                           use_preprocess=True, cache=cache)
            ok, violations = validate_solution(inst, sol)
            assert ok, (inst.name, violations)
            cases += 1
    assert cases >= 40


def reference_fill(row, prio, u_mask, c_bar, line):
    """A worker's fill by its definition: while some ready task fits,
    take the first of them in the order higher priority, more immediate
    followers, smaller time, smaller index.  It rescans every task at
    each step, so it runs until no task fits, as a heap popped until it
    is empty would.  Returns the T mask, the load and the tasks in
    order."""
    todo, load, picked = u_mask, 0, []
    while True:
        fits = [i for i in range(len(row)) if todo >> i & 1
                and not line.pred_masks[i] & todo and load + row[i] <= c_bar]
        if not fits:
            return u_mask ^ todo, load, picked
        i = min(fits, key=lambda i: (-prio[i], line.neg_imm[i], row[i], i))
        todo ^= 1 << i
        load += row[i]
        picked.append(i)


def test_fills_equal_the_reference_fill():
    """`_fill` on every task rule's and on tied matrices' priorities, and
    `_fill_ranked` on the ranks of the same rows, equal the fill by its
    definition, in both directions, on random lines of short times where
    stations often end full with ready tasks left over."""
    rng = random.Random(0xF111)
    insts = [dense_tie_instance(rng) for _ in range(150)]
    insts += [random_line(rng, 30, 5, name=f"line{k}") for k in range(4)]
    checked = full = 0
    for inst, d in itertools.product(insts, DIRECTIONS):
        n, m = inst.n_tasks, inst.n_workers
        line = _Line(inst.closure(), d)
        left = set(rng.sample(range(n), rng.randint(1, n)))
        for i in list(left):        # closed under followers, as in a pass
            left |= line.succ_star[i]
        left = sorted(left)
        u_mask = sum(1 << i for i in left)
        ready = [i for i in left if not line.pred_masks[i] & u_mask]
        crew = _Crew(inst.times, range(m), n, None, None)
        c_bar = rng.randint(1, 10)
        matrix = [[rng.choice((0.25, 0.5)) for _ in range(n)]
                  for _ in range(m)]
        for source in [*TaskRule, matrix]:
            prio = _station_prio(source, crew, line, left, c_bar)
            rows = [prio(w) for w in range(m)]
            ranks = _rank_rows(rows, inst.times, line)
            for w, row in enumerate(inst.times):
                want = reference_fill(row, rows[w], u_mask, c_bar, line)
                assert _fill(row, rows[w], ready, u_mask, c_bar,
                             line) == want, (inst, source, d, w)
                assert _fill_ranked(row, ranks[w], ready, u_mask, c_bar,
                                    line) == want, (inst, source, d, w)
                checked += 1
                todo = u_mask ^ want[0]
                full += want[1] == c_bar and any(
                    todo >> i & 1 and not line.pred_masks[i] & todo
                    for i in range(n))
    assert checked >= 15000 and full >= 3000


def test_min_bwa_scores_no_station_that_every_rest_bound_cuts(monkeypatch):
    """A MinBWA pass stops at a station where every worker's rest bound
    exceeds c_bar before it scores any worker: `_bwa_without` is never
    called there, and such stations occur, in lone searches of both
    directions, with and without reduction."""
    station_fills, bwa_without = (constructive._station_fills,
                                  constructive._bwa_without)
    last = []               # the latest station's rest bounds and c_bar
    cut = scored = 0

    def recording_station_fills(source, crew, line, left, u_mask, c_bar):
        nonlocal cut
        fills = station_fills(source, crew, line, left, u_mask, c_bar)
        last[:] = [fill[3] for fill in fills], c_bar
        cut += min(last[0]) > c_bar
        return fills

    def checked_bwa_without(*args):
        nonlocal scored
        bounds, c_bar = last
        assert min(bounds) <= c_bar, (bounds, c_bar)
        scored += 1
        return bwa_without(*args)

    monkeypatch.setattr(constructive, "_station_fills",
                        recording_station_fills)
    monkeypatch.setattr(constructive, "_bwa_without", checked_bwa_without)
    rng = random.Random(0xB7A)
    for _ in range(30):
        inst = random_instance(rng)
        for rule, reduce in itertools.product(TaskRule, (False, True)):
            solve_lower_bound_search(inst, rule, WorkerRule.MIN_BWA, "both",
                                     use_preprocess=reduce)
    assert cut >= 1000 and scored >= 5000, (cut, scored)


def test_min_bwa_scores_a_quarter_fewer_workers_than_it_is_offered(
        monkeypatch):
    """On seeded 70x10 lines, one MinBWA search per line and task rule,
    the workers `_bwa_without` scores are at least a quarter fewer than
    the workers offered at the stations where MinBWA chooses, those where
    some rest bound is at most c_bar: the rest bound's floor cuts the
    rest.  A work count, so the host's timing noise cannot move it."""
    min_bwa, bwa_without = constructive._min_bwa, constructive._bwa_without
    offered = scored = 0

    def counted_min_bwa(crew, left, station, c_bar, m):
        nonlocal offered
        if min(fill[3] for fill in station) <= c_bar:
            offered += len(station)
        return min_bwa(crew, left, station, c_bar, m)

    def counted_bwa_without(*args):
        nonlocal scored
        scored += 1
        return bwa_without(*args)

    monkeypatch.setattr(constructive, "_min_bwa", counted_min_bwa)
    monkeypatch.setattr(constructive, "_bwa_without", counted_bwa_without)
    rng = random.Random(0x70A10)
    for k in range(32):
        rule = list(TaskRule)[k % len(TaskRule)]
        solve_lower_bound_search(random_line(rng, name=f"line{k}"), rule,
                                 WorkerRule.MIN_BWA, "both")
    assert offered > 20000 and scored <= 0.75 * offered, (offered, scored)


def _reference_search(inst, source, c_start, reduce):
    """`solve_lower_bound_search(inst, source, MinRLB, 'both', c_start,
    use_preprocess=reduce)` by `preprocess` and one pass at a time: at
    each cycle from c_start, `preprocess` when `reduce`, then `assemble`
    on the reduced instance (or `inst`), forward then backward.  Returns
    the solution and the cycles assembled at, or None and those cycles
    when the ceiling is exhausted."""
    tried = []
    for c in range(c_start, max(_cycle_ceiling(inst), c_start) + 1):
        reduced = inst
        if reduce:
            try:
                reduced = preprocess(inst, c)[0]
            except CycleInfeasibleError:
                continue
        tried.append(c)
        for direction in DIRECTIONS:
            sol = assemble(reduced, c, source, WorkerRule.MIN_RLB, direction)
            if sol is not None:
                return sol, tried
    return None, tried


def _matrices(inst, rng):
    """Priority matrices of every kind a GA decodes: random ones, rule
    encodings, crossovers of two encodings (tied keys within a row) and
    one of all-equal keys."""
    rules = rng.sample(list(TaskRule), 4)
    encodings = [encode_rule(inst, rule) for rule in rules]
    chroms = [_random_chromosome(inst, rng) for _ in range(2)]
    chroms += encodings[:2]
    chroms += [crossover(a, b, 0.5, rng)
               for a, b in (encodings[:2], encodings[2:])]
    out = [chrom.p for chrom in chroms]
    out.append([[0.5] * inst.n_tasks for _ in range(inst.n_workers)])
    return out


FIXED_RULES = [TaskRule.MAX_F, TaskRule.MAX_IF, TaskRule.MAX_F_TIME,
               TaskRule.MAX_IF_TIME]


def test_ranked_fills_equal_the_reference_search():
    """Once a search with fixed priorities (a matrix, or one of the four
    named rules that read only the line and the worker's own times) has
    failed at one cycle it fills by ranks; its solutions equal those of
    per-cycle `assemble` calls, with and without `preprocess` first, on
    random lines of 3-12 tasks and on two 70x10 lines, for random,
    encoded, crossed and flat matrices and the four rules."""
    rng = random.Random(0x4A4C)
    insts = [random_instance(rng, n_max=12, m_max=5) for _ in range(120)]
    insts += [random_line(rng, name=f"line{k}") for k in range(2)]
    searches = tied = 0
    ranked = {}             # (kind of source, reduce) -> ranked searches
    for inst in insts:
        start = compute_bounds(inst).best
        sources = [(s, "matrix") for s in _matrices(inst, rng)]
        sources += [(rule, rule) for rule in FIXED_RULES]
        for (source, kind), reduce in itertools.product(sources,
                                                        (False, True)):
            want, tried = _reference_search(inst, source, start, reduce)
            if want is None:
                with pytest.raises(NoFeasibleAssignmentError):
                    solve_lower_bound_search(inst, source, WorkerRule.MIN_RLB,
                                             "both", start,
                                             use_preprocess=reduce)
                continue
            got = solve_lower_bound_search(inst, source, WorkerRule.MIN_RLB,
                                           "both", start,
                                           use_preprocess=reduce)
            assert (got.stations, got.loads, got.cycle, got.direction) == (
                want.stations, want.loads, want.cycle, want.direction), (
                inst.name, source, reduce)
            searches += 1
            if len(tried) > 1:
                ranked[kind, reduce] = ranked.get((kind, reduce), 0) + 1
                tied += kind == "matrix" and any(
                    len(set(row)) < inst.n_tasks for row in source)
    assert searches >= 2500 and tied >= 120
    assert len(ranked) == 10 and min(ranked.values()) >= 20, ranked


def test_ranks_are_built_once_a_search_passes_its_first_cycle(monkeypatch):
    """A decode whose search succeeds at the first cycle it assembles at
    builds no ranks; one that passes that cycle builds a direction's
    ranks once, at that direction's first assembly after the cycle,
    however many cycles follow, and fills by them from there on.  A
    decode that succeeds forward at its second cycle never ranks
    backward.  The four named rules whose priorities are fixed for a
    search rank as a matrix does; a rule that reads the crew, such as
    MinD, never builds ranks."""
    real_rank_rows, real_assemble = (constructive._rank_rows,
                                     constructive._assemble)
    builds, runs = [], []       # directions ranked; (cycle, dir, ranked)

    def counted_rank_rows(matrix, times, line):
        builds.append(line.direction)
        return real_rank_rows(matrix, times, line)

    def recording_assemble(times, c, source, worker_rule, line, *args):
        runs.append((c, line.direction, isinstance(source, _Ranks)))
        return real_assemble(times, c, source, worker_rule, line, *args)

    monkeypatch.setattr(constructive, "_rank_rows", counted_rank_rows)
    monkeypatch.setattr(constructive, "_assemble", recording_assemble)
    rng = random.Random(0xB1D)
    passes = {False: 0, True: 0}     # by whether the search passed a cycle
    forward_only = 0
    insts = [random_instance(rng) for _ in range(20)] + [random_line(rng)]
    for inst in insts:
        for chrom in [_random_chromosome(inst, rng) for _ in range(3)]:
            builds.clear()
            runs.clear()
            decode(inst, chrom)
            first = runs[0][0]
            later = [d for c, d, _ in runs if c > first]
            assert builds == list(dict.fromkeys(later)), inst.name
            assert all(ranked == (c > first) for c, _, ranked in runs)
            passes[bool(later)] += 1
            forward_only += builds == ["forward"]
    assert passes[False] >= 10 and passes[True] >= 5 and forward_only >= 3
    assert runs[-1][0] - runs[0][0] >= 2        # the 70x10 line: many cycles
    for rule in FIXED_RULES + [TaskRule.MIN_D]:
        builds.clear()
        runs.clear()
        solve_lower_bound_search(insts[-1], rule, WorkerRule.MIN_RLB, "both",
                                 use_preprocess=True)
        first = runs[0][0]
        assert runs[-1][0] > first, rule
        fixed = rule is not TaskRule.MIN_D
        assert builds == (list(DIRECTIONS) if fixed else []), rule
        assert all(ranked == (fixed and c > first)
                   for c, _, ranked in runs), rule


def _cache_cases(rng, count):
    """Random instances, each with every configuration, with and without
    reduction, and a 'both' search with a matrix source."""
    for _ in range(count):
        inst = random_instance(rng)
        matrix = [[rng.random() for _ in range(inst.n_tasks)]
                  for _ in range(inst.n_workers)]
        searches = [(cfg.task_rule, cfg.worker_rule, cfg.direction, reduce)
                    for cfg in all_rule_configs() for reduce in (False, True)]
        searches += [(matrix, WorkerRule.MIN_RLB, "both", reduce)
                     for reduce in (False, True)]
        yield inst, searches


def _run_searches(inst, searches, cache):
    """Each search's solution, None where it finds none."""
    out = []
    for source, w_rule, direction, reduce in searches:
        try:
            out.append(solve_lower_bound_search(
                inst, source, w_rule, direction, use_preprocess=reduce,
                cache=cache))
        except NoFeasibleAssignmentError:
            out.append(None)
    return out


def test_shared_search_cache_matches_fresh_searches(monkeypatch):
    """One SearchCache serves every configuration, with and without
    reduction, and a 'both' search with a matrix source: the solutions
    equal those of fresh searches and the instance is never reversed."""
    reverse = Instance.reverse
    reversals = []

    def counted_reverse(inst):
        reversals.append(inst)
        return reverse(inst)

    for inst, searches in _cache_cases(random.Random(0x5CA), 6):
        fresh = _run_searches(inst, searches, None)
        reversals.clear()
        monkeypatch.setattr(Instance, "reverse", counted_reverse)
        shared = _run_searches(inst, searches, SearchCache(inst))
        monkeypatch.undo()
        assert shared == fresh, inst
        assert reversals == []

    with pytest.raises(ValueError):
        solve_lower_bound_search(TINY_A, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                 cache=SearchCache(inst))


def _run_counting_states(inst, searches, cache, starts):
    """Each search's solution and the station states it evaluates, as a
    wrapper of `_station_start` records them in `starts`."""
    out = []
    for search in searches:
        starts.clear()
        sol, = _run_searches(inst, [search], cache)
        out.append((sol, len(starts)))
    return out


def test_cleared_crews_match_fresh_searches(monkeypatch):
    """With a bound of one cell the crews are cleared as every search but
    the first starts, as each one builds a crew; every search still
    equals a fresh one, and each search with reduction evaluates as many
    station states as a fresh one."""
    monkeypatch.setattr(constructive, "CREW_CELLS", 1)
    open_search, station_start = (SearchCache._open_search,
                                  constructive._station_start)
    clears, starts = [], []

    def counted_open_search(cache):
        held = bool(cache._crews)
        open_search(cache)
        clears.append(held and not cache._crews)

    def counted_station_start(*args):
        starts.append(args)
        return station_start(*args)

    monkeypatch.setattr(SearchCache, "_open_search", counted_open_search)
    monkeypatch.setattr(constructive, "_station_start", counted_station_start)
    for inst, searches in _cache_cases(random.Random(0x5CB), 6):
        fresh = _run_counting_states(inst, searches, None, starts)
        clears.clear()
        shared = _run_counting_states(inst, searches, SearchCache(inst),
                                      starts)
        assert [sol for sol, _ in shared] == [sol for sol, _ in fresh], inst
        assert sum(clears) == len(searches) - 1, inst
        for (*_, reduce), (_, n_fresh), (_, n_shared) in zip(searches, fresh,
                                                            shared):
            # a search without reduction may skip cycles proved earlier
            assert n_shared == n_fresh if reduce else n_shared <= n_fresh


def _held_cells(crew):
    """The table cells `crew` holds, counted off the tables it has built:
    its three per-task lists, then `ranks`, `mind`, `minr`, `ties`,
    `spread` and `totals` where built, each entry of a task's tuple or
    list, of a worker's row and of the totals one cell."""
    built = vars(crew)
    cells = len(crew.min1) + len(crew.amin) + len(crew.min2)
    for name in ("ties", "spread"):
        cells += sum(map(len, built.get(name, ())))
    for name in ("ranks", "mind", "minr"):
        cells += sum(map(len, built.get(name, {}).values()))
    if "totals" in built:
        count, total, short, extra, lost = crew.totals
        cells += 3 + len(extra) + len(lost)
    return cells


def test_crew_bound_counts_every_crew_table(monkeypatch):
    """With reduction a search reads several crew tables, one per value
    of the times, and a crew holds more cells once a rule has built the
    tables it reads lazily.  With a bound of k cells, a search starts
    with the crews cleared exactly when the cells all the crews of all
    the tables held reached k: also where no single table held k, and
    where the crews' own per-task lists alone, or a fixed count per
    crew, would have decided otherwise."""
    open_search = SearchCache._open_search
    starts = []     # per search: (cells per table, crews, cleared)

    def watched_open_search(cache):
        tables = cache._crews.values()
        cells = [sum(map(_held_cells, t.values())) for t in tables]
        crews = sum(map(len, tables))
        open_search(cache)
        starts.append((cells, crews, bool(cells) and not cache._crews))

    monkeypatch.setattr(SearchCache, "_open_search", watched_open_search)
    split = lazy = per_crew = 0
    for inst, searches in _cache_cases(random.Random(0x5CF), 6):
        n, m = inst.n_tasks, inst.n_workers
        for k in (8, 13, 21, 34, 55):
            bound = k * n
            monkeypatch.setattr(constructive, "CREW_CELLS", bound)
            starts.clear()
            _run_searches(inst, searches, SearchCache(inst))
            for cells, crews, cleared in starts:
                held = sum(cells)
                assert cleared == (held >= bound), (inst, k, cells)
                split += max(cells, default=0) < bound <= held
                lazy += 3 * n * crews < bound <= held
                per_crew += (n * m * crews >= bound) != (held >= bound)
    assert split >= 100 and lazy >= 100 and per_crew >= 100


def _track_task_rules(monkeypatch):
    """Wraps the search that `run_configs` calls; the list returned ends
    with the task rule of the search running, which an assembly's
    `source` no longer names once the search fills by ranks."""
    search, rules = constructive.solve_lower_bound_search, []

    def tracked_search(inst, source, *args, **kwargs):
        rules.append(source)
        return search(inst, source, *args, **kwargs)

    monkeypatch.setattr(constructive, "solve_lower_bound_search",
                        tracked_search)
    return rules


def test_fills_are_kept_only_inside_run_configs(monkeypatch):
    """A lone search and a decode through a shared cache keep no
    station's fills; within `run_configs` the table of fills starts
    empty at each new task rule and is shared by its configurations."""
    rng = random.Random(0x5CE)
    for _ in range(4):
        inst = random_instance(rng)
        cache = SearchCache(inst)
        _run_searches(inst, [(TaskRule.MAX_PW_AVG, WorkerRule.MIN_BWA,
                              "backward", False)], cache)
        assert cache._fills is None
        decode(inst, _random_chromosome(inst, rng), cache=cache)
        assert cache._fills is None

    assemble_ = constructive._assemble
    seen = []               # per assembly: (task rule, its table, size)

    def watched_assemble(times, c, source, worker_rule, line, crews, fills):
        seen.append((rules[-1], fills, len(fills)))
        return assemble_(times, c, source, worker_rule, line, crews, fills)

    rules = _track_task_rules(monkeypatch)
    monkeypatch.setattr(constructive, "_assemble", watched_assemble)
    configs = [RuleConfig(t, w, d) for t in (TaskRule.MAX_F, TaskRule.MIN_D,
                                             TaskRule.MAX_F)
               for w in WorkerRule for d in DIRECTIONS]
    for _ in range(4):
        inst = random_instance(rng)
        seen.clear()
        run_configs(inst, configs)
        tables = []
        for k, (rule, table, size) in enumerate(seen):
            if k == 0 or rule is not seen[k - 1][0]:
                assert size == 0, inst
                assert all(table is not t for t in tables), inst
                tables.append(table)
            else:
                assert table is tables[-1], inst
        assert len(tables) == 3, inst


def test_search_cache_keeps_no_field_a_caller_can_set(tiny_a):
    """A cache is passed to searches, never configured: its one public
    instance attribute is the counter `improved` keeps."""
    cache = SearchCache(tiny_a)
    assert sorted(k for k in vars(cache) if not k.startswith("_")) == [
        "improve_hits"]


def test_run_all_96_builds_each_crew_once(monkeypatch):
    """Within one `run_all_96`, with and without reduction, and within
    one `evolve`, its rule encodings included, no two crews are built
    over equal times and the same workers."""
    init = _Crew.__init__
    built = []

    def counted_init(self, times, workers, n, parent, gone):
        built.append((times, tuple(workers)))
        init(self, times, workers, n, parent, gone)

    monkeypatch.setattr(_Crew, "__init__", counted_init)
    rng = random.Random(0x5CC)
    for k in range(24):     # the last gives equal times at two cycles
        inst = random_instance(rng)
        params = HgaParams(p=10, max_iters=3, rng_seed=k,
                           stop_at_lower_bound=False)
        for run in (lambda: run_all_96(inst),
                    lambda: run_all_96(inst, use_preprocess=True),
                    lambda: evolve(inst, params)):
            built.clear()
            run()
            assert len(built) == len(set(built)), inst
            assert built, inst


class _ReadRow(list):
    """A row of times that records the tasks read from it by index."""

    def __init__(self, row, reads):
        super().__init__(row)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.add(i)
        return super().__getitem__(i)


def test_crews_build_rows_once_and_rescan_only_lone_largest_times(
        monkeypatch):
    """In `run_all_96` on 70x10 lines, each crew builds its MinD and MinR
    rows at most once: every station with that crew hands a worker the
    same row object, so the rows built number no more than the crews'
    workers.  A derived crew's `spread` rescans exactly the tasks whose
    largest finite time the departing worker alone held; a task where
    another worker ties that time keeps the parent's entries."""
    station_prio = constructive._station_prio
    spread = _Crew.__dict__["spread"].func
    rows = {}       # (rule, crew, worker) -> the distinct rows handed out
    rescans = []    # per derived `spread`: (crew, the tasks it rescanned)
    calls = 0

    def watched_station_prio(source, crew, line, left, c_bar):
        prio = station_prio(source, crew, line, left, c_bar)
        if source not in (TaskRule.MIN_D, TaskRule.MIN_R):
            return prio

        def watched(w):
            nonlocal calls
            calls += 1
            row = prio(w)
            rows.setdefault((source, crew, w), {})[id(row)] = row
            return row
        return watched

    def watched_spread(crew):
        times, reads = crew.times, set()
        crew.times = [_ReadRow(row, reads) for row in times]
        try:
            out = spread(crew)
        finally:
            crew.times = times
        if crew.parent is not None:
            rescans.append((crew, reads))
        return out

    watched = functools.cached_property(watched_spread)
    watched.__set_name__(_Crew, "spread")
    monkeypatch.setattr(_Crew, "spread", watched)
    monkeypatch.setattr(constructive, "_station_prio", watched_station_prio)
    rng = random.Random(0x5CD)
    for _ in range(2):
        run_all_96(random_line(rng))
    builds = sum(map(len, rows.values()))
    crews = {(rule, crew) for rule, crew, _ in rows}
    assert all(len(built) == 1 for built in rows.values())
    assert builds <= sum(len(crew.workers) for _, crew in crews)
    assert calls > 2 * builds

    tied = 0        # tasks where `gone` held the largest time, not alone
    for crew, reads in rescans:
        times, gone = crew.times, crew.gone
        alone = set()
        for i, t in enumerate(times[gone]):
            if t == INFEASIBLE:
                continue
            others = [times[v][i] for v in crew.workers
                      if times[v][i] != INFEASIBLE]
            if all(x < t for x in others):
                alone.add(i)
            elif max(others) == t:
                tied += 1
        assert reads == alone, crew.workers
    assert len(rescans) > 1000 and tied > 10000


def test_ga_run_on_a_70x10_line_builds_each_crew_once(monkeypatch):
    """A GA run at the paper's scale keeps every crew its decodes build:
    no two crews are built over equal times and the same workers, and
    the crews are never cleared."""
    init, open_search = _Crew.__init__, SearchCache._open_search
    built, clears = [], []

    def counted_init(self, times, workers, n, parent, gone):
        built.append((times, tuple(workers)))
        init(self, times, workers, n, parent, gone)

    def counted_open_search(cache):
        held = bool(cache._crews)
        open_search(cache)
        clears.append(held and not cache._crews)

    monkeypatch.setattr(_Crew, "__init__", counted_init)
    monkeypatch.setattr(SearchCache, "_open_search", counted_open_search)
    inst = random_line(random.Random(0x6A))
    evolve(inst, HgaParams(p=16, max_iters=1, max_stale_iters=99,
                           stop_at_lower_bound=False, rng_seed=1))
    assert len(clears) == 29 and not any(clears)
    assert len(built) == len(set(built)) >= 300


def test_run_all_96_evaluates_each_station_state_once(monkeypatch):
    """Within one `run_all_96`, with and without reduction, no station
    state (times, workers and tasks left, task rule, direction and
    cycle) is evaluated twice: the worker rules of one task rule and
    direction read the fills an earlier one computed."""
    assemble_, station_fills = (constructive._assemble,
                                constructive._station_fills)
    context, states = [], []

    def marked_assemble(times, c, source, worker_rule, line, *args):
        context.append((rules[-1], line.direction, c))
        try:
            return assemble_(times, c, source, worker_rule, line, *args)
        finally:
            context.pop()

    def recording_station_fills(source, crew, line, left, u_mask, c_bar):
        states.append((*context[-1], crew.times, crew.workers, u_mask))
        return station_fills(source, crew, line, left, u_mask, c_bar)

    rules = _track_task_rules(monkeypatch)
    monkeypatch.setattr(constructive, "_assemble", marked_assemble)
    monkeypatch.setattr(constructive, "_station_fills",
                        recording_station_fills)
    rng = random.Random(0x5CE)
    lines = [random_instance(rng) for _ in range(20)]
    lines += [random_line(random.Random(s), 30, 5) for s in range(3)]
    for inst in lines:
        for reduce in (False, True):
            states.clear()
            run_all_96(inst, reduce)
            assert len(states) == len(set(states)), inst
            assert states, inst


def test_run_all_96_assembles_below_the_optimum_once(monkeypatch):
    """`run_all_96` without reduction assembles at each cycle below the
    optimum in at most one configuration: the later ones skip the
    cycles an earlier one reached, as `preprocess` proves each of them
    infeasible on these lines."""
    assemble_ = constructive._assemble
    configs = {}            # cycle -> the configurations assembling there

    def recording_assemble(times, c, source, worker_rule, line, *args):
        configs.setdefault(c, set()).add((rules[-1], worker_rule,
                                          line.direction))
        return assemble_(times, c, source, worker_rule, line, *args)

    rules = _track_task_rules(monkeypatch)
    monkeypatch.setattr(constructive, "_assemble", recording_assemble)
    rng = random.Random(0x5CF)
    lines = below = 0
    while lines < 40:
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        configs.clear()
        run_all_96(inst)
        for c, seen in configs.items():
            if c < opt:
                assert len(seen) == 1, (inst, c)
                below += 1
        lines += 1
    assert below >= 20


def test_equal_times_share_one_crew_table():
    """`SearchCache._times` hands out the instance's own times exactly
    at the cycles where `preprocess` removes no cell, and `_crew_table`
    gives cycles with equal times the same table, also when two
    reductions built them apart."""
    rng = random.Random(0x5CD)
    seen, repeats = set(), 0
    for _ in range(30):
        inst = random_instance(rng)
        cache = SearchCache(inst)
        first = {}          # times -> (first cycle's times, their table)
        for c in range(lc1(inst), _cycle_ceiling(inst) + 1):
            try:
                removed = preprocess(inst, c)[1]
            except CycleInfeasibleError:
                assert cache._times(c, True) is None
                continue
            times = cache._times(c, True)
            assert (times is inst.times) == (removed == 0)
            seen.add(removed == 0)
            earlier, table = first.setdefault(
                times, (times, cache._crew_table(times)))
            assert cache._crew_table(times) is table
            repeats += earlier is not times
    assert seen == {False, True}
    assert repeats


def test_matrix_source_end_to_end(tiny_a):
    rng = random.Random(7)
    matrix = [[rng.random() for _ in range(3)] for _ in range(2)]
    sol = solve_lower_bound_search(tiny_a, matrix, WorkerRule.MIN_RLB,
                                   direction="both")
    assert sol.cycle == 2
    ok, _ = validate_solution(tiny_a, sol)
    assert ok


def test_instances_and_lone_searches_keep_little_memory():
    """A 70x10 line keeps its times and immediate precedence alone, and
    a lone search on it leaves nothing behind: the closure lives in the
    search's cache and goes with it."""
    rng = random.Random(0x3E3)
    lines = [random_line(rng, name=f"line{k}") for k in range(5)]
    rows = [[list(row) for row in inst.times] for inst in lines]
    solve_lower_bound_search(lines[0], TaskRule.MAX_F, WorkerRule.MAX_TASKS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = [Instance(inst.n_tasks, inst.n_workers, times, inst.edges,
                          inst.name) for inst, times in zip(lines, rows)]
        per_instance = (tracemalloc.get_traced_memory()[0] - before) / 5
        before = tracemalloc.get_traced_memory()[0]
        for inst in built:
            solve_lower_bound_search(inst, TaskRule.MAX_F,
                                     WorkerRule.MAX_TASKS)
        gc.collect()
        per_search = (tracemalloc.get_traced_memory()[0] - before) / 5
    finally:
        tracemalloc.stop()
    assert per_instance < 15 * 1024
    assert per_search < 4 * 1024
