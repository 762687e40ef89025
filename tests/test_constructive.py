"""Constructive heuristics: frozen small-case traces + oracle properties."""

import random

import pytest

from alwabp import (
    INFEASIBLE,
    Instance,
    NoFeasibleAssignmentError,
    RuleConfig,
    SearchCache,
    TaskRule,
    WorkerRule,
    all_rule_configs,
    assemble,
    best_cycle,
    bwa_cycle,
    compute_bounds,
    cycle_ceiling,
    lc1,
    run_all_96,
    score_worker,
    solve_lower_bound_search,
    station_load_tasks,
    validate_solution,
)

from alwabp.constructive import (_bwa_without, _Crew, _cycle_blocked, _Line,
                                 _station_prio, priority_rows)
from bruteforce import brute_force_optimum
from conftest import TINY_A, random_instance


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


def test_derived_crews_equal_fresh_crews():
    """Along random chains of worker removals, every field of a derived
    crew equals that of a fresh crew of the same workers, whether or not
    its parent built that field first."""
    rng = random.Random(0xDE7)
    derived = skipped = cold = 0
    for _ in range(300):
        inst = dense_tie_instance(rng)
        n = inst.n_tasks
        line = _Line(inst)
        workers = random_crew(rng, inst)
        crew = _Crew(inst.times, workers, n, None, None)
        while True:
            fresh = _Crew(inst.times, workers, n, None, None)
            assert crew.workers == fresh.workers
            assert (crew.min1, crew.amin, crew.min2) == (
                fresh.min1, fresh.amin, fresh.min2)
            for name in rng.sample(["ties", "spread", "ranked"],
                                   rng.randint(0, 3)):
                cold += (crew.parent is not None
                         and name not in vars(crew.parent))
                assert getattr(crew, name) == getattr(fresh, name), name
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
        line = _Line(inst)
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
            rows = priority_rows(inst, rule, 7, crew_workers)
            for w, row in zip(crew_workers, rows):
                assert row == direct_prio(rule, inst, crew_workers, w, 7)
    assert checked > 20000 and derived > 500


# -- full assembly ------------------------------------------------------------

def test_assemble_tiny_forward(tiny_a):
    sol = assemble(tiny_a, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB)
    assert sol is not None
    assert sol.stations == ((0, frozenset({0})), (1, frozenset({1, 2})))
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
    assert sol.stations == ((0, frozenset({0, 1, 2})), (1, frozenset()))
    assert sol.loads == (9, 0)
    assert sol.cycle == 9


def test_assemble_tiny_backward(tiny_a):
    sol = assemble(tiny_a, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB, "backward")
    assert sol is not None
    assert sol.direction == "backward"
    # reversed run loads the last station first; flipped back the line
    # reads root-first again
    assert sol.stations == ((0, frozenset({0})), (1, frozenset({1, 2})))
    assert sol.loads == (2, 2)
    ok, violations = validate_solution(tiny_a, sol)
    assert ok, violations


def test_assemble_rejects_bad_direction(tiny_a):
    with pytest.raises(ValueError):
        assemble(tiny_a, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB, "up")


def test_backward_is_forward_on_reversed(tiny_a):
    rev = tiny_a.reverse()
    fwd_on_rev = assemble(rev, 2, TaskRule.MIN_TIME_MIN, WorkerRule.MAX_TASKS)
    bwd = assemble(tiny_a, 2, TaskRule.MIN_TIME_MIN, WorkerRule.MAX_TASKS,
                   "backward")
    assert bwd.stations == tuple(reversed(fwd_on_rev.stations))
    assert bwd.loads == tuple(reversed(fwd_on_rev.loads))
    assert bwd.cycle == fwd_on_rev.cycle


def test_line_pred_masks(tiny_a):
    assert _Line(tiny_a).pred_masks == [0, 1, 1]
    assert _Line(tiny_a, "backward").pred_masks == [6, 0, 0]


def test_backward_line_is_forward_line_of_reversed():
    """The backward line, read off the instance's own closure, equals
    the forward line of the instance with every edge flipped."""
    rng = random.Random(0xB4C)
    for _ in range(50):
        inst = random_instance(rng, n_max=12)
        backward = vars(_Line(inst, "backward"))
        forward_on_rev = vars(_Line(inst.reverse()))
        assert backward.pop("direction") == "backward"
        assert forward_on_rev.pop("direction") == "forward"
        assert backward == forward_on_rev, inst


def test_cycle_ceiling(tiny_a):
    assert cycle_ceiling(tiny_a) == 5 + 3 + 4


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
                for c in range(lc1(inst), cycle_ceiling(inst) + 1):
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
    assert best_cycle(rows) == 2
    for wr in WorkerRule:
        assert best_cycle(rows, wr) == 2
    assert best_cycle([]) is None


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


def test_cycle_blocked_never_rejects_a_feasible_cycle():
    """The station bound that lets the search skip a cycle proves only
    cycles below the optimum infeasible."""
    rng = random.Random(0xB10C)
    blocked = 0
    for _ in range(150):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        for c in range(max(1, opt - 4), opt + 3):
            if _cycle_blocked(inst.times, c):
                assert c < opt, (inst.name, c, opt)
                blocked += 1
    assert blocked > 0


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


def test_shared_search_cache_matches_fresh_searches(monkeypatch):
    """One SearchCache serves every configuration, with and without
    reduction, and a 'both' search with a matrix source: the solutions
    equal those of fresh searches and the instance is never reversed."""
    rng = random.Random(0x5CA)
    reverse = Instance.reverse
    reversals = []

    def counted_reverse(inst):
        reversals.append(inst)
        return reverse(inst)

    for _ in range(6):
        inst = random_instance(rng)
        matrix = [[rng.random() for _ in range(inst.n_tasks)]
                  for _ in range(inst.n_workers)]
        searches = [(cfg.task_rule, cfg.worker_rule, cfg.direction, reduce)
                    for cfg in all_rule_configs() for reduce in (False, True)]
        searches += [(matrix, WorkerRule.MIN_RLB, "both", reduce)
                     for reduce in (False, True)]

        def run(cache):
            out = []
            for source, w_rule, direction, reduce in searches:
                try:
                    out.append(solve_lower_bound_search(
                        inst, source, w_rule, direction,
                        use_preprocess=reduce, cache=cache))
                except NoFeasibleAssignmentError:
                    out.append(None)
            return out

        fresh = run(None)
        reversals.clear()
        monkeypatch.setattr(Instance, "reverse", counted_reverse)
        shared = run(SearchCache(inst))
        monkeypatch.undo()
        assert shared == fresh, inst
        assert reversals == []

    with pytest.raises(ValueError):
        solve_lower_bound_search(TINY_A, TaskRule.MAX_F, WorkerRule.MIN_RLB,
                                 cache=SearchCache(inst))


def test_matrix_source_end_to_end(tiny_a):
    rng = random.Random(7)
    matrix = [[rng.random() for _ in range(3)] for _ in range(2)]
    sol = solve_lower_bound_search(tiny_a, matrix, WorkerRule.MIN_RLB,
                                   direction="both")
    assert sol.cycle == 2
    ok, _ = validate_solution(tiny_a, sol)
    assert ok
