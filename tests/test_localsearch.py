"""Local search: frozen descent traces + never-worsens properties."""

import random

import pytest

from alwabp import (
    INFEASIBLE,
    GeneratorConfig,
    NoFeasibleAssignmentError,
    Solution,
    TaskRule,
    WorkerRule,
    generate,
    lc1,
    solve_lower_bound_search,
    validate_solution,
)
from alwabp import localsearch
from alwabp.instance import Instance
from alwabp.localsearch import (
    DoubleShift,
    Shift,
    Swap,
    WorkerSwap,
    _State,
    _try_swap,
    improve,
)

from bruteforce import brute_force_optimum, reference_improve
from conftest import build_solution, random_base, random_instance


def test_move_invariants():
    d = DoubleShift(Shift(0, 0, 1), Shift(1, 1, 0))
    assert d.first.task == 0 and d.second.to_station == 0


@pytest.fixture(scope="module")
def descent_moves():
    """(instance, move) for every move accepted by seeded descents from
    lower-bound search solutions on lines of up to 12 tasks and 5
    workers."""
    rng = random.Random(0xE4)
    found = []
    for _ in range(300):
        inst = random_instance(rng, n_max=12, m_max=5)
        for rule in (TaskRule.MAX_F, TaskRule.MAX_TIME_MAX):
            try:
                sol = solve_lower_bound_search(inst, rule, WorkerRule.MIN_RLB)
            except NoFeasibleAssignmentError:
                continue
            moves = []
            improve(inst, sol, moves)
            found += [(inst, move) for move in moves]
    return found


def distinct_in_range(a, b, size):
    return a != b and 0 <= a < size and 0 <= b < size


def shift_ends(inst, move):
    return distinct_in_range(move.from_station, move.to_station,
                             inst.n_workers)


MOVE_ENDS = {
    Shift: shift_ends,
    Swap: lambda inst, move: distinct_in_range(move.task_a, move.task_b,
                                               inst.n_tasks),
    DoubleShift: lambda inst, move: all(
        type(half) is Shift and shift_ends(inst, half)
        for half in (move.first, move.second)),
    WorkerSwap: lambda inst, move: distinct_in_range(
        move.station_a, move.station_b, inst.n_workers),
}


@pytest.mark.parametrize("kind", MOVE_ENDS, ids=lambda kind: kind.__name__)
def test_accepted_moves_have_distinct_ends_in_range(descent_moves, kind):
    """The move records check nothing: the passes build them with two
    distinct ends in range, shifts and worker swaps between stations and
    swaps between tasks, and a double shift from two such shifts."""
    ends = MOVE_ENDS[kind]
    moves = [(inst, move) for inst, move in descent_moves
             if type(move) is kind]
    assert moves
    for inst, move in moves:
        assert ends(inst, move), (inst.name, move)


def test_improve_shifts_overloaded_station(tiny_a):
    # everything on worker 0 except the last task: one shift balances it
    start = build_solution(tiny_a, [(0, {0, 1}), (1, {2})])
    assert start.loads == (5, 1)
    moves = []
    out = improve(tiny_a, start, moves)
    assert out.stations == ((0, (0,)), (1, (1, 2)))
    assert out.loads == (2, 2)
    assert out.cycle == 2
    assert moves == [Shift(1, 0, 1)]
    ok, violations = validate_solution(tiny_a, out)
    assert ok, violations


def test_improve_reaches_worker_swap(tiny_a):
    # workers start on the wrong stations; the descent first rebalances
    # tasks, then swaps the workers, then rebalances again
    start = build_solution(tiny_a, [(1, {0}), (0, {1, 2})])
    assert start.loads == (5, 7)
    moves = []
    out = improve(tiny_a, start, moves)
    assert out.cycle == 2
    assert out.stations == ((0, (0,)), (1, (1, 2)))
    assert moves == [Shift(1, 1, 0), WorkerSwap(0, 1), Shift(1, 0, 1)]


def test_improve_leaves_optimum_alone(tiny_a):
    best = build_solution(tiny_a, [(0, {0}), (1, {1, 2})])
    out = improve(tiny_a, best)
    assert out == best


@pytest.mark.parametrize("moves", [(), "x", {}, 0])
def test_improve_refuses_moves_that_are_not_a_list(tiny_a, moves):
    """Refused up front, also where no move is accepted; a tuple or a
    string used to fail with AttributeError after the first one."""
    for stations in ([(0, {0, 1}), (1, {2})], [(0, {0}), (1, {1, 2})]):
        start = build_solution(tiny_a, stations)
        with pytest.raises(ValueError, match="moves must be None or a list"):
            improve(tiny_a, start, moves)


def test_improve_keeps_direction(tiny_a):
    start = build_solution(tiny_a, [(0, {0, 1}), (1, {2})], "backward")
    assert improve(tiny_a, start).direction == "backward"


@pytest.mark.parametrize("stations, violation", [
    ([(0, {0, 1, 2})], "expected 2 stations, got 1"),
    ([(0, {0}), (1, {1, 2, 6})], "unknown task 7"),
    ([(0, {1}), (1, {0, 2})], "task 1 must not come after task 2"),
])
def test_improve_refuses_an_invalid_solution(tiny_a, stations, violation):
    """The descent indexes stations by worker and tasks by index, so a
    solution that `validate_solution` rejects is refused up front with
    its violations."""
    sol = Solution(tuple((w, frozenset(ts)) for w, ts in stations),
                   (9,) * len(stations), 9)
    with pytest.raises(ValueError, match=f"^tiny-A: cannot improve an "
                       f"invalid solution: .*{violation}"):
        improve(tiny_a, sol)


def test_improve_fails_on_a_move_that_does_not_lower_the_key(tiny_a,
                                                              monkeypatch):
    """A pass that accepts a move which does not lower the key makes
    `improve` raise, naming the pass, instead of descending forever."""
    def blind_worker_swap(st, key):  # accepts every worker swap
        st.workers.reverse()
        st.loads = [sum(st.times[w][i] for i in ts)
                    for w, ts in zip(st.workers, st.tasks)]
        return WorkerSwap(0, 1)

    monkeypatch.setattr(localsearch, "_try_swap", blind_worker_swap)
    best = build_solution(tiny_a, [(0, {0}), (1, {1, 2})])
    with pytest.raises(RuntimeError, match=r"^blind_worker_swap accepted "
                       r"a move that does not lower the key: "
                       r"\(2, 2\) -> \(7, 1\)$"):
        improve(tiny_a, best)

    calls = []

    def idle_swap(st, key):  # accepts one move that keeps the key
        calls.append(key)
        return Swap(1, 2) if len(calls) == 1 else None

    # a guard that let an equal key pass would end the descent on the
    # second call instead of raising
    monkeypatch.setattr(localsearch, "_try_swap", idle_swap)
    with pytest.raises(RuntimeError, match=r"^idle_swap accepted a move "
                       r"that does not lower the key: "
                       r"\(2, 2\) -> \(2, 2\)$"):
        improve(tiny_a, best)
    assert calls == [(2, 2)]


def test_double_shift_escapes_local_optimum():
    # everything starts on one station; after two plain shifts the
    # descent stalls, because task 2 cannot leave station 0 while its
    # successor 3 sits at station 1.  The chained move parks task 3 at
    # station 2 (no gain by itself) and lets task 2 follow.
    inst = Instance(5, 3,
                    [[3, 1, 6, 1, 1], [2, 1, 1, 1, 1], [8, 1, 1, 1, 1]],
                    [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    start = build_solution(inst, [(1, {0, 1, 2, 3, 4}), (0, set()),
                                  (2, set())])
    assert start.loads == (6, 0, 0)
    moves = []
    out = improve(inst, start, moves)
    assert moves == [
        Shift(3, 0, 1),
        Shift(4, 0, 1),
        DoubleShift(Shift(3, 1, 2), Shift(2, 0, 2)),
        Shift(1, 0, 1),
    ]
    assert out.stations == ((1, (0,)), (0, (1, 4)), (2, (2, 3)))
    assert out.loads == (2, 2, 2)
    assert out.cycle == brute_force_optimum(inst) == 2
    ok, violations = validate_solution(inst, out)
    assert ok, violations


def test_improve_never_worsens_and_is_idempotent():
    rng = random.Random(0xD0)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng)
        try:
            sol = solve_lower_bound_search(inst, TaskRule.MAX_F,
                                           WorkerRule.MIN_RLB, "both")
        except Exception:
            continue
        out = improve(inst, sol)
        assert ((out.cycle, out.loads.count(out.cycle))
                <= (sol.cycle, sol.loads.count(sol.cycle)))
        ok, violations = validate_solution(inst, out)
        assert ok, (inst.name, violations)
        again = improve(inst, out)
        assert again == out
        checked += 1
    assert checked >= 30


def test_improve_respects_oracle_floor():
    rng = random.Random(0xD1)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        sol = solve_lower_bound_search(inst, TaskRule.MIN_TIME_MIN,
                                       WorkerRule.MAX_TASKS, "both")
        out = improve(inst, sol)
        assert out.cycle >= opt
        checked += 1
    assert checked >= 30


def test_improve_often_helps():
    # deliberately bad starts (loose cycle, everything front-loaded)
    # must never worsen, and the oracle bound still holds
    rng = random.Random(0xD2)
    for _ in range(25):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        sol = solve_lower_bound_search(inst, TaskRule.MAX_TIME_MAX,
                                       WorkerRule.MAX_TASKS,
                                       c_start=3 * opt + 5)
        out = improve(inst, sol)
        assert out.cycle <= sol.cycle
        assert out.cycle >= opt
        ok, _ = validate_solution(inst, out)
        assert ok


def as_tuple(move):
    """A move in the tuple form `reference_improve` returns."""
    if isinstance(move, Shift):
        return "shift", move.task, move.from_station, move.to_station
    if isinstance(move, Swap):
        return "swap", move.task_a, move.task_b
    if isinstance(move, DoubleShift):
        return ("double_shift", as_tuple(move.first)[1:],
                as_tuple(move.second)[1:])
    return "worker_swap", move.station_a, move.station_b


def test_improve_matches_reference_descent():
    """Every skip and filter of `improve` keeps the first improving move:
    the descent takes the same moves, one by one, as the reference that
    scores every candidate from scratch.  Loose start cycles leave the
    first stations full and the last ones empty, so all four passes
    fire."""
    rng = random.Random(0x5A)
    kinds = dict.fromkeys(["shift", "swap", "double_shift", "worker_swap"], 0)
    checked = 0
    while checked < 40:
        n, m = rng.randint(15, 40), rng.randint(3, 8)
        base = random_base(rng, n, edge_prob=rng.choice([0.1, 0.2, 0.3]))
        cfg = GeneratorConfig(n_workers=m,
                              variability=rng.choice(["low", "high"]),
                              infeasibility_density=rng.choice([0.0, 0.1, 0.2]),
                              rng_seed=rng.randrange(2 ** 32))
        inst = generate(base, cfg)
        try:
            sol = solve_lower_bound_search(
                inst, rng.choice(list(TaskRule)), rng.choice(list(WorkerRule)),
                c_start=int(rng.choice([1.5, 2.0]) * lc1(inst)) + 1)
        except NoFeasibleAssignmentError:
            continue        # no assembly of this rule pair succeeds
        checked += 1
        moves = []
        out = improve(inst, sol, moves)
        want, stations, loads = reference_improve(inst, sol)
        assert [as_tuple(mv) for mv in moves] == want, inst.times
        assert list(out.stations) == stations
        assert list(out.loads) == loads
        for move in want:
            kinds[move[0]] += 1
    assert kinds["shift"] > 100 and kinds["swap"] > 25, kinds
    assert kinds["double_shift"] > 15 and kinds["worker_swap"] > 1, kinds


def swap_allowed_over_both_tasks(st, i, a, j, b):
    """The swap check with a loop over the predecessors and the followers
    of both tasks, read where they sit once i@a and j@b (a < b) trade
    places: the reference of `_State.swap_allowed`."""
    where = st.where
    for p in st.pred[i]:
        if (a if p == j else where[p]) > b:
            return False
    for s in st.succ[i]:
        if (a if s == j else where[s]) < b:
            return False
    for p in st.pred[j]:
        if (b if p == i else where[p]) > a:
            return False
    for s in st.succ[j]:
        if (b if s == i else where[s]) < a:
            return False
    return True


def test_swap_check_agrees_with_the_checker():
    """On random feasible solutions, every swap of a task i@a with a task
    j@b, a < b, passes `swap_allowed` exactly when it passes the check
    over both tasks' neighbours and `validate_solution` accepts the
    swapped solution.  Every worker executes every task, so precedence
    alone decides."""
    rng = random.Random(0x5A4)
    seen = {True: 0, False: 0}
    for _ in range(80):
        n, m = rng.randint(3, 10), rng.randint(2, 5)
        base = random_base(rng, n, edge_prob=rng.choice([0.1, 0.2, 0.4]))
        inst = generate(base, GeneratorConfig(
            n_workers=m, rng_seed=rng.randrange(2 ** 32)))
        order, left, pred = [], set(range(n)), inst.pred
        while left:         # a random order that respects precedence
            k = rng.choice(sorted(k for k in left
                                  if not left.intersection(pred[k])))
            order.append(k)
            left.remove(k)
        cuts = sorted(rng.randint(0, n) for _ in range(m - 1))
        chunks = [order[x:y] for x, y in zip([0] + cuts, cuts + [n])]
        workers = rng.sample(range(m), m)
        sol = build_solution(inst, zip(workers, chunks))
        assert validate_solution(inst, sol)[0]
        st = _State(inst, sol)
        for a in range(m):
            for b in range(a + 1, m):
                for i in chunks[a]:
                    for j in chunks[b]:
                        trade = {i: j, j: i}
                        swapped = build_solution(inst, [
                            (w, [trade.get(k, k) for k in ts])
                            for w, ts in zip(workers, chunks)])
                        ok = validate_solution(inst, swapped)[0]
                        assert st.swap_allowed(i, a, j, b) == ok
                        assert swap_allowed_over_both_tasks(
                            st, i, a, j, b) == ok
                        seen[ok] += 1
    assert seen[True] > 300 and seen[False] > 300, seen


X = INFEASIBLE


@pytest.mark.parametrize("times, stations, move, loads", [
    # an empty station on either side of the one at the cycle
    ([[9, 9], [4, 2], [9, 9], [2, 1]], [(0, ()), (1, {0}), (2, ()), (3, {1})],
     Swap(0, 1), (0, 2, 0, 2)),
    # both at the cycle; the swap leaves one of them at it
    ([[5, 5], [3, 5]], [(0, {0}), (1, {1})], Swap(0, 1), (5, 3)),
    ([[5, 3], [5, 5]], [(0, {0}), (1, {1})], Swap(0, 1), (3, 5)),
    # both at the cycle and both stay at it: la = lb = cycle
    ([[5, 5], [5, 5]], [(0, {0}), (1, {1})], None, (5, 5)),
    # one at the cycle; the winning swap leaves both just below it:
    # la = lb = cycle - 1
    ([[5, 4], [4, 2]], [(0, {0}), (1, {1})], Swap(0, 1), (4, 4)),
    ([[2, 4], [4, 5]], [(0, {0}), (1, {1})], Swap(0, 1), (4, 4)),
    # one at the cycle; it stays there (la = cycle), or the other reaches
    # it (lb = cycle): no swap of task 0, or only the one with task 2
    ([[5, 5], [1, 2]], [(0, {0}), (1, {1})], None, (5, 2)),
    ([[5, 4], [5, 2]], [(0, {0}), (1, {1})], None, (5, 2)),
    ([[5, 5, 4], [1, 1, 1]], [(0, {0}), (1, {1, 2})], Swap(0, 2), (4, 2)),
    ([[5, 4, 4], [3, 1, 2]], [(0, {0}), (1, {1, 2})], Swap(0, 2), (4, 4)),
    # task 0 cannot go to worker 1 and task 2 not to worker 0: the first
    # swap that every worker can execute is 1 <-> 3
    ([[3, 3, X, 1], [X, 2, 1, 2]], [(0, {0, 1}), (1, {2, 3})],
     Swap(1, 3), (4, 3)),
])
def test_swap_pass_boundaries(times, stations, move, loads):
    n = len(times[0])
    inst = Instance(n, len(times), times, [])
    st = _State(inst, build_solution(inst, stations))
    assert _try_swap(st, st.key()) == move
    assert tuple(st.loads) == loads
