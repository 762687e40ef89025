from __future__ import annotations

import random
import re

import pytest

from alwabp import (INFEASIBLE, Instance, ParseError, Solution,
                    ValidationError, improve, load_base, load_instance,
                    relax_sidecar, validate_solution)
from alwabp.instance import _format_instance, _parse_instance
from bruteforce import brute_force_feasible
from conftest import build_solution, random_instance

TINY_A_TEXT = """\
# three tasks, two workers
3 2
2
1 2
1 3
2 3 4
5 1 1
"""


def test_parse_tiny_a(tiny_a):
    inst = _parse_instance(TINY_A_TEXT, name="tiny-A")
    assert inst == tiny_a
    assert inst.times[1][0] == 5
    assert inst.edges == ((0, 1), (0, 2))


def test_parse_accepts_inf_spellings():
    text = "1 3\n0\n4\nInf\ninf\n"
    inst = _parse_instance(text)
    assert inst.times[1][0] == INFEASIBLE
    assert inst.times[2][0] == INFEASIBLE


def test_format_round_trip(tiny_a):
    again = _parse_instance(_format_instance(tiny_a), name=tiny_a.name)
    assert again == tiny_a


def test_load_names_instance_after_file(tmp_path, tiny_a):
    p = tmp_path / "tiny-A.alwabp"
    p.write_text(_format_instance(tiny_a), encoding="utf-8")
    inst = load_instance(p)
    assert inst.name == "tiny-A"
    assert inst == tiny_a


@pytest.mark.parametrize("text", [
    "",                      # empty
    "3 2\n1\n1 2\n",         # missing times
    "3 2\n2\n1 2\n",         # missing edge
    "2 1\n0\nx 2\n",         # bad time token
    "2 1\n0\n1 2\n9\n",      # trailing data
    "q 1\n0\n1\n",           # bad count
    "0 99999999 0",          # no tasks: must fail before 10^8 empty rows
    "1 0\n0\n",              # no workers
    "1 1\n-1\n4\n",          # negative edge count
    "2 1\n0\n1_0 2\n",       # digit separator in a time
    "2 1\n0\n+3 2\n",        # plus sign on a time
    "2 1\n0\n\u0664 2\n",    # non-ASCII digit as a time
    "+2 1\n0\n1 2\n",        # plus sign on a count
    "2 1\n1\n1 \uff12\n1 2\n",  # non-ASCII digit as an edge head
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        _parse_instance(text)


@pytest.mark.parametrize("load", [load_instance, load_base, relax_sidecar])
def test_undecodable_file_is_a_parse_error(tmp_path, load):
    """The error names the file read: for `relax_sidecar`, the sidecar."""
    p = tmp_path / "binary.alwabp"
    bad = tmp_path / ("binary.alwabp.relax" if load is relax_sidecar
                      else "binary.alwabp")
    bad.write_bytes(b"\xff\xfe\x00\x01 3 2\n")
    with pytest.raises(ParseError, match=re.escape(f"cannot read {bad}:")):
        load(p)


def test_cycle_is_rejected():
    with pytest.raises(ValidationError, match="cycle"):
        Instance(3, 1, [[1, 1, 1]], [(0, 1), (1, 2), (2, 0)])


def test_self_loop_is_rejected():
    with pytest.raises(ValidationError):
        Instance(2, 1, [[1, 1]], [(0, 0)])


def test_uncoverable_task_is_rejected():
    with pytest.raises(ValidationError, match="no capable worker"):
        Instance(2, 2, [[1, INFEASIBLE], [1, INFEASIBLE]], [])


def test_zero_time_is_rejected():
    with pytest.raises(ValidationError, match="positive"):
        _parse_instance("2 1\n0\n1 0\n")


def test_edge_out_of_range_is_rejected():
    with pytest.raises(ValidationError):
        Instance(2, 1, [[1, 1]], [(0, 5)])


@pytest.mark.parametrize("n_tasks, times, edges, what", [
    (2.5, [[1, 2]], [], "task count must be an integer"),
    (2, [[1, 2]], [(0.5, 1)], "edge tail must be an integer"),
    (2, [[True, 2]], [], "positive integer or Inf, got True"),
])
def test_non_integer_count_edge_end_or_time_is_rejected(n_tasks, times,
                                                         edges, what):
    """Neither truncated nor accepted: a time of True would be written
    as 'True', which the parser refuses."""
    with pytest.raises(ValidationError, match=what):
        Instance(n_tasks, 1, times, edges)


def test_int_like_counts_and_edge_ends_are_accepted():
    class Index:
        def __init__(self, k):
            self.k = k

        def __index__(self):
            return self.k

    inst = Instance(Index(2), Index(1), [[1, 2]], [(Index(0), Index(1))])
    assert (inst.n_tasks, inst.n_workers, inst.edges) == (2, 1, ((0, 1),))


def test_bad_row_length_is_rejected():
    with pytest.raises(ValidationError):
        Instance(2, 1, [[1]], [])


@pytest.mark.parametrize("n_tasks, n_workers, times, what", [
    pytest.param(0, 1, [[]], "task count must be at least 1, got 0",
                 id="0-1-times0-at least one task"),
    pytest.param(1, 0, [], "worker count must be at least 1, got 0",
                 id="1-0-times1-at least one worker"),
    (2, 2, [[1, 2]], "expected 2 worker rows, got 1"),
    (2, 1, [[1, 2], [1, 2]], "expected 1 worker rows, got 2"),
])
def test_built_instance_checks_its_counts_and_rows(n_tasks, n_workers, times,
                                                   what):
    """The checks an `Instance` built directly makes, which the parser
    never reaches: it refuses such text first."""
    with pytest.raises(ValidationError, match=what):
        Instance(n_tasks, n_workers, times, [])


def test_equal_instances_hash_equal(tiny_a):
    again = _parse_instance(TINY_A_TEXT, name="tiny-A")
    assert again is not tiny_a and hash(again) == hash(tiny_a)
    assert len({tiny_a, again}) == 1


def test_an_instance_is_never_equal_to_another_type(tiny_a):
    assert tiny_a.__eq__("tiny-A") is NotImplemented
    assert (tiny_a == "tiny-A") is False


def test_closure_tiny_a(tiny_a):
    c = tiny_a.closure()
    assert c.pred_star == (frozenset(), frozenset({0}), frozenset({0}))
    assert c.succ_star[0] == frozenset({1, 2})
    assert [set(s) for s in c.succ] == [{1, 2}, set(), set()]


def test_closure_diamond():
    #   0 -> 1 -> 3,  0 -> 2 -> 3
    inst = Instance(4, 1, [[1, 1, 1, 1]], [(0, 1), (0, 2), (1, 3), (2, 3)])
    c = inst.closure()
    assert c.pred_star[3] == frozenset({0, 1, 2})
    assert c.succ_star[0] == frozenset({1, 2, 3})


def test_closure_matches_naive_reachability():
    rng = random.Random(4242)
    for k in range(30):
        inst = random_instance(rng, n_max=6, m_max=3, name=f"r{k}")
        n = inst.n_tasks
        reach = [[False] * n for _ in range(n)]
        for i, j in inst.edges:
            reach[i][j] = True
        for mid in range(n):
            for a in range(n):
                for b in range(n):
                    if reach[a][mid] and reach[mid][b]:
                        reach[a][b] = True
        c = inst.closure()
        for i in range(n):
            assert c.succ_star[i] == frozenset(
                j for j in range(n) if reach[i][j])
            assert c.pred_star[i] == frozenset(
                j for j in range(n) if reach[j][i])


def test_reverse_flips_edges(tiny_a):
    rev = tiny_a.reverse()
    assert rev.edges == ((1, 0), (2, 0))
    assert rev.times == tiny_a.times
    assert rev.reverse() == tiny_a


def test_reverse_flips_closure(tiny_a):
    c = tiny_a.closure()
    rc = tiny_a.reverse().closure()
    assert [set(p) for p in rc.pred] == [set(s) for s in c.succ]
    assert [set(s) for s in rc.succ] == [set(p) for p in c.pred]
    assert rc.pred_star == c.succ_star
    assert rc.succ_star == c.pred_star


# -- stored precedence ----------------------------------------------------------

def test_an_instance_stores_its_precedence_once(tiny_a):
    """`succ` is the one stored form of the precedence, and `pred` and
    `edges` are views built from it: an instance holds no predecessor,
    edge or order tuple, and its stored fields are exactly the
    documented ones."""
    assert Instance.__slots__ == ("n_tasks", "n_workers", "name", "times",
                                  "succ")
    assert not hasattr(tiny_a, "__dict__")
    assert isinstance(vars(Instance)["pred"], property)
    assert isinstance(vars(Instance)["edges"], property)
    assert tiny_a.pred == ((), (0,), (0,))
    assert tiny_a.edges == ((0, 1), (0, 2))


# Tasks whose predecessors or followers collide in a set's table of 8:
# 3, 11 and 19 come before 20, and 5, 13 and 21 after 0, while the six
# tasks before 17 outgrow that table.  A set's tuple iterates in an order
# that depends on the order it was filled in, and the closure and the
# MaxPW rules' float sums inherit it.
COLLIDING = ((3, 20), (11, 20), (19, 20), (2, 3), (10, 11), (18, 19),
             (0, 5), (0, 13), (0, 21), (5, 22), (13, 22), (21, 22),
             (20, 23), (22, 23), (1, 9), (1, 17), (4, 17), (6, 17),
             (9, 17), (12, 17), (14, 17))
_SHUFFLED = random.Random(17).sample(COLLIDING, len(COLLIDING))
EDGE_ORDERS = {
    "sorted": sorted(COLLIDING),
    "reversed": sorted(COLLIDING, reverse=True),
    "shuffled": _SHUFFLED,
    "duplicated": random.Random(18).sample(COLLIDING * 2,
                                           2 * len(COLLIDING)),
    "lists": [list(e) for e in _SHUFFLED],
}
# the tuples as instances have always built them, each set filled in
# ascending order
COLLIDING_PRED = (
    (), (), (), (2,), (), (0,), (), (), (), (1,), (), (10,), (), (0,), (),
    (), (), (1, 4, 6, 9, 12, 14), (), (18,), (11, 19, 3), (0,),
    (13, 21, 5), (20, 22))
COLLIDING_SUCC = (
    (13, 21, 5), (9, 17), (3,), (20,), (17,), (22,), (17,), (), (), (17,),
    (11,), (20,), (17,), (22,), (17,), (), (), (), (19,), (20,), (23,),
    (22,), (23,), ())
COLLIDING_PRED_STAR = (
    (), (), (), (2,), (), (0,), (), (), (), (1,), (), (10,), (), (0,), (),
    (), (), (1, 4, 6, 9, 12, 14), (), (18,), (2, 3, 18, 19, 10, 11), (0,),
    (0, 5, 13, 21), (0, 2, 3, 5, 10, 11, 13, 18, 19, 20, 21, 22))
COLLIDING_SUCC_STAR = (
    (21, 22, 23, 5, 13), (9, 17), (3, 20, 23), (20, 23), (17,), (22, 23),
    (17,), (), (), (17,), (11, 20, 23), (20, 23), (17,), (22, 23), (17,),
    (), (), (), (19, 20, 23), (20, 23), (23,), (22, 23), (23,), ())


@pytest.mark.parametrize("order", EDGE_ORDERS)
def test_precedence_tuples_do_not_depend_on_the_edge_order(order):
    inst = Instance(24, 1, [[1] * 24], EDGE_ORDERS[order])
    clo = inst.closure()
    assert inst.pred == COLLIDING_PRED
    assert inst.succ == COLLIDING_SUCC
    assert tuple(map(tuple, clo.pred_star)) == COLLIDING_PRED_STAR
    assert tuple(map(tuple, clo.succ_star)) == COLLIDING_SUCC_STAR
    assert inst.edges == tuple(sorted(COLLIDING))


def test_precedence_violations_are_listed_in_edge_order():
    """Task 1's followers 6, 14 and 22 iterate as 14, 22, 6 in `succ`;
    the violations still come in the order of `edges`."""
    inst = Instance(24, 2, [[1] * 24] * 2, COLLIDING)
    early = {5, 13, 21}
    sol = build_solution(inst, [(0, early), (1, set(range(24)) - early)])
    assert validate_solution(inst, sol) == (False, [
        f"task 1 must not come after task {j}" for j in (6, 14, 22)])


# -- solution checker ---------------------------------------------------------

def test_validate_accepts_feasible(tiny_a):
    sol = build_solution(tiny_a, [(0, {0}), (1, {1, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert ok and violations == []
    assert sol.cycle == 2
    assert sol.loads == (2, 2)


def test_validate_rejects_precedence_violation(tiny_a):
    # task 2 is placed before its predecessor task 1
    sol = build_solution(tiny_a, [(1, {1}), (0, {0, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert not ok
    assert any("must not come after" in v for v in violations)


def test_validate_rejects_duplicate_worker(tiny_a):
    sol = build_solution(tiny_a, [(0, {0}), (0, {1, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert not ok
    assert any("bijection" in v for v in violations)


def test_validate_rejects_incapable_worker():
    inst = Instance(2, 2, [[1, INFEASIBLE], [1, 1]], [])
    sol = build_solution(inst, [(0, {0, 1}), (1, set())])
    ok, violations = validate_solution(inst, sol)
    assert not ok
    assert any("infeasible for worker" in v for v in violations)


def test_validate_rejects_missing_and_duplicate_tasks(tiny_a):
    ok, violations = validate_solution(
        tiny_a, build_solution(tiny_a, [(0, {0}), (1, {1})]))
    assert not ok and any("unassigned" in v for v in violations)
    ok, violations = validate_solution(
        tiny_a, build_solution(tiny_a, [(0, {0, 1}), (1, {1, 2})]))
    assert not ok and any("more than once" in v for v in violations)


def test_validate_rejects_wrong_bookkeeping(tiny_a):
    good = build_solution(tiny_a, [(0, {0}), (1, {1, 2})])
    bad_cycle = Solution(good.stations, good.loads, good.cycle + 1)
    ok, violations = validate_solution(tiny_a, bad_cycle)
    assert not ok and any("maximum load" in v for v in violations)
    bad_loads = Solution(good.stations, (1, 2), 2)
    ok, violations = validate_solution(tiny_a, bad_loads)
    assert not ok and any("differ" in v for v in violations)


@pytest.mark.parametrize("stations, violation", [
    ([(0, {0}), (1.0, {1, 2})], "station 2: worker 1.0 is not an integer"),
    ([(0, {0, 0.5}), (1, {1, 2})], "station 1: task 0.5 is not an integer"),
    ([(0, {0}), ("1", {1, 2})], "station 2: worker '1' is not an integer"),
])
def test_malformed_station_is_a_violation(tiny_a, stations, violation):
    """Reported before anything is indexed by it, so `improve` refuses
    it with ValueError."""
    sol = Solution(tuple((w, frozenset(ts)) for w, ts in stations),
                   (2, 2), 2)
    assert validate_solution(tiny_a, sol) == (False, [violation])
    with pytest.raises(ValueError, match=f"invalid solution: {violation}$"):
        improve(tiny_a, sol)


@pytest.mark.parametrize("sol, violation", [
    (Solution(None, (), 0), "stations None are not (worker, tasks) pairs"),
    (Solution(((0, 5),), (1,), 1),
     "stations ((0, 5),) are not (worker, tasks) pairs"),
    (Solution(((0,), (1,)), (1,), 1),
     "stations ((0,), (1,)) are not (worker, tasks) pairs"),
    (Solution(((0, (0,)), (1, (1, 2))), None, 2),
     "recorded loads None differ from (2, 2)"),
])
def test_malformed_station_list_is_a_violation(tiny_a, sol, violation):
    """Stations that are not (worker, tasks) pairs, and loads that are not
    a sequence, are reported rather than raised on, so `improve` refuses
    them with ValueError."""
    assert validate_solution(tiny_a, sol) == (False, [violation])
    with pytest.raises(ValueError) as info:
        improve(tiny_a, sol)
    assert str(info.value).endswith(f"invalid solution: {violation}")


def test_validate_agrees_with_bruteforce_walk():
    """Random assignments, valid or not, judged identically by the
    independent constraint walk and by validate_solution."""
    rng = random.Random(99)
    agree = 0
    for k in range(200):
        inst = random_instance(rng, n_max=6, m_max=3, name=f"v{k}")
        n, m = inst.n_tasks, inst.n_workers
        workers = list(range(m))
        rng.shuffle(workers)
        stations = [(w, set()) for w in workers]
        for i in range(n):
            if rng.random() < 0.05:
                continue                      # sometimes drop a task
            stations[rng.randrange(m)][1].add(i)
        if rng.random() < 0.1 and m >= 2:
            stations[0] = (stations[1][0], stations[0][1])   # break bijection
        sol = build_solution(inst, stations)
        ok, _ = validate_solution(inst, sol)
        assert ok == brute_force_feasible(inst, stations)
        agree += 1
    assert agree == 200
