from __future__ import annotations

import random

import pytest

from alwabp import (INFEASIBLE, Instance, ParseError, Solution,
                    ValidationError, format_instance, load_base,
                    load_instance, parse_instance, validate_solution)
from bruteforce import brute_force_feasible
from conftest import random_instance

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
    inst = parse_instance(TINY_A_TEXT, name="tiny-A")
    assert inst == tiny_a
    assert inst.times[1][0] == 5
    assert inst.edges == ((0, 1), (0, 2))


def test_parse_accepts_inf_spellings():
    text = "1 3\n0\n4\nInf\ninf\n"
    inst = parse_instance(text)
    assert inst.times[1][0] == INFEASIBLE
    assert inst.times[2][0] == INFEASIBLE


def test_format_round_trip(tiny_a):
    again = parse_instance(format_instance(tiny_a), name=tiny_a.name)
    assert again == tiny_a


def test_load_names_instance_after_file(tmp_path, tiny_a):
    p = tmp_path / "tiny-A.alwabp"
    p.write_text(format_instance(tiny_a))
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
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_instance(text)


@pytest.mark.parametrize("load", [load_instance, load_base])
def test_undecodable_file_is_a_parse_error(tmp_path, load):
    p = tmp_path / "binary.alwabp"
    p.write_bytes(b"\xff\xfe\x00\x01 3 2\n")
    with pytest.raises(ParseError, match="binary.alwabp"):
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
        parse_instance("2 1\n0\n1 0\n")


def test_edge_out_of_range_is_rejected():
    with pytest.raises(ValidationError):
        Instance(2, 1, [[1, 1]], [(0, 5)])


def test_bad_row_length_is_rejected():
    with pytest.raises(ValidationError):
        Instance(2, 1, [[1]], [])


def test_closure_tiny_a(tiny_a):
    c = tiny_a.closure()
    assert c.pred_star == (frozenset(), frozenset({0}), frozenset({0}))
    assert c.succ_star[0] == frozenset({1, 2})
    assert c.succ == (frozenset({1, 2}), frozenset(), frozenset())
    assert abs(c.order_strength - 2 / 3) < 1e-12


def test_closure_diamond():
    #   0 -> 1 -> 3,  0 -> 2 -> 3
    inst = Instance(4, 1, [[1, 1, 1, 1]], [(0, 1), (0, 2), (1, 3), (2, 3)])
    c = inst.closure()
    assert c.pred_star[3] == frozenset({0, 1, 2})
    assert c.succ_star[0] == frozenset({1, 2, 3})
    assert abs(c.order_strength - 10 / 12) < 1e-12


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
    assert (rc.pred, rc.succ) == (c.succ, c.pred)
    assert rc.pred_star == c.succ_star
    assert rc.succ_star == c.pred_star
    assert rc.order_strength == c.order_strength


# -- solution checker ---------------------------------------------------------

def test_validate_accepts_feasible(tiny_a):
    sol = Solution.build(tiny_a, [(0, {0}), (1, {1, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert ok and violations == []
    assert sol.cycle == 2
    assert sol.loads == (2, 2)


def test_validate_rejects_precedence_violation(tiny_a):
    # task 2 is placed before its predecessor task 1
    sol = Solution.build(tiny_a, [(1, {1}), (0, {0, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert not ok
    assert any("must not come after" in v for v in violations)


def test_validate_rejects_duplicate_worker(tiny_a):
    sol = Solution.build(tiny_a, [(0, {0}), (0, {1, 2})])
    ok, violations = validate_solution(tiny_a, sol)
    assert not ok
    assert any("bijection" in v for v in violations)


def test_validate_rejects_incapable_worker():
    inst = Instance(2, 2, [[1, INFEASIBLE], [1, 1]], [])
    sol = Solution.build(inst, [(0, {0, 1}), (1, set())])
    ok, violations = validate_solution(inst, sol)
    assert not ok
    assert any("infeasible for worker" in v for v in violations)


def test_validate_rejects_missing_and_duplicate_tasks(tiny_a):
    ok, violations = validate_solution(
        tiny_a, Solution.build(tiny_a, [(0, {0}), (1, {1})]))
    assert not ok and any("unassigned" in v for v in violations)
    ok, violations = validate_solution(
        tiny_a, Solution.build(tiny_a, [(0, {0, 1}), (1, {1, 2})]))
    assert not ok and any("more than once" in v for v in violations)


def test_validate_rejects_wrong_bookkeeping(tiny_a):
    good = Solution.build(tiny_a, [(0, {0}), (1, {1, 2})])
    bad_cycle = Solution(good.stations, good.loads, good.cycle + 1)
    ok, violations = validate_solution(tiny_a, bad_cycle)
    assert not ok and any("maximum load" in v for v in violations)
    bad_loads = Solution(good.stations, (1, 2), 2)
    ok, violations = validate_solution(tiny_a, bad_loads)
    assert not ok and any("differ" in v for v in violations)


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
        sol = Solution.build(inst, stations)
        ok, _ = validate_solution(inst, sol)
        assert ok == brute_force_feasible(inst, stations)
        agree += 1
    assert agree == 200
