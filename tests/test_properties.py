"""Property tests with hypothesis: the instance format round-trips, the
readers of outside input raise only their documented errors, and the
solution checker agrees with an independent one on broken solutions.

Every test is derandomized with a fixed example budget, so a run is
repeatable and its time stable.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alwabp import (INFEASIBLE, Instance, NoFeasibleAssignmentError,
                    ParseError, Solution, ValidationError, all_rule_configs,
                    format_instance, load_base, load_instance, parse_base,
                    parse_instance, relax_sidecar, solve_lower_bound_search,
                    validate_solution)
from alwabp.reports import BkvError, load_bkv
from bruteforce import brute_force_feasible

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    cell = st.one_of(st.integers(1, 99), st.just(INFEASIBLE))
    times = [[draw(cell) for _ in range(n)] for _ in range(m)]
    for i in range(n):      # every task keeps a capable worker
        if all(row[i] == INFEASIBLE for row in times):
            times[draw(st.integers(0, m - 1))][i] = draw(st.integers(1, 99))
    # edges from a random order of the tasks, so the relation is acyclic
    order = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=12))
    edges = [(order[min(a, b)], order[max(a, b)]) for a, b in pairs if a != b]
    name = draw(st.text("abcxyz-_0123456789", min_size=1, max_size=8))
    return Instance(n, m, times, edges, name=name)


@SETTINGS
@given(instances())
def test_format_parse_round_trip(inst):
    assert parse_instance(format_instance(inst), name=inst.name) == inst


# Plain text rarely forms a header of counts, so most examples are built
# from the tokens the formats use, counts that are zero, negative or huge
# among them.
TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["Inf", "inf", "99999999", "1.5", "x", "#", "\n"]))
TOKEN_TEXT = st.lists(TOKENS, max_size=40).map(" ".join)
FIELDS = st.sampled_from(["instance", "cycle", "tiny-A", "", "3", "-2",
                          "0", " 7 ", '"q', "1e3", "nan", "inf", "2.5"])
CSV_TEXT = st.lists(st.lists(FIELDS, max_size=3).map(",".join),
                    max_size=5).map("\n".join)
TEXT = st.one_of(TOKEN_TEXT, CSV_TEXT, st.text(max_size=60))


@SETTINGS
@example("0 99999999 0")
@given(TEXT)
def test_parsers_raise_only_documented_errors(text):
    for parse in (parse_instance, parse_base):
        try:
            parse(text)
        except (ParseError, ValidationError):
            pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@SETTINGS
@example(b"0 99999999 0")
@given(st.one_of(TEXT.map(str.encode), st.binary(max_size=60)))
def test_file_readers_raise_only_documented_errors(fuzz_dir, data):
    path = fuzz_dir / "fuzz.alwabp"
    path.write_bytes(data)
    Path(f"{path}.relax").write_bytes(data)
    readers = [(load_instance, (ParseError, ValidationError)),
               (load_base, (ParseError, ValidationError)),
               (load_bkv, BkvError),
               (relax_sidecar, ParseError)]
    for read, documented in readers:
        try:
            read(path)
        except documented:
            pass


MUTATIONS = ["move", "swap_workers", "drop", "duplicate", "load", "cycle"]


@st.composite
def mutated_solutions(draw):
    """A solver's solution of a drawn instance after one mutation: a task
    moved, two stations' workers swapped, a task dropped or duplicated
    (each with the loads and cycle kept or recomputed), or one load or
    the cycle corrupted."""
    inst = draw(instances())
    cfg = draw(st.sampled_from(all_rule_configs()))
    try:
        sol = solve_lower_bound_search(inst, cfg.task_rule, cfg.worker_rule,
                                       cfg.direction)
    except NoFeasibleAssignmentError:
        assume(False)
    stations = [[w, set(ts)] for w, ts in sol.stations]
    loads, cycle = list(sol.loads), sol.cycle
    m = len(stations)
    kind = draw(st.sampled_from(MUTATIONS if m > 1 else
                                ["drop", "load", "cycle"]))
    k = draw(st.integers(0, m - 1))
    other = (k + draw(st.integers(1, m - 1))) % m if m > 1 else k
    task = draw(st.integers(0, inst.n_tasks - 1))
    home = next(s for s in stations if task in s[1])
    delta = draw(st.sampled_from([-2, -1, 1, 2]))
    if kind == "move":
        home[1].discard(task)
        stations[other][1].add(task)
    elif kind == "swap_workers":
        stations[k][0], stations[other][0] = stations[other][0], stations[k][0]
    elif kind == "drop":
        home[1].discard(task)
    elif kind == "duplicate":
        next(s for s in stations if task not in s[1])[1].add(task)
    elif kind == "load":
        loads[k] += delta
    else:
        cycle += delta
    if kind not in ("load", "cycle") and draw(st.booleans()):
        loads = [sum(inst.times[w][i] for i in ts) for w, ts in stations]
        cycle = max(loads)
    return inst, Solution(tuple((w, frozenset(ts)) for w, ts in stations),
                          tuple(loads), cycle, sol.direction)


@SETTINGS
@given(mutated_solutions())
def test_validate_agrees_with_independent_check_on_mutations(case):
    inst, sol = case
    expected = (brute_force_feasible(inst, sol.stations)
                and list(sol.loads) == [sum(inst.times[w][i] for i in ts)
                                        for w, ts in sol.stations]
                and sol.cycle == max(sol.loads))
    assert validate_solution(inst, sol)[0] == expected
