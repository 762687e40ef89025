"""Genetic algorithm: seeding, crossover, decode path, evolution loop."""

import math
import random
from dataclasses import asdict

import pytest

from alwabp import constructive, hga
from alwabp import (
    Chromosome,
    Fitness,
    HgaParams,
    Instance,
    NoFeasibleAssignmentError,
    SearchCache,
    TaskRule,
    ValidationError,
    WorkerRule,
    compute_bounds,
    crossover,
    decode,
    encode_rule,
    evolve,
    improve,
    run_configs,
    solve_lower_bound_search,
    validate_solution,
)

from alwabp.hga import _random_chromosome
from bruteforce import brute_force_optimum
from conftest import random_instance, random_line
from stations import assemble
from test_constructive import dense_tie_instance


UNCHECKED_OBJECTS = {
    "run_configs of a rule name": lambda inst: run_configs(inst, ["MaxF"]),
    "search with a string cache": lambda inst: solve_lower_bound_search(
        inst, TaskRule.MAX_F, WorkerRule.MIN_RLB, cache="x"),
    "decode with a string cache": lambda inst: decode(
        inst, Chromosome(((0.5,) * 3,) * 2), cache="x"),
    "encode_rule with a string cache": lambda inst: encode_rule(
        inst, TaskRule.MAX_F, cache="x"),
    "priority_rows with a string cache": lambda inst: (
        constructive.priority_rows(inst, TaskRule.MAX_F, 5, cache="x")),
    "improve of None": lambda inst: improve(inst, None),
    "evolve without params": lambda inst: evolve(inst, None),
    "crossover of lists": lambda inst: crossover(
        [[0.5] * 3] * 2, [[0.5] * 3] * 2, 0.5, random.Random(0)),
    "SearchCache of a string": lambda inst: SearchCache("x"),
    "SearchCache of None": lambda inst: SearchCache(None),
}


@pytest.mark.parametrize("call", UNCHECKED_OBJECTS.values(),
                         ids=list(UNCHECKED_OBJECTS))
def test_package_objects_of_another_type_are_refused(tiny_a, call):
    """Where an entry point takes one of the package's own objects,
    anything else is refused with ValueError, not read until an
    attribute is missing."""
    with pytest.raises(ValueError):
        call(tiny_a)


def test_validate_solution_reports_a_non_solution(tiny_a):
    assert validate_solution(tiny_a, None) == (
        False, ["None is not a Solution"])


def test_chromosome_bounds_checked():
    Chromosome(((0.0, 1.0), (0.5, 0.25)))
    with pytest.raises(ValueError):
        Chromosome(((0.0, 1.2),))
    with pytest.raises(ValueError):
        Chromosome(((-0.1,),))


def test_fitness_orders_smaller_load_first():
    # at equal cycle the crew that executes the same work faster wins
    assert Fitness(2, 0.8) < Fitness(2, 0.9)
    assert Fitness(2, 0.9) < Fitness(3, 0.1)
    assert sorted([Fitness(3, 0.5), Fitness(2, 1.0), Fitness(2, 0.7)]) == [
        Fitness(2, 0.7), Fitness(2, 1.0), Fitness(3, 0.5)]


def test_params_defaults_and_validation():
    p = HgaParams()
    assert (p.p, p.p_e, p.p_r, p.q) == (100, 20, 10, 0.5)
    assert p.max_iters == 200 and p.max_stale_iters == 100
    small = HgaParams(p=6)
    assert small.p_e == 1 and small.p_r == 1
    with pytest.raises(ValueError):
        HgaParams(p=10, p_e=7, p_r=3)       # no room for offspring
    with pytest.raises(ValueError):
        HgaParams(q=0.4)
    with pytest.raises(ValueError):
        HgaParams(q=1.1)
    with pytest.raises(ValueError, match="p must be at least 2, got 0"):
        HgaParams(p=0)
    with pytest.raises(ValueError, match="p must be at least 2, got 1"):
        HgaParams(p=1)      # no room for one elite and one offspring
    assert HgaParams(p=2).p_e == 1
    with pytest.raises(ValueError):
        HgaParams(p=10, p_e=0)
    with pytest.raises(ValueError):
        HgaParams(p=10, p_r=-1)


def test_params_refuse_a_bool_q():
    """True is not taken for a probability of 1; a plain 1 or 1.0 is."""
    assert HgaParams(q=1).q == 1 and HgaParams(q=1.0).q == 1.0
    with pytest.raises(ValueError, match=r"^crossover probability q must be "
                       r"a number in \[0\.5, 1\], got True$"):
        HgaParams(q=True)


@pytest.mark.parametrize("q", ["0.7", None, math.nan])
def test_params_refuse_a_q_that_is_not_a_number(q):
    with pytest.raises(ValueError, match=r"^crossover probability q must be "
                       r"a number in \[0\.5, 1\], got "):
        HgaParams(q=q)


@pytest.mark.parametrize("q", ["0.7", None, math.nan])
def test_crossover_refuses_a_q_that_is_not_a_number(q):
    a = Chromosome(((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match=r"^crossover probability must be "
                       r"a number in \[0\.5, 1\], got "):
        crossover(a, a, q, random.Random(1))


@pytest.mark.parametrize("matrix", [[[0.5] * 3] * 2, ((0.5,) * 3,) * 2, None])
def test_decode_refuses_anything_but_a_chromosome(tiny_a, matrix):
    """Even a matrix of the right shape: only a `Chromosome` has checked
    its keys."""
    with pytest.raises(ValueError,
                       match="^chromosome must be a Chromosome, got "):
        decode(tiny_a, matrix)


def test_decode_refuses_a_start_that_is_not_an_integer(tiny_a):
    chrom = _random_chromosome(tiny_a, random.Random(0))
    with pytest.raises(ValidationError,
                       match=r"^c_start must be an integer, got 2\.5$"):
        decode(tiny_a, chrom, 2.5)


def test_encode_rule_tiny(tiny_a):
    maxf = encode_rule(tiny_a, TaskRule.MAX_F)
    third = 1 / 3
    assert maxf.p == ((2 * third, third, 0.0), (2 * third, third, 0.0))
    # worker-independent rule: identical rows; worker-dependent: not
    mind = encode_rule(tiny_a, TaskRule.MIN_D)
    assert mind.p[0] == (2 * third, third, 0.0)
    assert mind.p[1] == (0.0, 2 * third, third)
    mint = encode_rule(tiny_a, TaskRule.MIN_TIME_MIN)
    assert mint.p[0] == (0.0, 2 * third, third)
    for rule in TaskRule:
        chrom = encode_rule(tiny_a, rule)
        assert all(0.0 <= v <= 1.0 for row in chrom.p for v in row)


def test_encode_rule_refuses_anything_but_a_task_rule(tiny_a):
    """A matrix would come back as a chromosome built from its rows,
    whatever its shape."""
    for source in ([[0.5] * 5] * 3, [[0.5] * 3] * 2, "MaxF",
                   WorkerRule.MIN_RLB):
        with pytest.raises(ValueError, match="rule must be a TaskRule"):
            encode_rule(tiny_a, source)


def test_params_refuse_non_integer_counts():
    for name, value in (("p", 2.5), ("p_e", 1.0), ("p_r", 0.5),
                        ("max_iters", 1.5), ("max_stale_iters", 2.0),
                        ("max_iters", "3"), ("max_iters", True)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            HgaParams(**{"p": 10, name: value})
    assert HgaParams(p=10, p_e=None, p_r=None).p_e == 2


@pytest.mark.parametrize("seed", [None, 2.5, True, "7"])
def test_params_refuse_a_seed_that_is_not_an_integer(seed):
    """None would seed from OS entropy and make a run irreproducible; 2.5
    and True would seed as hashes of other values."""
    with pytest.raises(ValueError, match=f"^rng_seed must be an integer, "
                       f"got {seed!r}$"):
        HgaParams(rng_seed=seed)
    assert HgaParams(rng_seed=7).rng_seed == 7


@pytest.mark.parametrize("flag", ["no", "", 0, 1, None])
def test_params_refuse_a_bound_stop_that_is_not_a_bool(flag):
    """A string such as "no" would read as true and stop at the bound."""
    with pytest.raises(ValueError, match="^stop_at_lower_bound must be a "
                       f"bool, got {flag!r}$"):
        HgaParams(stop_at_lower_bound=flag)


def test_random_chromosome_deterministic(tiny_a):
    a = _random_chromosome(tiny_a, random.Random(5))
    b = _random_chromosome(tiny_a, random.Random(5))
    assert a == b
    assert len(a.p) == 2 and len(a.p[0]) == 3
    assert all(0.0 <= v < 1.0 for row in a.p for v in row)


def test_crossover_degenerate_cases():
    a = Chromosome(((1.0, 1.0), (1.0, 1.0)))
    b = Chromosome(((0.0, 0.0), (0.0, 0.0)))
    assert crossover(a, b, 1.0, random.Random(1)) == a
    assert crossover(a, a, 0.5, random.Random(2)) == a
    with pytest.raises(ValueError):
        crossover(a, b, 0.3, random.Random(3))
    c1 = crossover(a, b, 0.8, random.Random(9))
    c2 = crossover(a, b, 0.8, random.Random(9))
    assert c1 == c2


def test_crossover_refuses_a_bool_q():
    """True is not taken for a probability of 1; a plain 1 or 1.0 is."""
    a = Chromosome(((1.0, 1.0), (1.0, 1.0)))
    b = Chromosome(((0.0, 0.0), (0.0, 0.0)))
    assert crossover(a, b, 1, random.Random(1)) == a
    assert crossover(a, b, 1.0, random.Random(1)) == a
    with pytest.raises(ValueError, match=r"^crossover probability must be "
                       r"a number in \[0\.5, 1\], got True$"):
        crossover(a, b, True, random.Random(1))


def test_crossover_refuses_parents_of_different_shapes():
    a = Chromosome(((1.0,) * 3,) * 2)
    for p in [((0.0,) * 5,) * 3, ((0.0,) * 3,), ((0.0,) * 2,) * 2,
              ((0.0,) * 3, (0.0,) * 2)]:
        for pair in [(a, Chromosome(p)), (Chromosome(p), a)]:
            with pytest.raises(ValueError, match="shape"):
                crossover(*pair, 0.5, random.Random(4))


def test_crossover_bias_statistics():
    n = 100
    a = Chromosome((tuple([1.0] * n),) * n)
    b = Chromosome((tuple([0.0] * n),) * n)
    child = crossover(a, b, 0.7, random.Random(0xBEEF))
    frac = sum(v for row in child.p for v in row) / (n * n)
    sigma = (0.7 * 0.3 / (n * n)) ** 0.5
    assert abs(frac - 0.7) <= 3 * sigma


def test_decode_tiny(tiny_a):
    sol, fit = decode(tiny_a, encode_rule(tiny_a, TaskRule.MAX_F))
    assert sol.stations == ((0, (0,)), (1, (1, 2)))
    assert fit == Fitness(2, 1.0)       # (2 + 1 + 1) / (2 stations * 2)
    sol, fit = decode(tiny_a, _random_chromosome(tiny_a, random.Random(3)))
    assert fit.cycle == 2 and fit.norm_load == 1.0


@pytest.mark.parametrize("rows,cols", [(3, 5), (2, 1)])
def test_decode_refuses_a_chromosome_of_another_shape(tiny_a, rows, cols):
    """tiny-A has 2 workers and 3 tasks."""
    with pytest.raises(ValueError, match="2 x 3"):
        decode(tiny_a, Chromosome(((0.5,) * cols,) * rows))


def test_decode_ties_are_deterministic(tiny_a):
    flat = Chromosome(((0.5,) * 3, (0.5,) * 3))
    first = decode(tiny_a, flat)
    assert first == decode(tiny_a, flat)


def test_decode_picks_backward_when_forward_is_stuck():
    # at the bound (cycle 6) worker 0 cannot run task 1 (time 7), and
    # these priorities make worker 1 burn its slack on task 0; assembled
    # front-to-back the line strands task 1, back-to-front it fits
    inst = Instance(3, 2, [[2, 7, 1], [2, 6, 4]], [(1, 2)], name="rearward")
    matrix = Chromosome(((0.077, 0.809, 0.506), (0.025, 0.021, 0.483)))
    assert compute_bounds(inst).best == 6
    assert brute_force_optimum(inst) == 6
    assert assemble(inst, 6, matrix.p, WorkerRule.MIN_RLB, "forward") is None
    assert assemble(inst, 6, matrix.p, WorkerRule.MIN_RLB,
                    "backward") is not None
    sol, fit = decode(inst, matrix)
    assert sol.direction == "backward"
    assert sol.stations == ((1, (1,)), (0, (0, 2)))
    assert sol.loads == (6, 3)
    assert fit == Fitness(6, 9 / 12)


def test_decode_never_worse_than_raw_search():
    rng = random.Random(0xE1)
    checked = 0
    for _ in range(30):
        inst = random_instance(rng)
        chrom = _random_chromosome(inst, rng)
        c0 = compute_bounds(inst).best
        try:
            raw = solve_lower_bound_search(inst, chrom.p, WorkerRule.MIN_RLB,
                                           "both", c_start=c0,
                                           use_preprocess=True)
        except NoFeasibleAssignmentError:
            with pytest.raises(NoFeasibleAssignmentError):
                decode(inst, chrom)
            continue
        sol, fit = decode(inst, chrom)
        assert fit.cycle <= raw.cycle
        assert fit.cycle >= c0
        assert fit.norm_load <= 1.0 + 1e-12
        ok, violations = validate_solution(inst, sol)
        assert ok, (inst.name, violations)
        opt = brute_force_optimum(inst)
        assert opt is not None and fit.cycle >= opt
        checked += 1
    assert checked >= 25


def _decode_cases(rng):
    """Random and tie-heavy instances, each with chromosomes that repeat:
    the rule encodings and random ones, every one of them twice."""
    for make in (random_instance,) * 4 + (dense_tie_instance,) * 4:
        inst = make(rng)
        chroms = [encode_rule(inst, rule) for rule in TaskRule]
        chroms += [_random_chromosome(inst, rng) for _ in range(6)]
        yield inst, chroms + chroms[::-1]


@pytest.mark.parametrize("cells", [constructive.IMPROVED_CELLS, 64])
def test_memoised_decode_equals_fresh_decode(monkeypatch, cells):
    # 64 cells hold at most a few solutions of these lines, so the memo
    # clears several times per instance
    monkeypatch.setattr(constructive, "IMPROVED_CELLS", cells)
    cleared = checked = 0
    for inst, chroms in _decode_cases(random.Random(0x3E3)):
        cache = SearchCache(inst)
        c0 = compute_bounds(inst).best
        cap = -(-cells // (inst.n_tasks * inst.n_workers))
        for chrom in chroms:
            try:
                fresh, fresh_fit = decode(inst, chrom, c0, SearchCache(inst))
            except NoFeasibleAssignmentError:
                with pytest.raises(NoFeasibleAssignmentError):
                    decode(inst, chrom, c0, cache)
                continue
            size = len(cache._improved)
            sol, fit = decode(inst, chrom, c0, cache)
            assert asdict(sol) == asdict(fresh), inst.name
            assert vars(fit) == vars(fresh_fit), inst.name
            assert len(cache._improved) <= cap
            cleared += len(cache._improved) < size
            checked += 1
        assert cache.improve_hits > 0, inst.name
    assert checked >= 150
    assert (cleared > 0) == (cells == 64)


def test_evolve_assembles_no_cycle_below_the_optimum(monkeypatch):
    """Every cycle below the optimum of a small line is proven infeasible
    once per run, so no decode assembles there."""
    real_assemble = constructive._assemble
    cycles = []

    def recording_assemble(times, c, *args):
        cycles.append(c)
        return real_assemble(times, c, *args)

    monkeypatch.setattr(constructive, "_assemble", recording_assemble)
    rng = random.Random(0xA55)
    below = 0
    for k in range(12):
        inst = random_instance(rng, name=f"w{k}")
        opt = brute_force_optimum(inst)
        below += compute_bounds(inst).best < opt
        cycles.clear()
        evolve(inst, HgaParams(p=20, max_iters=3, rng_seed=k,
                               stop_at_lower_bound=False))
        assert cycles and min(cycles) >= opt, (inst.name, opt)
    assert below > 0


def test_second_decode_of_a_chromosome_skips_improve(monkeypatch):
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return improve(*args, **kwargs)

    improve = hga.improve
    monkeypatch.setattr(hga, "improve", counted)
    rng = random.Random(0x3E4)
    inst = random_instance(rng)
    chroms = [_random_chromosome(inst, rng) for _ in range(20)]
    cache = SearchCache(inst)
    first = [decode(inst, chrom, cache=cache) for chrom in chroms]
    assert calls[0] + cache.improve_hits == len(chroms)
    calls[0], hits = 0, cache.improve_hits
    assert [decode(inst, chrom, cache=cache) for chrom in chroms] == first
    assert calls[0] == 0
    assert cache.improve_hits == hits + len(chroms)


def test_evolve_tiny_stops_at_bound(tiny_a):
    res = evolve(tiny_a, HgaParams(p=20, rng_seed=7))
    assert res.fitness == Fitness(2, 1.0)
    assert res.reason == "bound"
    assert res.iterations == 0          # seeds already sit on the bound
    assert len(res.log) == 1
    assert res.log[0].iteration == 0 and res.log[0].cycle == 2
    ok, violations = validate_solution(tiny_a, res.solution)
    assert ok, violations


def test_evolve_tiny_stale_stop(tiny_a):
    params = HgaParams(p=8, rng_seed=7, max_iters=50, max_stale_iters=4,
                       stop_at_lower_bound=False)
    res = evolve(tiny_a, params)
    assert res.fitness.cycle == 2
    assert res.reason == "stale"
    assert res.iterations == 4          # optimal from iteration 0
    cycles = [e.cycle for e in res.log]
    assert cycles == sorted(cycles, reverse=True)
    seconds = [e.seconds for e in res.log]
    assert seconds == sorted(seconds)


def test_evolve_max_iters_stop(tiny_a):
    params = HgaParams(p=8, rng_seed=3, max_iters=2, max_stale_iters=50,
                       stop_at_lower_bound=False)
    res = evolve(tiny_a, params)
    assert res.reason == "max_iters"
    assert res.iterations == 2
    assert len(res.log) == 3


# (max_iters, max_stale_iters, stop_at_lower_bound) -> (reason, iterations);
# seed 7 reaches tiny-A's bound, cycle 2, at iteration 0 and never improves
@pytest.mark.parametrize("limits, expected", [
    ((0, 1, True), ("bound", 0)),           # bound before max_iters=0
    ((0, 1, False), ("max_iters", 0)),
    ((1, 1, False), ("max_iters", 1)),      # max_iters before stale
    ((2, 1, False), ("stale", 1)),
    ((3, 50, True), ("bound", 0)),
])
def test_evolve_stop_reason_precedence(tiny_a, limits, expected):
    max_iters, max_stale, bound_stop = limits
    res = evolve(tiny_a, HgaParams(p=8, rng_seed=7, max_iters=max_iters,
                                   max_stale_iters=max_stale,
                                   stop_at_lower_bound=bound_stop))
    assert (res.reason, res.iterations) == expected
    assert len(res.log) == res.iterations + 1


@pytest.mark.parametrize("run", [
    lambda inst: evolve(inst, HgaParams(p=8, rng_seed=1, max_iters=2,
                                        stop_at_lower_bound=False),
                        external_relax=1.5),
], ids=["evolve"])
def test_ga_computes_bounds_once(tiny_a, monkeypatch, run):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_bounds(*args, **kwargs)

    monkeypatch.setattr(hga, "compute_bounds", counted)
    run(tiny_a)
    assert len(calls) == 1


def test_evolve_deterministic(tiny_a):
    params = HgaParams(p=8, rng_seed=11, max_iters=3, max_stale_iters=50,
                       stop_at_lower_bound=False)
    a = evolve(tiny_a, params)
    b = evolve(tiny_a, params)
    assert a.solution == b.solution and a.fitness == b.fitness
    assert [(e.iteration, e.cycle, e.norm_load) for e in a.log] == \
           [(e.iteration, e.cycle, e.norm_load) for e in b.log]


def test_evolve_propagates_infeasibility():
    inst = Instance(3, 2,
                    [[float("inf"), 1, float("inf")],
                     [1, float("inf"), 1]],
                    [(0, 1), (1, 2)], name="stuck")
    with pytest.raises(NoFeasibleAssignmentError):
        evolve(inst, HgaParams(p=6, rng_seed=0, max_iters=2))


def test_evolve_on_random_instances_respects_oracle():
    rng = random.Random(0xE2)
    hits = 0
    cases = 0
    for _ in range(12):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        res = evolve(inst, HgaParams(p=8, rng_seed=5, max_iters=5,
                                     max_stale_iters=5))
        assert res.fitness.cycle >= opt
        assert res.fitness.cycle >= compute_bounds(inst).best
        ok, violations = validate_solution(inst, res.solution)
        assert ok, (inst.name, violations)
        incumbents = [e.cycle for e in res.log]
        assert incumbents == sorted(incumbents, reverse=True)
        cases += 1
        if res.fitness.cycle == opt:
            hits += 1
    assert cases >= 8
    assert hits >= cases // 2       # the seeds alone solve most tiny cases


# -- the representation of the solutions returned -----------------------------

def _compact(sol):
    """Whether `sol` keeps no per-instance dict and lists each station's
    tasks as a strictly ascending tuple of ints."""
    return not hasattr(sol, "__dict__") and all(
        type(tasks) is tuple and all(type(i) is int for i in tasks)
        and all(a < b for a, b in zip(tasks, tasks[1:]))
        for _, tasks in sol.stations)


def test_returned_solutions_list_tasks_as_ascending_tuples():
    """Callers hold solutions by the thousand, so every path that returns
    one builds its stations as ascending tuples in a slotted `Solution`:
    assemblies in both directions under a task rule and a priority
    matrix, searches in both directions with reduction, local search,
    decodes and whole GA runs."""
    rng = random.Random(0x5107)
    for k in range(3):
        inst = random_line(rng, n=24, m=5, name=f"line{k}")
        chrom = _random_chromosome(inst, rng)
        sols = []
        for source in (TaskRule.MAX_F, chrom.p):
            for direction in ("forward", "backward"):
                try:
                    found = solve_lower_bound_search(
                        inst, source, WorkerRule.MAX_TASKS, direction)
                except NoFeasibleAssignmentError:
                    continue
                sols.append(assemble(inst, found.cycle, source,
                                     WorkerRule.MAX_TASKS, direction))
        searched = solve_lower_bound_search(inst, chrom.p, WorkerRule.MIN_RLB,
                                            "both", use_preprocess=True)
        sols += [searched, improve(inst, searched), decode(inst, chrom)[0],
                 evolve(inst, HgaParams(p=6, max_iters=2,
                                        rng_seed=k)).solution]
        assert len(sols) >= 7, inst.name
        for sol in sols:
            assert _compact(sol), (inst.name, sol)
