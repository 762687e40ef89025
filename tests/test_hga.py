"""Genetic algorithm: seeding, crossover, decode path, evolution loop."""

import random

import pytest

from alwabp import hga
from alwabp import (
    Chromosome,
    Fitness,
    HgaParams,
    Instance,
    NoFeasibleAssignmentError,
    TaskRule,
    WorkerRule,
    assemble,
    compute_bounds,
    crossover,
    decode,
    encode_rule,
    evolve,
    random_chromosome,
    seed_population,
    solve_lower_bound_search,
    validate_solution,
)

from bruteforce import brute_force_optimum
from conftest import random_instance


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
    with pytest.raises(ValueError):
        HgaParams(p=0)
    with pytest.raises(ValueError):
        HgaParams(p=10, p_e=0)
    with pytest.raises(ValueError):
        HgaParams(p=10, p_r=-1)


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


def test_random_chromosome_deterministic(tiny_a):
    a = random_chromosome(tiny_a, random.Random(5))
    b = random_chromosome(tiny_a, random.Random(5))
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
    assert sol.stations == ((0, frozenset({0})), (1, frozenset({1, 2})))
    assert fit == Fitness(2, 1.0)       # (2 + 1 + 1) / (2 stations * 2)
    sol, fit = decode(tiny_a, random_chromosome(tiny_a, random.Random(3)))
    assert fit.cycle == 2 and fit.norm_load == 1.0


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
    assert sol.stations == ((1, frozenset({1})), (0, frozenset({0, 2})))
    assert sol.loads == (6, 3)
    assert fit == Fitness(6, 9 / 12)


def test_decode_never_worse_than_raw_search():
    rng = random.Random(0xE1)
    checked = 0
    for _ in range(30):
        inst = random_instance(rng)
        chrom = random_chromosome(inst, rng)
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


def test_seed_population_tiny(tiny_a):
    pop = seed_population(tiny_a, HgaParams(p=20, rng_seed=1))
    assert len(pop) == 20
    fits = [ind.fitness for ind in pop]
    assert fits == sorted(fits)
    assert all(ind.fitness.cycle == 2 for ind in pop)
    # fewer slots than rules: only the best decoded rule encodings stay
    small = seed_population(tiny_a, HgaParams(p=10, rng_seed=1))
    assert len(small) == 10
    rule_chroms = {encode_rule(tiny_a, r).p for r in TaskRule}
    assert all(ind.chromosome.p in rule_chroms for ind in small)
    again = seed_population(tiny_a, HgaParams(p=10, rng_seed=1))
    assert [i.chromosome for i in again] == [i.chromosome for i in small]


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
    lambda inst: seed_population(inst, HgaParams(p=8, rng_seed=1)),
], ids=["evolve", "seed_population"])
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
