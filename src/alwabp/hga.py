"""Hybrid genetic algorithm over priority-matrix chromosomes.

A chromosome is a workers x tasks matrix of keys in [0, 1]; decoding
runs the station-oriented lower-bound search with the matrix as task
priorities and MinRLB as the worker rule (forward, then backward, at
every tentative cycle, with the instance reduced first), then polishes
the result with the local search.  Fitness is the pair (cycle,
normalized load = executed time / (m * cycle)), compared
lexicographically with smaller better on both parts: at equal cycle a
crew that executes the same work faster is the fitter one.

Each generation keeps the elite unchanged, breeds offspring by biased
uniform crossover of one elite and one non-elite parent, and replaces
the tail with fresh random immigrants.  The initial population encodes
the 16 named task rules as matrices, topped up with random chromosomes.
Everything is driven by one seeded RNG, so a run is reproducible from
(instance, params).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .bounds import compute_bounds
from .constructive import (SearchCache, TaskRule, WorkerRule,
                           priority_rows, solve_lower_bound_search)
from .instance import Instance, as_int, as_member, as_number
from .localsearch import improve
from .solution import Solution


@dataclass(frozen=True)
class Chromosome:
    p: tuple[tuple[float, ...], ...]    # [worker][task] keys in [0, 1]

    def __post_init__(self):
        try:
            for row in self.p:
                for v in row:
                    # a bool compares as 0 or 1 but is not a key
                    if not 0.0 <= v <= 1.0 or v is True or v is False:
                        raise ValueError(f"priority {v!r} is not a number "
                                         "in [0, 1]")
        except TypeError:
            raise ValueError("priorities must be rows of numbers") from None


@dataclass(frozen=True, order=True)
class Fitness:
    cycle: int
    norm_load: float    # executed time / (m * cycle), in (0, 1]


@dataclass(frozen=True)
class HgaParams:
    p: int = 100
    p_e: int | None = None              # default: 20% of p
    p_r: int | None = None              # default: 10% of p
    q: float = 0.5
    max_iters: int = 200
    max_stale_iters: int = 100
    rng_seed: int = 0
    stop_at_lower_bound: bool = True

    def __post_init__(self):
        # p holds one elite and one offspring at least
        for name, least in (("p", 2), ("p_e", 1), ("p_r", 0),
                            ("max_iters", 0), ("max_stale_iters", 1),
                            ("rng_seed", None)):
            value = getattr(self, name)
            if value is not None or name not in ("p_e", "p_r"):
                object.__setattr__(self, name, as_int(value, name, least))
        as_member(self.stop_at_lower_bound, bool, "stop_at_lower_bound")
        as_number(self.q, "crossover probability q", 0.5, 1)
        if self.p_e is None:
            object.__setattr__(self, "p_e", max(1, round(0.2 * self.p)))
        if self.p_r is None:
            object.__setattr__(self, "p_r", round(0.1 * self.p))
        if self.p_e + self.p_r >= self.p:
            raise ValueError("elite + immigrants must leave room for "
                             "offspring")


@dataclass(frozen=True)
class _Individual:
    chromosome: Chromosome
    solution: Solution
    fitness: Fitness


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    cycle: int
    norm_load: float
    seconds: float


@dataclass(frozen=True)
class HgaResult:
    solution: Solution
    fitness: Fitness
    log: tuple[LogEntry, ...]
    iterations: int
    reason: str                 # "bound" | "stale" | "max_iters"


def encode_rule(inst, rule: TaskRule, c_bar=None, cache=None) -> Chromosome:
    """Express a named task rule as a static priority matrix.

    Per worker, tasks are ranked by the rule over the full crew (ties to
    the smaller index) and the best of n tasks gets key (n-1)/n, the
    worst 0.  Aggregates use max(LC1, LC2, LC3) to stand in for
    INFEASIBLE entries unless a cycle is given.  `cache`, a `SearchCache`
    of `inst`, lets the encodings of a run share the full crew's
    statistics, as `priority_rows` explains.  Any `rule` but a
    `TaskRule` is refused with ValueError.
    """
    as_member(inst, Instance, "inst")
    as_member(rule, TaskRule, "rule")
    n = inst.n_tasks
    if c_bar is None:
        c_bar = compute_bounds(inst).best
    rows = []
    for prio in priority_rows(inst, rule, c_bar, cache):
        order = sorted(range(n), key=lambda i: (-prio[i], i))
        keys = [0.0] * n
        for rank, i in enumerate(order):        # rank 0 is the best task
            keys[i] = (n - 1 - rank) / n
        rows.append(tuple(keys))
    return Chromosome(tuple(rows))


def _random_chromosome(inst, rng) -> Chromosome:
    return Chromosome(tuple(
        tuple(rng.random() for _ in range(inst.n_tasks))
        for _ in range(inst.n_workers)))


def crossover(a: Chromosome, b: Chromosome, q: float,
              rng: random.Random) -> Chromosome:
    """Biased uniform crossover: each cell comes from a with probability
    q (a is meant to be the elite parent), else from b.  A q that is
    not a number in [0.5, 1] (a bool is not), parents that are not
    `Chromosome`s and parents of different shapes are refused."""
    as_member(a, Chromosome, "parent a")
    as_member(b, Chromosome, "parent b")
    as_number(q, "crossover probability", 0.5, 1)
    if list(map(len, a.p)) != list(map(len, b.p)):
        raise ValueError("crossover parents differ in shape")
    return Chromosome(tuple(
        tuple(x if rng.random() < q else y for x, y in zip(ra, rb))
        for ra, rb in zip(a.p, b.p)))


def decode(inst, chromosome: Chromosome, c_start=None,
           cache=None) -> tuple[Solution, Fitness]:
    """Lower-bound search with the chromosome as priorities, forward
    then backward per tentative cycle, reduction on, then local search.

    c_start defaults to the static bound max(LC1, LC2, LC3); pass a
    larger integer to fold in an external relaxation bound (one that is
    not an integer is refused with ValidationError).  `cache`, a
    `SearchCache` of `inst` (a fresh one by default), is shared by the
    decodes of a run: besides the searches' set-up it memoises the local
    search (`SearchCache.improved`).  A `chromosome` that is not a
    `Chromosome` is refused with ValueError.
    """
    as_member(chromosome, Chromosome, "chromosome")
    if cache is None:
        cache = SearchCache(inst)
    if c_start is None:
        c_start = compute_bounds(inst).best
    matrix = chromosome.p
    sol = solve_lower_bound_search(inst, matrix, WorkerRule.MIN_RLB, "both",
                                   c_start=c_start, use_preprocess=True,
                                   cache=cache)
    sol = cache.improved(sol, improve)
    executed = sum(sol.loads)
    fit = Fitness(sol.cycle, executed / (inst.n_workers * sol.cycle))
    return sol, fit


def _stop_reason(params, at_bound, iteration, stale):
    """Why the run stops after this generation, or None; when several
    limits hold, the bound comes first, then max_iters, then stale."""
    if params.stop_at_lower_bound and at_bound:
        return "bound"
    if iteration >= params.max_iters:
        return "max_iters"
    if stale >= params.max_stale_iters:
        return "stale"
    return None


def evolve(inst, params: HgaParams, external_relax=None) -> HgaResult:
    """Run the full loop; returns the incumbent and a per-iteration log.

    Stops on max_iters, on max_stale_iters without improvement, or (by
    default) as soon as the incumbent cycle hits the lower bound and no
    better cycle is possible.  `params` must be an `HgaParams` (else
    ValueError).
    """
    as_member(params, HgaParams, "params")
    t0 = time.perf_counter()
    rng = random.Random(params.rng_seed)
    cache = SearchCache(inst)
    bounds = compute_bounds(inst, external_relax)
    # the 16 rule encodings, at max(LC1, LC2, LC3) as in encode_rule's own
    # default, topped up with random chromosomes to p
    c_bar = max(bounds.lc1, bounds.lc2, bounds.lc3)
    chroms = [encode_rule(inst, rule, c_bar, cache) for rule in TaskRule]
    chroms += [_random_chromosome(inst, rng)
               for _ in range(params.p - len(chroms))]
    elite, best, log, iteration, stale = [], None, [], 0, 0
    while True:
        # decode draws nothing, so decoding after all draws keeps their
        # order; the p fittest of the elite and the new individuals form
        # the population (the sort is stable: ties keep that order)
        population = elite + [
            _Individual(chrom, *decode(inst, chrom, bounds.best, cache))
            for chrom in chroms]
        population.sort(key=lambda ind: ind.fitness)
        del population[params.p:]
        if best is None or population[0].fitness < best.fitness:
            best, stale = population[0], 0
        else:
            stale += 1
        log.append(LogEntry(iteration, best.fitness.cycle,
                            best.fitness.norm_load,
                            time.perf_counter() - t0))
        reason = _stop_reason(params, best.fitness.cycle <= bounds.best,
                              iteration, stale)
        if reason is not None:
            return HgaResult(best.solution, best.fitness, tuple(log),
                             iteration, reason)
        iteration += 1
        elite, rest = population[:params.p_e], population[params.p_e:]
        # per child: the elite parent, the other parent, then the cells
        chroms = [crossover(elite[rng.randrange(len(elite))].chromosome,
                            rest[rng.randrange(len(rest))].chromosome,
                            params.q, rng)
                  for _ in range(params.p - params.p_e - params.p_r)]
        chroms += [_random_chromosome(inst, rng) for _ in range(params.p_r)]
