"""Frozen outputs of the deterministic solver layers.

    python3 tests/golden/make_golden.py

rewrites `golden.json` next to this file: 20 seeded instances (their
text is stored, so the snapshot does not depend on the generator) and,
for each, what the solver makes of them:

- `sweep`: the cycle of all 96 rule configurations (`run_all_96`);
- `sweep_reduced`: the same with reduction (`run_all_96(inst, True)`);
- `assemble`: for a few named rules and two priority matrices, forward
  and backward, the result of one pass (the test helper
  `tests/stations.py`'s `assemble`) at every cycle from LC1 up to the
  first one that succeeds;
- `search`: the matrix-priority search with reduction, both directions,
  as the genetic algorithm's decoder runs it;
- `improve`: the local search result and its accepted moves, started
  from the first feasible assemblies and from loose ones;
- `evolve`: short genetic runs for three seeds, with fitness, stations,
  iterations, stop reason and the incumbent log without its seconds;
- `wrappers`: one station's load and worker scores on random sets of
  unassigned tasks and available workers, not closed under precedence,
  built from the constructive module's parts by the test helper
  `tests/stations.py` (`station_load_tasks`, `score_worker`).

`test_golden.py` recomputes the same sections with `outputs_of` and
compares them with the file.  Regenerate the file only when an output
is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    # run from a checkout: find the package and the test helpers, as a
    # pytest run does
    ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from alwabp import (BaseInstance, GeneratorConfig, HgaParams,
                    NoFeasibleAssignmentError, TaskRule, WorkerRule,
                    compute_bounds, encode_rule, evolve, generate, improve,
                    lc1, run_all_96, solve_lower_bound_search)
from alwabp.constructive import _cycle_ceiling
from alwabp.hga import _random_chromosome
from alwabp.instance import _format_instance
from stations import assemble, score_worker, station_load_tasks

GOLDEN = Path(__file__).with_name("golden.json")

# (task rule name or "matrix:<seed>", worker rule) pairs run by `assemble`
ASSEMBLE_SOURCES = (
    ("MaxPW-", "MinRLB"),
    ("MinRank", "MaxTasks"),
    ("MaxFTime", "MinBWA"),
    ("MinD", "MinRLB"),
    ("matrix:1", "MinRLB"),
    ("matrix:2", "MaxTasks"),
)
EVOLVE_SEEDS = (11, 12, 13)


def make_instances():
    """14 small instances (3-10 tasks, 2-4 workers) and 6 medium ones
    (20-30 tasks, 3-6 workers), all seeded."""
    rng = random.Random(20100318)
    out = []
    for k in range(20):
        medium = k >= 14
        n = rng.randint(20, 30) if medium else rng.randint(3, 10)
        m = rng.randint(3, 6) if medium else rng.randint(2, 4)
        times = tuple(rng.randint(1, 10) for _ in range(n))
        span = 5 if medium else n
        edges = tuple((i, j) for j in range(1, n)
                      for i in range(max(0, j - span), j)
                      if rng.random() < 0.3)
        variability = rng.choice(["low", "high"])
        density = rng.choice([0.0, 0.1, 0.2])
        cfg = GeneratorConfig(n_workers=m, variability=variability,
                              infeasibility_density=density,
                              rng_seed=rng.randrange(2 ** 32))
        out.append(generate(BaseInstance(f"golden{k:02d}", times, edges), cfg))
    return out


def sol_text(sol):
    """One line per solution: direction, cycle, loads and stations."""
    if sol is None:
        return None
    stations = " | ".join(f"{w}:" + ",".join(map(str, sorted(ts)))
                          for w, ts in sol.stations)
    loads = ",".join(map(str, sol.loads))
    return f"{sol.direction} c={sol.cycle} loads={loads} {stations}"


def move_text(move):
    kind = type(move).__name__
    if kind == "DoubleShift":
        return f"{move_text(move.first)} + {move_text(move.second)}"
    return f"{kind}{tuple(vars(move).values())}"


def _source(inst, name):
    if name.startswith("matrix:"):
        rng = random.Random(int(name.split(":")[1]))
        return _random_chromosome(inst, rng).p
    return TaskRule(name)


def outputs_of(inst):
    """Every section of the snapshot for one instance."""
    sweep = [row.cycle for row in run_all_96(inst)]
    sweep_reduced = [row.cycle for row in run_all_96(inst, True)]

    assembled, improved = {}, {}
    for name, wname in ASSEMBLE_SOURCES:
        source, wrule = _source(inst, name), WorkerRule(wname)
        for d in ("forward", "backward"):
            key = f"{name}/{wname}/{d}"
            trail = []
            for c in range(lc1(inst), _cycle_ceiling(inst) + 1):
                sol = assemble(inst, c, source, wrule, d)
                trail.append(sol_text(sol))
                if sol is not None:
                    break
            assembled[key] = trail
            loose = assemble(inst, c + (c + 1) // 2, source, wrule, d)
            for label, start in (("first", sol), ("loose", loose)):
                if start is None:
                    improved[f"{key}/{label}"] = None
                    continue
                moves = []
                out = improve(inst, start, moves)
                improved[f"{key}/{label}"] = [sol_text(out)] + [
                    move_text(mv) for mv in moves]

    best = compute_bounds(inst).best
    searched = {}
    for name, _ in ASSEMBLE_SOURCES:
        if name.startswith("matrix:"):
            try:
                sol = solve_lower_bound_search(
                    inst, _source(inst, name), WorkerRule.MIN_RLB, "both",
                    c_start=best, use_preprocess=True)
                searched[name] = sol_text(sol)
            except NoFeasibleAssignmentError:
                searched[name] = None
    encoded = encode_rule(inst, TaskRule.MAX_PW_AVG).p
    searched["encoded:MaxPWAvg"] = sol_text(solve_lower_bound_search(
        inst, encoded, WorkerRule.MIN_RLB, "both", c_start=best,
        use_preprocess=True))

    runs = {}
    for seed in EVOLVE_SEEDS:
        for label, params in (
                ("stop", HgaParams(p=16, max_iters=4, max_stale_iters=2,
                                   rng_seed=seed)),
                ("nostop", HgaParams(p=10, max_iters=2, max_stale_iters=2,
                                     rng_seed=seed,
                                     stop_at_lower_bound=False))):
            res = evolve(inst, params)
            runs[f"{label}/{seed}"] = {
                "fitness": [res.fitness.cycle, repr(res.fitness.norm_load)],
                "solution": sol_text(res.solution),
                "iterations": res.iterations,
                "reason": res.reason,
                "log": [[e.iteration, e.cycle, repr(e.norm_load)]
                        for e in res.log],
            }

    rng = random.Random(inst.name)
    wrapped = []
    for _ in range(8):
        left = set(rng.sample(range(inst.n_tasks),
                              rng.randint(1, inst.n_tasks)))
        crew = set(rng.sample(range(inst.n_workers),
                              rng.randint(1, inst.n_workers)))
        w = rng.choice(sorted(crew))
        c_bar = lc1(inst) + rng.randint(0, 5)
        for source in (rng.choice(list(TaskRule)), _source(inst, "matrix:3")):
            wrapped.append(sorted(station_load_tasks(inst, left, crew, w,
                                                     c_bar, source)))
        mine = set(rng.sample(sorted(left), rng.randint(0, len(left))))
        wrapped.append([repr(score_worker(inst, left, crew, w, mine, rule))
                        for rule in WorkerRule])

    return {"sweep": sweep, "sweep_reduced": sweep_reduced,
            "assemble": assembled, "search": searched,
            "improve": improved, "evolve": runs, "wrappers": wrapped}


def snapshot(instances):
    """instance name -> section -> outputs, for every instance."""
    return {inst.name: outputs_of(inst) for inst in instances}


def main():
    instances = make_instances()
    data = {"instances": [_format_instance(inst) for inst in instances],
            "outputs": snapshot(instances)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
