"""Derive worker-dependent instances from single-time base instances
(`instance.BaseInstance`).

From a base, worker times are drawn uniformly per cell: U[1, t_i] under
low variability, U[1, 3 t_i] under high.  A fraction of the cells is then
marked INFEASIBLE, never leaving a task with no capable worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import INFEASIBLE, BaseInstance, Instance, ValidationError

VARIABILITY_FACTOR = {"low": 1, "high": 3}

# factor levels used by the benchmark generator
DENSITY_LEVELS = {"low": 0.10, "high": 0.20}


@dataclass(frozen=True)
class GeneratorConfig:
    """Factor levels for one generated instance.

    variability: 'low' draws t_wi from U[1, t_i], 'high' from U[1, 3 t_i].
    infeasibility_density: fraction of worker x task cells set INFEASIBLE
    (benchmark levels are 0.10 and 0.20); the exact cell count is
    round(density * n_workers * n_tasks).
    """

    n_workers: int
    variability: str = "low"
    infeasibility_density: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValidationError("need at least one worker")
        if self.variability not in VARIABILITY_FACTOR:
            raise ValidationError(f"unknown variability {self.variability!r}")
        if not 0.0 <= self.infeasibility_density < 1.0:
            raise ValidationError("infeasibility density must be in [0, 1)")


def generate(base: BaseInstance, cfg: GeneratorConfig) -> Instance:
    """Deterministically generate one instance from a base and a config.

    The same (base, config) pair always yields the same instance: times
    are drawn row by row (worker-major), then the infeasible cells.
    """
    rng = random.Random(cfg.rng_seed)
    n, m = base.n_tasks, cfg.n_workers
    factor = VARIABILITY_FACTOR[cfg.variability]

    times = [[rng.randint(1, factor * base.times[i]) for i in range(n)]
             for _ in range(m)]

    target = round(cfg.infeasibility_density * m * n)
    if target > m * n - n:
        raise ValidationError(
            f"density {cfg.infeasibility_density} leaves some task uncoverable")
    _mark_infeasible(times, target, rng)

    pct = round(cfg.infeasibility_density * 100)
    name = f"{base.name}-w{m}-{cfg.variability}-d{pct}-s{cfg.rng_seed}"
    return Instance(n, m, times, base.edges, name=name)


def _mark_infeasible(times, target, rng):
    """Mark exactly `target` uniformly chosen cells INFEASIBLE.

    Draws cells without replacement; a draw that would leave its task
    with no capable worker is rejected (such a cell can never become
    safe again, so it is dropped from the pool).  Each task is rejected
    at most once, so with target <= m*n - n the pool cannot run dry.
    """
    if target == 0:
        return
    n = len(times[0])
    finite_left = [len(times) for _ in range(n)]
    pool = [(w, i) for w in range(len(times)) for i in range(n)]
    marked = 0
    while marked < target:
        w, i = pool.pop(rng.randrange(len(pool)))
        if finite_left[i] <= 1:
            continue
        times[w][i] = INFEASIBLE
        finite_left[i] -= 1
        marked += 1
