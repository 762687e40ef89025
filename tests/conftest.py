from __future__ import annotations

import random

import pytest

from alwabp import (BaseInstance, GeneratorConfig, Instance, Solution,
                    generate)

# 3 tasks, 2 workers, task 1 before tasks 2 and 3 (0-based: 0 -> 1, 0 -> 2).
TINY_A = Instance(3, 2, [[2, 3, 4], [5, 1, 1]], [(0, 1), (0, 2)], name="tiny-A")


@pytest.fixture
def tiny_a() -> Instance:
    return TINY_A


def build_solution(inst: Instance, stations, direction="forward") -> Solution:
    """The solution of (worker, tasks) `stations` in line order, with the
    loads and cycle recomputed from `inst`'s times."""
    norm = tuple((w, tuple(sorted(ts))) for w, ts in stations)
    loads = tuple(sum(inst.times[w][i] for i in ts) for w, ts in norm)
    return Solution(norm, loads, max(loads, default=0), direction)


def random_base(rng: random.Random, n: int, t_max: int = 9,
                edge_prob: float = 0.3, name: str = "base") -> BaseInstance:
    times = tuple(rng.randint(1, t_max) for _ in range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < edge_prob)
    return BaseInstance(name, times, edges)


def random_instance(rng: random.Random, n_max: int = 8, m_max: int = 4,
                    name: str = "rand") -> Instance:
    """Small random instance for oracle-backed tests (deterministic in rng)."""
    n = rng.randint(3, n_max)
    m = rng.randint(2, m_max)
    base = random_base(rng, n, name=name)
    density = rng.choice([0.0, 0.10, 0.20])
    cfg = GeneratorConfig(n_workers=m, variability=rng.choice(["low", "high"]),
                          infeasibility_density=density,
                          rng_seed=rng.randrange(2 ** 32))
    return generate(base, cfg)


def random_line(rng: random.Random, n: int = 70, m: int = 10,
                name: str = "line", span: int = 6,
                edge_prob: float = 0.25) -> Instance:
    """Seeded line at the paper's scale: base times U[1, 10], each of the
    `span` tasks before a task preceding it with probability `edge_prob`,
    low variability, 10% of the cells INFEASIBLE."""
    times = tuple(rng.randint(1, 10) for _ in range(n))
    edges = tuple((i, j) for j in range(1, n)
                  for i in range(max(0, j - span), j)
                  if rng.random() < edge_prob)
    cfg = GeneratorConfig(n_workers=m, variability="low",
                          infeasibility_density=0.10,
                          rng_seed=rng.randrange(2 ** 32))
    return generate(BaseInstance(name, times, edges), cfg)
