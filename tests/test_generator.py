from __future__ import annotations

import random

import pytest

from alwabp import (INFEASIBLE, BaseInstance, GeneratorConfig, ParseError,
                    ValidationError, generate)
from alwabp.instance import _parse_base

BASE_TEXT = """\
# two tasks in a chain
2
10
10
1
1 2
"""


def test_parse_base():
    base = _parse_base(BASE_TEXT, name="chain2")
    assert base == BaseInstance("chain2", (10, 10), ((0, 1),))


@pytest.mark.parametrize("times, message", [
    ((2.5, 3), "must be integers, got 2.5"),
    ((True, 2), "must be integers, got True"),
    ((3, 0), "must be positive, got 0"),
])
def test_base_instance_checks_its_times(times, message):
    """A base built directly is refused as a parsed one is, before
    `generate` draws from it: 2.5 would fail inside `random`, and True
    would be drawn as 1."""
    with pytest.raises(ValidationError, match=f"^base task times {message}$"):
        BaseInstance("b", times, ())


def test_parse_base_errors():
    with pytest.raises(ParseError):
        _parse_base("2\n10\n")
    with pytest.raises(ValidationError,
                       match="^base task times must be positive, got 0$"):
        _parse_base("1\n0\n0\n")
    with pytest.raises(ParseError):
        _parse_base("0\n0\n")
    with pytest.raises(ParseError):
        _parse_base("1\n5\n-1\n")      # once read as no edges
    # edges are checked as an instance's are
    with pytest.raises(ValidationError, match="out of range"):
        _parse_base("3\n1\n2\n3\n1\n5 9\n")
    with pytest.raises(ValidationError, match="precedes itself"):
        _parse_base("2\n1\n2\n1\n2 2\n")
    with pytest.raises(ValidationError, match="cycle"):
        _parse_base("2\n1\n2\n2\n1 2\n2 1\n")


def test_low_variability_range():
    base = _parse_base(BASE_TEXT)
    inst = generate(base, GeneratorConfig(n_workers=2, rng_seed=7))
    for w in range(2):
        for i in range(2):
            assert 1 <= inst.times[w][i] <= 10


def test_high_variability_range():
    base = BaseInstance("b", (10,) * 50, ())
    inst = generate(base, GeneratorConfig(
        n_workers=4, variability="high", rng_seed=3))
    cells = [inst.times[w][i] for w in range(4) for i in range(50)]
    assert all(1 <= t <= 30 for t in cells)
    assert any(t > 10 for t in cells)       # actually uses the wider range


def test_exact_infeasible_count_and_coverage():
    base = BaseInstance("b", (5,) * 10, ())
    for density in (0.10, 0.20):
        cfg = GeneratorConfig(n_workers=2, infeasibility_density=density,
                              rng_seed=11)
        inst = generate(base, cfg)
        n_inf = sum(1 for w in range(2) for i in range(10)
                    if inst.times[w][i] == INFEASIBLE)
        assert n_inf == round(density * 20)
        for i in range(10):
            assert any(inst.times[w][i] != INFEASIBLE for w in range(2))


@pytest.mark.parametrize("m, n, density", [(2, 10, 0.5), (5, 30, 0.8)])
def test_densest_marking_leaves_one_worker_per_task(m, n, density):
    # target == m*n - n: every task keeps exactly one capable worker
    base = BaseInstance("b", (5,) * n, ())
    for seed in range(50):
        inst = generate(base, GeneratorConfig(
            n_workers=m, infeasibility_density=density, rng_seed=seed))
        for i in range(n):
            assert sum(inst.times[w][i] != INFEASIBLE for w in range(m)) == 1


def test_generation_is_deterministic():
    base = _parse_base(BASE_TEXT, name="chain2")
    cfg = GeneratorConfig(n_workers=3, variability="high",
                          infeasibility_density=0.2, rng_seed=123)
    assert generate(base, cfg) == generate(base, cfg)
    other = generate(base, GeneratorConfig(
        n_workers=3, variability="high", infeasibility_density=0.2,
        rng_seed=124))
    assert other != generate(base, cfg)


def test_impossible_density_is_rejected():
    base = BaseInstance("b", (5, 5), ())
    with pytest.raises(ValidationError):
        generate(base, GeneratorConfig(
            n_workers=2, infeasibility_density=0.75, rng_seed=1))


def test_config_validation():
    with pytest.raises(ValidationError):
        GeneratorConfig(n_workers=0)
    with pytest.raises(ValidationError):
        GeneratorConfig(n_workers=1, variability="medium")
    with pytest.raises(ValidationError):
        GeneratorConfig(n_workers=1, infeasibility_density=1.0)


def test_config_refuses_a_non_integer_worker_count():
    """2.5 would fail only later, inside `generate`."""
    for value in (2.5, True):
        with pytest.raises(ValidationError,
                           match="n_workers must be an integer"):
            GeneratorConfig(n_workers=value)


def test_config_refuses_a_seed_that_is_not_an_integer():
    """None would seed from OS entropy, so two `generate` calls would
    differ; a bool, 2.5 or "7" would reach the instance's name."""
    for value in (None, True, 2.5, "7"):
        with pytest.raises(ValidationError,
                           match="rng_seed must be an integer"):
            GeneratorConfig(n_workers=2, rng_seed=value)


def test_marking_is_uniformish():
    """Every cell gets hit sometimes across seeds (no positional bias hole)."""
    base = BaseInstance("b", (5,) * 5, ())
    hits = [[0] * 5 for _ in range(3)]
    for seed in range(300):
        inst = generate(base, GeneratorConfig(
            n_workers=3, infeasibility_density=0.2, rng_seed=seed))
        for w in range(3):
            for i in range(5):
                if inst.times[w][i] == INFEASIBLE:
                    hits[w][i] += 1
    flat = [h for row in hits for h in row]
    assert min(flat) > 0
    # 3 marks per instance over 15 cells -> expect about 60 hits per cell
    assert max(flat) < 3 * (300 * 3 / 15)
