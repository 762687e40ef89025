from __future__ import annotations

import random

import pytest

from alwabp import ValidationError, export_lp
from bruteforce import brute_force_optimum
from conftest import random_instance
from lpsolve import parse_lp, solve_lp_text


def test_tiny_a_model_shape(tiny_a):
    text = export_lp(tiny_a)
    objective, constraints, bounds, binaries = parse_lp(text)
    assert objective == {"c": 1.0}

    names = {v for _, coefs, _, _ in constraints for v in coefs}
    xs = {v for v in names if v.startswith("x_")}
    ys = {v for v in names if v.startswith("y_")}
    # 2 stations x 2 workers x 3 tasks, no infeasible pair, plus c
    assert len(xs) == 12
    assert len(ys) == 4
    assert "c" in names

    by_kind = {}
    for name, _, _, _ in constraints:
        by_kind.setdefault(name.split("_")[0], []).append(name)
    assert len(by_kind["assign"]) == 3
    assert len(by_kind["worker"]) == 2
    assert len(by_kind["station"]) == 2
    assert len(by_kind["prec"]) == 2
    assert len(by_kind["load"]) == 2
    assert len(by_kind["link"]) == 4
    assert len(constraints) == 15

    assert binaries == xs | ys
    assert bounds["c"] == (0.0, float("inf"))


def test_infeasible_pairs_have_no_variable():
    from alwabp import INFEASIBLE, Instance

    inst = Instance(2, 2, [[1, INFEASIBLE], [1, 1]], [])
    text = export_lp(inst)
    assert "x_s1_w1_i2" not in text
    assert "x_s2_w1_i2" not in text
    assert "x_s1_w2_i2" in text


def test_link_row_of_a_worker_that_executes_no_task():
    """Its link rows hold only the y term; the model still solves to the
    optimum, with worker 1 doing both tasks."""
    from alwabp import INFEASIBLE, Instance

    inst = Instance(2, 2, [[1, 2], [INFEASIBLE, INFEASIBLE]], [(0, 1)])
    lines = export_lp(inst).splitlines()
    assert " link_s1_w2: - 2 y_s1_w2 <= 0" in lines
    assert " link_s2_w2: - 2 y_s2_w2 <= 0" in lines
    assert " link_s1_w1: x_s1_w1_i1 + x_s1_w1_i2 - 2 y_s1_w1 <= 0" in lines
    assert solve_lp_text(export_lp(inst)) == brute_force_optimum(inst) == 3


def test_senses_and_rhs(tiny_a):
    _, constraints, _, _ = parse_lp(export_lp(tiny_a))
    for name, coefs, sense, rhs in constraints:
        kind = name.split("_")[0]
        if kind in ("assign", "worker", "station"):
            assert sense == "=" and rhs == 1
        else:
            assert sense == "<=" and rhs == 0
        if kind == "load":
            assert coefs["c"] == -1.0
        if kind == "link":
            y = [v for v in coefs if v.startswith("y_")]
            assert len(y) == 1 and coefs[y[0]] == -3.0


def test_milp_solves_to_known_optimum(tiny_a):
    assert solve_lp_text(export_lp(tiny_a)) == 2


def test_relaxation_is_a_lower_bound(tiny_a):
    relaxed = export_lp(tiny_a, relaxed=True)
    assert "Binary" not in relaxed
    _, _, bounds, _ = parse_lp(relaxed)
    assert bounds["x_s1_w1_i1"] == (0.0, 1.0)
    val = solve_lp_text(relaxed, relax=True)
    assert val is not None and val <= 2 + 1e-6


def test_milp_matches_bruteforce_on_random_instances():
    rng = random.Random(321)
    agree = 0
    for k in range(12):
        inst = random_instance(rng, n_max=5, m_max=3, name=f"lp{k}")
        opt = brute_force_optimum(inst)
        val = solve_lp_text(export_lp(inst))
        if opt is None:
            assert val is None
        else:
            assert val is not None and abs(val - opt) < 1e-6
        agree += 1
    assert agree == 12


@pytest.mark.parametrize("relaxed", ["no", 2.5, 1, None])
def test_relaxed_that_is_not_a_bool_is_refused(tiny_a, relaxed):
    """Each of these used to write the continuous relaxation."""
    with pytest.raises(ValidationError, match="relaxed must be a bool"):
        export_lp(tiny_a, relaxed)
