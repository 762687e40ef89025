from __future__ import annotations

import gc
import random
from dataclasses import asdict

import pytest

from alwabp import bounds
from alwabp import (INFEASIBLE, BaseInstance, CycleInfeasibleError,
                    GeneratorConfig, Instance, NoFeasibleAssignmentError,
                    TaskRule, WorkerRule, compute_bounds, decode, generate,
                    lc1, preprocess, relax_sidecar, run_all_96,
                    solve_lower_bound_search, validate_solution)
from alwabp.bounds import _lc2, _lc3, _min_times
from alwabp.hga import _random_chromosome
from bruteforce import brute_force_optimum, enumerate_min_times
from conftest import random_base, random_instance


def chain(times_by_worker, n=None):
    n = n or len(times_by_worker[0])
    edges = [(i, i + 1) for i in range(n - 1)]
    return Instance(n, len(times_by_worker), times_by_worker, edges)


def test_min_times(tiny_a):
    assert _min_times(tiny_a) == [2, 1, 1]
    single = Instance(3, 1, [[4, 5, 6]], [])
    assert _min_times(single) == [4, 5, 6]
    withinf = Instance(3, 2, [[2, 3, 4], [INFEASIBLE, 1, 1]],
                       [(0, 1), (0, 2)])
    assert _min_times(withinf) == [2, 1, 1]


def test_lc1(tiny_a):
    assert lc1(tiny_a) == 2
    assert lc1(Instance(1, 1, [[7]], [])) == 7
    assert lc1(Instance(4, 2, [[1, 1, 1, 1], [1, 1, 1, 1]], [])) == 2


def test_lc2(tiny_a):
    assert _lc2(tiny_a) == 2
    inst = Instance(5, 2, [[5, 4, 3, 2, 1]] * 2, [])
    assert _lc2(inst) == 7           # k=1 takes positions 2 and 3: 4+3
    few = Instance(2, 3, [[9, 9]] * 3, [])
    assert _lc2(few) == 0            # n <= m leaves no k to sum over


def test_lc3(tiny_a):
    assert _lc3(tiny_a, 1) == 2
    three = chain([[1, 1, 1]] * 3)
    assert _lc3(three, 1) == 1       # 3 unit tasks, 3 stations: windows fit


def test_lc3_never_below_start(tiny_a):
    assert _lc3(tiny_a, 10) == 10


def test_compute_bounds(tiny_a):
    rep = compute_bounds(tiny_a)
    assert (rep.lc1, rep.lc2, rep.lc3) == (2, 2, 2)
    assert rep.best == 2 and rep.external_relax is None
    rep = compute_bounds(tiny_a, external_relax=2.5)
    assert rep.best == 3
    rep = compute_bounds(tiny_a, external_relax=2.0)
    assert rep.best == 2


@pytest.mark.parametrize("relax", [float("nan"), float("inf"),
                                   float("-inf")])
def test_compute_bounds_refuses_non_finite_relax(tiny_a, relax):
    with pytest.raises(ValueError, match="must be a finite number"):
        compute_bounds(tiny_a, relax)


@pytest.mark.parametrize("relax", [True, False, "x", "3", [2.5]])
def test_compute_bounds_refuses_a_relax_that_is_not_a_number(tiny_a, relax):
    """True would be reported as a relaxation of 1; a string or a list
    would fail as a TypeError deep in the check."""
    with pytest.raises(ValueError, match="must be a finite number"):
        compute_bounds(tiny_a, relax)
    assert compute_bounds(tiny_a, 3).best == 3


def test_relax_sidecar(tmp_path, tiny_a):
    from alwabp import save_instance

    p = tmp_path / "tiny-A.alwabp"
    save_instance(tiny_a, p)
    assert relax_sidecar(p) is None
    (tmp_path / "tiny-A.alwabp.relax").write_text("2.75\n")
    assert relax_sidecar(p) == 2.75


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "abc", "", "1_0",
                                  "\u0664", "1e999"])
def test_relax_sidecar_rejects_non_finite(tmp_path, tiny_a, text):
    from alwabp import ParseError, save_instance

    p = tmp_path / "tiny-A.alwabp"
    save_instance(tiny_a, p)
    (tmp_path / "tiny-A.alwabp.relax").write_text(text + "\n")
    with pytest.raises(ParseError, match="tiny-A.alwabp.relax"):
        relax_sidecar(p)


def test_bounds_never_exceed_optimum():
    """Dual route: every bound is at most the brute-force optimum."""
    rng = random.Random(515)
    checked = 0
    for k in range(60):
        inst = random_instance(rng, n_max=7, m_max=3, name=f"b{k}")
        assert _min_times(inst) == enumerate_min_times(inst)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        rep = compute_bounds(inst)
        assert max(rep.lc1, rep.lc2, rep.lc3) <= opt
        checked += 1
    assert checked >= 40


# -- preprocessing ------------------------------------------------------------

@pytest.fixture
def tiny_a_sole():
    # tiny-A where task 1 can only be done by worker 1
    return Instance(3, 2, [[2, 3, 4], [INFEASIBLE, 1, 1]],
                    [(0, 1), (0, 2)], name="tiny-A-sole")


def test_preprocess_keeps_wide_cycle(tiny_a_sole):
    reduced, removed = preprocess(tiny_a_sole, 6)
    assert removed == 0
    assert reduced is tiny_a_sole


def test_preprocess_reduces_tight_cycle(tiny_a_sole):
    # c=5: only the pair (task 1, task 3) overflows: 2+4 > 5
    reduced, removed = preprocess(tiny_a_sole, 5)
    assert removed == 1
    assert reduced.times[0] == (2, 3, INFEASIBLE)
    # c=4: task 2 overflows too: 2+3 > 4
    reduced, removed = preprocess(tiny_a_sole, 4)
    assert removed == 2
    assert reduced.times[0] == (2, INFEASIBLE, INFEASIBLE)
    assert reduced.times[1] == (INFEASIBLE, 1, 1)


def test_preprocess_no_sole_worker_is_identity(tiny_a):
    reduced, removed = preprocess(tiny_a, 2)
    assert removed == 0 and reduced is tiny_a


def test_preprocess_cascades_to_fixed_point():
    # chain 1 -> 2 -> 3; task 1 only by worker 1.
    inst = chain([[3, 3, 3], [INFEASIBLE, 5, 2]])
    reduced, removed = preprocess(inst, 6)
    # first 1+2+3 (9 > 6) kicks task 3 off worker 1, making task 3 sole to
    # worker 2; then 5+2 (7 > 6) kicks task 2 off worker 2 as well
    assert removed == 2
    assert reduced.times[0] == (3, 3, INFEASIBLE)
    assert reduced.times[1] == (INFEASIBLE, INFEASIBLE, 2)


def test_preprocess_overflows_through_tasks_before_the_sole_workers_task():
    # chain 1 -> 2 -> 3; task 3 only by worker 1, so task 1 on worker 1
    # would bring task 2, which runs between them: 3+3+3 > 6.  Task 1 is
    # then sole to worker 2, and 5+5 > 6 takes task 2 off worker 2.
    inst = chain([[3, 3, 3], [5, 5, INFEASIBLE]])
    reduced, removed = preprocess(inst, 6)
    assert removed == 2
    assert reduced.times == ((INFEASIBLE, 3, 3), (5, INFEASIBLE, INFEASIBLE))


def test_preprocess_detects_infeasible_cycle():
    inst = chain([[2, 3, 4], [INFEASIBLE, 1, INFEASIBLE]])
    # tasks 1 and 3 are sole to worker 1 and 2+3+4 > 6
    with pytest.raises(CycleInfeasibleError):
        preprocess(inst, 6)


def test_preprocess_counts_infeasible_between_as_overflow():
    # 1 -> 2 -> 3, task 1 sole to worker 1, and worker 1 cannot do the
    # middle task: 1 and 3 can never share worker 1's station.
    inst = chain([[1, INFEASIBLE, 1], [INFEASIBLE, 1, 1]])
    reduced, removed = preprocess(inst, 100)
    assert removed == 1
    assert reduced.times[0] == (1, INFEASIBLE, INFEASIBLE)


def test_preprocess_preserves_optimum():
    """Reducing at c = optimum never removes every optimal solution."""
    rng = random.Random(616)
    checked = 0
    for k in range(50):
        inst = random_instance(rng, n_max=6, m_max=3, name=f"p{k}")
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        reduced, _ = preprocess(inst, opt)     # must not raise
        assert brute_force_optimum(reduced) == opt
        checked += 1
    assert checked >= 35


def test_preprocess_exhaustive_search_proves_infeasible_cycle():
    # four independent tasks of time 3 for both workers: at c = 5 each
    # station holds one task, so no sole-worker step fires, but the
    # exhaustive search rules 5 out; at c = 6 two tasks fit per station
    inst = Instance(4, 2, [[3] * 4, [3] * 4], [])
    with pytest.raises(CycleInfeasibleError, match="exhaustive search"):
        preprocess(inst, 5)
    assert preprocess(inst, 6) == (inst, 0)


def test_preprocess_never_rejects_a_feasible_cycle():
    """The proofs that let the search skip a cycle fire only on cycles
    below the optimum; the exhaustive search fires on some of them that
    the sole-worker step leaves open."""
    rng = random.Random(0xB10C)
    by_search = 0
    for _ in range(150):
        inst = random_instance(rng)
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        for c in range(max(1, opt - 4), opt + 3):
            try:
                preprocess(inst, c)
            except CycleInfeasibleError as exc:
                assert c < opt, (inst.name, c, opt)
                by_search += "exhaustive search" in str(exc)
    assert by_search > 0


def test_preprocess_raises_exactly_below_the_optimum():
    """On lines of at most 8 tasks and 4 workers the two proofs, the
    exhaustive search within its budget among them, rule out every cycle
    below the optimum and no other."""
    rng = random.Random(0xE8A)
    checked = 0
    for k in range(200):
        inst = random_instance(rng, name=f"e{k}")
        opt = brute_force_optimum(inst)
        if opt is None:
            continue
        for c in range(1, opt + 3):
            try:
                preprocess(inst, c)
                raised = False
            except CycleInfeasibleError:
                raised = True
            assert raised == (c < opt), (inst.name, c, opt)
            checked += 1
    assert checked >= 2000


def test_exhaustive_search_gives_up_on_a_70x10_line():
    """At and just above the static bound of a 70x10 line, far below any
    cycle the heuristics reach, the exhaustive search ends without a
    proof."""
    rng = random.Random(70)
    times = tuple(rng.randint(1, 10) for _ in range(70))
    edges = tuple((i, j) for j in range(1, 70)
                  for i in range(max(0, j - 6), j) if rng.random() < 0.25)
    inst = generate(BaseInstance("line70", times, edges),
                    GeneratorConfig(n_workers=10, variability="low",
                                    infeasibility_density=0.1, rng_seed=7))
    best = compute_bounds(inst).best
    cycle = solve_lower_bound_search(inst, TaskRule.MAX_PW_MIN,
                                     WorkerRule.MIN_RLB, "both").cycle
    assert cycle > best + 3
    for c in range(best, best + 3):
        try:
            preprocess(inst, c)
        except CycleInfeasibleError as exc:
            assert "exhaustive search" not in str(exc), c


def test_no_exhaustive_proof_without_budget(monkeypatch):
    """With no scans to spend the exhaustive search proves nothing, and
    the searches and decodes find what they find at the real budget:
    the proof only skips cycles where no assembly can succeed."""
    rng = random.Random(0xB0D)
    cases = []
    for k in range(25):
        inst = random_instance(rng, name=f"z{k}")
        chroms = [_random_chromosome(inst, rng) for _ in range(3)]
        cases.append((inst, chroms))

    def outcomes():
        out, proofs = [], 0
        for inst, chroms in cases:
            for c in range(1, compute_bounds(inst).best + 6):
                try:
                    preprocess(inst, c)
                except CycleInfeasibleError as exc:
                    proofs += "exhaustive search" in str(exc)
            out.append([(r.config, r.cycle) for r in run_all_96(inst, True)])
            for chrom in chroms:
                try:
                    sol, fit = decode(inst, chrom)
                    out.append((asdict(sol), vars(fit)))
                except NoFeasibleAssignmentError:
                    out.append(None)
        return out, proofs

    real, real_proofs = outcomes()
    monkeypatch.setattr(bounds, "SEARCH_SCANS", 0)
    starved, starved_proofs = outcomes()
    assert real_proofs > 0 and starved_proofs == 0
    assert starved == real


def test_preprocess_leaves_no_cyclic_garbage(monkeypatch):
    """The exhaustive search's nested functions call each other; the
    search drops them as it returns, so its tables go at once and
    `preprocess` leaves nothing for the cyclic collector."""
    search, searched = bounds._no_assignment, []

    def counted(*args):
        searched.append(args[-1])
        return search(*args)

    monkeypatch.setattr(bounds, "_no_assignment", counted)
    rng = random.Random(0x6C)
    lines = [generate(random_base(rng, 8),
                      GeneratorConfig(n_workers=3,
                                      variability=rng.choice(["low", "high"]),
                                      infeasibility_density=0.1,
                                      rng_seed=k))
             for k in range(30)]
    gc.collect()
    gc.disable()
    try:
        for inst in lines:
            start = lc1(inst)
            for c in range(start, start + 3):
                try:
                    preprocess(inst, c)
                except CycleInfeasibleError:
                    pass
        garbage = gc.collect()
    finally:
        gc.enable()
    assert len(searched) >= 60
    assert garbage == 0
