"""Release gate: ten end-to-end checks, one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <nn> <name>: PASS|FAIL

directly to the terminal (capture disabled), so a full `pytest -v` run
always shows the per-criterion verdicts.  The heavyweight fixtures (a
200-instance oracle corpus, a 100-instance benchmark sweep) are shared
across the checks that need them.
"""

from __future__ import annotations

import csv
import random
import time
from contextlib import contextmanager

import pytest

from alwabp import (
    BaseInstance,
    GeneratorConfig,
    HgaParams,
    Instance,
    TaskRule,
    WorkerRule,
    all_rule_configs,
    compute_bounds,
    decode,
    encode_rule,
    evolve,
    generate,
    run_all_96,
    save_instance,
    solve_lower_bound_search,
)
from alwabp.bounds import CycleInfeasibleError, preprocess
from alwabp.cli import main
from bruteforce import brute_force_optimum, bwa_cycle
from conftest import random_instance
from lpsolve import parse_lp, solve_lp_text
from stations import assemble, score_worker


@contextmanager
def gate(capsys, label):
    """Print the one-line verdict for a check, pass or fail."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: PASS", flush=True)


def make_base(n, seed, name="line"):
    """Layered random base: times U[1,10], edges only a few ranks apart."""
    rng = random.Random(seed)
    times = tuple(rng.randint(1, 10) for _ in range(n))
    edges = tuple((i, j) for j in range(1, n)
                  for i in range(max(0, j - 6), j)
                  if rng.random() < 0.25)
    return BaseInstance(name, times, edges)


@pytest.fixture(scope="module")
def corpus():
    """200 seeded small instances with their exact optima."""
    rng = random.Random(0xACCE)
    pairs = []
    for k in range(200):
        inst = random_instance(rng, name=f"acc{k}")
        pairs.append((inst, brute_force_optimum(inst)))
    assert all(opt is not None for _, opt in pairs)
    return pairs


TINY = Instance(3, 2, [[2, 3, 4], [5, 1, 1]], [(0, 1), (0, 2)], name="tiny-A")


def test_acceptance_01_oracle_floor_and_match_rate(corpus, capsys):
    """Heuristics never beat the exact optimum; the GA almost always
    finds it on small instances; the whole sweep stays under a minute."""
    with gate(capsys, "01 oracle-floor-and-match-rate"):
        t0 = time.perf_counter()
        for inst, opt in corpus:
            for row in run_all_96(inst):
                assert row.cycle is not None, (inst.name, row.config.label)
                assert row.cycle >= opt, (inst.name, row.config.label)
        sweep = time.perf_counter() - t0

        matches = 0
        for inst, opt in corpus:
            best = None
            for j in range(3):
                res = evolve(inst, HgaParams(p=100, q=0.5, max_iters=6,
                                             max_stale_iters=3,
                                             rng_seed=1000 + j))
                assert res.fitness.cycle >= opt, inst.name
                if best is None or res.fitness.cycle < best:
                    best = res.fitness.cycle
            matches += int(best == opt)
        elapsed = time.perf_counter() - t0
        assert matches >= 0.95 * len(corpus), f"only {matches}/200 optimal"
        assert elapsed < 60.0, (f"took {elapsed:.1f}s (sweep {sweep:.1f}s, "
                                f"GA {elapsed - sweep:.1f}s)")


def test_acceptance_02_bounds_never_exceed_optimum(corpus, capsys):
    with gate(capsys, "02 bounds-below-optimum"):
        for inst, opt in corpus:
            report = compute_bounds(inst)
            assert report.best <= opt, (inst.name, report, opt)
            # reduction at the true optimum must never prove it impossible
            try:
                preprocess(inst, opt)
            except CycleInfeasibleError:
                raise AssertionError(f"{inst.name}: c={opt} rejected")


def test_acceptance_03_hand_trace_values(capsys):
    """The worked 3-task example reproduces every pinned number."""
    with gate(capsys, "03 hand-trace-fixture"):
        report = compute_bounds(TINY)
        assert (report.lc1, report.lc2, report.lc3) == (2, 2, 2)
        assert report.best == 2

        sol = assemble(TINY, 2, TaskRule.MAX_F, WorkerRule.MIN_RLB)
        assert sol.stations == ((0, (0,)), (1, (1, 2)))
        assert sol.cycle == 2

        all_tasks = {0, 1, 2}
        s0 = score_worker(TINY, all_tasks, {0, 1}, 0, {0}, WorkerRule.MIN_RLB)
        s1 = score_worker(TINY, all_tasks, {0, 1}, 1, set(),
                          WorkerRule.MIN_RLB)
        assert (s0, s1) == (2.0, 9.0)

        assert bwa_cycle(TINY, all_tasks, {0, 1}) == 2

        _, fit = decode(TINY, encode_rule(TINY, TaskRule.MAX_F))
        assert fit.cycle == 2 and fit.norm_load == 1.0


def _censor_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [k for k, name in enumerate(rows[0])
            if not name.endswith("_s") and name != "seconds"]
    return "\n".join(",".join(row[k] for k in keep) for row in rows)


def test_acceptance_04_reports_are_deterministic(tmp_path, capsys):
    """Two identical invocations produce identical CSV bytes, wall-clock
    columns aside."""
    with gate(capsys, "04 deterministic-reports"):
        paths = []
        for k in range(2):
            base = make_base(12, 0x40 + k, f"det{k}")
            inst = generate(base, GeneratorConfig(n_workers=3,
                                                  variability="high",
                                                  infeasibility_density=0.10,
                                                  rng_seed=k))
            p = tmp_path / f"det{k}.alwabp"
            save_instance(inst, p)
            paths.append(str(p))

        snaps = []
        for tag in ("a", "b"):
            out = tmp_path / f"c_{tag}"
            assert main(["construct", *paths, "--all-96",
                         "--out", str(out)]) == 0
            snaps.append(_censor_timing(out / "construct_runs.csv"))
        assert snaps[0] == snaps[1]

        snaps = []
        for tag in ("a", "b"):
            out = tmp_path / f"h_{tag}"
            assert main(["hga", *paths, "--seeds", "3", "--seed", "42",
                         "--max-iters", "8", "--max-stale", "4",
                         "--out", str(out)]) == 0
            files = sorted(f.name for f in out.iterdir())
            snaps.append([(f, _censor_timing(out / f)) for f in files])
        assert snaps[0] == snaps[1]


def test_acceptance_05_rule_combinatorics(tmp_path, capsys):
    with gate(capsys, "05 rule-combinatorics"):
        assert len(TaskRule) == 16
        assert len(WorkerRule) == 3
        configs = all_rule_configs()
        assert len(configs) == 96
        assert len(set(configs)) == 96

        p = tmp_path / "tiny-A.alwabp"
        save_instance(TINY, p)
        assert main(["construct", str(p), "--all-96",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "construct_runs.csv", newline="") as fh:
            kinds = [row[0] for row in csv.reader(fh)][1:]
        assert kinds.count("run") == 96


def test_acceptance_06_population_dynamics(corpus, capsys, monkeypatch):
    """Incumbent logs never worsen; every generation rebuilds exactly p
    individuals; a small p keeps the best of the 16 rule seedings."""
    with gate(capsys, "06 population-dynamics"):
        for inst, _ in corpus[:20]:
            res = evolve(inst, HgaParams(p=20, max_iters=15,
                                         max_stale_iters=8,
                                         stop_at_lower_bound=False,
                                         rng_seed=6))
            keys = [(e.cycle, e.norm_load) for e in res.log]
            assert all(b <= a for a, b in zip(keys, keys[1:])), inst.name

        import alwabp.hga as hga_mod
        inst = corpus[0][0]
        real_decode = hga_mod.decode
        decoded = []

        def recording(instance, chromosome, *args, **kwargs):
            decoded.append(chromosome)
            return real_decode(instance, chromosome, *args, **kwargs)

        monkeypatch.setattr(hga_mod, "decode", recording)
        params = HgaParams(p=30, max_iters=5, max_stale_iters=99,
                           stop_at_lower_bound=False, rng_seed=3)
        res = evolve(inst, params)
        assert res.iterations == 5
        # 30 seed decodes, then p - p_e fresh individuals per generation
        # on top of the p_e carried elites: the population stays at p.
        assert len(decoded) == 30 + 5 * (params.p - params.p_e)

        # fewer slots than rules: generation 0 decodes exactly the 16 rule
        # encodings, and the incumbent is the best of them
        decoded.clear()
        res = evolve(inst, HgaParams(p=10, max_iters=0, rng_seed=0,
                                     stop_at_lower_bound=False))
        monkeypatch.undo()
        encodings = [encode_rule(inst, rule) for rule in TaskRule]
        assert decoded == encodings
        rule_fits = sorted(decode(inst, chrom)[1] for chrom in encodings)
        assert (res.iterations, res.fitness) == (0, rule_fits[0])


def test_acceptance_07_single_run_speed(capsys):
    """One rule configuration on a wide instance finishes well inside 1 s."""
    with gate(capsys, "07 single-run-speed"):
        base = make_base(75, 0xBEEF, "wide")
        inst = generate(base, GeneratorConfig(n_workers=19,
                                              variability="low",
                                              infeasibility_density=0.10,
                                              rng_seed=1))
        t0 = time.perf_counter()
        sol = solve_lower_bound_search(inst, TaskRule.MAX_PW_MIN,
                                       WorkerRule.MIN_RLB)
        elapsed = time.perf_counter() - t0
        assert sol.cycle >= compute_bounds(inst).best
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_acceptance_08_rule_quality_ordering(capsys):
    """Averaged over 100 benchmark instances, the positional-weight rule
    beats the plain shortest-time rule, and the best-over-all-rules value
    beats every single rule's average."""
    with gate(capsys, "08 rule-quality-ordering"):
        sums = {rule: 0 for rule in TaskRule}
        best_sum = 0
        count = 100
        for k in range(count):
            base = make_base(70, 7000 + k, f"bench{k}")
            inst = generate(base, GeneratorConfig(n_workers=10,
                                                  variability="low",
                                                  infeasibility_density=0.10,
                                                  rng_seed=100 + k))
            best = None
            for rule in TaskRule:
                sol = solve_lower_bound_search(inst, rule, WorkerRule.MIN_RLB)
                sums[rule] += sol.cycle
                if best is None or sol.cycle < best:
                    best = sol.cycle
            best_sum += best

        avg = {rule: sums[rule] / count for rule in TaskRule}
        assert avg[TaskRule.MAX_PW_MIN] <= avg[TaskRule.MIN_TIME_MIN], avg
        best_avg = best_sum / count
        for rule in TaskRule:
            assert best_avg <= avg[rule] + 1e-12, rule


def test_acceptance_09_generator_statistics(capsys):
    """Low-variability times have the predicted mean; the infeasible-cell
    count is exact."""
    with gate(capsys, "09 generator-statistics"):
        base = BaseInstance("flat30", (30,) * 100, ())
        draws = []
        for seed in range(10):
            inst = generate(base, GeneratorConfig(n_workers=10,
                                                  variability="low",
                                                  infeasibility_density=0.0,
                                                  rng_seed=seed))
            for row in inst.times:
                draws.extend(row)
        assert len(draws) == 10_000
        mean = sum(draws) / len(draws)
        # U[1,30]: mean 15.5, sd sqrt((30^2-1)/12); 3 sigma of the sample
        # mean over 10^4 draws is 0.2597
        assert abs(mean - 15.5) < 0.2597, mean

        for n, m, density in ((100, 10, 0.10), (100, 10, 0.20), (7, 3, 0.10)):
            b = BaseInstance("flat", (30,) * n, ())
            inst = generate(b, GeneratorConfig(n_workers=m,
                                               variability="low",
                                               infeasibility_density=density,
                                               rng_seed=4))
            inf_cells = sum(1 for row in inst.times for t in row
                            if t == float("inf"))
            assert inf_cells == round(density * n * m), (n, m, density)


def test_acceptance_10_exported_model_solves(capsys):
    """The LP file parses, has the expected shape, and an independent
    solver reproduces the known optimum."""
    with gate(capsys, "10 exported-model-solves"):
        from alwabp import export_lp

        text = export_lp(TINY)
        objective, constraints, bounds, binaries = parse_lp(text)
        names = ({v for _, coefs, _, _ in constraints for v in coefs}
                 | set(objective))
        assert len([v for v in names if v.startswith("x_")]) == 12
        assert len([v for v in names if v.startswith("y_")]) == 4
        assert "c" in names
        assert len(constraints) == 15
        assert len(binaries) == 16

        assert solve_lp_text(text) == pytest.approx(2.0)
        relaxed = solve_lp_text(export_lp(TINY, relaxed=True))
        assert relaxed is not None and relaxed <= 2.0 + 1e-9
