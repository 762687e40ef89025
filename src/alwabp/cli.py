"""Command-line front end and benchmark harness.

Subcommands: `bounds` (lower-bound report with an argmax tally),
`construct` (priority-rule runs with deviation statistics against best
known values), `hga` (multi-seed genetic algorithm runs with incumbent
logs), `generate` (factorial instance generation from a base), and
`export-lp` (mixed-integer model file).

All reports are plain CSV with a header row.  Exit status is 0 only
when every requested item succeeded; partial results are still written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import compute_bounds, relax_sidecar
from .constructive import (NoFeasibleAssignmentError, RuleConfig, TaskRule,
                           WorkerRule, all_rule_configs, run_configs,
                           solve_lower_bound_search)
from .generator import DENSITY_LEVELS, GeneratorConfig, generate
from .hga import HgaParams, evolve
from .instance import load_base, load_instance, save_instance
from .lp import write_lp
from .reports import (deviation_pct, fmt_agg, fmt_dev, fmt_time, load_bkv,
                      summarize, write_csv)


def _load_all(paths, with_relax=False):
    """Instances that load, as (path, instance) or, with `with_relax`,
    (path, instance, relaxation bound from the sidecar); each file that
    does not load, or whose sidecar does not parse, is reported on
    stderr and listed in the returned errors."""
    loaded, errors = [], []
    for path in paths:
        try:
            inst = load_instance(path)
            if with_relax:
                loaded.append((Path(path), inst, relax_sidecar(path)))
            else:
                loaded.append((Path(path), inst))
        except Exception as exc:
            errors.append(f"{path}: {exc}")
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    return loaded, errors


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args) -> int:
    loaded, errors = _load_all(args.instances, with_relax=True)
    rows = []
    tally = [0, 0, 0]
    for _, inst, relax in loaded:
        report = compute_bounds(inst, relax)
        top = max(report.lc1, report.lc2, report.lc3)
        flags = [int(report.lc1 == top), int(report.lc2 == top),
                 int(report.lc3 == top)]
        for k in range(3):
            tally[k] += flags[k]
        rows.append([inst.name, report.lc1, report.lc2, report.lc3,
                     fmt_agg(report.external_relax), report.best, *flags])
    rows.append(["TALLY", "", "", "", "", "", *tally])
    out = Path(args.out) / "bounds.csv"
    write_csv(out, ["instance", "lc1", "lc2", "lc3", "relax", "best",
                    "lc1_max", "lc2_max", "lc3_max"], rows)
    print(f"wrote {out}")
    return 1 if errors else 0


# -- construct ----------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.all_96:
        configs = all_rule_configs()
    else:
        if not args.rule:
            print("error: either --rule or --all-96 is required",
                  file=sys.stderr)
            return 2
        configs = [RuleConfig(TaskRule(args.rule),
                              WorkerRule(args.worker_rule), args.direction)]
    bkv = load_bkv(args.bkv) if args.bkv else {}
    loaded, errors = _load_all(args.instances)

    # the search is looked up in this module at each call, so a wrapper
    # installed on `cli.solve_lower_bound_search` (a tracer, say) sees
    # every search
    results = [run_configs(inst, configs, args.preprocess,
                           _search=solve_lower_bound_search)
               for _, inst in loaded]

    rows = []
    per_config = {cfg: {"devs": [], "times": []} for cfg in configs}
    best_agg = {"devs": [], "times": []}
    failed = False
    for (_, inst), runs in zip(loaded, results):
        known = bkv.get(inst.name)
        if args.bkv and known is None:
            print(f"warning: no best known value for {inst.name}",
                  file=sys.stderr)
        inst_best = None
        inst_time = 0.0
        for run in runs:
            cfg, cycle = run.config, run.cycle
            elapsed = round(run.elapsed, 4)
            inst_time += elapsed
            if run.error is not None:
                print(f"error: {inst.name} {cfg.label}: {run.error}",
                      file=sys.stderr)
                failed = True
            dev = (deviation_pct(cycle, known)
                   if cycle is not None and known is not None else None)
            rows.append(["run", inst.name, cfg.task_rule.value,
                         cfg.worker_rule.value, cfg.direction,
                         "" if cycle is None else cycle,
                         "" if known is None else known,
                         fmt_dev(dev), fmt_time(elapsed)])
            if cycle is not None:
                per_config[cfg]["times"].append(elapsed)
                if dev is not None:
                    per_config[cfg]["devs"].append(dev)
                if inst_best is None or cycle < inst_best:
                    inst_best = cycle
        best_dev = (deviation_pct(inst_best, known)
                    if inst_best is not None and known is not None else None)
        rows.append(["best", inst.name, "", "", "",
                     "" if inst_best is None else inst_best,
                     "" if known is None else known,
                     fmt_dev(best_dev), fmt_time(round(inst_time, 4))])
        if inst_best is not None:
            best_agg["times"].append(round(inst_time, 4))
            if best_dev is not None:
                best_agg["devs"].append(best_dev)

    out = Path(args.out) / "construct_runs.csv"
    write_csv(out, ["kind", "instance", "task_rule", "worker_rule",
                    "direction", "cycle", "bkv", "dev_pct", "elapsed_s"],
              rows)
    print(f"wrote {out}")

    if args.bkv:
        srows = []
        for cfg in configs:
            agg = summarize(per_config[cfg]["devs"], per_config[cfg]["times"])
            srows.append([cfg.task_rule.value, cfg.worker_rule.value,
                          cfg.direction, fmt_agg(agg["av_dev_pct"]),
                          fmt_agg(agg["max_dev_pct"]),
                          fmt_agg(agg["av_time_s"]),
                          fmt_agg(agg["max_time_s"])])
        agg = summarize(best_agg["devs"], best_agg["times"])
        srows.append(["BestOverAll", "", "", fmt_agg(agg["av_dev_pct"]),
                      fmt_agg(agg["max_dev_pct"]), fmt_agg(agg["av_time_s"]),
                      fmt_agg(agg["max_time_s"])])
        sout = Path(args.out) / "construct_summary.csv"
        write_csv(sout, ["task_rule", "worker_rule", "direction",
                         "av_dev_pct", "max_dev_pct", "av_time_s",
                         "max_time_s"], srows)
        print(f"wrote {sout}")
    return 1 if errors or failed else 0


# -- hga ----------------------------------------------------------------------

def _hga_one(inst, relax, params):
    try:
        res = evolve(inst, params, external_relax=relax)
    except NoFeasibleAssignmentError as exc:
        return None, str(exc)
    return res, None


def cmd_hga(args) -> int:
    bkv = load_bkv(args.bkv) if args.bkv else {}
    loaded, errors = _load_all(args.instances, with_relax=True)
    base = dict(p=args.population, q=args.q, max_iters=args.max_iters,
                max_stale_iters=args.max_stale,
                stop_at_lower_bound=not args.no_bound_stop)
    if args.elite is not None:
        base["p_e"] = args.elite
    if args.immigrants is not None:
        base["p_r"] = args.immigrants

    results = [_hga_one(inst, relax,
                        HgaParams(rng_seed=args.seed + j, **base))
               for _, inst, relax in loaded for j in range(args.seeds)]

    out_dir = Path(args.out)
    rows, srows = [], []
    failed = False
    k = 0
    for _, inst, _ in loaded:
        known = bkv.get(inst.name)
        if args.bkv and known is None:
            print(f"warning: no best known value for {inst.name}",
                  file=sys.stderr)
        cycles, devs, times, tbests = [], [], [], []
        for j in range(args.seeds):
            res, err = results[k]
            k += 1
            seed = args.seed + j
            if err is not None:
                print(f"error: {inst.name} seed {seed}: {err}",
                      file=sys.stderr)
                failed = True
                rows.append([inst.name, seed, "", "", "", "", "",
                             "infeasible", "", ""])
                continue
            elapsed = round(res.log[-1].seconds, 4)
            t_best = next(round(e.seconds, 4) for e in res.log
                          if e.cycle == res.fitness.cycle
                          and e.norm_load == res.fitness.norm_load)
            dev = (deviation_pct(res.fitness.cycle, known)
                   if known is not None else None)
            rows.append([inst.name, seed, res.fitness.cycle,
                         f"{res.fitness.norm_load:.6f}",
                         "" if known is None else known, fmt_dev(dev),
                         res.iterations, res.reason, fmt_time(elapsed),
                         fmt_time(t_best)])
            write_csv(out_dir / f"{inst.name}.seed{seed}.log.csv",
                      ["iteration", "cycle", "norm_load", "seconds"],
                      [[e.iteration, e.cycle, f"{e.norm_load:.6f}",
                        fmt_time(round(e.seconds, 4))] for e in res.log])
            cycles.append(res.fitness.cycle)
            times.append(elapsed)
            tbests.append(t_best)
            if dev is not None:
                devs.append(dev)
        if cycles:
            best_cycle = min(cycles)
            best_dev = (deviation_pct(best_cycle, known)
                        if known is not None else None)
            srows.append([inst.name, len(cycles), best_cycle,
                          fmt_dev(best_dev),
                          fmt_agg(sum(devs) / len(devs) if devs else None),
                          fmt_agg(sum(times) / len(times)),
                          fmt_agg(sum(tbests) / len(tbests))])
        else:
            srows.append([inst.name, 0, "", "", "", "", ""])

    write_csv(out_dir / "hga_runs.csv",
              ["instance", "seed", "cycle", "norm_load", "bkv", "dev_pct",
               "iterations", "reason", "elapsed_s", "time_to_best_s"], rows)
    write_csv(out_dir / "hga_summary.csv",
              ["instance", "runs", "best_cycle", "best_dev_pct",
               "avg_dev_pct", "avg_time_s", "avg_time_to_best_s"], srows)
    print(f"wrote {out_dir / 'hga_runs.csv'}")
    print(f"wrote {out_dir / 'hga_summary.csv'}")
    return 1 if errors or failed else 0


# -- generate -----------------------------------------------------------------

def cmd_generate(args) -> int:
    try:
        base = load_base(args.base)
    except Exception as exc:
        print(f"error: {args.base}: {exc}", file=sys.stderr)
        return 1
    var_levels = (["low", "high"] if args.variability == "both"
                  else [args.variability])
    dens_levels = (["low", "high"] if args.density == "both"
                   else [args.density])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    idx = 0
    written = 0
    status = 0
    for var in var_levels:
        for dens in dens_levels:
            pct = int(round(DENSITY_LEVELS[dens] * 100))
            for rep in range(args.replicates):
                cfg = GeneratorConfig(n_workers=args.workers,
                                      variability=var,
                                      infeasibility_density=
                                      DENSITY_LEVELS[dens],
                                      rng_seed=args.seed + idx)
                idx += 1
                name = (f"{base.name}_w{args.workers}_var{var}"
                        f"_inf{pct:02d}_{rep:02d}")
                try:
                    inst = generate(base, cfg)
                    save_instance(inst, out_dir / f"{name}.alwabp")
                    written += 1
                except Exception as exc:
                    print(f"error: {name}: {exc}", file=sys.stderr)
                    status = 1
    print(f"wrote {written} instances to {out_dir}")
    return status


# -- export-lp ----------------------------------------------------------------

def cmd_export_lp(args) -> int:
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(str(args.instance) + ".lp")
    write_lp(inst, out, relaxed=args.relaxed)
    print(f"wrote {out}")
    return 0


# -- parser -------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="alwabp",
        description="Heuristics, bounds and reports for assembly line "
                    "worker assignment and balancing (type 2).")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="lower-bound report for instances")
    b.add_argument("instances", nargs="+")
    b.add_argument("--out", default=".", help="report directory")
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("construct", help="priority-rule constructive runs")
    c.add_argument("instances", nargs="+")
    c.add_argument("--rule", choices=[r.value for r in TaskRule],
                   help="task priority rule")
    c.add_argument("--worker-rule", choices=[r.value for r in WorkerRule],
                   default=WorkerRule.MIN_RLB.value)
    c.add_argument("--direction", choices=["forward", "backward"],
                   default="forward")
    c.add_argument("--all-96", action="store_true",
                   help="run every rule/worker-rule/direction combination")
    c.add_argument("--preprocess", action="store_true",
                   help="reduce instances at each tentative cycle")
    c.add_argument("--bkv", help="CSV of best known values (instance,cycle)")
    c.add_argument("--out", default=".", help="report directory")
    c.set_defaults(func=cmd_construct)

    h = sub.add_parser("hga", help="hybrid genetic algorithm runs")
    h.add_argument("instances", nargs="+")
    h.add_argument("--seeds", type=int, default=1,
                   help="number of differently seeded runs per instance")
    h.add_argument("--seed", type=int, default=0, help="first seed")
    h.add_argument("--population", type=int, default=100)
    h.add_argument("--elite", type=int, default=None)
    h.add_argument("--immigrants", type=int, default=None)
    h.add_argument("--q", type=float, default=0.5,
                   help="crossover probability")
    h.add_argument("--max-iters", type=int, default=200)
    h.add_argument("--max-stale", type=int, default=100)
    h.add_argument("--no-bound-stop", action="store_true",
                   help="keep evolving even at the lower bound")
    h.add_argument("--bkv", help="CSV of best known values (instance,cycle)")
    h.add_argument("--out", default=".", help="report directory")
    h.set_defaults(func=cmd_hga)

    g = sub.add_parser("generate", help="derive worker-time instances "
                                        "from a base instance")
    g.add_argument("base", help="base file: times and precedence")
    g.add_argument("--workers", type=int, required=True)
    g.add_argument("--variability", choices=["low", "high", "both"],
                   default="both")
    g.add_argument("--density", choices=["low", "high", "both"],
                   default="both", help="infeasible-pair density level")
    g.add_argument("--replicates", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".", help="output directory")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("export-lp", help="write the MILP in LP format")
    e.add_argument("instance")
    e.add_argument("--out", help="output file (default: <instance>.lp)")
    e.add_argument("--relaxed", action="store_true",
                   help="continuous relaxation instead of binaries")
    e.set_defaults(func=cmd_export_lp)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
