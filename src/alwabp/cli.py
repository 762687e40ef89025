"""Command-line front end and benchmark harness.

Subcommands: `bounds` (lower-bound report with an argmax tally),
`construct` (priority-rule runs with deviation statistics against best
known values), `hga` (multi-seed genetic algorithm runs with incumbent
logs), `generate` (factorial instance generation from a base), and
`export-lp` (mixed-integer model file).

All reports are plain CSV with a header row.  Exit status is 0 only
when every requested item succeeded; partial results are still written
and each failed item gets one `error:` line on stderr.  Bad arguments
give exit status 2 before any input is read or any output is made.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

from .bounds import compute_bounds, relax_sidecar
from .constructive import (NoFeasibleAssignmentError, RuleConfig, TaskRule,
                           WorkerRule, all_rule_configs, run_configs,
                           solve_lower_bound_search)
from .generator import DENSITY_LEVELS, GeneratorConfig, generate
from .hga import HgaParams, evolve
from .instance import load_base, load_instance, save_instance
from .lp import write_lp
from .reports import (BOUNDS, CONSTRUCT_RUNS, CONSTRUCT_SUMMARY, HGA_LOG,
                      HGA_RUNS, HGA_SUMMARY, BkvError, deviation_pct,
                      load_bkv, mean, summarize, write_csv)


def _report_dir(out) -> Path:
    """`out`, created before any input is read or any search is run."""
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _fail(errors, msg):
    """Report one failed item on stderr and record it in `errors`."""
    print(f"error: {msg}", file=sys.stderr)
    errors.append(msg)


def _load_all(paths, errors, with_relax=False):
    """Instances that load, as (instance, relaxation bound) pairs; the
    bound comes from the sidecar with `with_relax`, else it is None.
    Each file that does not load, or whose sidecar does not parse, fails
    its item through `_fail`."""
    loaded = []
    for path in paths:
        try:
            loaded.append((load_instance(path),
                           relax_sidecar(path) if with_relax else None))
        except Exception as exc:
            _fail(errors, f"{path}: {exc}")
    return loaded


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args) -> int:
    out = _report_dir(args.out) / "bounds.csv"
    errors = []
    records = []
    tally = {"lc1_max": 0, "lc2_max": 0, "lc3_max": 0}
    for inst, relax in _load_all(args.instances, errors, with_relax=True):
        report = compute_bounds(inst, relax)
        lcs = {"lc1": report.lc1, "lc2": report.lc2, "lc3": report.lc3}
        top = max(lcs.values())
        flags = {f"{k}_max": int(v == top) for k, v in lcs.items()}
        for k, v in flags.items():
            tally[k] += v
        records.append({"instance": inst.name, **lcs,
                        "relax": report.external_relax, "best": report.best,
                        **flags})
    records.append({"instance": "TALLY", **tally})
    write_csv(out, BOUNDS, records)
    print(f"wrote {out}")
    return 1 if errors else 0


# -- construct ----------------------------------------------------------------

def cmd_construct(args) -> int:
    try:
        if args.all_96 == (args.rule is not None):
            raise ValueError("exactly one of --rule or --all-96 is required")
        if args.all_96 and (args.worker_rule or args.direction):
            raise ValueError("--worker-rule and --direction go with --rule, "
                             "not with --all-96")
        configs = all_rule_configs() if args.all_96 else [RuleConfig(
            TaskRule(args.rule),
            WorkerRule(args.worker_rule or WorkerRule.MIN_RLB),
            args.direction or "forward")]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = _report_dir(args.out)
    bkv = load_bkv(args.bkv) if args.bkv else {}
    errors = []

    records = []
    by_config = {cfg: [] for cfg in configs}    # solved run records
    bests = []                                  # solved best records
    for inst, _ in _load_all(args.instances, errors):
        known = bkv.get(inst.name)
        if args.bkv and known is None:
            print(f"warning: no best known value for {inst.name}",
                  file=sys.stderr)
        best, total = None, 0.0
        # the search is looked up in this module at each call, so a wrapper
        # installed on `cli.solve_lower_bound_search` (a tracer, say) sees
        # every search
        for run in run_configs(inst, configs, args.preprocess,
                               _search=solve_lower_bound_search):
            cfg, cycle = run.config, run.cycle
            if run.error is not None:
                _fail(errors, f"{inst.name} {cfg.label}: {run.error}")
            rec = {"kind": "run", "instance": inst.name,
                   "task_rule": cfg.task_rule.value,
                   "worker_rule": cfg.worker_rule.value,
                   "direction": cfg.direction, "cycle": cycle, "bkv": known,
                   "dev_pct": deviation_pct(cycle, known),
                   "elapsed_s": round(run.elapsed, 4)}
            records.append(rec)
            total += rec["elapsed_s"]
            if cycle is not None:
                by_config[cfg].append(rec)
                best = cycle if best is None else min(best, cycle)
        rec = {"kind": "best", "instance": inst.name, "cycle": best,
               "bkv": known, "dev_pct": deviation_pct(best, known),
               "elapsed_s": round(total, 4)}
        records.append(rec)
        if best is not None:
            bests.append(rec)

    out = out_dir / "construct_runs.csv"
    write_csv(out, CONSTRUCT_RUNS, records)
    print(f"wrote {out}")

    if args.bkv:
        summary = [{"task_rule": cfg.task_rule.value,
                    "worker_rule": cfg.worker_rule.value,
                    "direction": cfg.direction, **summarize(runs)}
                   for cfg, runs in by_config.items()]
        summary.append({"task_rule": "BestOverAll", **summarize(bests)})
        sout = out_dir / "construct_summary.csv"
        write_csv(sout, CONSTRUCT_SUMMARY, summary)
        print(f"wrote {sout}")
    return 1 if errors else 0


# -- hga ----------------------------------------------------------------------

def cmd_hga(args) -> int:
    try:
        params = HgaParams(p=args.population, p_e=args.elite,
                           p_r=args.immigrants, q=args.q,
                           max_iters=args.max_iters,
                           max_stale_iters=args.max_stale,
                           stop_at_lower_bound=not args.no_bound_stop)
        if args.seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = _report_dir(args.out)
    bkv = load_bkv(args.bkv) if args.bkv else {}
    errors = []

    records, summary = [], []
    for inst, relax in _load_all(args.instances, errors, with_relax=True):
        known = bkv.get(inst.name)
        if args.bkv and known is None:
            print(f"warning: no best known value for {inst.name}",
                  file=sys.stderr)
        solved = []
        for seed in range(args.seed, args.seed + args.seeds):
            try:
                res = evolve(inst, replace(params, rng_seed=seed),
                             external_relax=relax)
            except NoFeasibleAssignmentError as exc:
                _fail(errors, f"{inst.name} seed {seed}: {exc}")
                records.append({"instance": inst.name, "seed": seed,
                                "reason": "infeasible"})
                continue
            fit = res.fitness
            rec = {"instance": inst.name, "seed": seed, "cycle": fit.cycle,
                   "norm_load": fit.norm_load, "bkv": known,
                   "dev_pct": deviation_pct(fit.cycle, known),
                   "iterations": res.iterations, "reason": res.reason,
                   "elapsed_s": round(res.log[-1].seconds, 4),
                   "time_to_best_s": next(
                       round(e.seconds, 4) for e in res.log
                       if e.cycle == fit.cycle
                       and e.norm_load == fit.norm_load)}
            records.append(rec)
            solved.append(rec)
            write_csv(out_dir / f"{inst.name}.seed{seed}.log.csv", HGA_LOG,
                      [asdict(e) for e in res.log])
        best = min((r["cycle"] for r in solved), default=None)
        summary.append({
            "instance": inst.name, "runs": len(solved), "best_cycle": best,
            "best_dev_pct": deviation_pct(best, known),
            "avg_dev_pct": mean([r["dev_pct"] for r in solved
                                 if r["dev_pct"] is not None]),
            "avg_time_s": mean([r["elapsed_s"] for r in solved]),
            "avg_time_to_best_s": mean([r["time_to_best_s"]
                                        for r in solved])})

    write_csv(out_dir / "hga_runs.csv", HGA_RUNS, records)
    write_csv(out_dir / "hga_summary.csv", HGA_SUMMARY, summary)
    print(f"wrote {out_dir / 'hga_runs.csv'}")
    print(f"wrote {out_dir / 'hga_summary.csv'}")
    return 1 if errors else 0


# -- generate -----------------------------------------------------------------

def cmd_generate(args) -> int:
    levels = {"low": ["low"], "high": ["high"], "both": ["low", "high"]}
    items = []      # (name suffix, config), seeded in this order
    try:
        if args.replicates < 1:
            raise ValueError(
                f"--replicates must be at least 1, got {args.replicates}")
        for var, dens, rep in product(levels[args.variability],
                                      levels[args.density],
                                      range(args.replicates)):
            pct = round(DENSITY_LEVELS[dens] * 100)
            items.append((f"_w{args.workers}_var{var}_inf{pct:02d}_{rep:02d}",
                          GeneratorConfig(args.workers, var,
                                          DENSITY_LEVELS[dens],
                                          args.seed + len(items))))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = _report_dir(args.out)
    errors = []
    try:
        base = load_base(args.base)
    except Exception as exc:
        _fail(errors, f"{args.base}: {exc}")
        return 1
    for suffix, cfg in items:
        name = base.name + suffix
        try:
            save_instance(generate(base, cfg), out_dir / f"{name}.alwabp")
        except Exception as exc:
            _fail(errors, f"{name}: {exc}")
    print(f"wrote {len(items) - len(errors)} instances to {out_dir}")
    return 1 if errors else 0


# -- export-lp ----------------------------------------------------------------

def cmd_export_lp(args) -> int:
    errors = []
    for inst, _ in _load_all([args.instance], errors):
        out = Path(args.out) if args.out else Path(f"{args.instance}.lp")
        write_lp(inst, out, relaxed=args.relaxed)
        print(f"wrote {out}")
    return 1 if errors else 0


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
                   help="worker rule, with --rule only (default: "
                        f"{WorkerRule.MIN_RLB.value})")
    c.add_argument("--direction", choices=["forward", "backward"],
                   help="with --rule only (default: forward)")
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
    try:
        return args.func(args)
    except BkvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # an output file cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
