"""Command-line front end of the solver kit.

Subcommands: `bounds` (lower-bound report with an argmax tally),
`construct` (priority-rule runs with deviation statistics against best
known values), `hga` (multi-seed genetic algorithm runs with incumbent
logs), `generate` (factorial instance generation from a base), and
`export-lp` (mixed-integer model file).

All reports are plain CSV with a header row.  Exit status is 0 only
when every requested item succeeded; partial results are still written
and each failed item gets one `error:` line on stderr.  Bad arguments
give exit status 2, after the usage and one `error:` line, before any
input is read or any output is made.  Numeric options are read by the
ASCII decimal rule of the instance files (`instance.read_decimal`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from functools import cache
from itertools import product
from pathlib import Path

from .bounds import compute_bounds
from .constructive import (DIRECTIONS, NoFeasibleAssignmentError, RuleConfig,
                           TaskRule, WorkerRule, all_rule_configs,
                           run_configs, solve_lower_bound_search)
from .generator import (DENSITY_LEVELS, VARIABILITY_FACTOR, GeneratorConfig,
                        generate)
from .hga import HgaParams, evolve
from .instance import (load_base, load_instance, read_decimal, relax_sidecar,
                       save_instance)
from .lp import export_lp
from .reports import (BOUNDS, CONSTRUCT_RUNS, CONSTRUCT_SUMMARY, HGA_LOG,
                      HGA_RUNS, HGA_SUMMARY, BkvError, deviation_pct,
                      load_bkv, mean, summarize, write_csv)


def _report_dir(out) -> Path:
    """`out`, created before any input is read or any search is run."""
    Path(out).mkdir(parents=True, exist_ok=True)
    return Path(out)


def _fail(errors, msg):
    """Report one failure, of an item or of the whole command, on stderr
    and record it in `errors`, the list `main` hands the command and
    reads the exit status from."""
    print(f"error: {msg}", file=sys.stderr)
    errors.append(msg)


def _write(path, columns, records, say=True):
    """Write one report with `write_csv` and, with `say`, print its
    `wrote` line."""
    write_csv(path, columns, records)
    if say:
        print(f"wrote {path}")


def _load_all(paths, errors, with_relax=False):
    """Instances that load, as (instance, relaxation bound) pairs; the
    bound comes from the sidecar with `with_relax`, else it is None.
    Each file that does not load, or whose sidecar does not parse, fails
    its item through `_fail`, and so does a file whose instance name (its
    stem) an earlier file of the batch took, as the reports, the GA logs
    and the `--bkv` table key every row by that name."""
    loaded, seen = [], {}       # seen: instance name -> its file
    for path in paths:
        try:
            inst = load_instance(path)
            relax = relax_sidecar(path) if with_relax else None
        except Exception as exc:
            _fail(errors, f"{path}: {exc}")
            continue
        if inst.name in seen:
            _fail(errors, f"{path}: instance name {inst.name!r} is also "
                          f"that of {seen[inst.name]}")
            continue
        seen[inst.name] = path
        loaded.append((inst, relax))
    return loaded


def _best_known(bkv, name):
    """`name`'s value in the `--bkv` table `bkv` (None without a table);
    warns on stderr when the table lacks it."""
    if bkv is not None and name not in bkv:
        print(f"warning: no best known value for {name}", file=sys.stderr)
    return None if bkv is None else bkv.get(name)


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args, errors):
    out = _report_dir(args.out) / "bounds.csv"
    records = []
    for inst, relax in _load_all(args.instances, errors, with_relax=True):
        if inst.name == "TALLY":
            _fail(errors, f"instance name 'TALLY' is that of the tally row "
                          f"of {out}")
            continue
        report = compute_bounds(inst, relax)
        lcs = {"lc1": report.lc1, "lc2": report.lc2, "lc3": report.lc3}
        top = max(lcs.values())
        records.append({"instance": inst.name, **lcs,
                        "relax": report.external_relax, "best": report.best,
                        **{f"{k}_max": int(v == top) for k, v in lcs.items()}})
    # the tally counts, per bound, the instances where it is the largest
    flags = ("lc1_max", "lc2_max", "lc3_max")
    records.append({"instance": "TALLY",
                    **{k: sum(r[k] for r in records) for k in flags}})
    _write(out, BOUNDS, records)


# -- construct ----------------------------------------------------------------

def cmd_construct(args, errors):
    if args.all_96 == (args.rule is not None):
        args.parser.error("exactly one of --rule or --all-96 is required")
    if args.all_96 and (args.worker_rule or args.direction):
        args.parser.error("--worker-rule and --direction go with --rule, "
                          "not with --all-96")
    configs = all_rule_configs() if args.all_96 else [RuleConfig(
        TaskRule(args.rule),
        WorkerRule(args.worker_rule or WorkerRule.MIN_RLB),
        args.direction or "forward")]
    out_dir = _report_dir(args.out)
    bkv = load_bkv(args.bkv) if args.bkv else None
    records = []
    by_config = {cfg: [] for cfg in configs}    # solved run records
    bests = []                                  # solved best records
    for inst, _ in _load_all(args.instances, errors):
        known = _best_known(bkv, inst.name)
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

    _write(out_dir / "construct_runs.csv", CONSTRUCT_RUNS, records)
    if args.bkv:
        summary = [{"task_rule": cfg.task_rule.value,
                    "worker_rule": cfg.worker_rule.value,
                    "direction": cfg.direction, **summarize(runs)}
                   for cfg, runs in by_config.items()]
        summary.append({"task_rule": "BestOverAll", **summarize(bests)})
        _write(out_dir / "construct_summary.csv", CONSTRUCT_SUMMARY, summary)


# -- hga ----------------------------------------------------------------------

def cmd_hga(args, errors):
    try:
        params = HgaParams(p=args.population, p_e=args.elite,
                           p_r=args.immigrants, q=args.q,
                           max_iters=args.max_iters,
                           max_stale_iters=args.max_stale,
                           stop_at_lower_bound=not args.no_bound_stop)
    except ValueError as exc:
        args.parser.error(str(exc))
    out_dir = _report_dir(args.out)
    bkv = load_bkv(args.bkv) if args.bkv else None
    records, summary = [], []
    for inst, relax in _load_all(args.instances, errors, with_relax=True):
        known = _best_known(bkv, inst.name)
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
            _write(out_dir / f"{inst.name}.seed{seed}.log.csv", HGA_LOG,
                   [asdict(e) for e in res.log], say=False)
        best = min((r["cycle"] for r in solved), default=None)
        summary.append({
            "instance": inst.name, "runs": len(solved), "best_cycle": best,
            "best_dev_pct": deviation_pct(best, known),
            "avg_dev_pct": mean([r["dev_pct"] for r in solved
                                 if r["dev_pct"] is not None]),
            "avg_time_s": mean([r["elapsed_s"] for r in solved]),
            "avg_time_to_best_s": mean([r["time_to_best_s"]
                                        for r in solved])})

    _write(out_dir / "hga_runs.csv", HGA_RUNS, records)
    _write(out_dir / "hga_summary.csv", HGA_SUMMARY, summary)


# -- generate -----------------------------------------------------------------

def cmd_generate(args, errors):
    # "both" stands for every level the generator defines, in its order
    variabilities = (VARIABILITY_FACTOR if args.variability == "both"
                     else [args.variability])
    densities = DENSITY_LEVELS if args.density == "both" else [args.density]
    items = []      # (name suffix, config), seeded in this order
    try:
        for var, dens, rep in product(variabilities, densities,
                                      range(args.replicates)):
            pct = round(DENSITY_LEVELS[dens] * 100)
            items.append((f"_w{args.workers}_var{var}_inf{pct:02d}_{rep:02d}",
                          GeneratorConfig(args.workers, var,
                                          DENSITY_LEVELS[dens],
                                          args.seed + len(items))))
    except ValueError as exc:
        args.parser.error(str(exc))
    out_dir = _report_dir(args.out)
    try:
        base = load_base(args.base)
    except Exception as exc:
        _fail(errors, f"{args.base}: {exc}")
        return
    for suffix, cfg in items:
        name = base.name + suffix
        try:
            save_instance(generate(base, cfg), out_dir / f"{name}.alwabp")
        except Exception as exc:
            _fail(errors, f"{name}: {exc}")
    print(f"wrote {len(items) - len(errors)} instances to {out_dir}")


# -- export-lp ----------------------------------------------------------------

def cmd_export_lp(args, errors):
    for inst, _ in _load_all([args.instance], errors):
        out = Path(args.out) if args.out else Path(f"{args.instance}.lp")
        out.write_text(export_lp(inst, relaxed=args.relaxed), encoding="utf-8")
        print(f"wrote {out}")


# -- parser -------------------------------------------------------------------

class _BadArguments(Exception):
    """What argparse would exit on; `main` reports it and returns 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose `error` prints the usage and raises
    `_BadArguments`, which `main` reports as one `error:` line and status
    2.  Each subcommand's parser is `args.parser`, so a command refuses
    the arguments the library refuses (an `HgaParams`, say) the same
    way, before any input is read."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _BadArguments(message)


def _decimal(kind=int, least=None):
    """An option type: the option's text as a `kind` (int or float) by
    the ASCII decimal rule, of at least `least` when that is given."""
    def read(text):
        value = read_decimal(text, kind)
        if value is None or (least is not None and value < least):
            want = "an integer" if kind is int else "a number"
            floor = "" if least is None else f", at least {least}"
            raise argparse.ArgumentTypeError(
                f"expected {want} in ASCII decimal digits{floor}, got "
                f"{text!r}")
        return value
    return read


@cache     # built on first use, not at import, then reused
def _build_parser():
    parser = _Parser(
        prog="alwabp",
        description="Heuristics, bounds and reports for assembly line "
                    "worker assignment and balancing (type 2).")
    sub = parser.add_subparsers(dest="command", required=True)
    batch = argparse.ArgumentParser(add_help=False)     # the batch commands
    batch.add_argument("instances", nargs="+")
    batch.add_argument("--out", default=".", help="report directory")
    scored = argparse.ArgumentParser(add_help=False)    # and the deviations
    scored.add_argument("--bkv",
                        help="CSV of best known values (instance,cycle)")

    b = sub.add_parser("bounds", parents=[batch],
                       help="lower-bound report for instances")
    b.set_defaults(func=cmd_bounds, parser=b)

    c = sub.add_parser("construct", parents=[batch, scored],
                       help="priority-rule constructive runs")
    c.add_argument("--rule", choices=[r.value for r in TaskRule],
                   help="task priority rule")
    c.add_argument("--worker-rule", choices=[r.value for r in WorkerRule],
                   help="worker rule, with --rule only (default: "
                        f"{WorkerRule.MIN_RLB.value})")
    c.add_argument("--direction", choices=DIRECTIONS,
                   help="with --rule only (default: forward)")
    c.add_argument("--all-96", action="store_true",
                   help="run every rule/worker-rule/direction combination")
    c.add_argument("--preprocess", action="store_true",
                   help="run the assemblies on the times reduced at each "
                        "tentative cycle")
    c.set_defaults(func=cmd_construct, parser=c)

    h = sub.add_parser("hga", parents=[batch, scored],
                       help="hybrid genetic algorithm runs")
    h.add_argument("--seeds", type=_decimal(least=1), default=1,
                   help="number of differently seeded runs per instance")
    h.add_argument("--seed", type=_decimal(), default=0, help="first seed")
    # the GA's defaults are read off `HgaParams`, which alone states them
    h.add_argument("--population", type=_decimal(), default=HgaParams.p)
    h.add_argument("--elite", type=_decimal(), default=HgaParams.p_e)
    h.add_argument("--immigrants", type=_decimal(), default=HgaParams.p_r)
    h.add_argument("--q", type=_decimal(float), default=HgaParams.q,
                   help="crossover probability")
    h.add_argument("--max-iters", type=_decimal(), default=HgaParams.max_iters)
    h.add_argument("--max-stale", type=_decimal(),
                   default=HgaParams.max_stale_iters)
    h.add_argument("--no-bound-stop", action="store_true",
                   help="keep evolving even at the lower bound")
    h.set_defaults(func=cmd_hga, parser=h)

    g = sub.add_parser("generate", help="derive worker-time instances "
                                        "from a base instance")
    g.add_argument("base", help="base file: times and precedence")
    g.add_argument("--workers", type=_decimal(), required=True)
    g.add_argument("--variability", choices=[*VARIABILITY_FACTOR, "both"],
                   default="both")
    g.add_argument("--density", choices=[*DENSITY_LEVELS, "both"],
                   default="both", help="infeasible-pair density level")
    g.add_argument("--replicates", type=_decimal(least=1), default=10)
    g.add_argument("--seed", type=_decimal(), default=0)
    g.add_argument("--out", default=".", help="output directory")
    g.set_defaults(func=cmd_generate, parser=g)

    e = sub.add_parser("export-lp", help="write the MILP in LP format")
    e.add_argument("instance")
    e.add_argument("--out", help="output file (default: <instance>.lp)")
    e.add_argument("--relaxed", action="store_true",
                   help="continuous relaxation instead of binaries")
    e.set_defaults(func=cmd_export_lp, parser=e)
    return parser


def main(argv=None) -> int:
    errors = []     # the failed items, each reported through `_fail`
    try:
        args = _build_parser().parse_args(argv)
        args.func(args, errors)
    except _BadArguments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BkvError as exc:
        _fail(errors, str(exc))
    except OSError as exc:      # an output file cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        _fail(errors, f"{where}{exc.strerror or exc}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
