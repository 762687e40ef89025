"""Benchmark of the alwabp solver kit.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--units U] [--record]

Run from the root of a checkout: the solver is imported from `src/`.
A run sets up its inputs from the seed (several times, reporting the
median set-up time), runs the workload once untimed by any tracer,
checks every output, and prints one JSON object as the last line of
standard output.  With `--trace 0` it holds the end-to-end metrics; with
`--trace 1` the same work runs a second time with every layer traced and
the line holds the per-layer metrics.  See bench/README.md.

The exit status is 0 only when every correctness check passed, the
traced pass reproduced the untraced outputs, and the output checksum
matches the one recorded for the seed (when one is recorded).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from layers import Tracer
from workloads import WORKLOADS, Items, reference_loop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHECKSUMS = BENCH / "checksums.json"
SETUP_REPEATS = 7
# median reference-loop time on the reference host (2 cores, Python 3.11)
REF_NOMINAL_S = 0.0033
MODULES = ("bounds", "cli", "constructive", "generator", "hga", "instance",
           "localsearch", "reports", "solution")

E2E_UNITS = {"setup_s": "s", "wall_norm": "ref", "item_norm_p50": "ref",
             "item_norm_p90": "ref", "peak_rss_mb": "MB",
             "mean_cycle": "cycles"}


def import_alwabp():
    """Import the package afresh, so each set-up pays for module loading."""
    for name in [m for m in sys.modules
                 if m == "alwabp" or m.startswith("alwabp.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"alwabp.{m}")
                              for m in MODULES})


def timed_pass(workload, mods, inputs, outdir, tracer=None):
    """Run the workload once; returns (outputs, items, work seconds,
    normalised work).

    The normalised work is the timed phase without the reference loops,
    each stretch between two loops divided by the loop that starts it
    (the first stretch by the first loop): its length in reference loops
    at the host speed of that moment."""
    items = Items(tracer)
    start = perf_counter_ns()
    outputs = workload.run(mods, inputs, items, outdir)
    end = perf_counter_ns()
    marks = items.marks
    work_s = (end - start - sum(r1 - r0 for r0, r1 in marks)) / 1e9
    norm = (marks[0][0] - start) / 1e9 / items.refs[0]
    for (_, r1), (next_start, _), ref in zip(
            marks, marks[1:] + [(end, None)], items.refs):
        norm += (next_start - r1) / 1e9 / ref
    return outputs, items, work_s, norm


def norm_stats(items, wall_norm):
    norms = sorted(t / r for t, r in zip(items.times, items.refs))
    out = {"wall_norm": wall_norm}
    if len(norms) >= 100:           # p90 then has at least 10 items above it
        out["item_norm_p50"] = statistics.median(norms)
        out["item_norm_p90"] = statistics.quantiles(norms, n=10)[-1]
    return out


def set_up(workload, seed, units, workdir):
    """Set up SETUP_REPEATS times, each after a reference loop; returns
    (seconds, modules, inputs).  The seconds are the median set-up time
    in reference loops, times REF_NOMINAL_S: set-up time at the reference
    host's usual speed, so a run on a faster or slower moment of the host
    reads the same."""
    norms = []
    for _ in range(SETUP_REPEATS):
        ref = reference_loop()
        t0 = perf_counter()
        mods = import_alwabp()
        inputs = workload.setup(mods, seed, units, workdir)
        norms.append((perf_counter() - t0) / ref)
    return statistics.median(norms) * REF_NOMINAL_S, mods, inputs


def traced_pass(workload, mods, inputs, outdir, check, spans_path):
    """Run the workload again with every layer traced; returns
    (tracer, work seconds, normalised work) and flags outputs that differ."""
    tracer = Tracer(mods)
    tracer.install()
    try:
        outputs, items, work_s, norm = timed_pass(workload, mods, inputs,
                                                  outdir, tracer)
    finally:
        tracer.restore()
    if workload.check(mods, inputs, outputs).digest != check.digest:
        check.errors.append("traced pass changed the outputs")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return tracer, work_s, norm


def compare_checksum(name, key, checksum, check, record):
    """Check (or with `record`, store) the checksum for `key`; returns a note."""
    table = json.loads(CHECKSUMS.read_text()) if CHECKSUMS.exists() else {}
    recorded = table.get(name, {}).get(key)
    if record and not check.errors:
        table.setdefault(name, {})[key] = checksum
        CHECKSUMS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return f"recorded checksum {key}"
    if recorded is None:
        return f"no checksum recorded for units/seed {key}"
    if recorded != checksum:
        check.errors.append(f"{name}: output checksum differs from the one "
                            f"recorded for {key}")
        return f"recorded checksum {recorded}"
    return f"checksum matches the one recorded for {key}"


def run_workload(name, seed, seconds, trace, units=None, record=False):
    """One benchmark run; returns (exit status, result dict, notes)."""
    workload = WORKLOADS[name]
    units = units or workload.units_for(seconds)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
    try:
        setup_s, mods, inputs = set_up(workload, seed, units, workdir / "in")
        outputs, items, work_s, norm = timed_pass(workload, mods, inputs,
                                                  workdir / "out")
        check = workload.check(mods, inputs, outputs)
        if trace:
            tracer, t_work_s, t_norm = traced_pass(
                workload, mods, inputs, workdir / "out-traced", check,
                spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checksum = hashlib.sha256("\n".join(check.digest).encode()).hexdigest()
    notes = [f"checksum {checksum}",
             compare_checksum(name, f"{units}/{seed}", checksum, check, record)]

    ref_ms = [r * 1e3 for r in items.refs]
    q1, _, q3 = (statistics.quantiles(ref_ms, n=4) if len(ref_ms) > 1
                 else ref_ms * 3)
    diagnostics = {
        "host.wall_s": (work_s, "s"),
        "host.ref_ms": (statistics.median(ref_ms), "ms"),
        "host.ref_iqr_ms": (q3 - q1, "ms"),
        "failed_frac": (check.failed / check.attempted, "share"),
    }
    stats = norm_stats(items, norm)
    if trace:
        metrics = tracer.metrics(t_work_s, mods.bounds.lc1)
        metrics["trace.overhead_pct"] = ((t_norm / norm - 1) * 100, "%")
        metrics.update(diagnostics)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {metric: (value, E2E_UNITS[metric])
                   for metric, value in stats.items()}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        if check.cycles:
            metrics["mean_cycle"] = (statistics.fmean(check.cycles), "cycles")
        notes.append("diagnostics " + json.dumps(
            {**{k: round(v, 6) for k, (v, _) in diagnostics.items()},
             "no_assignment": check.no_assignment}))
    notes.extend(f"error: {e}" for e in check.errors)

    correct = not check.errors and not check.failed
    result = {"correct": correct, "attempted": check.attempted,
              "failed": check.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    return (0 if correct else 1), result, notes


def run_all(args):
    """Every workload in its own process (peak memory is per process)."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.units:
            argv += ["--units", str(args.units)]
        if args.record:
            argv.append("--record")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name}: no result", file=sys.stderr)
            return 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sizes the work list: about this long per run "
                             "on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=None,
                        help="work-list size instead of --seconds "
                             "(smoke runs)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's output checksum for its "
                             "units and seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alwabp" / "__init__.py").is_file():
        print(f"error: no solver sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    status, result, notes = run_workload(args.workload, args.seed,
                                         args.seconds, args.trace,
                                         args.units, args.record)
    for note in notes:
        print(f"# {args.workload}: {note}")
    for metric, entry in result["metrics"].items():
        print(f"# {args.workload}: {metric} = {entry['value']:.6g} "
              f"{entry['unit']}")
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
