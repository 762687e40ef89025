from __future__ import annotations

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alwabp import (HgaParams, INFEASIBLE, Instance, export_lp, load_instance,
                    save_instance)
from alwabp import cli, reports
from alwabp.cli import main
from conftest import TINY_A
from lpsolve import parse_lp


def write_tiny(tmp_path, name="tiny-A"):
    path = tmp_path / f"{name}.alwabp"
    save_instance(Instance(TINY_A.n_tasks, TINY_A.n_workers, TINY_A.times,
                           TINY_A.edges, name=name), path)
    return path


def write_bkv(tmp_path, entries):
    path = tmp_path / "bkv.csv"
    path.write_text("instance,cycle\n"
                    + "".join(f"{k},{v}\n" for k, v in entries.items()))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def drop_timing(rows):
    """Rows minus any column whose header marks a wall-clock measurement."""
    header = rows[0]
    keep = [k for k, name in enumerate(header)
            if not name.endswith("_s") and name != "seconds"]
    return [[row[k] for k in keep] for row in rows]


# -- bounds -------------------------------------------------------------------

def test_bounds_report(tmp_path, capsys):
    inst = write_tiny(tmp_path)
    rc = main(["bounds", str(inst), "--out", str(tmp_path / "rep")])
    assert rc == 0
    rows = read_rows(tmp_path / "rep" / "bounds.csv")
    assert rows[0] == ["instance", "lc1", "lc2", "lc3", "relax", "best",
                       "lc1_max", "lc2_max", "lc3_max"]
    # all three bounds equal 2 on tiny-A, so every flag is up
    assert rows[1] == ["tiny-A", "2", "2", "2", "", "2", "1", "1", "1"]
    assert rows[2] == ["TALLY", "", "", "", "", "", "1", "1", "1"]


def test_bounds_reads_relax_sidecar(tmp_path):
    inst = write_tiny(tmp_path)
    (tmp_path / "tiny-A.alwabp.relax").write_text("1.75\n")
    main(["bounds", str(inst), "--out", str(tmp_path / "rep")])
    rows = read_rows(tmp_path / "rep" / "bounds.csv")
    assert rows[1][4] == "1.75"
    assert rows[1][5] == "2"  # ceil(1.75) can't beat the combinatorial 2


def test_bounds_partial_results_on_bad_file(tmp_path, capsys):
    good = write_tiny(tmp_path)
    bad = tmp_path / "broken.alwabp"
    bad.write_text("this is not an instance\n")
    rc = main(["bounds", str(bad), str(good), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert "broken.alwabp" in capsys.readouterr().err
    rows = read_rows(tmp_path / "rep" / "bounds.csv")
    names = [r[0] for r in rows[1:]]
    assert names == ["tiny-A", "TALLY"]


def test_bounds_fails_an_instance_named_like_the_tally(tmp_path, capsys):
    """bounds.csv keys its tally row "TALLY", so an instance of that name
    fails its item; the other rows and the tally are still written."""
    good = write_tiny(tmp_path)
    clash = write_tiny(tmp_path, name="TALLY")
    rep = tmp_path / "rep"
    rc = main(["bounds", str(clash), str(good), "--out", str(rep)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: instance name 'TALLY' is that of the tally row of "
        f"{rep / 'bounds.csv'}\n")
    rows = read_rows(rep / "bounds.csv")
    assert rows[1:] == [["tiny-A", "2", "2", "2", "", "2", "1", "1", "1"],
                        ["TALLY", "", "", "", "", "", "1", "1", "1"]]


@pytest.mark.parametrize("command", ["bounds", "hga"])
@pytest.mark.parametrize("text", ["nan", "inf", "abc"])
def test_bad_relax_sidecar_fails_only_its_item(tmp_path, capsys, command,
                                               text):
    good = write_tiny(tmp_path)
    bad = write_tiny(tmp_path, name="tiny-B")
    sidecar = tmp_path / "tiny-B.alwabp.relax"
    sidecar.write_text(text + "\n")
    rep = tmp_path / "rep"
    rc = main([command, str(bad), str(good), "--out", str(rep)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}: ")
    assert str(sidecar) in err[0] and repr(text) in err[0]
    if command == "bounds":
        rows = read_rows(rep / "bounds.csv")
        assert [r[0] for r in rows[1:]] == ["tiny-A", "TALLY"]
    else:
        rows = read_rows(rep / "hga_runs.csv")
        assert [(r[0], r[7]) for r in rows[1:]] == [("tiny-A", "bound")]
        summary = read_rows(rep / "hga_summary.csv")
        assert [r[0] for r in summary[1:]] == ["tiny-A"]


# -- construct ----------------------------------------------------------------

def test_construct_single_rule_with_bkv(tmp_path):
    inst = write_tiny(tmp_path)
    bkv = write_bkv(tmp_path, {"tiny-A": 2})
    rc = main(["construct", str(inst), "--rule", "MaxPW-",
               "--bkv", str(bkv), "--out", str(tmp_path / "rep")])
    assert rc == 0
    rows = read_rows(tmp_path / "rep" / "construct_runs.csv")
    assert rows[0] == ["kind", "instance", "task_rule", "worker_rule",
                       "direction", "cycle", "bkv", "dev_pct", "elapsed_s"]
    run, best = rows[1], rows[2]
    assert run[:8] == ["run", "tiny-A", "MaxPW-", "MinRLB", "forward",
                       "2", "2", "0.0"]
    assert best[:8] == ["best", "tiny-A", "", "", "", "2", "2", "0.0"]

    srows = read_rows(tmp_path / "rep" / "construct_summary.csv")
    assert srows[1][:5] == ["MaxPW-", "MinRLB", "forward", "0", "0"]
    assert srows[2][0] == "BestOverAll"


def test_construct_all_96_row_count(tmp_path):
    inst = write_tiny(tmp_path)
    rc = main(["construct", str(inst), "--all-96",
               "--out", str(tmp_path / "rep")])
    assert rc == 0
    rows = read_rows(tmp_path / "rep" / "construct_runs.csv")
    runs = [r for r in rows[1:] if r[0] == "run"]
    bests = [r for r in rows[1:] if r[0] == "best"]
    assert len(runs) == 96
    assert len(bests) == 1
    # every run on tiny-A lands on the optimum
    assert {r[5] for r in runs} == {"2"}
    labels = {(r[2], r[3], r[4]) for r in runs}
    assert len(labels) == 96


def test_construct_summary_aggregates_recompute(tmp_path):
    """Summary statistics must equal those recomputed from the run rows."""
    rng_insts = []
    import random

    from conftest import random_instance
    rng = random.Random(0xC11)
    bkv = {}
    for k in range(4):
        inst = random_instance(rng, name=f"agg{k}")
        path = tmp_path / f"{inst.name}.alwabp"
        save_instance(inst, path)
        rng_insts.append(path)
        from bruteforce import brute_force_optimum
        bkv[inst.name] = brute_force_optimum(inst)
    bkv_path = write_bkv(tmp_path, bkv)
    rc = main(["construct", *map(str, rng_insts), "--all-96",
               "--bkv", str(bkv_path), "--out", str(tmp_path / "rep")])
    assert rc == 0
    rows = read_rows(tmp_path / "rep" / "construct_runs.csv")
    srows = read_rows(tmp_path / "rep" / "construct_summary.csv")

    by_config = {}
    for r in rows[1:]:
        if r[0] != "run" or r[5] == "":
            continue
        key = (r[2], r[3], r[4])
        by_config.setdefault(key, []).append((float(r[7]), float(r[8])))
    for srow in srows[1:-1]:
        devs, times = zip(*by_config[(srow[0], srow[1], srow[2])])
        assert float(srow[3]) == pytest.approx(sum(devs) / len(devs),
                                               rel=1e-9)
        assert float(srow[4]) == pytest.approx(max(devs), rel=1e-9)
        assert float(srow[5]) == pytest.approx(sum(times) / len(times),
                                               rel=1e-9)
        assert float(srow[6]) == pytest.approx(max(times), rel=1e-9)

    best_rows = [r for r in rows[1:] if r[0] == "best"]
    devs = [float(r[7]) for r in best_rows]
    times = [float(r[8]) for r in best_rows]
    last = srows[-1]
    assert last[0] == "BestOverAll"
    assert float(last[3]) == pytest.approx(sum(devs) / len(devs), rel=1e-9)
    assert float(last[4]) == pytest.approx(max(devs), rel=1e-9)
    assert float(last[5]) == pytest.approx(sum(times) / len(times), rel=1e-9)


@pytest.mark.parametrize("text,want", [
    ("instance,cycle\ntiny-A,2\n", {"tiny-A": 2}),
    ("tiny-A,2\n", {"tiny-A": 2}),
    ("tiny-A,12.5\n", "bkv.csv:1: bad cycle '12.5'"),
    ("instance,cycle\ntiny-A,12.5\n", "bkv.csv:2: bad cycle '12.5'"),
    ("tiny-A,1_0\n", "bkv.csv:1: bad cycle '1_0'"),
    ("instance,cycle\ntiny-A,+3\n", "bkv.csv:2: bad cycle '+3'"),
    ("instance,cycle\ntiny-A,\u0664\n", "bkv.csv:2: bad cycle '\u0664'"),
    ("instance,cycle\ntiny-A,-3\n", "bkv.csv:2: cycle must be positive"),
    ("instance,cycle\ntiny-A,5\ntiny-A,7\n",
     "bkv.csv:3: instance 'tiny-A' is also on line 2"),
    ("\ninstance,cycle\ntiny-A,2\n", {"tiny-A": 2}),
    ("instance,cycle\n\ncycle,x\n", "bkv.csv:3: bad cycle 'x'"),
    ("\ufefftiny-A,2\n", {"tiny-A": 2}),
    ("tiny-A," + "7" * 5000 + "\n", "bkv.csv:1: bad cycle '777"),
    # a quoted cell may span lines: an error names the line its row
    # starts on
    ('a,"x\ny"\ntiny-A,bad\n', "bkv.csv:3: bad cycle 'bad'"),
    ('\n\ninstance,cycle\n"x\ny",1\ntiny-A,5\ntiny-A,7\n',
     "bkv.csv:7: instance 'tiny-A' is also on line 6"),
    ('instance,cycle\n"x\ny",bad\n', "bkv.csv:2: bad cycle 'bad'"),
], ids=["header", "no-header", "fraction-row-1", "fraction-row-2",
        "separator", "plus", "non-ascii", "negative", "repeated-instance",
        "blank-line-then-header", "one-header-only", "byte-order-mark",
        "too-many-digits", "after-a-line-break-in-a-header",
        "after-a-two-line-row", "in-a-two-line-row"])
def test_load_bkv_skips_only_a_first_row_without_a_number(tmp_path, text,
                                                          want):
    path = tmp_path / "bkv.csv"
    path.write_text(text)
    if isinstance(want, dict):
        assert reports.load_bkv(path) == want
    else:
        with pytest.raises(reports.BkvError, match=re.escape(want)):
            reports.load_bkv(path)


def test_construct_missing_bkv_entry_is_flagged_not_fatal(tmp_path, capsys):
    inst = write_tiny(tmp_path)
    bkv = write_bkv(tmp_path, {"someone-else": 5})
    rc = main(["construct", str(inst), "--rule", "MaxF",
               "--bkv", str(bkv), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert "no best known value for tiny-A" in capsys.readouterr().err
    rows = read_rows(tmp_path / "rep" / "construct_runs.csv")
    assert rows[1][5] == "2"   # cycle still reported
    assert rows[1][6] == ""    # but no reference value
    assert rows[1][7] == ""


def test_construct_requires_rule_or_all(tmp_path, capsys):
    inst = write_tiny(tmp_path)
    rc = main(["construct", str(inst), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "--rule or --all-96" in capsys.readouterr().err


def test_construct_infeasible_instance_exits_nonzero(tmp_path, capsys):
    stuck = Instance(3, 2, [[INFEASIBLE, 1, INFEASIBLE],
                            [1, INFEASIBLE, 1]],
                     [(0, 1), (1, 2)], name="stuck")
    path = tmp_path / "stuck.alwabp"
    save_instance(stuck, path)
    rc = main(["construct", str(path), "--rule", "MaxF",
               "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert "stuck" in capsys.readouterr().err
    rows = read_rows(tmp_path / "rep" / "construct_runs.csv")
    assert rows[1][5] == ""  # empty cycle on the failed run


def test_construct_deterministic_across_runs(tmp_path):
    import random

    from conftest import random_instance
    rng = random.Random(0xD0B)
    paths = [str(write_tiny(tmp_path))]
    for k in range(3):
        inst = random_instance(rng, name=f"det{k}")
        paths.append(str(tmp_path / f"{inst.name}.alwabp"))
        save_instance(inst, paths[-1])
    outs = []
    for tag in ("a", "b"):
        rc = main(["construct", *paths, "--all-96",
                   "--out", str(tmp_path / tag)])
        assert rc == 0
        outs.append(drop_timing(read_rows(tmp_path / tag
                                          / "construct_runs.csv")))
    assert len(outs[0]) == 1 + 4 * 97      # 96 runs and a best row each
    assert outs[0] == outs[1]


# -- hga ----------------------------------------------------------------------

def test_hga_three_seeds(tmp_path):
    inst = write_tiny(tmp_path)
    bkv = write_bkv(tmp_path, {"tiny-A": 2})
    rep = tmp_path / "rep"
    rc = main(["hga", str(inst), "--seeds", "3", "--seed", "42",
               "--bkv", str(bkv), "--out", str(rep)])
    assert rc == 0
    rows = read_rows(rep / "hga_runs.csv")
    assert rows[0] == ["instance", "seed", "cycle", "norm_load", "bkv",
                       "dev_pct", "iterations", "reason", "elapsed_s",
                       "time_to_best_s"]
    assert [r[1] for r in rows[1:]] == ["42", "43", "44"]
    for r in rows[1:]:
        assert r[2] == "2" and r[5] == "0.0" and r[7] == "bound"

    srows = read_rows(rep / "hga_summary.csv")
    assert srows[1][:5] == ["tiny-A", "3", "2", "0.0", "0"]

    for seed in (42, 43, 44):
        log = read_rows(rep / f"tiny-A.seed{seed}.log.csv")
        assert log[0] == ["iteration", "cycle", "norm_load", "seconds"]
        assert len(log) >= 2  # header plus the iteration-0 entry


def test_hga_single_seed_best_equals_average(tmp_path):
    inst = write_tiny(tmp_path)
    bkv = write_bkv(tmp_path, {"tiny-A": 2})
    rep = tmp_path / "rep"
    main(["hga", str(inst), "--bkv", str(bkv), "--out", str(rep)])
    srow = read_rows(rep / "hga_summary.csv")[1]
    assert srow[1] == "1"
    assert float(srow[3]) == float(srow[4])


def test_hga_deterministic_excluding_timing(tmp_path):
    inst = write_tiny(tmp_path)
    for tag in ("a", "b"):
        rc = main(["hga", str(inst), "--seeds", "3", "--seed", "42",
                   "--population", "20", "--out", str(tmp_path / tag)])
        assert rc == 0
    for name in ("hga_runs.csv", "tiny-A.seed42.log.csv",
                 "tiny-A.seed44.log.csv"):
        a = drop_timing(read_rows(tmp_path / "a" / name))
        b = drop_timing(read_rows(tmp_path / "b" / name))
        assert a == b


def test_hga_infeasible_instance(tmp_path, capsys):
    stuck = Instance(3, 2, [[INFEASIBLE, 1, INFEASIBLE],
                            [1, INFEASIBLE, 1]],
                     [(0, 1), (1, 2)], name="stuck")
    path = tmp_path / "stuck.alwabp"
    save_instance(stuck, path)
    rc = main(["hga", str(path), "--out", str(tmp_path / "rep")])
    assert rc == 1
    rows = read_rows(tmp_path / "rep" / "hga_runs.csv")
    assert rows[1][7] == "infeasible"
    assert rows[1][2] == ""


def test_hga_passes_algorithm_knobs(tmp_path):
    """Population and stop knobs reach the solver (stale stop observable)."""
    inst = write_tiny(tmp_path)
    rep = tmp_path / "rep"
    rc = main(["hga", str(inst), "--population", "8", "--max-stale", "4",
               "--no-bound-stop", "--max-iters", "50", "--out", str(rep)])
    assert rc == 0
    row = read_rows(rep / "hga_runs.csv")[1]
    assert row[7] == "stale"
    assert row[6] == "4"


@pytest.mark.parametrize("given,changed", [
    ([], {}),
    (["--population", "20"], {"p": 20}),
    (["--elite", "3"], {"p_e": 3}),
    (["--immigrants", "2"], {"p_r": 2}),
    (["--q", "0.75"], {"q": 0.75}),
    (["--max-iters", "5"], {"max_iters": 5}),
    (["--max-stale", "7"], {"max_stale_iters": 7}),
    (["--no-bound-stop"], {"stop_at_lower_bound": False}),
])
def test_hga_options_default_to_hga_params(tmp_path, monkeypatch, given,
                                           changed):
    """With no GA option `hga` hands `evolve` `HgaParams`' own defaults,
    and with one option only that field changes: the library owns them."""
    class Captured(Exception):
        pass

    def captured(inst, params, external_relax=None):
        raise Captured(params)

    monkeypatch.setattr(cli, "evolve", captured)
    with pytest.raises(Captured) as got:
        main(["hga", str(write_tiny(tmp_path)), "--seed", "7", *given,
              "--out", str(tmp_path / "rep")])
    assert got.value.args[0] == HgaParams(rng_seed=7, **changed)


# -- generate -----------------------------------------------------------------

def test_generate_factorial_layout(tmp_path):
    base = tmp_path / "lineB.base"
    base.write_text("4\n3 5 2 6\n3\n1 2\n2 4\n3 4\n")
    out = tmp_path / "gen"
    rc = main(["generate", str(base), "--workers", "3", "--replicates", "5",
               "--seed", "11", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 2 * 2 * 5
    assert files[0] == "lineB_w3_varhigh_inf10_00.alwabp"
    assert "lineB_w3_varlow_inf20_04.alwabp" in files
    # each file round-trips through the instance parser and validator
    for p in sorted(out.iterdir()):
        inst = load_instance(p)
        assert inst.n_tasks == 4 and inst.n_workers == 3


def test_generate_deterministic(tmp_path):
    base = tmp_path / "lineB.base"
    base.write_text("4\n3 5 2 6\n3\n1 2\n2 4\n3 4\n")
    for tag in ("a", "b"):
        main(["generate", str(base), "--workers", "2", "--replicates", "3",
              "--seed", "5", "--out", str(tmp_path / tag)])
    for p in sorted((tmp_path / "a").iterdir()):
        twin = tmp_path / "b" / p.name
        assert twin.read_bytes() == p.read_bytes()


def test_generate_single_level_selection(tmp_path):
    base = tmp_path / "lineB.base"
    base.write_text("4\n3 5 2 6\n0\n")
    out = tmp_path / "gen"
    main(["generate", str(base), "--workers", "2", "--variability", "low",
          "--density", "high", "--replicates", "2", "--out", str(out)])
    files = sorted(p.name for p in out.iterdir())
    assert files == ["lineB_w2_varlow_inf20_00.alwabp",
                     "lineB_w2_varlow_inf20_01.alwabp"]


def test_generate_bad_base_file(tmp_path, capsys):
    base = tmp_path / "junk.base"
    base.write_text("not numbers\n")
    rc = main(["generate", str(base), "--workers", "2",
               "--out", str(tmp_path / "gen")])
    assert rc == 1
    assert "junk.base" in capsys.readouterr().err


def test_generate_reports_each_failing_item(tmp_path, capsys):
    """With one worker, a density that marks any cell leaves a task
    with no capable worker: each item fails on its own error line, the
    others are still attempted, and the exit status is 1."""
    base = tmp_path / "line.base"
    base.write_text("10\n" + "3\n" * 10 + "0\n")
    out = tmp_path / "gen"
    rc = main(["generate", str(base), "--workers", "1", "--replicates", "2",
               "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert sorted(line.split(":")[1].strip() for line in errors) == sorted(
        f"line_w1_var{var}_inf{pct}_{rep:02d}" for var in ("low", "high")
        for pct in ("10", "20") for rep in range(2))
    assert all("uncoverable" in line for line in errors)
    assert "wrote 0 instances" in stdout
    assert list(out.iterdir()) == []


# -- export-lp ----------------------------------------------------------------

def test_export_lp_default_and_custom_out(tmp_path):
    inst = write_tiny(tmp_path)
    rc = main(["export-lp", str(inst)])
    assert rc == 0
    default = tmp_path / "tiny-A.alwabp.lp"
    assert default.exists()
    objective, constraints, _, binaries = parse_lp(default.read_text())
    assert objective == {"c": 1.0}
    assert len(constraints) == 15
    assert binaries  # integral model by default

    custom = tmp_path / "relaxed.lp"
    rc = main(["export-lp", str(inst), "--relaxed", "--out", str(custom)])
    assert rc == 0
    _, _, _, binaries = parse_lp(custom.read_text())
    assert binaries == set()


def test_export_lp_writes_the_model_text(tmp_path):
    """The command writes `export_lp`'s text byte for byte."""
    inst = write_tiny(tmp_path)
    for flags, relaxed in (([], False), (["--relaxed"], True)):
        out = tmp_path / f"{relaxed}.lp"
        assert main(["export-lp", str(inst), "--out", str(out), *flags]) == 0
        assert out.read_text() == export_lp(load_instance(inst), relaxed)


def test_export_lp_missing_file(tmp_path, capsys):
    rc = main(["export-lp", str(tmp_path / "nope.alwabp")])
    assert rc == 1
    assert "nope.alwabp" in capsys.readouterr().err


# -- bad inputs ---------------------------------------------------------------

# argv with {inst} (tiny-A), {tmp}, {file} (a regular file) and {binary}
# (undecodable bytes) filled in; the exit status; the text the one error
# line must name; the report still written, or None when the command must
# stop before any search and write nothing
BAD_INPUTS = {
    "construct-bkv-missing": (["construct", "{inst}", "--rule", "MaxF",
                               "--bkv", "{tmp}/nope.csv"], 1, "nope.csv",
                              None),
    "hga-bkv-missing": (["hga", "{inst}", "--bkv", "{tmp}/nope.csv"], 1,
                        "nope.csv", None),
    "construct-bkv-malformed": (["construct", "{inst}", "--rule", "MaxF",
                                 "--bkv", "{tmp}/bad.csv"], 1, "bad.csv:2",
                                None),
    "hga-bkv-malformed": (["hga", "{inst}", "--bkv", "{tmp}/bad.csv"], 1,
                          "bad.csv:2", None),
    "construct-bkv-fraction-on-row-1": (["construct", "{inst}", "--rule",
                                         "MaxF", "--bkv", "{tmp}/frac.csv"],
                                        1, "frac.csv:1", None),
    # more digits than int() converts by default
    "construct-bkv-long-cycle": (["construct", "{inst}", "--rule", "MaxF",
                                  "--bkv", "{tmp}/long.csv"], 1,
                                 "long.csv:2", None),
    "hga-population": (["hga", "{inst}", "--population", "0"], 2,
                       "p must be at least 2", None),
    "hga-q": (["hga", "{inst}", "--q", "2"], 2, "crossover probability q",
              None),
    "hga-max-iters": (["hga", "{inst}", "--max-iters", "-1"], 2,
                      "max_iters must be at least 0, got -1", None),
    "hga-seeds": (["hga", "{inst}", "--seeds", "0"], 2, "--seeds", None),
    # numeric options follow the ASCII decimal rule of the instance files
    "hga-seeds-separator": (["hga", "{inst}", "--seeds", "1_0"], 2,
                            "--seeds", None),
    "hga-population-non-ascii": (["hga", "{inst}", "--population",
                                  "\u0662\u0660"], 2, "--population", None),
    "hga-q-non-ascii": (["hga", "{inst}", "--q", "\u0660.7"], 2, "--q",
                        None),
    "generate-replicates-plus": (["generate", "{tmp}/line.base", "--workers",
                                  "2", "--replicates", "+3"], 2,
                                 "--replicates", None),
    "bounds-out": (["bounds", "{inst}", "--out", "{file}/sub"], 1,
                   "{file}/sub", None),
    "construct-out": (["construct", "{inst}", "--all-96", "--out",
                       "{file}/sub"], 1, "{file}/sub", None),
    "hga-out": (["hga", "{inst}", "--out", "{file}/sub"], 1, "{file}/sub",
                None),
    "generate-out": (["generate", "{tmp}/line.base", "--workers", "2",
                      "--out", "{file}/sub"], 1, "{file}/sub", None),
    "export-lp-out": (["export-lp", "{inst}", "--out", "{tmp}/missing/x.lp"],
                      1, "{tmp}/missing/x.lp", None),
    "binary-instance": (["bounds", "{binary}", "{inst}"], 1, "{binary}",
                        "bounds.csv"),
    # the name bounds.csv keys its tally row by
    "tally-name": (["bounds", "{inst}", "{tmp}/TALLY.alwabp"], 1,
                   "instance name 'TALLY' is that of the tally row",
                   "bounds.csv"),
    "duplicate-name": (["bounds", "{inst}", "{tmp}/copy/tiny-A.alwabp"], 1,
                       "{tmp}/copy/tiny-A.alwabp: instance name 'tiny-A' is "
                       "also that of {inst}", "bounds.csv"),
    "generate-workers": (["generate", "{tmp}/line.base", "--workers", "0"], 2,
                         "n_workers must be at least 1, got 0", None),
    "generate-replicates": (["generate", "{tmp}/line.base", "--workers", "2",
                             "--replicates", "-1"], 2, "--replicates", None),
    "generate-base-edge": (["generate", "{tmp}/edge.base", "--workers", "2"],
                           1, "{tmp}/edge.base", None),
    "generate-base-cycle": (["generate", "{tmp}/cycle.base", "--workers",
                             "2"], 1, "{tmp}/cycle.base: precedence "
                            "relation contains a cycle", None),
    "construct-rule-and-all": (["construct", "{inst}", "--rule", "MaxF",
                                "--all-96"], 2, "--rule or --all-96", None),
    "construct-worker-rule-with-all": (["construct", "{inst}", "--all-96",
                                        "--worker-rule", "MaxTasks"], 2,
                                       "--worker-rule", None),
    "construct-direction-with-all": (["construct", "{inst}", "--all-96",
                                      "--direction", "backward"], 2,
                                     "--direction", None),
    "construct-neither-rule-nor-all": (["construct", "{inst}"], 2,
                                       "--rule or --all-96", None),
    "construct-rule-unknown": (["construct", "{inst}", "--rule", "Foo"], 2,
                               "invalid choice: 'Foo'", None),
    "hga-elite": (["hga", "{inst}", "--elite", "0"], 2,
                  "p_e must be at least 1, got 0", None),
    "hga-immigrants": (["hga", "{inst}", "--immigrants", "-1"], 2,
                       "p_r must be at least 0, got -1", None),
    "hga-max-stale": (["hga", "{inst}", "--max-stale", "0"], 2,
                      "max_stale_iters must be at least 1, got 0", None),
    # elite + immigrants leave no offspring
    "hga-no-offspring": (["hga", "{inst}", "--population", "10", "--elite",
                          "6", "--immigrants", "4"], 2,
                         "elite + immigrants must leave room", None),
}


def _forbidden(*args, **kwargs):
    raise AssertionError("called although the command had to stop first")


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_gives_one_error_line(tmp_path, capsys, monkeypatch, case):
    argv, status, named, report = BAD_INPUTS[case]
    paths = {"inst": write_tiny(tmp_path), "tmp": tmp_path,
             "file": tmp_path / "afile", "binary": tmp_path / "bin.alwabp"}
    paths["file"].write_text("")
    paths["binary"].write_bytes(b"\xff\xfe\x00\x01")
    (tmp_path / "copy").mkdir()
    write_tiny(tmp_path / "copy")       # tiny-A again, in another directory
    write_tiny(tmp_path, "TALLY")
    (tmp_path / "bad.csv").write_text("instance,cycle\ntiny-A,2,3\n")
    (tmp_path / "frac.csv").write_text("tiny-A,12.5\n")
    (tmp_path / "long.csv").write_text("instance,cycle\ntiny-A," + "9" * 5000
                                       + "\n")
    (tmp_path / "line.base").write_text("3\n1 2 3\n0\n")
    (tmp_path / "edge.base").write_text("3\n1 2 3\n1\n5 9\n")
    (tmp_path / "cycle.base").write_text("3\n1 2 3\n2\n1 2\n2 1\n")
    # no case may run a search; bad arguments (exit status 2) and a report
    # directory that cannot be made must fail before any input file is read
    forbidden = ["solve_lower_bound_search", "evolve"]
    if status == 2 or "{file}/sub" in argv:
        forbidden += ["load_instance", "load_base"]
    for name in forbidden:
        monkeypatch.setattr(cli, name, _forbidden)
    argv = [a.format(**paths) for a in argv]
    rep = tmp_path / "rep"
    if "--out" not in argv:
        argv += ["--out", str(rep)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == status
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert named.format(**paths) in errors[0]
    assert "Traceback" not in out + err
    if status == 2:
        # the library's refusals print the usage too, as argparse's do
        assert err.startswith(f"usage: alwabp {argv[0]} ")
        assert not rep.exists()     # not even the report directory
    written = sorted(p.name for p in rep.iterdir()) if rep.exists() else []
    assert written == ([report] if report else [])


# -- one process, many invocations --------------------------------------------

def _run_python(*args):
    """`python *args` in a child process on this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_module_runs_as_a_script():
    """`python -m alwabp.cli` reaches `main` through its `__main__`
    guard."""
    done = _run_python("-m", "alwabp.cli", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: alwabp")


def _reports(out):
    """Every CSV the invocation left in `out`, without timing columns."""
    return {p.name: drop_timing(read_rows(p)) for p in sorted(out.iterdir())
            } if out.exists() else {}


def test_main_repeats_in_one_process_as_in_separate_ones(tmp_path, capsys):
    inst = str(write_tiny(tmp_path))
    calls = [["bounds", inst],
             ["construct", inst, "--rule", "NoSuchRule"],   # argparse: 2
             ["hga", inst, "--population", "8", "--seed", "3"],
             ["hga", inst, "--q", "2"],                     # HgaParams: 2
             ["construct", inst, "--all-96"],
             ["bounds", inst]]
    argvs = [[*argv, "--out", str(tmp_path / f"call{k}")]
             for k, argv in enumerate(calls)]

    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, err, _reports(Path(argv[-1]))))

    separate = []
    for argv in argvs:
        done = _run_python("-m", "alwabp.cli", *argv)
        separate.append((done.returncode, done.stdout, done.stderr,
                         _reports(Path(argv[-1]))))

    assert [r[0] for r in in_process] == [0, 2, 0, 2, 0, 0]
    assert "invalid choice: 'NoSuchRule'" in in_process[1][2]
    assert in_process == separate


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Every file a command reads or writes names its encoding: in one
    child process where an open in the locale's encoding raises, each
    command that touches a file succeeds, and `construct` reads a BKV
    table that opens with a byte-order mark."""
    inst = str(write_tiny(tmp_path))
    bkv = tmp_path / "bkv.csv"
    bkv.write_bytes(b"\xef\xbb\xbftiny-A,2\n")
    base = tmp_path / "lineB.base"
    base.write_bytes(b"4\n3 5 2 6\n3\n1 2\n2 4\n3 4\n")
    out = str(tmp_path / "out")
    calls = [["bounds", inst, "--out", out],
             ["construct", inst, "--rule", "MaxF", "--bkv", str(bkv),
              "--out", out],
             ["hga", inst, "--population", "8", "--max-iters", "2",
              "--out", out],
             ["generate", str(base), "--workers", "2",
              "--out", str(tmp_path / "generated")],
             ["export-lp", inst, "--out", str(tmp_path / "tiny-A.lp")]]
    done = _run_python(
        "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c",
        f"from alwabp.cli import main; print([main(a) for a in {calls!r}])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", done.stdout
    runs = read_rows(Path(out) / "construct_runs.csv")
    assert runs[1][:7] == ["run", "tiny-A", "MaxF", "MinRLB", "forward",
                           "2", "2"]


# -- report schemas -----------------------------------------------------------

def test_report_headers_match_declarations(tmp_path):
    inst = write_tiny(tmp_path)
    bkv = write_bkv(tmp_path, {"tiny-A": 2})
    rep = tmp_path / "rep"
    for argv in (["bounds", str(inst)],
                 ["construct", str(inst), "--rule", "MaxF", "--bkv", str(bkv)],
                 ["hga", str(inst), "--seed", "7", "--bkv", str(bkv)]):
        assert main([*argv, "--out", str(rep)]) == 0
    declared = {"bounds.csv": reports.BOUNDS,
                "construct_runs.csv": reports.CONSTRUCT_RUNS,
                "construct_summary.csv": reports.CONSTRUCT_SUMMARY,
                "hga_runs.csv": reports.HGA_RUNS,
                "hga_summary.csv": reports.HGA_SUMMARY,
                "tiny-A.seed7.log.csv": reports.HGA_LOG}
    assert sorted(p.name for p in rep.iterdir()) == sorted(declared)
    for name, columns in declared.items():
        assert read_rows(rep / name)[0] == list(columns), name


def test_readme_lists_declared_columns():
    """Each report in the README's "Reports" section lists its columns as
    one backticked comma list right after the file name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Reports\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: tuple(re.sub(r"\s+", "", cols).split(","))
              for name, cols in re.findall(r"^- `([^`]+)`: `([^`]+)`",
                                           section, re.M)}
    assert listed == {"bounds.csv": reports.BOUNDS,
                      "construct_runs.csv": reports.CONSTRUCT_RUNS,
                      "construct_summary.csv": reports.CONSTRUCT_SUMMARY,
                      "hga_runs.csv": reports.HGA_RUNS,
                      "hga_summary.csv": reports.HGA_SUMMARY,
                      "<instance>.seed<S>.log.csv": reports.HGA_LOG}
