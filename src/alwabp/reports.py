"""CSV reports: their declared columns, best-known-value tables,
deviations and aggregates.

Each report's columns are declared once, below, in file order; the CLI
writes every report from records keyed by those names.  Deviation
percentages are rounded to one decimal on the row level, and every
aggregate is computed from the rounded row values, so re-reading a
report and recomputing its summary reproduces it exactly.
"""

from __future__ import annotations

import csv

from .instance import read_decimal

BOUNDS = ("instance", "lc1", "lc2", "lc3", "relax", "best",
          "lc1_max", "lc2_max", "lc3_max")
CONSTRUCT_RUNS = ("kind", "instance", "task_rule", "worker_rule",
                  "direction", "cycle", "bkv", "dev_pct", "elapsed_s")
CONSTRUCT_SUMMARY = ("task_rule", "worker_rule", "direction",
                     "av_dev_pct", "max_dev_pct", "av_time_s", "max_time_s")
HGA_RUNS = ("instance", "seed", "cycle", "norm_load", "bkv", "dev_pct",
            "iterations", "reason", "elapsed_s", "time_to_best_s")
HGA_SUMMARY = ("instance", "runs", "best_cycle", "best_dev_pct",
               "avg_dev_pct", "avg_time_s", "avg_time_to_best_s")
HGA_LOG = ("iteration", "cycle", "norm_load", "seconds")

# Format spec per column name; a name means the same format in every
# report, and any other column is written as it is.  Aggregates carry
# full precision so they can be re-verified.
FORMATS = {
    "dev_pct": ".1f", "best_dev_pct": ".1f",
    "elapsed_s": ".4f", "time_to_best_s": ".4f", "seconds": ".4f",
    "norm_load": ".6f",
    "relax": ".10g",
    "av_dev_pct": ".10g", "max_dev_pct": ".10g", "av_time_s": ".10g",
    "max_time_s": ".10g", "avg_dev_pct": ".10g", "avg_time_s": ".10g",
    "avg_time_to_best_s": ".10g",
}


class BkvError(Exception):
    pass


def load_bkv(path) -> dict[str, int]:
    """Two-column CSV `instance,cycle`; blank lines are skipped, and the
    first other row is a header when its second cell is not a number.  A
    cycle is a positive integer by the ASCII decimal rule
    (`instance.read_decimal`).  The text is UTF-8, and a leading
    byte-order mark, which spreadsheets write, is dropped.  Raises
    BkvError when the file cannot be read or decoded, a row is bad, or a
    row names an instance an earlier row named, as every report keys its
    rows by that name; the error names the line the row starts on, as a
    quoted cell may span lines."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows, start = [], 1     # start: the line the next record starts on
            for row in reader:
                if row and (len(row) > 1 or row[0].strip()):
                    rows.append((start, row))
                start = reader.line_num + 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise BkvError(f"cannot read {path}: {exc}") from exc
    table, first = {}, {}       # first: instance -> the line of its row
    for lineno, row in rows:
        if len(row) != 2:
            raise BkvError(f"{path}:{lineno}: expected 2 columns, "
                           f"got {len(row)}")
        name, value = row[0].strip(), row[1].strip()
        if lineno == rows[0][0]:
            try:
                float(value)
            except ValueError:
                continue    # header
        cycle = read_decimal(value)
        if cycle is None:
            raise BkvError(f"{path}:{lineno}: bad cycle {value!r}")
        if cycle <= 0:
            raise BkvError(f"{path}:{lineno}: cycle must be positive")
        if name in first:
            raise BkvError(f"{path}:{lineno}: instance {name!r} is also on "
                           f"line {first[name]}")
        table[name], first[name] = cycle, lineno
    return table


def deviation_pct(cycle: int | None, bkv: int | None) -> float | None:
    """Signed percentage deviation from the best known value; None when
    either is missing."""
    if cycle is None or bkv is None:
        return None
    return round((cycle - bkv) / bkv * 100.0, 1)


def write_csv(path, columns, records):
    """Write `records`, dicts keyed by column name, under a header row of
    `columns` to `path`, whose directory must exist.  A missing or None
    cell is left empty, a value in a column of FORMATS is written in its
    format, and a key that is not one of `columns` raises ValueError."""
    formats = [(col, FORMATS[col]) for col in columns if col in FORMATS]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, columns, lineterminator="\n")
        w.writeheader()
        for rec in records:
            w.writerow({**rec, **{col: format(rec[col], spec)
                                  for col, spec in formats
                                  if rec.get(col) is not None}})


def mean(xs):
    """Arithmetic mean, or None for an empty list."""
    return sum(xs) / len(xs) if xs else None


def summarize(records):
    """Table-style aggregate of run records: av./max `dev_pct` over the
    records that have one, av./max `elapsed_s` over all of them; a part
    with no values is None."""
    devs = [r["dev_pct"] for r in records if r["dev_pct"] is not None]
    times = [r["elapsed_s"] for r in records]
    return {"av_dev_pct": mean(devs), "max_dev_pct": max(devs, default=None),
            "av_time_s": mean(times), "max_time_s": max(times, default=None)}
