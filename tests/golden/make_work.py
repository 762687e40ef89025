"""The work ledger: how often the solver's layers run on the golden corpus.

    python3 tests/golden/make_work.py

rewrites `work.json` next to this file.  For each of the 20 instances
stored in `golden.json` it counts the calls of the layers in `LAYERS`
over `run_all_96` without and with reduction, then one short GA run,
`evolve(HgaParams(p=20, max_iters=3, rng_seed=1))`, and adds the rows
up into a `total` row.  The counts are exact, whatever the host, so a
change that makes the solver do more or less work shows here.

`test_work.py` recomputes the rows with `work_of` and compares them with
the file.  Regenerate the file only when the work is meant to change,
and give the totals before and after in CHANGES.md.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

if __name__ == "__main__":
    # run from a checkout: find the package, as a pytest run does
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from alwabp import HgaParams, evolve, run_all_96
from alwabp.instance import _parse_instance

GOLDEN = Path(__file__).with_name("golden.json")
WORK = Path(__file__).with_name("work.json")

# layer -> the (module or module.Class, attribute) whose calls count it
LAYERS = {
    "assemblies": ("constructive", "_assemble"),
    "station_fills": ("constructive", "_station_fills"),
    "fills": ("constructive", "_fill"),
    "ranked_fills": ("constructive", "_fill_ranked"),
    "rank_builds": ("constructive", "_rank_rows"),
    "min_bwa": ("constructive", "_min_bwa"),
    "bwa_without": ("constructive", "_bwa_without"),
    "crews": ("constructive._Crew", "__init__"),
    "exhaustive_searches": ("bounds", "_no_assignment"),
}


def _owner(path):
    """The module `alwabp.<path>`, or its class when `path` is
    `module.Class` (None when that class is gone)."""
    head, _, cls = path.partition(".")
    owner = importlib.import_module(f"alwabp.{head}")
    return getattr(owner, cls, None) if cls else owner


@contextmanager
def counting():
    """The calls of each layer while the block runs, per layer; each
    site is wrapped on entry and restored on exit.  A site that is gone
    is refused with LookupError naming it."""
    counts = dict.fromkeys(LAYERS, 0)
    wrapped = []
    try:
        for layer, (path, attr) in LAYERS.items():
            owner = _owner(path)
            if owner is None or not hasattr(owner, attr):
                raise LookupError(f"the work ledger counts alwabp.{path}."
                                  f"{attr}, which is gone")

            original = getattr(owner, attr)

            def counted(*args, _layer=layer, _call=original, **kwargs):
                counts[_layer] += 1
                return _call(*args, **kwargs)

            wrapped.append((owner, attr, original))
            setattr(owner, attr, counted)
        yield counts
    finally:
        for owner, attr, original in reversed(wrapped):
            setattr(owner, attr, original)


def instances():
    """The golden corpus, parsed from the text `golden.json` stores."""
    texts = json.loads(GOLDEN.read_text(encoding="utf-8"))["instances"]
    return [_parse_instance(text, name=text.split("\n", 1)[0][2:])
            for text in texts]


def work_of(inst) -> dict[str, int]:
    """The calls of each layer over one instance's runs."""
    with counting() as counts:
        run_all_96(inst)
        run_all_96(inst, True)
        evolve(inst, HgaParams(p=20, max_iters=3, rng_seed=1))
    return dict(counts)


def ledger(corpus) -> dict[str, dict[str, int]]:
    """instance name -> layer -> calls, and the `total` row."""
    rows = {inst.name: work_of(inst) for inst in corpus}
    rows["total"] = {layer: sum(row[layer] for row in rows.values())
                     for layer in LAYERS}
    return rows


def main():
    WORK.write_text(json.dumps(ledger(instances()), indent=1, sort_keys=True)
                    + "\n", encoding="utf-8")
    print(f"wrote {WORK}", file=sys.stderr)


if __name__ == "__main__":
    main()
