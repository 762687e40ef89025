"""The argument contract of the public API, as one table.

`CONTRACT` has one row per callable in `alwabp.__all__`: a valid call
(as keyword arguments) and, for every parameter, the malformed values of
its kind.  Each checked parameter is called with each of them in place
of its valid value and must be refused with ValueError or a subclass
(`ValidationError`, `ParseError`), never with another exception or a
result.  A parameter no entry point checks is listed as `UNCHECKED`,
with the reason, so a new public callable or parameter cannot go
unlisted.  A class whose fields are all unchecked is a record, and must
build from any values.
"""

from __future__ import annotations

import inspect
import math
import random
from enum import Enum

import pytest

import alwabp
from alwabp import (BaseInstance, Chromosome, GeneratorConfig, HgaParams,
                    Instance, RuleConfig, SearchCache, Solution, TaskRule,
                    WorkerRule)

UNCHECKED = ()

TINY = Instance(3, 2, [[2, 3, 4], [5, 1, 1]], [(0, 1), (0, 2)],
                name="tiny-A")
OTHER = Instance(1, 1, [[1]], [], name="other")

NAME = "MaxF"                   # a rule's name, not the rule
WRONG_SHAPE = [[0.5] * 2] * 3   # tasks x workers of TINY, not workers x tasks
MALFORMED = (2.5, True, -1, math.nan, None, NAME, WRONG_SHAPE)


def integer(least=None):
    """An int, not a bool, of at least `least` when that is given."""
    bad = [v for v in MALFORMED if v != -1]
    return bad if least is None else bad + [least - 1, -1]


def number(low=-math.inf, high=math.inf):
    """A finite real number, not a bool, in [low, high]."""
    return [True, math.nan, math.inf, None, NAME, WRONG_SHAPE] + [
        v for v in (2.5, -1) if not low <= v <= high]


def member(kind, *more):
    """An instance of the class `kind`, or one of the items of a tuple."""
    if isinstance(kind, tuple):
        return [v for v in MALFORMED if v not in kind] + list(more)
    return [v for v in MALFORMED if not isinstance(v, kind)] + list(more)


def optional(values):
    """The same kind, where None stands for the default."""
    return [v for v in values if v is not None]


FLAG = member(bool)
INSTANCE = member(Instance)
NOT_ITERABLE = [None, 2.5]      # for a container
CACHE = optional(member(SearchCache, SearchCache(OTHER)))
SOURCE = MALFORMED + (WorkerRule.MIN_BWA,)     # a TaskRule or a matrix
TASK_RULE = member(TaskRule, WorkerRule.MIN_BWA)
WORKER_RULE = member(WorkerRule, "MinRLB", TaskRule.MAX_F)
CHROMOSOME = member(Chromosome, Chromosome(((0.5,),)))  # wrong shape too
TINY_KEYS = Chromosome(((0.5, 0.25, 0.0), (0.0, 0.5, 0.25)))
# for two tasks: the ends, the edges together (a self-loop, a cycle), and
# each edge and `edges` as containers
EDGES = ([[(v, 1)] for v in (2.5, True, -1, 2, math.nan, None, NAME)]
         + [[(0, 0)], [(0, 1), (1, 0)]] + NOT_ITERABLE
         + [[v] for v in NOT_ITERABLE])


# name -> (valid keyword arguments, built from a temporary directory, or
# None for a row with nothing checked; {parameter: malformed values})
CONTRACT = {
    # -- instance ---------------------------------------------------------
    "ClosureView": (None, dict.fromkeys(
        ("pred", "succ", "pred_star", "succ_star"), UNCHECKED)),
    "Instance": (lambda tmp: dict(n_tasks=2, n_workers=1, times=[[1, 2]],
                                  edges=[(0, 1)]), {
        "n_tasks": integer(1), "n_workers": integer(1),
        # the cells, the shape, and the rows and `times` as containers
        "times": [[[v, 2]] for v in (2.5, True, 0, -1, math.nan, None,
                                     NAME)] + [[[1]], [[1, 2], [1, 2]]]
        + NOT_ITERABLE + [[v] for v in NOT_ITERABLE],
        "edges": EDGES,
        "name": UNCHECKED}),        # str() of anything
    "ParseError": (None, {}),
    "ValidationError": (None, {}),
    # the readers check the text, not the type of the path
    "load_instance": (None, {"path": UNCHECKED}),
    "save_instance": (lambda tmp: dict(inst=TINY, path=tmp / "tiny.alwabp"), {
        "inst": INSTANCE, "path": UNCHECKED}),
    # -- solution ---------------------------------------------------------
    "Solution": (None, dict.fromkeys(
        ("stations", "loads", "cycle", "direction"), UNCHECKED)),
    # reports a malformed `sol` in its result instead of raising
    "validate_solution": (None, {"inst": UNCHECKED, "sol": UNCHECKED}),
    # -- generator --------------------------------------------------------
    "BaseInstance": (lambda tmp: dict(name="b", times=(1, 2), edges=()), {
        "name": UNCHECKED,
        "times": [(v, 1) for v in (2.5, True, 0, -1, math.nan, None, NAME)]
        + NOT_ITERABLE,
        "edges": EDGES}),
    "GeneratorConfig": (lambda tmp: dict(n_workers=2), {
        "n_workers": integer(1), "variability": member(("low", "high")),
        "infeasibility_density": number(0, 1) + [1.0],
        "rng_seed": integer()}),
    "generate": (lambda tmp: dict(base=BaseInstance("b", (1, 2), ()),
                                  cfg=GeneratorConfig(2)), {
        "base": member(BaseInstance), "cfg": member(GeneratorConfig)}),
    "load_base": (None, {"path": UNCHECKED}),
    # -- bounds -----------------------------------------------------------
    "BoundsReport": (None, dict.fromkeys(
        ("lc1", "lc2", "lc3", "external_relax", "best"), UNCHECKED)),
    "CycleInfeasibleError": (None, {}),
    "compute_bounds": (lambda tmp: dict(inst=TINY), {
        "inst": INSTANCE, "external_relax": optional(number())}),
    "lc1": (lambda tmp: dict(inst=TINY), {"inst": INSTANCE}),
    "preprocess": (lambda tmp: dict(inst=TINY, c=9), {
        "inst": INSTANCE, "c": integer(1)}),
    "relax_sidecar": (None, {"path": UNCHECKED}),
    # -- lp ---------------------------------------------------------------
    "export_lp": (lambda tmp: dict(inst=TINY), {
        "inst": INSTANCE, "relaxed": FLAG}),
    # -- constructive -----------------------------------------------------
    "NoFeasibleAssignmentError": (None, {}),
    "RuleConfig": (lambda tmp: dict(task_rule=TaskRule.MAX_F,
                                    worker_rule=WorkerRule.MIN_RLB), {
        "task_rule": TASK_RULE, "worker_rule": WORKER_RULE,
        "direction": member(alwabp.DIRECTIONS, "both")}),
    "RuleRun": (None, dict.fromkeys(
        ("config", "cycle", "elapsed", "error"), UNCHECKED)),
    "SearchCache": (lambda tmp: dict(inst=TINY), {"inst": INSTANCE}),
    # an enum looks its value up itself
    "TaskRule": (None, {}),
    "WorkerRule": (None, {}),
    "all_rule_configs": (None, {}),
    "priority_rows": (lambda tmp: dict(inst=TINY, source=TaskRule.MAX_F,
                                       c_bar=9), {
        "inst": INSTANCE, "source": SOURCE, "c_bar": integer(1),
        "cache": CACHE}),
    "run_all_96": (lambda tmp: dict(inst=TINY), {
        "inst": INSTANCE, "use_preprocess": FLAG}),
    "run_configs": (lambda tmp: dict(inst=TINY, configs=[RuleConfig(
        TaskRule.MAX_F, WorkerRule.MIN_RLB)]), {
        "inst": INSTANCE,
        # the configurations, and `configs` as a container
        "configs": [[v] for v in member(RuleConfig)] + NOT_ITERABLE,
        "use_preprocess": FLAG}),
    "solve_lower_bound_search": (lambda tmp: dict(
        inst=TINY, source=TaskRule.MAX_F, worker_rule=WorkerRule.MIN_RLB), {
        "inst": INSTANCE, "source": SOURCE, "worker_rule": WORKER_RULE,
        "direction": member(alwabp.DIRECTIONS + ("both",), "up"),
        "c_start": optional(integer()), "use_preprocess": FLAG,
        "cache": CACHE}),
    # -- local search -----------------------------------------------------
    # the records of the moves a pass accepted; the passes build them
    # with distinct ends in range (tests/test_localsearch.py)
    "DoubleShift": (None, dict.fromkeys(("first", "second"), UNCHECKED)),
    "Shift": (None, dict.fromkeys(("task", "from_station", "to_station"),
                                  UNCHECKED)),
    "Swap": (None, dict.fromkeys(("task_a", "task_b"), UNCHECKED)),
    "WorkerSwap": (None, dict.fromkeys(("station_a", "station_b"),
                                       UNCHECKED)),
    "improve": (lambda tmp: dict(inst=TINY, sol=Solution(
        ((0, (0, 1, 2)), (1, ())), (9, 0), 9)), {
        "inst": INSTANCE,
        "sol": member(Solution, Solution(
            ((0, (0, 1, 2)), (1, ())), (8, 0), 8)),
        "moves": [v for v in optional(MALFORMED)
                  if not isinstance(v, list)]}),
    # -- hga --------------------------------------------------------------
    "Chromosome": (lambda tmp: dict(p=((0.5,),)), {
        "p": [v for v in MALFORMED if v is not WRONG_SHAPE]
        + [((v,),) for v in (2.5, -1, math.nan, None, NAME, True, False)]
        + [((True, False),)]}),
    "Fitness": (None, {"cycle": UNCHECKED, "norm_load": UNCHECKED}),
    "HgaParams": (lambda tmp: dict(), {
        "p": integer(2), "p_e": optional(integer(1)),
        "p_r": optional(integer(0)), "q": number(0.5, 1),
        "max_iters": integer(0), "max_stale_iters": integer(1),
        "rng_seed": integer(), "stop_at_lower_bound": FLAG}),
    "HgaResult": (None, dict.fromkeys(
        ("solution", "fitness", "log", "iterations", "reason"), UNCHECKED)),
    "LogEntry": (None, dict.fromkeys(
        ("iteration", "cycle", "norm_load", "seconds"), UNCHECKED)),
    "crossover": (lambda tmp: dict(a=TINY_KEYS, b=TINY_KEYS, q=0.7,
                                   rng=random.Random(0)), {
        "a": CHROMOSOME, "b": CHROMOSOME, "q": number(0.5, 1),
        "rng": UNCHECKED}),
    "decode": (lambda tmp: dict(inst=TINY, chromosome=TINY_KEYS), {
        "inst": INSTANCE, "chromosome": CHROMOSOME,
        "c_start": optional(integer()), "cache": CACHE}),
    "encode_rule": (lambda tmp: dict(inst=TINY, rule=TaskRule.MAX_F), {
        "inst": INSTANCE, "rule": TASK_RULE,
        "c_bar": optional(integer(1)), "cache": CACHE}),
    "evolve": (lambda tmp: dict(inst=TINY, params=HgaParams(p=4,
                                                           max_iters=1)), {
        "inst": INSTANCE, "params": member(HgaParams),
        "external_relax": optional(number())}),
}

CALLABLES = sorted(name for name in alwabp.__all__
                   if callable(getattr(alwabp, name)))
CHECKED = [(name, param) for name, (_, kinds) in CONTRACT.items()
           for param, bad in kinds.items() if bad]
# the classes with fields and no checked one: the records the package
# returns
RECORDS = sorted(name for name, (_, kinds) in CONTRACT.items()
                 if isinstance(getattr(alwabp, name), type) and kinds
                 and not any(kinds.values()))


def test_every_public_callable_has_a_row():
    assert sorted(CONTRACT) == CALLABLES


@pytest.mark.parametrize("name", CALLABLES)
def test_a_row_lists_every_parameter(name):
    """Exceptions and enums take their own arguments, checked by
    Python; every other row names each public parameter."""
    obj = getattr(alwabp, name)
    valid, kinds = CONTRACT[name]
    if isinstance(obj, type) and issubclass(obj, (BaseException, Enum)):
        assert kinds == {}
        return
    params = [p for p in inspect.signature(obj).parameters
              if not p.startswith("_")]
    assert sorted(kinds) == sorted(params)
    assert (valid is None) == (not any(kinds.values()))


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_checks_nothing(name):
    """A row with every field unchecked is true: the record holds
    whatever it is given."""
    _, kinds = CONTRACT[name]
    getattr(alwabp, name)(**{field: object() for field in kinds})


@pytest.mark.parametrize("name", sorted({name for name, _ in CHECKED}))
def test_the_valid_call_of_a_row_succeeds(tmp_path, name):
    """So a refusal below is one of the malformed value alone."""
    valid, _ = CONTRACT[name]
    getattr(alwabp, name)(**valid(tmp_path))


@pytest.mark.parametrize("name, param", CHECKED)
def test_malformed_arguments_are_refused_with_value_error(tmp_path, name,
                                                          param):
    valid, kinds = CONTRACT[name]
    call = getattr(alwabp, name)
    for bad in kinds[param]:
        with pytest.raises(ValueError):
            call(**{**valid(tmp_path), param: bad})
