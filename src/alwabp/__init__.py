"""Heuristic solver kit for assembly line worker assignment and balancing
(type 2: fixed stations, minimize the cycle time)."""

from .instance import (INFEASIBLE, BaseInstance, ClosureView, Instance,
                       ParseError, ValidationError, load_base, load_instance,
                       relax_sidecar, save_instance)
from .solution import Solution, validate_solution
from .generator import GeneratorConfig, generate
from .bounds import (BoundsReport, CycleInfeasibleError, compute_bounds, lc1,
                     preprocess)
from .lp import export_lp
from .constructive import (DIRECTIONS, NoFeasibleAssignmentError, RuleConfig,
                           RuleRun, SearchCache, TaskRule, WorkerRule,
                           all_rule_configs, priority_rows, run_all_96,
                           run_configs, solve_lower_bound_search)
from .localsearch import DoubleShift, Shift, Swap, WorkerSwap, improve
from .hga import (Chromosome, Fitness, HgaParams, HgaResult, LogEntry,
                  crossover, decode, encode_rule, evolve)

__all__ = [
    "INFEASIBLE", "ClosureView", "Instance", "ParseError", "ValidationError",
    "load_instance", "save_instance",
    "Solution", "validate_solution",
    "BaseInstance", "GeneratorConfig", "generate", "load_base",
    "BoundsReport", "CycleInfeasibleError", "compute_bounds", "lc1",
    "preprocess", "relax_sidecar",
    "export_lp",
    "DIRECTIONS", "NoFeasibleAssignmentError", "RuleConfig", "RuleRun",
    "SearchCache", "TaskRule", "WorkerRule", "all_rule_configs",
    "priority_rows", "run_all_96", "run_configs", "solve_lower_bound_search",
    "DoubleShift", "Shift", "Swap", "WorkerSwap", "improve",
    "Chromosome", "Fitness", "HgaParams", "HgaResult", "LogEntry",
    "crossover", "decode", "encode_rule", "evolve",
]
