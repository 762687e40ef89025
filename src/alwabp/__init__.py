"""Heuristic solver kit for assembly line worker assignment and balancing
(type 2: fixed stations, minimize the cycle time)."""

from .instance import (INFEASIBLE, BaseInstance, ClosureView, Instance,
                       ParseError, ValidationError, format_instance, load_base,
                       load_instance, parse_base, parse_instance,
                       relax_sidecar, save_instance)
from .solution import Solution, validate_solution
from .generator import GeneratorConfig, generate
from .bounds import (BoundsReport, CycleInfeasibleError, compute_bounds, lc1,
                     lc2, lc3, min_times, preprocess, station_windows)
from .lp import export_lp, write_lp
from .constructive import (DIRECTIONS, NoFeasibleAssignmentError, RuleConfig,
                           RuleRun, SearchCache, TaskRule, WorkerRule,
                           all_rule_configs, assemble, cycle_ceiling,
                           priority_rows, run_all_96, run_configs,
                           solve_lower_bound_search)
from .localsearch import DoubleShift, Move, Shift, Swap, WorkerSwap, improve
from .hga import (Chromosome, Fitness, HgaParams, HgaResult, Individual,
                  LogEntry, crossover, decode, encode_rule, evolve,
                  random_chromosome)

__all__ = [
    "INFEASIBLE", "ClosureView", "Instance", "ParseError", "ValidationError",
    "format_instance", "load_instance", "parse_instance", "save_instance",
    "Solution", "validate_solution",
    "BaseInstance", "GeneratorConfig", "generate", "load_base", "parse_base",
    "BoundsReport", "CycleInfeasibleError", "compute_bounds", "lc1", "lc2",
    "lc3", "min_times", "preprocess", "relax_sidecar", "station_windows",
    "export_lp", "write_lp",
    "DIRECTIONS", "NoFeasibleAssignmentError", "RuleConfig", "RuleRun",
    "SearchCache", "TaskRule", "WorkerRule", "all_rule_configs", "assemble",
    "cycle_ceiling", "priority_rows", "run_all_96", "run_configs",
    "solve_lower_bound_search",
    "DoubleShift", "Move", "Shift", "Swap", "WorkerSwap", "improve",
    "Chromosome", "Fitness", "HgaParams", "HgaResult", "Individual",
    "LogEntry", "crossover", "decode", "encode_rule", "evolve",
    "random_chromosome",
]
