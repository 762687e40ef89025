"""Export the exact 0-1 model in CPLEX LP text format.

Variables: x_s{s}_w{w}_i{i} (task i done by worker w at station s),
y_s{s}_w{w} (worker w sits at station s), and the continuous cycle time
c.  Variables for (w, i) pairs the worker cannot execute are omitted
outright.  Station/worker/task indices in the file are 1-based.
"""

from __future__ import annotations

from .instance import INFEASIBLE, Instance, as_member


def _x(s, w, i) -> str:
    return f"x_s{s + 1}_w{w + 1}_i{i + 1}"


def _y(s, w) -> str:
    return f"y_s{s + 1}_w{w + 1}"


def _terms(parts) -> str:
    """A row's signed terms ("+ ..." or "- ...") as LP text, with no
    leading "+"."""
    return " ".join(parts).lstrip("+ ")


def export_lp(inst: Instance, relaxed: bool = False) -> str:
    """The model of `inst` as LP text; with `relaxed` the continuous
    relaxation.  A `relaxed` that is not a bool is refused with
    ValidationError, as a string such as "no" would write the
    relaxation."""
    as_member(inst, Instance, "inst")
    as_member(relaxed, bool, "relaxed")
    n, m = inst.n_tasks, inst.n_workers
    able = [[w for w in range(m) if inst.times[w][i] != INFEASIBLE]
            for i in range(n)]

    lines = [f"\\ {inst.name}: minimize the cycle time, {m} stations",
             "Minimize", " obj: c", "Subject To"]

    for i in range(n):
        terms = " + ".join(_x(s, w, i) for s in range(m) for w in able[i])
        lines.append(f" assign_i{i + 1}: {terms} = 1")

    for w in range(m):
        terms = " + ".join(_y(s, w) for s in range(m))
        lines.append(f" worker_w{w + 1}: {terms} = 1")

    for s in range(m):
        terms = " + ".join(_y(s, w) for w in range(m))
        lines.append(f" station_s{s + 1}: {terms} = 1")

    for i, j in inst.edges:
        # station of i minus station of j, each as the sum of s * x
        parts = [f"{sign} {'' if s == 0 else f'{s + 1} '}{_x(s, w, k)}"
                 for sign, k in (("+", i), ("-", j))
                 for s in range(m) for w in able[k]]
        lines.append(f" prec_i{i + 1}_j{j + 1}: {_terms(parts)} <= 0")

    for s in range(m):
        parts = [f"+ {inst.times[w][i]} {_x(s, w, i)}"
                 for i in range(n) for w in able[i]]
        lines.append(f" load_s{s + 1}: {_terms(parts)} - c <= 0")

    for s in range(m):
        for w in range(m):
            parts = [f"+ {_x(s, w, i)}" for i in range(n) if w in able[i]]
            parts.append(f"- {n} {_y(s, w)}")
            lines.append(f" link_s{s + 1}_w{w + 1}: {_terms(parts)} <= 0")

    names = [_x(s, w, i) for s in range(m) for i in range(n) for w in able[i]]
    names += [_y(s, w) for s in range(m) for w in range(m)]

    lines.append("Bounds")
    lines.append(" c >= 0")
    if relaxed:
        for v in names:
            lines.append(f" 0 <= {v} <= 1")
    else:
        lines.append("Binary")
        for v in names:
            lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"
