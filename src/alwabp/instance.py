"""ALWABP-2 instances: file formats, precedence structure, derived views.

Every file is UTF-8 text.  Instance text format (whitespace separated,
lines starting with '#' are comments):

    n_tasks n_workers
    n_edges
    i j             one line per precedence edge, 1-based, i precedes j
    t_1 ... t_n     one line per worker: execution time of every task,
    ...             'Inf' marks a task the worker cannot execute

Times are positive integers.  Every integer token is ASCII decimal
digits with an optional leading minus (`read_decimal`), so negative
values get their own range errors and `1_0`, `+3` or non-ASCII digits
are refused.  Zero entries are rejected on load so that ratio based
priority rules never divide by zero.  Internally tasks and workers are
0-based; only the file format is 1-based.

A relaxation sidecar holds an externally computed relaxation bound for
an instance file: it sits next to the file, with '.relax' appended to
the full file name, and holds one finite number by the same rule, as a
real number (`relax_sidecar`).

A base instance is SALBP-like: one integer time per task plus the
precedence edges (`generator` derives worker times from it).  Base text
format, in the same lexical conventions:

    n_tasks
    t_i             one line per task
    n_edges
    i j             one line per edge, 1-based
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

INFEASIBLE = float("inf")


class ParseError(ValueError):
    """Malformed instance text."""


class ValidationError(ValueError):
    """Structurally broken instance: cycle, uncoverable task, bad time."""


def as_int(value, what, least=None) -> int:
    """`value` as an int, when it is int-like (`operator.index`) and not
    a bool, and at least `least` when that is given; ValidationError
    otherwise."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if least is None or n >= least:
                return n
            raise ValidationError(f"{what} must be at least {least}, got {n}")
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def as_number(value, what, low=-math.inf, high=math.inf):
    """`value` when it is a finite real number, not a bool, in [low,
    high]; ValidationError otherwise (None, a string or NaN is not)."""
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and low <= value <= high)
    except TypeError:
        ok = False
    if not ok:
        span = ("a finite number" if (low, high) == (-math.inf, math.inf)
                else f"a number in [{low:g}, {high:g}]")
        raise ValidationError(f"{what} must be {span}, got {value!r}")
    return value


def as_member(value, kind, what):
    """`value` when it is an instance of the class `kind` (a member, for
    an enum; a bool, for `bool`) or one of the items of the tuple `kind`;
    ValidationError otherwise, as a rule's name is not its member and a
    string such as "no" is not a bool."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        want = "one of " + ", ".join(map(repr, kind))
    elif isinstance(value, kind):
        return value
    else:
        name = kind.__name__
        want = ("an " if name[0] in "AEIOU" else "a ") + name
    raise ValidationError(f"{what} must be {want}, got {value!r}")


# The ASCII decimal rule of every number the package reads from text: an
# optional leading minus and ASCII digits; a real number may go on with a
# point and digits, then an exponent (`2.75`, `1.5e+02`).  `int` and
# `float` would also take `1_0`, `+3`, non-ASCII digits, surrounding
# blanks, `inf` and `nan`.
_DECIMAL = {int: re.compile(r"-?[0-9]+"),
            float: re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")}


def read_decimal(text, kind=int):
    """`text` as a `kind` (int or float) when it follows the ASCII decimal
    rule above; None otherwise, and for an int of more digits than `int`
    converts (`sys.get_int_max_str_digits`)."""
    if not _DECIMAL[kind].fullmatch(text):
        return None
    try:
        return kind(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class ClosureView:
    """Immediate and transitive precedence sets of one instance, as
    `Instance.closure` derives them from its `succ` on each call."""

    pred: tuple[tuple[int, ...], ...]       # P_i, immediate predecessors
    succ: tuple[tuple[int, ...], ...]       # F_i, immediate successors
    pred_star: tuple[frozenset[int], ...]   # all transitive predecessors
    succ_star: tuple[frozenset[int], ...]   # all transitive successors


class Instance:
    """Immutable ALWABP-2 problem data.

    An instance stores `n_tasks`, `n_workers`, `name`, `times` and
    `succ`.  times[w][i] is the integer execution time of task i by
    worker w, or INFEASIBLE.  The number of stations always equals the
    number of workers.  `succ[i]` holds the immediate followers of task
    i as a tuple, in the order a frozenset of them iterates, which the
    closure and every rule summing over it inherit.  It is the one
    stored form of the precedence: `pred` and `edges` are views built
    from it on each read.
    """

    __slots__ = ("n_tasks", "n_workers", "name", "times", "succ")

    def __init__(self, n_tasks, n_workers, times, edges, name="instance"):
        self.n_tasks = n = as_int(n_tasks, "task count", 1)
        self.n_workers = as_int(n_workers, "worker count", 1)
        self.name = str(name)

        rows = tuple(tuple(as_member(row, Iterable, "a worker's times"))
                     for row in as_member(times, Iterable, "times"))
        if len(rows) != self.n_workers:
            raise ValidationError(
                f"expected {self.n_workers} worker rows, got {len(rows)}")
        for w, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(
                    f"worker {w + 1}: expected {n} times, got {len(row)}")
            for i, t in enumerate(row):
                if type(t) is int and t >= 1 or t == INFEASIBLE:
                    continue        # the common cases, tested first
                if isinstance(t, bool) or not isinstance(t, int) or t < 1:
                    raise ValidationError(
                        f"time of task {i + 1} for worker {w + 1} must be a "
                        f"positive integer or Inf, got {t!r}")
        self.times = rows

        self.succ = _precedence(n, edges)

        columns = list(zip(*rows))
        none = (INFEASIBLE,) * self.n_workers
        if none in columns:
            raise ValidationError(
                f"task {columns.index(none) + 1} has no capable worker")

    # -- derived views ----------------------------------------------------

    @property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        """`pred[i]`, the immediate predecessors of task i as a tuple,
        built from `succ` on each read: each set is filled in ascending
        order, as the sorted edges fill `succ`, then frozen."""
        pred = [set() for _ in range(self.n_tasks)]
        for i, ss in enumerate(self.succ):
            for j in ss:
                pred[j].add(i)
        return tuple(map(tuple, map(frozenset, pred)))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The precedence edges (i, j), i before j, in ascending order,
        built from `succ` on each read."""
        return tuple((i, j) for i, ss in enumerate(self.succ)
                     for j in sorted(ss))

    def closure(self) -> ClosureView:
        """Transitive closure of the precedence relation, built afresh on
        each call: the holder keeps it (a `SearchCache` keeps one for
        all the searches on the instance)."""
        n, pred, succ = self.n_tasks, self.pred, self.succ
        topo = _toposort(n, succ, list(map(len, pred)))
        pred_star = [set() for _ in range(n)]
        succ_star = [set() for _ in range(n)]
        for i in topo:
            for p in pred[i]:
                pred_star[i].add(p)
                pred_star[i] |= pred_star[p]
        for i in reversed(topo):
            for s in succ[i]:
                succ_star[i].add(s)
                succ_star[i] |= succ_star[s]
        return ClosureView(
            pred=pred,
            succ=succ,
            pred_star=tuple(frozenset(s) for s in pred_star),
            succ_star=tuple(frozenset(s) for s in succ_star),
        )

    def reverse(self) -> "Instance":
        """Instance with every precedence edge flipped; times unchanged."""
        return Instance(self.n_tasks, self.n_workers, self.times,
                        [(j, i) for i, j in self.edges], name=self.name)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n_tasks, self.n_workers, self.times, self.succ, self.name) == \
               (other.n_tasks, other.n_workers, other.times, other.succ, other.name)

    def __hash__(self):
        return hash((self.n_tasks, self.n_workers, self.times, self.succ))

    def __repr__(self):
        return (f"Instance({self.name!r}, tasks={self.n_tasks}, "
                f"workers={self.n_workers}, edges={len(self.edges)})")


def _edge_pairs(n, edges) -> list[tuple[int, int]]:
    """`edges` as a list of int pairs (i, j) of task indices below `n`,
    with i != j; ValidationError for the first edge at fault."""
    pairs = []
    for edge in as_member(edges, Iterable, "edges"):
        # the common cases, tuples of two ints, tested first
        i, j = (edge if type(edge) is tuple
                else as_member(edge, Iterable, "an edge"))
        if type(i) is not int or type(j) is not int:
            i, j = as_int(i, "edge tail"), as_int(j, "edge head")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"edge ({i + 1}, {j + 1}) out of range")
        if i == j:
            raise ValidationError(f"task {i + 1} precedes itself")
        pairs.append((i, j))
    return pairs


def _precedence(n, edges):
    """`succ` of `n` tasks under `edges`, as an `Instance` holds it;
    ValidationError for an edge that is not a pair of task indices, a
    self-loop or a cycle.

    Each set is filled in ascending order (a repeated edge adds nothing),
    and its tuple follows the frozenset's iteration order, which depends
    on insertion order where two indices collide in the set's table (3
    and 11 in a table of 8)."""
    succ = [set() for _ in range(n)]
    indegree = [0] * n
    for i, j in sorted(set(_edge_pairs(n, edges))):
        succ[i].add(j)
        indegree[j] += 1
    succ = tuple(map(tuple, map(frozenset, succ)))
    _toposort(n, succ, indegree)
    return succ


def _toposort(n, succ, indegree) -> list[int]:
    order = []
    ready = [i for i in range(n) if indegree[i] == 0]
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    if len(order) != n:
        raise ValidationError("precedence relation contains a cycle")
    return order


# -- text format ------------------------------------------------------------

def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield lineno, tok


def _next(stream, what):
    try:
        return next(stream)
    except StopIteration:
        raise ParseError(f"unexpected end of file, expected {what}") from None


def _read_int(token, what):
    """The int of a (line number, token) pair from `_tokens`, by the ASCII
    decimal rule (`read_decimal`)."""
    lineno, tok = token
    n = read_decimal(tok)
    if n is None:
        raise ParseError(f"line {lineno}: expected {what}, got {tok!r}")
    return n


def _read_count(stream, what, least=1):
    """A count of at least `least`, checked before it sizes any loop."""
    n = _read_int(_next(stream, what), what)
    if n < least:
        raise ParseError(f"{what} must be at least {least}, got {n}")
    return n


def _read_edges(stream):
    """An edge count, then that many 1-based `i j` lines, as 0-based pairs."""
    return [(_read_int(_next(stream, "edge tail"), "edge tail") - 1,
             _read_int(_next(stream, "edge head"), "edge head") - 1)
            for _ in range(_read_count(stream, "edge count", 0))]


def _read_end(stream):
    leftover = next(stream, None)
    if leftover is not None:
        raise ParseError(f"line {leftover[0]}: trailing data {leftover[1]!r}")


def _read_file(path) -> tuple[str, str]:
    """The text of the file at `path` and its stem, or ParseError."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8"), p.stem
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc


def relax_sidecar(path) -> float | None:
    """The relaxation bound in the sidecar of the instance file at
    `path` (see module docstring), None when there is no sidecar;
    ParseError when it cannot be read or holds anything else."""
    p = Path(str(path) + ".relax")
    if not p.exists():
        return None
    text = _read_file(p)[0].strip()
    value = read_decimal(text, float)
    if value is None or not math.isfinite(value):
        raise ParseError(f"{p}: expected a single finite number, "
                         f"got {text!r}")
    return value


def _parse_instance(text: str, name: str = "instance") -> Instance:
    """Parse the canonical instance format (see module docstring)."""
    stream = _tokens(text)
    n_tasks = _read_count(stream, "task count")
    n_workers = _read_count(stream, "worker count")
    edges = _read_edges(stream)
    times = []
    for _ in range(n_workers):
        row = []
        for _ in range(n_tasks):
            token = _next(stream, "a task time")
            row.append(INFEASIBLE if token[1].lower() == "inf"
                       else _read_int(token, "a task time"))
        times.append(row)
    _read_end(stream)
    return Instance(n_tasks, n_workers, times, edges, name=name)


def load_instance(path) -> Instance:
    text, name = _read_file(path)
    return _parse_instance(text, name=name)


@dataclass(frozen=True)
class BaseInstance:
    """Single-time base instance (see module docstring).  `times` and
    `edges` that are not sequences, a time that is not an int, or is a
    bool or below 1, and edges that an `Instance` of these tasks would
    refuse (out of range, a self-loop, a cycle) are refused with
    ValidationError."""

    name: str
    times: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for t in as_member(self.times, Sequence, "base task times"):
            if isinstance(t, bool) or not isinstance(t, int):
                raise ValidationError(
                    f"base task times must be integers, got {t!r}")
            if t < 1:
                raise ValidationError(
                    f"base task times must be positive, got {t}")
        _precedence(len(self.times),
                    as_member(self.edges, Sequence, "base edges"))

    @property
    def n_tasks(self) -> int:
        return len(self.times)


def _parse_base(text: str, name: str = "base") -> BaseInstance:
    """Parse the base format (see module docstring)."""
    stream = _tokens(text)
    n = _read_count(stream, "task count")
    times = tuple(_read_int(_next(stream, "a task time"), "a task time")
                  for _ in range(n))
    edges = tuple(_read_edges(stream))
    _read_end(stream)
    return BaseInstance(name, times, edges)


def load_base(path) -> BaseInstance:
    text, name = _read_file(path)
    return _parse_base(text, name=name)


def _format_instance(inst: Instance) -> str:
    """Serialize back to the canonical text format; the comment line
    holds the lines of the name joined by spaces."""
    out = ["# " + " ".join(inst.name.splitlines())]
    out.append(f"{inst.n_tasks} {inst.n_workers}")
    edges = inst.edges
    out.append(str(len(edges)))
    for i, j in edges:
        out.append(f"{i + 1} {j + 1}")
    for w in range(inst.n_workers):
        out.append(" ".join(
            "Inf" if t == INFEASIBLE else str(t) for t in inst.times[w]))
    return "\n".join(out) + "\n"


def save_instance(inst: Instance, path) -> None:
    as_member(inst, Instance, "inst")
    Path(path).write_text(_format_instance(inst), encoding="utf-8")
