"""ALWABP-2 instances: file formats, precedence structure, derived views.

Instance text format (whitespace separated, lines starting with '#' are
comments):

    n_tasks n_workers
    n_edges
    i j             one line per precedence edge, 1-based, i precedes j
    t_1 ... t_n     one line per worker: execution time of every task,
    ...             'Inf' marks a task the worker cannot execute

Times are positive integers.  Zero entries are rejected on load so that
ratio based priority rules never divide by zero.  Internally tasks and
workers are 0-based; only the file format is 1-based.

A base instance is SALBP-like: one integer time per task plus the
precedence edges (`generator` derives worker times from it).  Base text
format, in the same lexical conventions:

    n_tasks
    t_i             one line per task
    n_edges
    i j             one line per edge, 1-based
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

INFEASIBLE = float("inf")


class ParseError(ValueError):
    """Malformed instance text."""


class ValidationError(ValueError):
    """Structurally broken instance: cycle, uncoverable task, bad time."""


@dataclass(frozen=True)
class ClosureView:
    """Immediate and transitive precedence sets of one instance."""

    pred: tuple[frozenset[int], ...]        # P_i, immediate predecessors
    succ: tuple[frozenset[int], ...]        # F_i, immediate successors
    pred_star: tuple[frozenset[int], ...]   # all transitive predecessors
    succ_star: tuple[frozenset[int], ...]   # all transitive successors
    order_strength: float                   # 2|E*| / (n(n-1)), 0 for n < 2


class Instance:
    """Immutable ALWABP-2 problem data.

    times[w][i] is the integer execution time of task i by worker w, or
    INFEASIBLE.  The number of stations always equals the number of
    workers.
    """

    def __init__(self, n_tasks, n_workers, times, edges, name="instance"):
        self.n_tasks = int(n_tasks)
        self.n_workers = int(n_workers)
        self.name = str(name)
        if self.n_tasks < 1:
            raise ValidationError("need at least one task")
        if self.n_workers < 1:
            raise ValidationError("need at least one worker")

        if len(times) != self.n_workers:
            raise ValidationError(
                f"expected {self.n_workers} worker rows, got {len(times)}")
        rows = []
        for w, row in enumerate(times):
            row = tuple(row)
            if len(row) != self.n_tasks:
                raise ValidationError(
                    f"worker {w + 1}: expected {self.n_tasks} times, got {len(row)}")
            for i, t in enumerate(row):
                if t == INFEASIBLE:
                    continue
                if not isinstance(t, int) or t < 1:
                    raise ValidationError(
                        f"time of task {i + 1} for worker {w + 1} must be a "
                        f"positive integer or Inf, got {t!r}")
            rows.append(row)
        self.times = tuple(rows)

        seen = set()
        for i, j in edges:
            if not (0 <= i < self.n_tasks and 0 <= j < self.n_tasks):
                raise ValidationError(f"edge ({i + 1}, {j + 1}) out of range")
            if i == j:
                raise ValidationError(f"task {i + 1} precedes itself")
            seen.add((int(i), int(j)))
        self.edges = tuple(sorted(seen))

        pred = [set() for _ in range(self.n_tasks)]
        succ = [set() for _ in range(self.n_tasks)]
        for i, j in self.edges:
            pred[j].add(i)
            succ[i].add(j)
        self.pred = tuple(frozenset(p) for p in pred)
        self.succ = tuple(frozenset(s) for s in succ)

        self._topo = _toposort(self.n_tasks, self.succ, [len(p) for p in pred])

        for i in range(self.n_tasks):
            if all(self.times[w][i] == INFEASIBLE for w in range(self.n_workers)):
                raise ValidationError(f"task {i + 1} has no capable worker")

        self._closure = None

    # -- derived views ----------------------------------------------------

    def closure(self) -> ClosureView:
        """Transitive closure of the precedence relation (cached)."""
        if self._closure is None:
            n = self.n_tasks
            pred_star = [set() for _ in range(n)]
            succ_star = [set() for _ in range(n)]
            for i in self._topo:
                for p in self.pred[i]:
                    pred_star[i].add(p)
                    pred_star[i] |= pred_star[p]
            for i in reversed(self._topo):
                for s in self.succ[i]:
                    succ_star[i].add(s)
                    succ_star[i] |= succ_star[s]
            n_rel = sum(len(s) for s in succ_star)
            strength = 2.0 * n_rel / (n * (n - 1)) if n > 1 else 0.0
            self._closure = ClosureView(
                pred=self.pred,
                succ=self.succ,
                pred_star=tuple(frozenset(s) for s in pred_star),
                succ_star=tuple(frozenset(s) for s in succ_star),
                order_strength=strength,
            )
        return self._closure

    def reverse(self) -> "Instance":
        """Instance with every precedence edge flipped; times unchanged."""
        return Instance(self.n_tasks, self.n_workers, self.times,
                        [(j, i) for i, j in self.edges], name=self.name)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n_tasks, self.n_workers, self.times, self.edges, self.name) == \
               (other.n_tasks, other.n_workers, other.times, other.edges, other.name)

    def __hash__(self):
        return hash((self.n_tasks, self.n_workers, self.times, self.edges))

    def __repr__(self):
        return (f"Instance({self.name!r}, tasks={self.n_tasks}, "
                f"workers={self.n_workers}, edges={len(self.edges)})")


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


def _read_int(stream, what):
    lineno, tok = _next(stream, what)
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _read_count(stream, what, least=1):
    """A count of at least `least`, checked before it sizes any loop."""
    n = _read_int(stream, what)
    if n < least:
        raise ParseError(f"{what} must be at least {least}, got {n}")
    return n


def _read_edges(stream):
    """An edge count, then that many 1-based `i j` lines, as 0-based pairs."""
    return [(_read_int(stream, "edge tail") - 1,
             _read_int(stream, "edge head") - 1)
            for _ in range(_read_count(stream, "edge count", 0))]


def _read_end(stream):
    leftover = next(stream, None)
    if leftover is not None:
        raise ParseError(f"line {leftover[0]}: trailing data {leftover[1]!r}")


def _read_file(path) -> tuple[str, str]:
    """The text of the file at `path` and its stem, or ParseError."""
    p = Path(path)
    try:
        return p.read_text(), p.stem
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc


def parse_instance(text: str, name: str = "instance") -> Instance:
    """Parse the canonical instance format (see module docstring)."""
    stream = _tokens(text)
    n_tasks = _read_count(stream, "task count")
    n_workers = _read_count(stream, "worker count")
    edges = _read_edges(stream)
    times = []
    for _ in range(n_workers):
        row = []
        for _ in range(n_tasks):
            lineno, tok = _next(stream, "a task time")
            if tok.lower() == "inf":
                row.append(INFEASIBLE)
            else:
                try:
                    row.append(int(tok))
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: bad time entry {tok!r}") from None
        times.append(row)
    _read_end(stream)
    return Instance(n_tasks, n_workers, times, edges, name=name)


def load_instance(path) -> Instance:
    text, name = _read_file(path)
    return parse_instance(text, name=name)


@dataclass(frozen=True)
class BaseInstance:
    """Single-time base instance (see module docstring)."""

    name: str
    times: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n_tasks(self) -> int:
        return len(self.times)


def parse_base(text: str, name: str = "base") -> BaseInstance:
    """Parse the base format (see module docstring)."""
    stream = _tokens(text)
    n = _read_count(stream, "task count")
    times = []
    for _ in range(n):
        t = _read_int(stream, "a task time")
        if t < 1:
            raise ValidationError(f"base task times must be positive, got {t}")
        times.append(t)
    edges = _read_edges(stream)
    _read_end(stream)
    # the edges must pass the checks an instance's edges pass
    Instance(n, 1, [times], edges, name=name)
    return BaseInstance(name, tuple(times), tuple(edges))


def load_base(path) -> BaseInstance:
    text, name = _read_file(path)
    return parse_base(text, name=name)


def format_instance(inst: Instance) -> str:
    """Serialize back to the canonical text format."""
    out = [f"# {inst.name}"]
    out.append(f"{inst.n_tasks} {inst.n_workers}")
    out.append(str(len(inst.edges)))
    for i, j in inst.edges:
        out.append(f"{i + 1} {j + 1}")
    for w in range(inst.n_workers):
        out.append(" ".join(
            "Inf" if t == INFEASIBLE else str(t) for t in inst.times[w]))
    return "\n".join(out) + "\n"


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(format_instance(inst))
