"""Directed acyclic graphs over named variables.

Nodes are identified by their index into a :class:`VariableSet`; names are
presentation only.  ``Dag`` values are immutable and validated at
construction time, so every value held anywhere in the library is acyclic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator


class CycleError(ValueError):
    """Adding the edge would close a directed cycle."""


class DuplicateEdgeError(ValueError):
    """The edge is already present."""


class SizeLimitError(ValueError):
    """Request exceeds a combinatorial safety limit."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered collection of distinct variable names defining column indices."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class Dag:
    """Labeled DAG: a VariableSet plus a set of (parent, child) index pairs."""

    variables: VariableSet
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        n = len(self.variables)
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if u == v:
                raise CycleError(f"self loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} nodes")
        # raises CycleError if no topological order exists
        topological_order(self)

    @classmethod
    def from_names(cls, variables: VariableSet, edges: Iterable[tuple[str, str]]) -> "Dag":
        idx = {name: i for i, name in enumerate(variables.names)}
        return cls(variables, frozenset((idx[a], idx[b]) for a, b in edges))

    @property
    def n(self) -> int:
        return len(self.variables)

    def parents(self, node: int) -> tuple[int, ...]:
        return tuple(sorted(u for u, v in self.edges if v == node))

    def children(self, node: int) -> tuple[int, ...]:
        return tuple(sorted(v for u, v in self.edges if u == node))

    def edge_names(self) -> list[tuple[str, str]]:
        names = self.variables.names
        return sorted((names[u], names[v]) for u, v in self.edges)

    def to_json(self) -> str:
        payload = {"variables": list(self.variables.names),
                   "edges": [list(e) for e in self.edge_names()]}
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Dag":
        payload = json.loads(text)
        variables = VariableSet(payload["variables"])
        return cls.from_names(variables, [tuple(e) for e in payload["edges"]])


def topological_order(dag: Dag) -> tuple[int, ...]:
    """Topological order of ``dag``, lowest index first among ties.

    Deterministic, so callers (ancestral simulation in particular) get
    reproducible node orderings.
    """
    n = len(dag.variables)
    indegree = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in dag.edges:
        indegree[v] += 1
        children[u].append(v)
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    order: list[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserted = False
        for child in children[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != n:
        raise CycleError("graph contains a directed cycle")
    return tuple(order)


def add_edge_checked(dag: Dag, parent: int, child: int) -> Dag:
    """Return a new Dag with the edge added, or raise.

    Raises ``DuplicateEdgeError`` if the edge exists and ``CycleError`` if
    ``child`` already reaches ``parent``.
    """
    if (parent, child) in dag.edges:
        raise DuplicateEdgeError(f"edge ({parent},{child}) already present")
    try:
        return Dag(dag.variables, dag.edges | {(parent, child)})
    except CycleError:
        raise CycleError(f"adding ({parent},{child}) would create a cycle") from None


def count_dags(n: int) -> int:
    """Number of labeled DAGs on n nodes (recursive inclusion-exclusion)."""
    a = {0: 1}
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            total += (-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * a[m - k]
        a[m] = total
    return a[n]


MAX_ENUMERATION_NODES = 5


def enumerate_dags(n: int, variables: VariableSet | None = None) -> Iterator[Dag]:
    """Yield every labeled DAG on ``n`` nodes exactly once.

    Iterates the 3^(n(n-1)/2) orientation assignments (absent / forward /
    backward per unordered pair) and keeps the acyclic ones.  Guarded to
    n <= 5 (29281 DAGs); beyond that the space is out of desk range.
    """
    if n > MAX_ENUMERATION_NODES:
        raise SizeLimitError(f"enumerate_dags limited to n <= {MAX_ENUMERATION_NODES}")
    if variables is None:
        variables = VariableSet(f"X{i}" for i in range(n))
    if len(variables) != n:
        raise ValueError("variable set size mismatch")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    for code in range(3 ** m):
        edges = []
        c = code
        for i, j in pairs:
            c, state = divmod(c, 3)
            if state == 1:
                edges.append((i, j))
            elif state == 2:
                edges.append((j, i))
        try:
            dag = Dag(variables, frozenset(edges))
        except CycleError:
            continue
        yield dag
