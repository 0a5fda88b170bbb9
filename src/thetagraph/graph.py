"""The prime coprime graph of a finite group.

Vertices are the group elements; two distinct vertices are joined exactly
when the gcd of their element orders is 1 or a prime. The graph is stored
as a dense symmetric boolean matrix: ``groups.MAX_ELEMENTS`` (4096) keeps
it within 16 MiB, so O(1) adjacency and trivially cached degrees beat any
sparse representation; export reads its rows off the order classes instead.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupSpec, OrderClasses

__all__ = [
    "ThetaGraph",
    "build_theta",
    "dot_pieces",
    "export_dot",
    "export_json",
    "group_classes",
    "json_pieces",
    "prime_order_set",
]


@dataclass(frozen=True, eq=False)
class ThetaGraph:
    """The graph of ``group``. Construction makes the given ``adj`` read-only
    in place, without copying it, and derives read-only ``degrees`` from it.
    Equality and hashing go by identity, as the per-graph ``facts`` do."""

    group: GroupSpec
    adj: np.ndarray  # (n, n) bool, symmetric, zero diagonal
    degrees: np.ndarray = field(init=False)  # (n,) int64
    # facts computed from the graph, by name, once each (see properties._once_per_graph)
    facts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        degrees = self.adj.sum(axis=1).astype(np.int64)
        object.__setattr__(self, "degrees", degrees)
        # read-only, so a fact in ``facts`` cannot go stale
        self.adj.setflags(write=False)
        degrees.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.group.orders)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with i < j, ascending."""
        ii, jj = np.nonzero(np.triu(self.adj, k=1))
        return list(zip(ii.tolist(), jj.tolist()))

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adj[i])


def build_theta(g: GroupSpec) -> ThetaGraph:
    """The graph of g; it holds g's read-only ``OrderClasses.expansion``, made once per group."""
    return ThetaGraph(g, g.order_classes.expansion)


def prime_order_set(t: ThetaGraph) -> frozenset[int]:
    """S(G): the indices of the identity and of all prime-order elements."""
    oc = t.group.order_classes
    return frozenset(np.flatnonzero(oc.one_or_prime[oc.class_of]).tolist())


def group_classes(t: ThetaGraph) -> OrderClasses:
    """``t.group.order_classes``; raises ValueError unless ``t.adj`` is their expansion."""
    oc = t.group.order_classes
    # O(1) for a graph from build_theta, which holds the expansion itself
    if t.adj is not oc.expansion and not np.array_equal(t.adj, oc.expansion):
        raise ValueError("the graph is not the expansion of its group's order classes")
    return oc


def _edge_rows(oc: OrderClasses, heads: list[str], tails: list[str], sep: str) -> Iterator[str]:
    """Yield one text per row i with edges: its edges i < j as ``heads[i] + tails[j]``,
    ascending, joined by ``sep``; rows ascending.

    Equal-order elements are twins, so row i is its class's list of neighbour tails from
    just past i. The head goes into the separator: one C-level join per row, not per edge.
    """
    tail_of, lists, start = np.array(tails, dtype=object), [], np.empty(len(tails), dtype=np.int64)
    for c in range(len(oc.orders)):
        mine = np.flatnonzero(oc.class_of == c)  # no row of c starts before its first member
        nbrs = np.flatnonzero(oc.adjacent[c][oc.class_of[mine[0] :]]) + mine[0]
        lists.append(tail_of[nbrs].tolist())
        start[mine] = np.searchsorted(nbrs, mine, side="right")
    for head, c, s in zip(heads, oc.class_of.tolist(), start.tolist()):
        if s < len(lists[c]):
            yield head + (sep + head).join(lists[c][s:])


def _dot_id(label: str) -> str:
    """A label as a quoted DOT ID, with ``\\`` and ``"`` escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_pieces(t: ThetaGraph) -> Iterator[str]:
    """The DOT document of ``export_dot`` in pieces: the node lines, then
    one piece per vertex with edges to higher vertices, then the closing brace."""
    oc = group_classes(t)
    ids = [_dot_id(label) for label in t.group.labels]
    yield "graph theta {\n" + "".join(f"  {v};\n" for v in ids)
    yield from _edge_rows(oc, [f"  {v} -- " for v in ids], [f"{v};\n" for v in ids], "")
    yield "}\n"


def json_pieces(t: ThetaGraph) -> Iterator[str]:
    """The JSON document of ``export_json`` in pieces: the fields before
    ``edges``, then one piece per vertex with edges to higher vertices, then
    the fields after.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` with ``edges`` a
    list of ``[i, j]`` pairs; only the small fields go through ``json``.
    """
    oc, n = group_classes(t), t.n_vertices
    before = json.dumps(
        {
            "group": {
                "family": t.group.family,
                "params": t.group.params,
                "order": t.group.size,
            },
            "labels": list(t.group.labels),
            "orders": list(t.group.orders),
        },
        indent=2,
    )
    after = json.dumps(
        {
            "degrees": t.degrees.tolist(),
            "warnings": [{"code": c, "message": m} for c, m in t.group.warnings],
        },
        indent=2,
    )
    rows = _edge_rows(
        oc, [f"    [\n      {i},\n      " for i in range(n)], [f"{j}\n    ]" for j in range(n)], ",\n"
    )
    # both dumps are "{\n" + top-level members + "\n}"; the edge rows go between them
    yield before[:-2] + ',\n  "edges": ['
    sep = "\n"
    for row in rows:
        yield sep + row
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + ",\n" + after[2:] + "\n"


def export_dot(t: ThetaGraph) -> str:
    """Undirected DOT document; nodes named by group labels, edges i<j."""
    return "".join(dot_pieces(t))


def export_json(t: ThetaGraph) -> str:
    """Graph as a JSON document: metadata, labels, orders, edges, degrees."""
    return "".join(json_pieces(t))
