"""The prime coprime graph of a finite group.

Vertices are the group elements; two distinct vertices are joined exactly
when the gcd of their element orders is 1 or a prime. Equal-order elements
are twins, so a graph is its twin quotient (``groups.TwinQuotient``); the
dense n x n ``adj`` is made only when something reads it, once per quotient.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .groups import GroupSpec, TwinQuotient

__all__ = [
    "ThetaGraph",
    "build_theta",
    "dot_pieces",
    "export_dot",
    "export_json",
    "from_adjacency",
    "json_pieces",
    "prime_order_set",
]


@dataclass(frozen=True, eq=False)
class ThetaGraph:
    """The graph of ``group``, the blow-up of ``quotient``, with read-only ``degrees``.
    Equality and hashing go by identity, as the per-graph ``facts`` do."""

    group: GroupSpec
    quotient: TwinQuotient
    degrees: np.ndarray = field(init=False)  # (n,) int64
    # facts computed from the graph, by name, once each (see properties._once_per_graph)
    facts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        degrees = self.quotient.degrees[self.quotient.class_of]
        degrees.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)

    @property
    def adj(self) -> np.ndarray:
        """(n, n) bool, read-only, symmetric, zero diagonal: the quotient's expansion."""
        return self.quotient.expansion

    @property
    def n_vertices(self) -> int:
        return self.group.size

    @property
    def edge_count(self) -> int:
        return int(self.quotient.degrees @ self.quotient.sizes) // 2


def build_theta(g: GroupSpec) -> ThetaGraph:
    """The graph of g over its order classes, whose quotient is made once per group."""
    return ThetaGraph(g, g.order_classes.quotient)


def from_adjacency(group: GroupSpec, adj) -> ThetaGraph:
    """A graph on the elements of ``group`` with the adjacency matrix ``adj``. Its
    classes, numbered in the byte order of the packed rows, are the vertices with equal
    rows: false twins, since the diagonal is zero. Raises ValueError unless adj is n x n
    for the group, symmetric and zero on the diagonal."""
    adj, n = np.asarray(adj, dtype=bool), group.size
    if adj.shape != (n, n) or not np.array_equal(adj, adj.T) or adj.diagonal().any():
        raise ValueError(f"not a symmetric {n} x {n} adjacency matrix with a zero diagonal")
    _, first, class_of = np.unique(np.packbits(adj, axis=1), axis=0, return_index=True, return_inverse=True)
    class_of = class_of.ravel()
    return ThetaGraph(group, TwinQuotient(class_of, adj[np.ix_(first, first)], np.bincount(class_of)))


def prime_order_set(t: ThetaGraph) -> frozenset[int]:
    """S(G): the indices of the identity and of all prime-order elements."""
    oc = t.group.order_classes
    return frozenset(np.flatnonzero(oc.one_or_prime[oc.class_of]).tolist())


# the text of each exact scalar type; a subclass of one is left to json.dumps
_JSON_SCALARS = {
    str: _quote, int: int.__repr__, type(None): lambda _: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),  # NaN, Infinity
}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, raising its TypeError where it does.
    With an indent the stdlib writes in pure Python, an item at a time; here a list of only
    ints or only strs is one C-level join. Private, so a tracer of the public functions
    leaves its time with the command that writes."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        items = (map(int.__repr__, value) if kinds == {int} else map(_quote, value) if kinds == {str}
                 else [_json_text(v, inner) for v in value])
        return "[" + inner + ("," + inner).join(items) + indent + "]" if value else "[]"
    if isinstance(value, dict):
        items = [_quote(k if isinstance(k, str) else _json_key(k)) + ": " + _json_text(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
    return json.dumps(value)


def _json_key(key) -> str:
    """A key that is not a str, as ``json`` writes it: an int, float, bool or None as its text."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# The edge rows go to the writer in blocks of at least this many characters, as each piece
# costs it about one OS write. Writing the K_1331 JSON export (30 MB) to a file took 56 ms
# a row at a time, 52 ms in 64 KiB blocks, 48 ms in 256 or 512 KiB blocks and 80 ms in
# 1 MiB blocks (2-vCPU VM, median of 40). A block is all the memory that streaming adds.
_PIECE_CHARS = 2**18


def _edge_rows(q: TwinQuotient, heads: list[str], tails: list[str], sep: str) -> Iterator[str]:
    """Yield the text of the edges i < j as ``heads[i] + tails[j]``, ascending, joined by
    ``sep``, in blocks of whole rows: every block but the last holds at least
    ``_PIECE_CHARS`` characters of rows, and at most that plus one row and its ``sep``.
    Every block after the first starts with its ``sep``, made in the same join, so the
    writer gets one piece per block.

    Vertices of one class are twins, met in vertex order: row i drops its class's tail list
    in place up to just past i, joins the rest with its head in the separator, and goes into
    the block as separator, head and row, so the block's join copies the row's text once.
    """
    tail_of, lists, skip = np.array(tails, dtype=object), [], np.empty(len(tails), dtype=np.int64)
    for c in range(len(q.adjacent)):
        mine = np.flatnonzero(q.class_of == c)  # no row of c starts before its first member
        nbrs = np.flatnonzero(q.adjacent[c][q.class_of[mine[0] :]]) + mine[0]
        lists.append(tail_of[nbrs].tolist())
        skip[mine] = np.diff(np.searchsorted(nbrs, mine, side="right"), prepend=0)  # beyond c's previous row
    block, size, lead = [], -len(sep), ""  # size is the length of the block's rows joined by sep
    for head, c, k in zip(heads, q.class_of.tolist(), skip.tolist()):
        del lists[c][:k]
        if lists[c]:
            row = (sep + head).join(lists[c])
            block += (lead, head, row)  # lead is sep but before the export's first row
            lead = sep
            size += len(sep) + len(head) + len(row)
            if size >= _PIECE_CHARS:
                yield "".join(block)
                block, size = [], -len(sep)
    if block:  # a row since the last block
        yield "".join(block)


def _dot_id(label: str) -> str:
    """A label as a quoted DOT ID, with ``\\`` and ``"`` escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_pieces(t: ThetaGraph) -> Iterator[str]:
    """The DOT document of ``export_dot`` in pieces: the node lines, then
    the edge lines in blocks of ``_edge_rows``, then the closing brace."""
    ids = [_dot_id(label) for label in t.group.labels]
    yield "graph theta {\n" + "".join(f"  {v};\n" for v in ids)
    yield from _edge_rows(t.quotient, [f"  {v} -- " for v in ids], [f"{v};\n" for v in ids], "")
    yield "}\n"


def json_pieces(t: ThetaGraph) -> Iterator[str]:
    """The JSON document of ``export_json`` in pieces: the fields before
    ``edges``, then the edge pairs in blocks of ``_edge_rows``, then the fields
    after.

    The text equals ``json.dumps(doc, indent=2) + "\\n"`` with ``edges`` a
    list of ``[i, j]`` pairs; only the small fields go through ``_json_text``.
    """
    n = t.n_vertices
    group = {"family": t.group.family, "params": t.group.params, "order": t.group.size}
    before = _json_text({"group": group, "labels": t.group.labels, "orders": t.group.orders})
    warnings = [{"code": c, "message": m} for c, m in t.group.warnings]
    after = _json_text({"degrees": t.degrees.tolist(), "warnings": warnings})
    rows = _edge_rows(
        t.quotient, [f"    [\n      {i},\n      " for i in range(n)], [f"{j}\n    ]" for j in range(n)], ",\n"
    )
    # both dumps are "{\n" + top-level members + "\n}"; the edge rows go between them
    edges = t.edge_count > 0
    yield before[:-2] + ',\n  "edges": [' + ("\n" if edges else "")
    yield from rows
    yield ("\n  ]" if edges else "]") + ",\n" + after[2:] + "\n"


def export_dot(t: ThetaGraph) -> str:
    """Undirected DOT document; nodes named by group labels, edges i<j."""
    return "".join(dot_pieces(t))


def export_json(t: ThetaGraph) -> str:
    """Graph as a JSON document: metadata, labels, orders, edges, degrees."""
    return "".join(json_pieces(t))
