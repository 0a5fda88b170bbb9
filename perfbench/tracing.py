"""Outside-in tracing: spans around the calls into each layer of thetagraph.

``Tracer`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id and a
count taken from the return value). It patches each module's own binding,
because ``cli``, ``analysis``, ``properties`` and ``verify`` import some
names directly and ``verify.run_suite`` binds ``build_theta`` as a default
argument. Nothing in the program is edited; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("groups", "graph", "numtheory", "properties", "spectra", "analysis", "verify")
# modules whose namespaces may hold a direct binding of a layer function
BINDERS = ("", "cli") + LAYERS

CONSTRUCTORS = tuple(
    f"groups.{name}"
    for name in ("cyclic", "dihedral", "dicyclic", "elementary_abelian", "heisenberg",
                 "direct_product", "from_orders")
)


def _count_of(qualname: str):
    """The count a span records, read from the wrapped call's return value."""
    if qualname == "spectra.eig_sym":
        return lambda r: r.dimension
    if qualname == "graph.build_theta":
        return lambda r: (r.n_vertices, r.edge_count)
    if qualname in ("graph.export_dot", "graph.export_json"):
        return len  # the text is ASCII, so characters are bytes
    if qualname == "properties.is_hamiltonian":
        return lambda r: r.nodes_explored
    if qualname in CONSTRUCTORS:
        return lambda r: r.size
    if qualname.startswith("verify.check_"):
        return lambda r: r.cases
    return None


class Tracer:
    """Records spans while installed; the spans stay in memory across installs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, count]
        self.op = None  # id of the op in progress
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        count_of = _count_of(qualname)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [qualname, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_of is not None:
                span[5] = count_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, package: str = "thetagraph") -> None:
        cli = importlib.import_module(f"{package}.cli")
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        verify = importlib.import_module(f"{package}.verify")
        for suite in verify.SUITES.values():
            for fn in suite:
                wrappers.setdefault(id(fn), self._wrap(f"verify.{fn.__name__}", fn))
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)
        for binder in BINDERS:
            mod = importlib.import_module(f"{package}.{binder}" if binder else package)
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(mod, name, wrappers[id(value)])
        self._set(verify, "SUITES", {
            name: tuple(wrappers[id(fn)] for fn in suite) for name, suite in verify.SUITES.items()
        })
        run_suite = verify.run_suite.__wrapped__
        self._set(run_suite, "__defaults__", tuple(
            wrappers.get(id(d), d) for d in run_suite.__defaults__
        ))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path) -> None:
        """Write the spans out after the run: a header line naming the
        fields, then one JSON array per span; a span's id is its position."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "count"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME = {
    "spectra.eig_sym_s": ("spectra.eig_sym",),
    "spectra.build_Q_s": ("spectra.build_Q",),
    "spectra.closed_form_s": ("spectra.closed_form_spectrum",),
    "spectra.compare_s": ("spectra.spectra_equal", "spectra.spectrum_contains"),
    "spectra.quotient_s": ("spectra.quotient_matrix", "spectra.is_equitable",
                           "spectra.quotient_spectrum"),
    "properties.vertex_connectivity_s": ("properties.vertex_connectivity",),
    "properties.classify_s": ("properties.open_problem_classify",),
    "properties.hamiltonian_s": ("properties.is_hamiltonian", "properties.validate_cycle"),
    "properties.bfs_s": ("properties.is_connected", "properties.diameter", "properties.girth",
                         "properties.components_after_removal"),
    "properties.planarity_s": ("properties.planarity_decision", "properties.is_planar"),
    "properties.dual_criteria_s": ("properties.is_eulerian", "properties.is_complete",
                                   "properties.is_singleton_dominating",
                                   "properties.domination_number"),
    "graph.build_theta_s": ("graph.build_theta",),
    "graph.export_s": ("graph.export_dot", "graph.export_json"),
    "cli.self_s": ("cli.main",),
    "groups.construct_s": CONSTRUCTORS,
    "analysis.analyze_group_s": ("analysis.analyze_group",),
    "analysis.spectrum_section_s": ("analysis.spectrum_section",),
    "verify.checks_s": ("verify.run_suite", "verify.check_"),  # a trailing _ is a prefix
}

PRIMALITY = ("numtheory.is_prime", "numtheory.is_one_or_prime")


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith("_") else name == p for p in patterns)


def layer_metrics(spans: list[list], ops) -> dict[str, float]:
    """Per-layer self times and counts over the spans of the given op ids.

    A span's self time is its duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _count in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {metric: 0.0 for metric in SELF_TIME}
    counts = {
        "spectra.eig_sym_calls": 0, "spectra.eig_dim": 0, "spectra.eig_bytes_computed": 0,
        "properties.vertex_connectivity_calls": 0, "properties.is_complete_calls": 0,
        "properties.hamiltonian_nodes": 0, "properties.is_connected_calls": 0,
        "graph.build_theta_calls": 0, "graph.adj_cells": 0, "graph.edges": 0,
        "numtheory.primality_calls": 0, "graph.export_bytes": 0, "groups.elements": 0,
        "verify.cases": 0,
    }
    for k, (name, start, end, parent, op, count) in enumerate(spans):
        if op not in ops:
            continue
        own = end - start - child_time[k]
        if count is None:  # the call raised; its op fails the output check anyway
            count = (0, 0) if name == "graph.build_theta" else 0
        for metric, patterns in SELF_TIME.items():
            if _matches(name, patterns):
                out[metric] += own
        if name == "spectra.eig_sym":
            counts["spectra.eig_sym_calls"] += 1
            counts["spectra.eig_dim"] += count
            counts["spectra.eig_bytes_computed"] += 8 * count * count
        elif name == "properties.vertex_connectivity":
            counts["properties.vertex_connectivity_calls"] += 1
        elif name == "properties.is_complete":
            counts["properties.is_complete_calls"] += 1
        elif name == "properties.is_connected":
            counts["properties.is_connected_calls"] += 1
        elif name == "properties.is_hamiltonian":
            counts["properties.hamiltonian_nodes"] += count
        elif name == "graph.build_theta":
            counts["graph.build_theta_calls"] += 1
            counts["graph.adj_cells"] += count[0] * count[0]
            counts["graph.edges"] += count[1]
        elif name in ("graph.export_dot", "graph.export_json"):
            counts["graph.export_bytes"] += count
        elif name in CONSTRUCTORS:
            counts["groups.elements"] += count
        elif name.startswith("verify.check_"):
            counts["verify.cases"] += count
        if name in PRIMALITY and (parent is None or spans[parent][0] not in PRIMALITY):
            counts["numtheory.primality_calls"] += 1
    out.update(counts)
    builds = counts["graph.build_theta_calls"]
    out["properties.kappa_calls_per_graph"] = (
        counts["properties.vertex_connectivity_calls"] / builds if builds else 0.0
    )
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
