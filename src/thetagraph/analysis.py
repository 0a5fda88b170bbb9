"""Assemble the full analysis report for one group.

The report is a plain JSON-serializable dict with fixed field names
(report_version 1). Every decided property carries the method that decided
it, and every witness is validated against the graph where it is made,
before it is embedded.
"""

from __future__ import annotations

import datetime as _dt

from . import properties as props
from . import spectra
from .graph import ThetaGraph, build_theta, prime_order_set
from .groups import GroupSpec, order_profile

__all__ = ["analyze_group", "spectrum_section"]

REPORT_VERSION = 1


def _spectrum_entries(result: spectra.SpectrumResult) -> list[dict]:
    return [
        {
            "value_display": display,
            "value_numeric": numeric,
            "multiplicity": mult,
            "kind": result.kind,
        }
        for display, numeric, mult in result.display_items()
    ]


def spectrum_section(t: ThetaGraph) -> dict:
    """Numeric spectrum always, from the order classes; the exact closed
    form and a match flag when the family and order shape are covered by one."""
    numeric = spectra.order_class_spectrum(t)
    section: dict = {"numeric": _spectrum_entries(numeric)}
    try:
        closed = spectra.closed_form_spectrum(t.group.family, t.group.params.get("n"))
    except spectra.UnsupportedFamilyError as exc:
        section["closed_form"] = None
        section["closed_form_supported"] = False
        section["closed_form_note"] = str(exc)
        section["match"] = None
        return section
    section["closed_form"] = _spectrum_entries(closed)
    section["closed_form_supported"] = True
    section["match"] = spectra.spectra_equal(closed, numeric, spectra.SPECTRUM_MATCH_TOL)
    return section


def analyze_group(
    g: GroupSpec,
    hamiltonian_budget: int = props.DEFAULT_NODE_BUDGET,
    timestamp: bool = True,
) -> dict:
    t = build_theta(g)
    n = t.n_vertices

    report: dict = {"report_version": REPORT_VERSION}
    if timestamp:
        report["generated_at"] = _dt.datetime.now(_dt.timezone.utc).isoformat()

    report["group"] = {
        "family": g.family,
        "params": g.params,
        "order": g.size,
        "identity": g.labels[g.identity_index],
        "order_profile": [[o, c] for o, c in order_profile(g).items()],
    }
    report["graph"] = {
        "vertices": n,
        "edges": t.edge_count,
        "min_degree": int(t.degrees.min()),
        "max_degree": int(t.degrees.max()),
    }

    connected = props.is_connected(t)
    diam = props.diameter(t)
    g_girth = props.girth(t)
    dom_number, dom_witness = props.domination_number(t)
    planar, planar_method = props.planarity_decision(t)
    ham = props.is_hamiltonian(t, node_budget=hamiltonian_budget)
    conn = props.vertex_connectivity(t)
    s_set = prime_order_set(t)
    classification = props.open_problem_classify(t)

    report["properties"] = {
        "connected": {"value": connected, "method": "bfs"},
        "diameter": {"value": diam, "method": "bfs"},
        "girth": {
            "value": None if g_girth == float("inf") else int(g_girth),
            "finite": g_girth != float("inf"),
            "method": "bfs",
        },
        "eulerian": {"value": props.is_eulerian(t), "method": "dual_criteria"},
        "complete": {"value": props.is_complete(t), "method": "dual_criteria"},
        "planar": {"value": planar, "method": planar_method},
        "hamiltonian": {
            "status": ham.status,
            "method": ham.method,
            "cycle": list(ham.cycle) if ham.cycle is not None else None,
            "nodes_explored": ham.nodes_explored,
            "witness_cut": sorted(ham.witness_cut) if ham.witness_cut else None,
        },
        "domination_number": {
            "value": dom_number,
            "witness": sorted(dom_witness),
            "method": "identity_universal",
        },
        "vertex_connectivity": {
            "value": conn.kappa,
            "method": conn.method,
            "witness_cut": sorted(conn.witness_cut) if conn.witness_cut else None,
        },
        "prime_order_set": {
            "size": len(s_set),
            "indices": sorted(s_set),
        },
        "open_problem_class": classification,
    }
    report["spectrum"] = spectrum_section(t)
    report["warnings"] = [{"code": c, "message": m} for c, m in t.group.warnings]
    return report
