"""Randomized cross-validation on graphs built from arbitrary order lists.

The pure graph computations (connectivity, hamiltonicity, structure) must be
correct for any order multiset, group or not; networkx and a plain
exhaustive search act as the independent oracles here. The dual-criterion
predicates are excluded on purpose: their theorems presuppose an actual
group, and a non-realizable order list is allowed to trip them (see
test_fake_profile_* below). So is the graph side of planarity, on the lists
whose graph has at most one universal vertex on five or more vertices.
"""

import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import thetagraph.properties
from thetagraph.graph import build_theta, from_adjacency
from thetagraph.groups import FAMILIES, enumerate_groups, from_orders, order_profile
from thetagraph.numtheory import is_one_or_prime
from thetagraph.properties import (
    CrossCheckError,
    _hamiltonian_search,
    _planar_graph_side,
    components_after_removal,
    girth,
    is_complete,
    is_eulerian,
    is_hamiltonian,
    planarity_decision,
    validate_cycle,
    vertex_connectivity,
)
from thetagraph.verify import corrupting_builder

from dense_view import edge_list

ORDER_POOL = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 25, 35)


def _graph_from_orders(orders):
    labels = [f"g{k}" for k in range(len(orders) + 1)]
    return build_theta(from_orders(labels, [1] + list(orders)))


def _nx_graph(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n_vertices))
    g.add_edges_from(edge_list(t))
    return g


orders_strategy = st.lists(st.sampled_from(ORDER_POOL), min_size=1, max_size=18)


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
def test_adjacency_invariants_hold_for_any_order_list(orders):
    t = _graph_from_orders(orders)
    n = t.n_vertices
    assert np.array_equal(t.adj, t.adj.T)
    assert not t.adj.diagonal().any()
    assert t.degrees[t.group.identity_index] == n - 1
    assert int(t.degrees.sum()) == 2 * t.edge_count
    for i in range(n):
        for j in range(n):
            expected = i != j and is_one_or_prime(
                math.gcd(t.group.orders[i], t.group.orders[j])
            )
            assert bool(t.adj[i, j]) is expected


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
def test_vertex_connectivity_matches_networkx_on_any_order_list(orders):
    t = _graph_from_orders(orders)
    conn = vertex_connectivity(t)
    assert conn.kappa == nx.node_connectivity(_nx_graph(t))
    assert conn.kappa <= t.degrees.min()
    if conn.witness_cut is not None:
        assert len(conn.witness_cut) == conn.kappa
        assert components_after_removal(t, conn.witness_cut) >= 2


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(ORDER_POOL), min_size=2, max_size=7))
def test_hamiltonian_pipeline_matches_exhaustive_search(orders):
    t = _graph_from_orders(orders)
    verdict = is_hamiltonian(t)
    assert verdict.status in ("yes", "no")
    oracle_status, _, _ = _hamiltonian_search(t, 10**7)
    assert verdict.status == oracle_status
    if verdict.status == "yes":
        assert validate_cycle(t, verdict.cycle)
    if verdict.witness_cut is not None:
        assert components_after_removal(t, verdict.witness_cut) > len(verdict.witness_cut)


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
def test_girth_matches_networkx_on_any_order_list(orders):
    t = _graph_from_orders(orders)
    assert girth(t) == nx.girth(_nx_graph(t))


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
@example([4, 4, 4, 9, 9, 9, 36])  # random lists seldom have one universal vertex within the edge bound
def test_planar_graph_side_matches_networkx_on_any_order_list(orders):
    t = _graph_from_orders(orders)
    g, n = _nx_graph(t), t.n_vertices
    universal = sum(d == n - 1 for _, d in g.degree())
    if n >= 5 and g.number_of_edges() <= 3 * n - 6 and universal <= 1:
        with pytest.raises(CrossCheckError, match="universal vertex on .*not the order profile"):
            _planar_graph_side(t)
    else:
        assert _planar_graph_side(t)[0] is bool(nx.check_planarity(g)[0])


# ---------------------------------------------------------------------------
# order classes against a brute-force count
# ---------------------------------------------------------------------------


def _assert_order_classes_match_brute_force(g):
    counts = Counter(g.orders)
    distinct = sorted(counts)
    oc = g.order_classes
    assert oc.orders.tolist() == distinct
    assert [distinct[c] for c in oc.class_of.tolist()] == list(g.orders)
    assert oc.one_or_prime.tolist() == [
        o == 1 or all(o % d for d in range(2, math.isqrt(o) + 1)) for o in distinct
    ]
    assert list(order_profile(g).items()) == sorted(counts.items())


def test_order_classes_match_brute_force_on_groups():
    for _, _, _, g in enumerate_groups(64, FAMILIES):
        _assert_order_classes_match_brute_force(g)


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
def test_order_classes_match_brute_force_on_any_order_list(orders):
    _assert_order_classes_match_brute_force(_graph_from_orders(orders).group)


def test_order_classes_are_derived_once_and_read_only():
    g = from_orders(["e", "a", "b", "c"], [1, 4, 2, 4])
    oc = g.order_classes
    assert g.order_classes is oc and oc.adjacent is oc.adjacent
    for a in (oc.orders, oc.class_of, oc.one_or_prime, oc.sizes, oc.adjacent):
        assert not a.flags.writeable
    assert oc.sizes.tolist() == [1, 1, 2]
    # orders 1, 2, 4: gcd 4 is the only one that is neither 1 nor a prime
    assert oc.adjacent.tolist() == [[True, True, True], [True, True, True], [True, True, False]]


# ---------------------------------------------------------------------------
# Ore's condition against a brute-force pair loop
# ---------------------------------------------------------------------------


def _ore_holds_brute_force(t):
    """deg(u) + deg(v) >= n for every non-adjacent pair, on n >= 3 vertices."""
    n = t.n_vertices
    degrees = t.adj.sum(axis=1).tolist()
    return n >= 3 and all(
        degrees[u] + degrees[v] >= n
        for u in range(n)
        for v in range(u + 1, n)
        if not t.adj[u, v]
    )


def _assert_ore_route_matches_oracle(t):
    verdict = is_hamiltonian(t, node_budget=1)
    assert (verdict.method == "ore_sufficient") == _ore_holds_brute_force(t)
    if verdict.method == "ore_sufficient":
        assert validate_cycle(t, verdict.cycle)


@pytest.mark.parametrize("build", [build_theta, corrupting_builder])
def test_ore_route_matches_brute_force_on_groups(build):
    for _, _, _, g in enumerate_groups(64, FAMILIES):
        _assert_ore_route_matches_oracle(build(g))


@settings(deadline=None, max_examples=60)
@given(orders_strategy)
def test_ore_route_matches_brute_force_on_any_order_list(orders):
    _assert_ore_route_matches_oracle(_graph_from_orders(orders))


def test_ore_route_and_rotation_match_brute_force_on_random_graphs(monkeypatch):
    # G(n, p) over a placeholder group: the low-degree Ore test against every pair,
    # and Palmer's rotation from starting cycles that have gaps
    scans = []
    gaps = thetagraph.properties._gaps
    monkeypatch.setattr(thetagraph.properties, "_gaps", lambda t, c: scans.append(1) or gaps(t, c))
    rng = np.random.default_rng(19)
    ore = rotated = 0
    for _ in range(400):
        n = int(rng.integers(3, 40))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.4, 1.0), k=1)
        t = from_adjacency(from_orders([f"v{k}" for k in range(n)], [1] + [2] * (n - 1)), upper | upper.T)
        scans.clear()
        _assert_ore_route_matches_oracle(t)
        if _ore_holds_brute_force(t):
            ore += 1
            rotated += len(scans) > 2  # more than the loop test and validate_cycle
    assert 400 > ore > 100 and rotated > 50


# ---------------------------------------------------------------------------
# non-realizable order lists and the dual-criterion predicates
# ---------------------------------------------------------------------------

# Lagrange-consistent but not the profile of any group: a group with an
# order-9 element has at least phi(9) = 6 of them.
FAKE_PROFILE = [1, 9, 3, 3, 3, 3, 3, 3, 3]


def _fake_graph():
    return build_theta(from_orders([f"g{k}" for k in range(9)], FAKE_PROFILE))


def test_fake_profile_trips_dual_criteria_with_diagnosis():
    t = _fake_graph()
    with pytest.raises(CrossCheckError, match="not the order profile"):
        is_eulerian(t)
    with pytest.raises(CrossCheckError, match="not the order profile"):
        is_complete(t)


# Lagrange-consistent but not the profile of any group either: the square of
# an element of order 6 has order 3, and the list has none. With one
# involution |S| = 2, which in a group means a planar graph, but the
# elements of orders 4 and 6 form a K_{3,3}.
FAKE_PLANAR_PROFILE = [1, 2, 4, 4, 4, 6, 6, 6, 12, 12, 12, 12]


def test_fake_profile_trips_the_planarity_cross_check():
    t = build_theta(from_orders([f"g{k}" for k in range(12)], FAKE_PLANAR_PROFILE))
    assert _planar_graph_side(t) == (False, "universal_vertices")
    with pytest.raises(CrossCheckError, match="not the order profile"):
        planarity_decision(t)


def test_fake_profile_graph_computations_still_work():
    t = _fake_graph()
    conn = vertex_connectivity(t)  # must not raise: pure graph quantity
    assert conn.kappa == nx.node_connectivity(_nx_graph(t))
    verdict = is_hamiltonian(t)
    assert verdict.status == "yes"  # complete graph on 9 vertices
    assert validate_cycle(t, verdict.cycle)
